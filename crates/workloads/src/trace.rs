//! HE-op trace IR: the sequence of primitive HE ops a workload executes.
//!
//! FHE programs have no data-dependent control flow (Section VI of the
//! paper — static scheduling and software prefetch are possible because
//! of this), so a workload is fully described by its op sequence with
//! level annotations. The ARK compiler in `ark-core` consumes these
//! traces; the analytic counters in [`crate::counts`] fold over them.

/// Identifier of an evaluation key a key-switching op consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KeyId {
    /// The multiplication key (`evk_mult`).
    Mult,
    /// A rotation key for a specific amount (`evk_rot^{(r)}`).
    Rot(i64),
    /// The conjugation key.
    Conj,
}

/// One primitive HE op (Table II), annotated with the multiplicative
/// level it executes at.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeOp {
    /// Ciphertext × ciphertext with relinearization.
    HMult { level: usize },
    /// Ciphertext × plaintext. `fresh_plaintext` is false when the same
    /// plaintext was used shortly before (no reload even without
    /// OF-Limb).
    PMult { level: usize, fresh_plaintext: bool },
    /// Ciphertext + plaintext.
    PAdd { level: usize, fresh_plaintext: bool },
    /// Ciphertext + ciphertext.
    HAdd { level: usize },
    /// Rotation by `amount` using `key`.
    HRot {
        level: usize,
        amount: i64,
        key: KeyId,
    },
    /// One rotation of a *hoisted* group (Halevi–Shoup hoisting): the
    /// group shares a single digit decomposition + ModUp of its common
    /// input; each member then applies the Galois permutation on the
    /// raised digits, its evk inner product, and its own ModDown.
    /// `fresh_digits` marks the member that pays the shared
    /// decomposition — subsequent members of a contiguous group reuse
    /// it, which is exactly the BConv/NTT reduction the compiler must
    /// model (any intervening non-hoisted op invalidates the digits).
    HRotHoisted {
        level: usize,
        amount: i64,
        key: KeyId,
        fresh_digits: bool,
    },
    /// Complex conjugation.
    HConj { level: usize },
    /// Scalar multiplication (no key, no plaintext load).
    CMult { level: usize },
    /// Scalar addition.
    CAdd { level: usize },
    /// Rescale from `level` to `level − 1`.
    HRescale { level: usize },
    /// ModRaise from level 0 to the maximum level.
    ModRaise,
}

impl HeOp {
    /// The level the op's inputs live at.
    pub fn level(&self) -> usize {
        match *self {
            HeOp::HMult { level }
            | HeOp::PMult { level, .. }
            | HeOp::PAdd { level, .. }
            | HeOp::HAdd { level }
            | HeOp::HRot { level, .. }
            | HeOp::HRotHoisted { level, .. }
            | HeOp::HConj { level }
            | HeOp::CMult { level }
            | HeOp::CAdd { level }
            | HeOp::HRescale { level } => level,
            HeOp::ModRaise => 0,
        }
    }

    /// The evaluation key the op loads, if any.
    pub fn key(&self) -> Option<KeyId> {
        match *self {
            HeOp::HMult { .. } => Some(KeyId::Mult),
            HeOp::HRot { key, .. } | HeOp::HRotHoisted { key, .. } => Some(key),
            HeOp::HConj { .. } => Some(KeyId::Conj),
            _ => None,
        }
    }

    /// True if the op performs a key-switching.
    pub fn is_key_switch(&self) -> bool {
        self.key().is_some()
    }
}

/// A workload trace: ordered HE ops plus bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    ops: Vec<HeOp>,
    /// Human-readable name for reports.
    pub name: String,
}

impl Trace {
    /// An empty trace.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            ops: Vec::new(),
            name: name.into(),
        }
    }

    /// Appends an op.
    pub fn push(&mut self, op: HeOp) {
        self.ops.push(op);
    }

    /// Appends all ops of another trace.
    pub fn extend(&mut self, other: &Trace) {
        self.ops.extend_from_slice(&other.ops);
    }

    /// The ops in execution order.
    pub fn ops(&self) -> &[HeOp] {
        &self.ops
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if no ops recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Count of ops satisfying a predicate.
    pub fn count(&self, pred: impl Fn(&HeOp) -> bool) -> usize {
        self.ops.iter().filter(|op| pred(op)).count()
    }

    /// Number of key-switching ops (HMult + HRot + HConj).
    pub fn key_switch_count(&self) -> usize {
        self.count(HeOp::is_key_switch)
    }

    /// Number of digit decompositions (ModUps) the trace pays: every
    /// non-hoisted key-switch runs its own, while hoisted rotations
    /// only pay on `fresh_digits` — the quantity hoisting minimizes.
    pub fn decompose_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| match op {
                HeOp::HRotHoisted { fresh_digits, .. } => *fresh_digits,
                other => other.is_key_switch(),
            })
            .count()
    }

    /// Number of *distinct* evaluation keys touched — the quantity
    /// Min-KS minimizes (Fig. 1).
    pub fn distinct_keys(&self) -> usize {
        let mut keys: Vec<KeyId> = self.ops.iter().filter_map(HeOp::key).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// Per-kind op histogram, for reports.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for op in &self.ops {
            match op {
                HeOp::HMult { .. } => s.hmult += 1,
                HeOp::PMult { .. } => s.pmult += 1,
                HeOp::PAdd { .. } => s.padd += 1,
                HeOp::HAdd { .. } => s.hadd += 1,
                HeOp::HRot { .. } => s.hrot += 1,
                HeOp::HRotHoisted { .. } => s.hrot_hoisted += 1,
                HeOp::HConj { .. } => s.hconj += 1,
                HeOp::CMult { .. } => s.cmult += 1,
                HeOp::CAdd { .. } => s.cadd += 1,
                HeOp::HRescale { .. } => s.hrescale += 1,
                HeOp::ModRaise => s.mod_raise += 1,
            }
        }
        s
    }
}

impl std::fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (label, count) in [
            ("HMult", self.hmult),
            ("PMult", self.pmult),
            ("PAdd", self.padd),
            ("HAdd", self.hadd),
            ("HRot", self.hrot),
            ("HRotH", self.hrot_hoisted),
            ("HConj", self.hconj),
            ("CMult", self.cmult),
            ("CAdd", self.cadd),
            ("HRescale", self.hrescale),
            ("ModRaise", self.mod_raise),
        ] {
            if count > 0 {
                if !first {
                    write!(f, "  ")?;
                }
                write!(f, "{label}:{count}")?;
                first = false;
            }
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Histogram of op kinds in a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct TraceSummary {
    pub hmult: usize,
    pub pmult: usize,
    pub padd: usize,
    pub hadd: usize,
    pub hrot: usize,
    pub hrot_hoisted: usize,
    pub hconj: usize,
    pub cmult: usize,
    pub cadd: usize,
    pub hrescale: usize,
    pub mod_raise: usize,
}

impl TraceSummary {
    /// Combines two histograms kind by kind: `f(self.k, other.k)` for
    /// every op kind `k`.
    pub fn zip_with(
        &self,
        other: &TraceSummary,
        f: impl Fn(usize, usize) -> usize,
    ) -> TraceSummary {
        TraceSummary {
            hmult: f(self.hmult, other.hmult),
            pmult: f(self.pmult, other.pmult),
            padd: f(self.padd, other.padd),
            hadd: f(self.hadd, other.hadd),
            hrot: f(self.hrot, other.hrot),
            hrot_hoisted: f(self.hrot_hoisted, other.hrot_hoisted),
            hconj: f(self.hconj, other.hconj),
            cmult: f(self.cmult, other.cmult),
            cadd: f(self.cadd, other.cadd),
            hrescale: f(self.hrescale, other.hrescale),
            mod_raise: f(self.mod_raise, other.mod_raise),
        }
    }

    /// Per-kind saturating difference — subtracting a known sub-trace
    /// histogram (e.g. the analytic bootstrap trace) from a full run's
    /// histogram to isolate the remaining program's op counts.
    pub fn saturating_sub(&self, other: &TraceSummary) -> TraceSummary {
        self.zip_with(other, usize::saturating_sub)
    }

    /// Per-kind scaling — `n` repetitions of a sub-trace histogram.
    pub fn scaled(&self, n: usize) -> TraceSummary {
        self.zip_with(self, |count, _| count * n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_bookkeeping() {
        let mut t = Trace::new("demo");
        t.push(HeOp::HRot {
            level: 5,
            amount: 3,
            key: KeyId::Rot(3),
        });
        t.push(HeOp::HRot {
            level: 5,
            amount: 6,
            key: KeyId::Rot(3),
        });
        t.push(HeOp::HMult { level: 5 });
        t.push(HeOp::HRescale { level: 5 });
        assert_eq!(t.len(), 4);
        assert_eq!(t.key_switch_count(), 3);
        // two rotations reuse the same key (Min-KS style)
        assert_eq!(t.distinct_keys(), 2);
        let s = t.summary();
        assert_eq!(s.hrot, 2);
        assert_eq!(s.hmult, 1);
        assert_eq!(s.hrescale, 1);
    }

    #[test]
    fn hoisted_ops_share_decompositions_in_the_accounting() {
        let mut t = Trace::new("hoisted");
        for (i, amount) in [1i64, 2, 3].into_iter().enumerate() {
            t.push(HeOp::HRotHoisted {
                level: 4,
                amount,
                key: KeyId::Rot(amount),
                fresh_digits: i == 0,
            });
        }
        t.push(HeOp::HMult { level: 4 });
        assert_eq!(
            t.key_switch_count(),
            4,
            "hoisted rotations still key-switch"
        );
        assert_eq!(t.decompose_count(), 2, "one shared ModUp + HMult's own");
        assert_eq!(t.distinct_keys(), 4);
        assert_eq!(t.summary().hrot_hoisted, 3);
    }

    #[test]
    fn key_identity() {
        assert_eq!(HeOp::HMult { level: 1 }.key(), Some(KeyId::Mult));
        assert_eq!(HeOp::CMult { level: 1 }.key(), None);
        assert!(!HeOp::PMult {
            level: 1,
            fresh_plaintext: true
        }
        .is_key_switch());
    }
}
