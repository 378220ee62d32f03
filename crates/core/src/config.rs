//! ARK hardware configurations (Section V/VI) and the alternative
//! designs evaluated in Section VII-C.

/// On-chip data-distribution policy (Section V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataDistribution {
    /// The paper's policy: limb-wise for (I)NTT/automorphism/element-wise,
    /// coefficient-wise for BConv, switching via an all-to-all NoC
    /// exchange per BConvRoutine.
    Alternating,
    /// The Fig. 8 alternative: limb-wise only, with on-transit
    /// accumulation in the NoC; more traffic when `dnum > 2`.
    LimbWiseOnly,
}

/// One ARK hardware configuration.
#[derive(Debug, Clone)]
pub struct ArkConfig {
    /// Human-readable name for reports.
    pub name: String,
    /// Compute clusters (base: 4).
    pub clusters: usize,
    /// Vector lanes per cluster (√N = 256).
    pub lanes: usize,
    /// MAC units per BConv lane (base: 6; swept in Fig. 9(a)(b)).
    pub macs_per_bconv_lane: usize,
    /// MADUs per cluster (base: 2).
    pub madus_per_cluster: usize,
    /// Total scratchpad capacity in MiB (base: 512; swept in Fig. 9(c)(d)).
    pub scratchpad_mib: usize,
    /// Off-chip bandwidth in GB/s (base: 1,000 — two HBM2 stacks).
    pub hbm_gbps: f64,
    /// NoC bandwidth in GB/s (base: 8,000).
    pub noc_gbps: f64,
    /// Clock in GHz (base: 1.0).
    pub clock_ghz: f64,
    /// Data-distribution policy.
    pub distribution: DataDistribution,
    /// On-the-fly twisting-factor generation in the NTTU (OF-Twist).
    /// Disabling it reserves twisting-factor storage in the scratchpad
    /// and adds their load traffic.
    pub of_twist: bool,
}

impl ArkConfig {
    /// The baseline ARK of the paper.
    pub fn base() -> Self {
        Self {
            name: "ARK base".into(),
            clusters: 4,
            lanes: 256,
            macs_per_bconv_lane: 6,
            madus_per_cluster: 2,
            scratchpad_mib: 512,
            hbm_gbps: 1000.0,
            noc_gbps: 8000.0,
            clock_ghz: 1.0,
            distribution: DataDistribution::Alternating,
            of_twist: true,
        }
    }

    /// Baseline with the scratchpad halved to 256 MiB
    /// (Fig. 7 "Baseline (½ SRAM)").
    pub fn half_sram() -> Self {
        Self {
            name: "ARK ½-SRAM".into(),
            scratchpad_mib: 256,
            ..Self::base()
        }
    }

    /// Eight-cluster variant (Fig. 8 "2× clusters"): doubles compute,
    /// scratchpad size fixed at 512 MiB (bandwidth doubles with banks).
    pub fn two_x_clusters() -> Self {
        Self {
            name: "2x clusters".into(),
            clusters: 8,
            ..Self::base()
        }
    }

    /// Doubled off-chip bandwidth (Fig. 8 "2× HBM bandwidth").
    pub fn two_x_hbm() -> Self {
        Self {
            name: "2x HBM".into(),
            hbm_gbps: 2000.0,
            ..Self::base()
        }
    }

    /// Limb-wise-only data distribution (Fig. 8 "Alt. data
    /// distribution").
    pub fn limb_wise_only() -> Self {
        Self {
            name: "Alt. data distribution".into(),
            distribution: DataDistribution::LimbWiseOnly,
            ..Self::base()
        }
    }

    /// Scratchpad sweep point (Fig. 9(c)(d)).
    pub fn with_scratchpad(mib: usize) -> Self {
        Self {
            name: format!("ARK {mib}MB"),
            scratchpad_mib: mib,
            ..Self::base()
        }
    }

    /// BConv-lane MAC sweep point (Fig. 9(a)(b)).
    pub fn with_bconv_macs(macs: usize) -> Self {
        Self {
            name: format!("ARK {macs}-MAC"),
            macs_per_bconv_lane: macs,
            ..Self::base()
        }
    }

    /// Checks that the configuration describes a machine: every unit
    /// count at least 1, both bandwidths and the clock finite and
    /// positive. The fields are public, and a zero or non-finite rate
    /// has no schedule — [`crate::simulate`] panics on one.
    ///
    /// # Errors
    ///
    /// A sentence naming the first offending field and its value.
    pub fn validate(&self) -> Result<(), String> {
        let counts = [
            ("clusters", self.clusters),
            ("lanes", self.lanes),
            ("macs_per_bconv_lane", self.macs_per_bconv_lane),
            ("madus_per_cluster", self.madus_per_cluster),
        ];
        if let Some((field, _)) = counts.iter().find(|(_, count)| *count == 0) {
            return Err(format!(
                "ArkConfig `{}`: {field} must be at least 1",
                self.name
            ));
        }
        let rates = [
            ("hbm_gbps", self.hbm_gbps),
            ("noc_gbps", self.noc_gbps),
            ("clock_ghz", self.clock_ghz),
        ];
        match rates.iter().find(|(_, x)| !(x.is_finite() && *x > 0.0)) {
            Some((field, x)) => Err(format!(
                "ArkConfig `{}`: {field} = {x} must be finite and positive",
                self.name
            )),
            None => Ok(()),
        }
    }

    // ---- aggregate throughputs (work units per cycle, chip-wide) ----

    /// NTT butterflies per cycle: each cluster's pipelined 2D NTTU
    /// retires a √N-vector per cycle across `log N / 2 · √N` butterfly
    /// multipliers (F1-style; 2,048 per NTTU at N = 2^16).
    pub fn ntt_butterflies_per_cycle(&self, n: usize) -> f64 {
        let log_n = n.trailing_zeros() as f64;
        self.clusters as f64 * self.lanes as f64 * log_n / 2.0
    }

    /// BConv MACs per cycle: `clusters × lanes × MACs/lane`.
    pub fn bconv_macs_per_cycle(&self) -> f64 {
        (self.clusters * self.lanes * self.macs_per_bconv_lane) as f64
    }

    /// Automorphism words per cycle.
    pub fn auto_words_per_cycle(&self) -> f64 {
        (self.clusters * self.lanes) as f64
    }

    /// Element-wise (MADU) words per cycle.
    pub fn madu_words_per_cycle(&self) -> f64 {
        (self.clusters * self.lanes * self.madus_per_cluster) as f64
    }

    /// HBM words (8 B) per cycle.
    pub fn hbm_words_per_cycle(&self) -> f64 {
        self.hbm_gbps / 8.0 / self.clock_ghz
    }

    /// NoC words per cycle.
    pub fn noc_words_per_cycle(&self) -> f64 {
        self.noc_gbps / 8.0 / self.clock_ghz
    }

    /// Scratchpad bytes available for caching evaluation keys after the
    /// working set (in-flight polynomials, twisting factors when
    /// OF-Twist is off) is reserved.
    ///
    /// The reserve is sized as ~12 extended polynomials plus two
    /// ciphertexts at the given limb counts.
    pub fn evk_cache_bytes(&self, n: usize, max_limbs: usize) -> usize {
        let poly_bytes = max_limbs * n * 8;
        let mut reserve = 12 * poly_bytes;
        if !self.of_twist {
            // twisting-factor tables for every limb (≈30 MB at ARK
            // params — the storage OF-Twist eliminates, Section V-C)
            reserve += max_limbs * twist_storage_words(n, false) * 8;
        }
        (self.scratchpad_mib << 20).saturating_sub(reserve)
    }
}

/// Words of twisting-factor storage per limb for ARK's 4-step NTTU
/// (Section V-C), which runs a degree-`n` NTT as `n1`-point column
/// NTTs, a twist, and `n / n1`-point row NTTs, with
/// `n1 = 2^⌈log₂ n / 2⌉`.
///
/// Without OF-Twist the unit stores one factor per element for each of
/// its two twists: `n` for the ψ-twist of the negacyclic input and `n`
/// for the twist between the two passes, `2n` in all. Both twists are geometric progressions,
/// so with OF-Twist the unit generates them from a start value and a
/// common ratio per progression: one progression for the ψ-twist and
/// `n1` for the mid-pass twist, `2·(1 + n1)` words.
pub fn twist_storage_words(n: usize, of_twist: bool) -> usize {
    if of_twist {
        2 * (1 + (1 << n.trailing_zeros().div_ceil(2)))
    } else {
        2 * n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_paper_rates() {
        let c = ArkConfig::base();
        // 4 NTTUs × 2,048 modular multipliers (Section III-C scaling)
        assert_eq!(c.ntt_butterflies_per_cycle(1 << 16), 8192.0);
        // 4 × 256 × 6 = 6,144 BConv MACs
        assert_eq!(c.bconv_macs_per_cycle(), 6144.0);
        // 1 TB/s = 125 words/cycle at 1 GHz
        assert_eq!(c.hbm_words_per_cycle(), 125.0);
        assert_eq!(c.noc_words_per_cycle(), 1000.0);
    }

    #[test]
    fn variants_differ_where_expected() {
        assert_eq!(ArkConfig::two_x_clusters().clusters, 8);
        assert_eq!(ArkConfig::two_x_hbm().hbm_gbps, 2000.0);
        assert_eq!(ArkConfig::half_sram().scratchpad_mib, 256);
        assert_eq!(
            ArkConfig::limb_wise_only().distribution,
            DataDistribution::LimbWiseOnly
        );
    }

    #[test]
    fn validate_accepts_the_shipped_configs_and_names_the_bad_field() {
        for cfg in [
            ArkConfig::base(),
            ArkConfig::half_sram(),
            ArkConfig::two_x_clusters(),
            ArkConfig::two_x_hbm(),
            ArkConfig::limb_wise_only(),
            ArkConfig::with_scratchpad(128),
            ArkConfig::with_bconv_macs(1),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{}", cfg.name);
        }
        let no_compute = ArkConfig {
            clusters: 0,
            ..ArkConfig::base()
        };
        assert!(no_compute.validate().unwrap_err().contains("clusters"));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let no_memory = ArkConfig {
                hbm_gbps: bad,
                ..ArkConfig::base()
            };
            assert!(no_memory.validate().unwrap_err().contains("hbm_gbps"));
            let no_clock = ArkConfig {
                clock_ghz: bad,
                ..ArkConfig::base()
            };
            assert!(no_clock.validate().unwrap_err().contains("clock_ghz"));
        }
    }

    #[test]
    fn evk_cache_holds_a_couple_of_keys_at_base() {
        let c = ArkConfig::base();
        let n = 1 << 16;
        let max_limbs = 30; // α + L + 1 at ARK params
        let evk_bytes = 4 * 2 * max_limbs * n * 8; // 120 MB
        let cache = c.evk_cache_bytes(n, max_limbs);
        let fits = cache / evk_bytes;
        assert!(
            (2..=3).contains(&fits),
            "base config should hold 2-3 evks, holds {fits}"
        );
        // half-SRAM holds none fully resident
        let half = ArkConfig::half_sram().evk_cache_bytes(n, max_limbs);
        assert!(half / evk_bytes < 1);
    }

    #[test]
    fn of_twist_reserves_storage_when_off() {
        let mut c = ArkConfig::base();
        let with = c.evk_cache_bytes(1 << 16, 30);
        // with OF-Twist on, only the 12-polynomial working set is reserved
        assert_eq!(with, (512 << 20) - 12 * 30 * (1 << 16) * 8);
        c.of_twist = false;
        let without = c.evk_cache_bytes(1 << 16, 30);
        // 2 × 30 × 2^16 × 8 = 30 MiB difference (the paper's figure)
        assert_eq!(with - without, 30 << 20);
        assert_eq!(with - without, 30 * twist_storage_words(1 << 16, false) * 8);
    }

    #[test]
    fn of_twist_removes_nearly_all_twisting_factor_storage() {
        let saving =
            |n| 1.0 - twist_storage_words(n, true) as f64 / twist_storage_words(n, false) as f64;
        // the figures `paper oftwist` prints
        assert_eq!(twist_storage_words(1 << 12, false), 8192);
        assert_eq!(twist_storage_words(1 << 12, true), 130);
        assert_eq!(format!("{:.1}", 100.0 * saving(1 << 12)), "98.4");
        // an odd log₂ N puts the larger half on the columns
        assert_eq!(twist_storage_words(1 << 11, true), 2 * (1 + 64));
        // the paper's claim at its own ring degree
        let n = ark_ckks::params::CkksParams::ark().n();
        assert_eq!(n, 1 << 16);
        assert!(saving(n) >= 0.99, "saving was {}", saving(n));
    }
}
