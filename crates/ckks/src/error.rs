//! Typed errors for the fallible public entry points.
//!
//! The library distinguishes *usage errors* — conditions a caller can
//! trigger with well-typed but semantically malformed inputs (mismatched
//! levels or scales, a missing rotation key, an exhausted modulus
//! chain) — from *invariant violations*, which remain `panic!`/`expect`
//! sites because they indicate a bug inside the library, not misuse.
//! Every fallible public operation returns [`ArkResult`] with a typed
//! [`ArkError`] so the library composes as a service component.
//!
//! I/O adds two more families: [`ArkError::Wire`] wraps the typed
//! wire-format failures of [`ark_math::wire`] (truncation, corruption,
//! parameter mismatch — conditions attacker-controlled bytes can
//! trigger, which therefore must never panic), and [`ArkError::Serve`]
//! covers serving-runtime failures (protocol violations, backpressure,
//! session limits, transport loss).

/// Errors surfaced by the CKKS scheme and the `ark-fhe` engine layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArkError {
    /// Two ciphertext operands (or a requested level) disagree on the
    /// multiplicative level.
    LevelMismatch {
        /// Level expected by the operation.
        expected: usize,
        /// Level actually found.
        found: usize,
    },
    /// Additive operands carry diverging scales; rescale or re-encode
    /// one side first.
    ScaleMismatch {
        /// Scale of the left operand.
        lhs: f64,
        /// Scale of the right operand.
        rhs: f64,
    },
    /// No rotation key was generated (or declared) for this amount.
    MissingRotationKey {
        /// The requested rotation amount.
        amount: i64,
    },
    /// No conjugation key was generated (or declared).
    MissingConjugationKey,
    /// The ciphertext sits at level 0: no limb is left to rescale away.
    ModulusChainExhausted,
    /// A requested level exceeds the parameter set's maximum.
    LevelOutOfRange {
        /// The requested level.
        level: usize,
        /// The maximum level of the parameter set.
        max: usize,
    },
    /// The engine was asked for a key material it was not built with
    /// (e.g. bootstrapping without a bootstrap configuration).
    KeyChainMissing {
        /// What is missing.
        what: &'static str,
    },
    /// The operation is not available on the engine's backend (e.g.
    /// decryption on the simulated backend).
    UnsupportedOnBackend {
        /// The operation.
        op: &'static str,
        /// The backend it was attempted on.
        backend: &'static str,
    },
    /// The parameter set is internally inconsistent.
    InvalidParams {
        /// Human-readable reason.
        reason: String,
    },
    /// A session built without an explicit seed could not read the
    /// operating system's entropy source to seed itself.
    EntropyUnavailable {
        /// Human-readable reason.
        reason: String,
    },
    /// A wire-format read failed: truncation, corruption, version or
    /// parameter-set mismatch (see [`ark_math::wire::WireError`]).
    Wire(ark_math::wire::WireError),
    /// A serving-runtime failure: protocol violation, backpressure
    /// rejection, session resource limit, or transport loss.
    Serve {
        /// Human-readable reason.
        reason: String,
    },
    /// The server load-shed the request: its job queue was full.
    /// Transient by design —
    /// retry after the hinted delay instead of treating it as failure.
    Busy {
        /// Server-suggested backoff before retrying, in milliseconds.
        retry_after_ms: u32,
    },
    /// The handshake was rejected because the client and server share
    /// no protocol version — upgrade one side; retrying cannot help.
    VersionMismatch {
        /// The version the client offered in `HELLO`.
        client: u16,
        /// The rejecting side's stated reason (its supported range).
        reason: String,
    },
}

impl From<ark_math::wire::WireError> for ArkError {
    fn from(e: ark_math::wire::WireError) -> Self {
        ArkError::Wire(e)
    }
}

impl std::fmt::Display for ArkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArkError::LevelMismatch { expected, found } => {
                write!(
                    f,
                    "level mismatch: expected level {expected}, found {found}"
                )
            }
            ArkError::ScaleMismatch { lhs, rhs } => {
                write!(f, "operand scales diverge: {lhs} vs {rhs}")
            }
            ArkError::MissingRotationKey { amount } => {
                write!(f, "missing rotation key for amount {amount}")
            }
            ArkError::MissingConjugationKey => write!(f, "missing conjugation key"),
            ArkError::ModulusChainExhausted => {
                write!(f, "modulus chain exhausted: cannot rescale at level 0")
            }
            ArkError::LevelOutOfRange { level, max } => {
                write!(f, "level {level} out of range (maximum {max})")
            }
            ArkError::KeyChainMissing { what } => {
                write!(f, "key chain is missing {what}")
            }
            ArkError::UnsupportedOnBackend { op, backend } => {
                write!(
                    f,
                    "operation `{op}` is unsupported on the {backend} backend"
                )
            }
            ArkError::InvalidParams { reason } => write!(f, "invalid parameters: {reason}"),
            ArkError::EntropyUnavailable { reason } => {
                write!(f, "no entropy to seed the session: {reason}")
            }
            ArkError::Wire(e) => write!(f, "wire format error: {e}"),
            ArkError::Serve { reason } => write!(f, "serving error: {reason}"),
            ArkError::Busy { retry_after_ms } => {
                write!(f, "server busy: retry after {retry_after_ms} ms")
            }
            ArkError::VersionMismatch { client, reason } => {
                write!(
                    f,
                    "protocol version mismatch: client offered v{client}, {reason}"
                )
            }
        }
    }
}

impl std::error::Error for ArkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ArkError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

/// Result alias used by every fallible public entry point.
pub type ArkResult<T> = Result<T, ArkError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = ArkError::MissingRotationKey { amount: -3 };
        assert!(e.to_string().contains("-3"));
        let e = ArkError::LevelMismatch {
            expected: 4,
            found: 2,
        };
        assert!(e.to_string().contains('4') && e.to_string().contains('2'));
        let e = ArkError::UnsupportedOnBackend {
            op: "decrypt",
            backend: "simulated",
        };
        assert!(e.to_string().contains("decrypt"));
    }

    #[test]
    fn error_trait_object_safe() {
        let e: Box<dyn std::error::Error> = Box::new(ArkError::ModulusChainExhausted);
        assert!(!e.to_string().is_empty());
    }
}
