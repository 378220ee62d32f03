//! [`EngineBuilder`]: declares a session and builds its shape, keys
//! and backend state once.

use super::keys::{KeyChain, DEFAULT_RUNTIME_KEY_CAPACITY};
use super::software::SoftwareState;
use super::{Backend, BackendState, Engine};
use crate::error::{ArkError, ArkResult};
use crate::verify::VerifyContext;
use ark_ckks::bootstrap::{BootstrapConfig, Bootstrapper};
use ark_ckks::evalmod::EvalMod;
use ark_ckks::params::{CkksContext, CkksParams};
use ark_math::par::{self, ThreadPool};
use ark_workloads::bootstrap::BootstrapTraceConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Derives the analytic bootstrap sub-trace configuration a session
/// with `cfg` would fix at build time — the same derivation
/// [`EngineBuilder::build`] performs, exposed so key-free consumers
/// (static verification, the scenario `verify` CLI) can model bootstrap
/// level consumption without constructing an engine.
///
/// The slot count changes what a bootstrap costs, never the level it
/// returns: `spare_levels` is the full-slot pipeline's output level,
/// so a sparse bootstrap mod-raises only as far as it consumes, and a
/// full-slot one is traced exactly as on the untruncated chain.
pub fn bootstrap_trace_config(params: &CkksParams, cfg: &BootstrapConfig) -> BootstrapTraceConfig {
    let full = BootstrapTraceConfig {
        slots_log2: params.log_n - 1,
        radix_log2: cfg.radix_log2.max(1) as u32,
        strategy: cfg.strategy,
        evalmod_degree: cfg.evalmod.degree,
        evalmod_doublings: EvalMod::DOUBLINGS,
        spare_levels: None,
    };
    BootstrapTraceConfig {
        slots_log2: cfg.slots.map_or(full.slots_log2, |n| n.trailing_zeros()),
        spare_levels: Some(params.max_level.saturating_sub(full.levels_consumed())),
        ..full
    }
}

/// Eight bytes of operating-system entropy: the seed of a software
/// session built without [`EngineBuilder::seed`].
fn entropy_seed() -> ArkResult<u64> {
    read_seed(Path::new("/dev/urandom"))
}

/// The first eight bytes of `source` as a little-endian seed.
fn read_seed(source: &Path) -> ArkResult<u64> {
    let mut bytes = [0u8; 8];
    File::open(source)
        .and_then(|mut file| file.read_exact(&mut bytes))
        .map_err(|e| ArkError::EntropyUnavailable {
            reason: format!(
                "{} could not be read ({e}); set EngineBuilder::seed",
                source.display()
            ),
        })?;
    Ok(u64::from_le_bytes(bytes))
}

/// Builder for [`Engine`] — declare the parameter set, backend, key
/// set and (optionally) bootstrapping support, then [`build`](Self::build).
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct EngineBuilder {
    params: Option<CkksParams>,
    backend: Backend,
    seed: Option<u64>,
    rotations: Vec<i64>,
    conjugation: bool,
    runtime_keys: bool,
    runtime_key_capacity: usize,
    bootstrapping: Option<BootstrapConfig>,
    threads: Option<usize>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self {
            params: None,
            backend: Backend::Software,
            seed: None,
            rotations: Vec::new(),
            conjugation: false,
            runtime_keys: false,
            runtime_key_capacity: DEFAULT_RUNTIME_KEY_CAPACITY,
            bootstrapping: None,
            threads: None,
        }
    }
}

impl EngineBuilder {
    /// Sets the CKKS parameter set (required).
    pub fn params(mut self, params: CkksParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Selects the backend (default: [`Backend::Software`]).
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Seeds key generation and encryption randomness, for a
    /// reproducible session. Without it a software session seeds
    /// itself from 8 bytes of `/dev/urandom`, so no two default
    /// sessions share a secret key or a stream of ciphertext seeds.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Declares rotation amounts the session will use; keys are
    /// generated once at build time.
    pub fn rotations(mut self, amounts: &[i64]) -> Self {
        self.rotations.extend_from_slice(amounts);
        self
    }

    /// Declares the conjugation key.
    pub fn conjugation(mut self, on: bool) -> Self {
        self.conjugation = on;
        self
    }

    /// Enables runtime rotation-key generation (default **off**, the
    /// eager-declaration compatibility mode): on a software-backend
    /// rotate or conjugate whose key was never declared, the session
    /// derives the key on demand from the chain's master seed into a
    /// bounded LRU cache ([`Self::runtime_key_capacity`]) instead of
    /// returning [`ArkError::MissingRotationKey`]. Derivation is
    /// deterministic per `(seed, Galois element)`, so a runtime key is
    /// bit-identical to the key an eager declaration would have
    /// produced — results do not depend on which mode generated the
    /// key. The trace backend mirrors the policy (undeclared rotations
    /// record instead of erroring), keeping cross-backend parity.
    pub fn runtime_keys(mut self, on: bool) -> Self {
        self.runtime_keys = on;
        self
    }

    /// Bounds the runtime rotation-key LRU (entries; default
    /// [`DEFAULT_RUNTIME_KEY_CAPACITY`], clamped to ≥ 1). Only
    /// meaningful with [`Self::runtime_keys`]. Evicted keys cost one
    /// keygen to re-derive — size the cache to the working set of
    /// distinct Galois elements your programs touch between reuses.
    pub fn runtime_key_capacity(mut self, entries: usize) -> Self {
        self.runtime_key_capacity = entries.max(1);
        self
    }

    /// Enables [`super::HeEvaluator::bootstrap`]: generates the transform
    /// rotation keys (software) and fixes the analytic bootstrap
    /// sub-trace (both backends). Implies the conjugation key.
    pub fn bootstrapping(mut self, config: BootstrapConfig) -> Self {
        self.bootstrapping = Some(config);
        self
    }

    /// Threads the software backend fans limb-level hot loops out on
    /// (NTT, base conversion, key-switching, element-wise arithmetic).
    /// Defaults to the host's available parallelism; `threads(1)` is the
    /// strictly serial path and any width is bit-identical to it —
    /// thread count changes throughput, never results or recorded
    /// traces. Threads are spawned per fan-out, only for loops above
    /// [`ark_math::par::DEFAULT_MIN_DISPATCH_WORDS`] words (so at
    /// `N = 2^10` every loop runs on the caller), and a spawn the OS
    /// refuses runs its chunk on the caller. The trace backend records
    /// symbolically and ignores the setting.
    ///
    /// `threads(0)` is **silently clamped to 1** rather than rejected:
    /// a zero often arrives from a computed value (host probing, a
    /// config file defaulting to "unset"), and the serial session it
    /// yields is always correct — so the builder stays infallible here
    /// and `threads(0)` builds an engine observably identical to
    /// `threads(1)` ([`Engine::threads`] reports `1`, and all outputs
    /// are bit-identical; see the `threads_zero_clamps_to_one`
    /// regression test).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Builds the engine, generating the [`KeyChain`] on the software
    /// backend.
    ///
    /// # Errors
    ///
    /// [`ArkError::EntropyUnavailable`] if a software session has no
    /// [`Self::seed`] and `/dev/urandom` cannot be read;
    /// [`ArkError::InvalidParams`] if no parameter set was given or the
    /// set is internally inconsistent (`dnum` must divide `L+1`, chain
    /// primes must be 3 to 61 bits wide, a bootstrap configuration must
    /// fit the chain and refresh a power-of-two slot count in
    /// `[2, N/2]`), or if a [`Backend::Simulated`] configuration
    /// fails [`ArkConfig::validate`](crate::arch::ArkConfig::validate).
    pub fn build(self) -> ArkResult<Engine> {
        let params = self.params.ok_or(ArkError::InvalidParams {
            reason: "EngineBuilder::params was never called".into(),
        })?;
        let shape = VerifyContext::new(
            params,
            &self.rotations,
            self.conjugation,
            self.bootstrapping.as_ref(),
            self.runtime_keys,
        )?;
        let pool = ThreadPool::new(self.threads.unwrap_or_else(par::available_parallelism));
        let threads = pool.threads();
        let state = match self.backend {
            Backend::Software => {
                let seed = match self.seed {
                    Some(seed) => seed,
                    None => entropy_seed()?,
                };
                let ctx = CkksContext::with_pool(shape.params().clone(), pool);
                let mut rng = StdRng::seed_from_u64(seed);
                let declared = shape.declared().clone();
                let mut keygen_rotations: Vec<i64> = declared.rotations().collect();
                let boot = self.bootstrapping.map(|cfg| {
                    let bootstrapper = Bootstrapper::new(&ctx, cfg);
                    // transform keys are generated but NOT added to the
                    // declared set: they are internal to bootstrap, and
                    // every evaluator must resolve the same user-facing
                    // rotation set
                    keygen_rotations.extend(bootstrapper.required_rotations());
                    bootstrapper
                });
                let keys = KeyChain::generate(
                    &ctx,
                    declared,
                    &keygen_rotations,
                    self.runtime_keys.then_some(self.runtime_key_capacity),
                    &mut rng,
                );
                BackendState::Software(Box::new(SoftwareState {
                    ctx,
                    keys,
                    rng,
                    boot,
                }))
            }
            Backend::Simulated(cfg) => {
                cfg.validate()
                    .map_err(|reason| ArkError::InvalidParams { reason })?;
                BackendState::Simulated(cfg)
            }
        };
        Ok(Engine {
            shape,
            state,
            threads,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ark_ckks::evalmod::EvalMod;
    use ark_workloads::bootstrap::post_bootstrap_level;

    #[test]
    fn an_unreadable_entropy_source_is_its_own_typed_error() {
        let missing = Path::new(env!("CARGO_MANIFEST_DIR")).join("no-such-entropy-source");
        let err = read_seed(&missing).unwrap_err();
        assert!(
            matches!(err, ArkError::EntropyUnavailable { .. }),
            "{err:?}"
        );
        let msg = err.to_string();
        assert!(msg.starts_with("no entropy to seed the session: "), "{msg}");
        assert!(msg.contains("no-such-entropy-source"), "{msg}");
        assert!(msg.contains("set EngineBuilder::seed"), "{msg}");
        // a readable source yields its first eight bytes
        let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let head: [u8; 8] = std::fs::read(&manifest).unwrap()[..8].try_into().unwrap();
        assert_eq!(read_seed(&manifest).unwrap(), u64::from_le_bytes(head));
    }

    /// The analytic model fixes the level a bootstrap returns, and with
    /// it the size of HELR's refreshed model: it stays at 5 on
    /// boot-test for the full-slot and the 16-slot pipeline. The
    /// model's EvalMod depth must cover the software's, or the software
    /// would finish below the analytic level, which
    /// `SoftwareEvaluator::bootstrap` refuses.
    #[test]
    fn analytic_bootstrap_level_holds_and_covers_the_software() {
        let params = CkksParams::boot_test();
        for slots in [None, Some(16)] {
            let cfg = BootstrapConfig {
                slots,
                ..BootstrapConfig::default()
            };
            let trace = bootstrap_trace_config(&params, &cfg);
            assert_eq!(post_bootstrap_level(&params, &trace), 5, "{slots:?}");
            let software = EvalMod::new(&cfg.evalmod).depth();
            assert!(trace.evalmod_depth() >= software, "{slots:?}");
        }
    }
}
