//! # ark-core — cycle-level model of the ARK FHE accelerator
//!
//! The paper's architectural contribution, reproduced as the
//! performance-model pipeline its authors describe in Section VI: an HE
//! program (an `ark-workloads` trace) is compiled into a dependence
//! graph of *primary functions* — (I)NTT, BConv, automorphism,
//! element-wise ops, HBM loads and NoC exchanges — and scheduled against
//! the configured hardware's aggregate throughputs. The model captures
//! the paper's three levers end to end:
//!
//! - inter-operation **evk reuse** in the 512 MB scratchpad (Min-KS
//!   traces hit the key cache; baseline traces stream keys from HBM);
//! - **OF-Limb** runtime plaintext-limb generation (HBM traffic traded
//!   for NTTU work);
//! - the **alternating data-distribution** policy vs the limb-wise-only
//!   alternative (NoC volume per Section V-B).
//!
//! [`power`] and [`area`] apply the Table IV constants; [`f1`] is the
//! scaled-F1 analytical baseline of Section III-C; [`chiplet`]
//! implements the paper's stated future work (chiplet partitioning with
//! a fabrication-cost model).

#![forbid(unsafe_code)]

pub mod area;
pub mod chiplet;
pub mod compile;
pub mod config;
pub mod f1;
pub mod pf;
pub mod power;
pub mod sched;
pub mod wire;

pub use compile::{compile, CompileOptions};
pub use config::{ArkConfig, DataDistribution};
pub use sched::{run, simulate, SimReport};
