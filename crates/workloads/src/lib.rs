//! # ark-workloads — FHE workload traces and analytic counters
//!
//! The ARK paper's evaluation runs four workloads — bootstrapping
//! itself, HELR logistic-regression training \[43\], ResNet-20 inference
//! \[64\] and k-way sorting \[47\]. FHE programs have no data-dependent
//! control flow, so each workload is exactly characterized by its HE-op
//! *trace*; this crate generates those traces (with selectable Min-KS /
//! baseline key strategies) and provides the closed-form modular-mult
//! and off-chip-traffic counters behind Fig. 2 and Fig. 4.
//!
//! The traces feed the cycle-level accelerator model in `ark-core`.

#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod counts;
pub mod hdft;
pub mod helr;
pub mod resnet;
pub mod sorting;
pub mod trace;

pub use trace::{HeOp, KeyId, Trace, TraceSummary};
