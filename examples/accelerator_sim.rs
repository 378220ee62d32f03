//! Drive the cycle-level ARK model directly: simulate bootstrapping
//! with and without the paper's algorithms and print the
//! performance/power story.
//!
//! ```sh
//! cargo run --release --example accelerator_sim
//! ```

use ark_fhe::arch::power::average_power;
use ark_fhe::arch::{run, ArkConfig, CompileOptions};
use ark_fhe::ckks::minks::KeyStrategy;
use ark_fhe::ckks::params::CkksParams;
use ark_fhe::workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};

fn main() {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    println!(
        "ARK: {} clusters x {} lanes, {} MB scratchpad, {} GB/s HBM",
        cfg.clusters, cfg.lanes, cfg.scratchpad_mib, cfg.hbm_gbps
    );
    println!("workload: full-slot CKKS bootstrapping at (N, L) = (2^16, 23)\n");

    let cases = [
        ("baseline algorithms", KeyStrategy::Baseline, false),
        ("Min-KS", KeyStrategy::MinKs, false),
        ("Min-KS + OF-Limb", KeyStrategy::MinKs, true),
    ];
    let mut baseline_s = None;
    for (label, strategy, of_limb) in cases {
        let trace = bootstrap_trace(&params, &BootstrapTraceConfig::full(&params, strategy));
        let report = run(&trace, &params, &cfg, CompileOptions { of_limb });
        let power = average_power(&report, &cfg);
        if baseline_s.is_none() {
            baseline_s = Some(report.seconds);
        }
        println!("{label}:");
        println!(
            "  time        {:.3} ms ({:.2}x)",
            report.seconds * 1e3,
            baseline_s.unwrap() / report.seconds
        );
        println!(
            "  off-chip    {:.2} GB ({:.1} ops/byte)",
            report.hbm_bytes() as f64 / 1e9,
            report.arithmetic_intensity()
        );
        println!("  avg power   {:.1} W", power.total());
        println!(
            "  utilization NTTU {:.0}%  BConvU {:.0}%  MADU {:.0}%  HBM {:.0}%\n",
            100.0 * report.utilization(ark_fhe::arch::pf::Resource::Nttu),
            100.0 * report.utilization(ark_fhe::arch::pf::Resource::BconvU),
            100.0 * report.utilization(ark_fhe::arch::pf::Resource::Madu),
            100.0 * report.utilization(ark_fhe::arch::pf::Resource::Hbm),
        );
    }
    println!("paper (Fig. 7a): Min-KS 1.9x, Min-KS + OF-Limb 2.36x on bootstrapping");
}
