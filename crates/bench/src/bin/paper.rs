//! `paper` — regenerates the tables and figures of the ARK paper.
//!
//! ```text
//! cargo run --release -p ark-bench --bin paper              # every section, in the paper's order
//! cargo run --release -p ark-bench --bin paper fig7 table5  # the named sections
//! ```
//!
//! An unknown name prints the list of sections and exits 2.

use ark_bench::{
    fmt_time, reported, simulate_on, simulate_workload, t_amortized_per_slot, AlgoVariant, Workload,
};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;
use ark_core::area::Area;
use ark_core::chiplet::ChipletPlan;
use ark_core::config::twist_storage_words;
use ark_core::f1::{paper_utilization_ceilings, ScaledF1};
use ark_core::power::{average_power, PeakPower};
use ark_core::{run, ArkConfig, CompileOptions};
use ark_workloads::bootstrap::{bootstrap_trace, BootstrapTraceConfig};
use ark_workloads::counts::hrot_breakdown;
use ark_workloads::hdft::{hdft_trace, HdftConfig};
use ark_workloads::helr::HelrConfig;
use ark_workloads::trace::Trace;

/// One table or figure: `(name, what it reproduces, the function that
/// prints it)`.
type Section = (&'static str, &'static str, fn());

/// Every section, in the paper's order; the three studies the paper
/// only discusses in prose come last.
static SECTIONS: [Section; 14] = [
    ("table3", "Table III: parameters and data sizes", table3),
    ("fig2", "Fig. 2: H-(I)DFT traffic and ops/byte", fig2),
    ("f1", "Section III-C: scaled-F1 utilization", f1),
    ("fig4", "Fig. 4: HRot breakdown by dnum", fig4),
    ("table4", "Table IV: area and peak power", table4),
    ("table5", "Table V: T_A.S. and HELR", table5),
    ("table6", "Table VI: ResNet-20 and sorting", table6),
    ("fig7", "Fig. 7: Min-KS and OF-Limb ablation", fig7),
    ("fig8", "Fig. 8: alternative designs", fig8),
    ("fig9", "Fig. 9: MAC and scratchpad sweeps", fig9),
    ("table7", "Table VII: CraterLake and BTS", table7),
    ("oftwist", "Section V-C: OF-Twist storage", oftwist),
    ("slots", "Eq. 13: slot-utilization sweep", slots),
    ("chiplet", "Section VIII: chiplet partitioning", chiplet),
];

/// The sections `names` asks for, in the order given — all of them for
/// no names — or the first name that is not in [`SECTIONS`].
fn select(names: &[String]) -> Result<Vec<&'static Section>, &str> {
    if names.is_empty() {
        return Ok(SECTIONS.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            SECTIONS
                .iter()
                .find(|s| s.0 == name.as_str())
                .ok_or(name.as_str())
        })
        .collect()
}

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let selected = select(&names).unwrap_or_else(|unknown| {
        eprintln!("paper: no section named `{unknown}`; usage: paper [NAME…], NAME one of");
        for (name, what, _) in &SECTIONS {
            eprintln!("  {name:<8} {what}");
        }
        std::process::exit(2);
    });
    for (_, _, print) in selected {
        print();
    }
}

/// The full-slot bootstrapping trace at the paper's parameters, Min-KS.
fn full_bootstrap(params: &CkksParams) -> Trace {
    bootstrap_trace(
        params,
        &BootstrapTraceConfig::full(params, KeyStrategy::MinKs),
    )
}

/// Simulated HELR time in ms per training iteration — the unit of the
/// paper's 7.421 ms and of every other `reported::HELR_*` figure. The
/// simulated trace covers all `HelrConfig::paper(..).iterations`.
fn helr_ms_per_iteration() -> f64 {
    let (total_s, _) = simulate_workload(Workload::Helr, AlgoVariant::MinKsOfLimb);
    total_s * 1e3 / HelrConfig::paper(KeyStrategy::MinKs).iterations as f64
}

fn table3() {
    println!("Table III — parameters and data sizes (MB, 8-byte words)");
    println!(
        "{:<10} {:>6} {:>4} {:>6} {:>5} {:>4} {:>9} {:>9} {:>9}",
        "Work", "N", "L", "Lboot", "dnum", "α", "Pm(MB)", "[[m]](MB)", "evk(MB)"
    );
    for p in [
        CkksParams::lattigo(),
        CkksParams::hundred_x(),
        CkksParams::f1(),
        CkksParams::ark(),
    ] {
        println!(
            "{:<10} 2^{:<4} {:>4} {:>6} {:>5} {:>4} {:>9.1} {:>9.1} {:>9.1}",
            p.name,
            p.log_n,
            p.max_level,
            p.boot_levels,
            p.dnum,
            p.alpha(),
            p.plaintext_bytes() as f64 / (1 << 20) as f64,
            p.ciphertext_bytes() as f64 / (1 << 20) as f64,
            p.evk_bytes() as f64 / (1 << 20) as f64,
        );
    }
    println!("\npaper row ARK: Pm 12, [[m]] 24, evk 120  (F1 uses 32-bit words; halve its rows)");
}

fn fig2() {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    println!("Fig. 2 — off-chip traffic and ops/byte for H-(I)DFT (ARK params)");
    type Make = fn(&CkksParams, KeyStrategy) -> HdftConfig;
    let directions: [(&str, Make); 2] = [
        ("H-IDFT", HdftConfig::paper_hidft),
        ("H-DFT", HdftConfig::paper_hdft),
    ];
    for (dir, make) in directions {
        println!("\n{dir}:");
        println!(
            "  {:<18} {:>10} {:>10} {:>10} {:>9} {:>10}",
            "variant", "evk GB", "pt GB", "total GB", "ops/byte", "sim time"
        );
        let mut base_bytes = 0f64;
        for (label, strategy, of_limb) in [
            ("Baseline", KeyStrategy::Baseline, false),
            ("Min-KS", KeyStrategy::MinKs, false),
            ("Min-KS + OF-Limb", KeyStrategy::MinKs, true),
        ] {
            let t = hdft_trace(&make(&params, strategy));
            let r = run(&t, &params, &cfg, CompileOptions { of_limb });
            let evk = r.hbm_evk_words as f64 * 8.0 / 1e9;
            let pt = r.hbm_plaintext_words as f64 * 8.0 / 1e9;
            let total = r.hbm_bytes() as f64 / 1e9;
            if label == "Baseline" {
                base_bytes = total;
            }
            println!(
                "  {:<18} {:>10.2} {:>10.2} {:>10.2} {:>9.1} {:>10}",
                label,
                evk,
                pt,
                total,
                r.arithmetic_intensity(),
                fmt_time(r.seconds)
            );
            if label == "Min-KS + OF-Limb" {
                println!(
                    "  -> off-chip access removed: {:.0}%  (paper: 88% / 78%)",
                    100.0 * (1.0 - total / base_bytes)
                );
            }
        }
    }
    println!("\npaper: Min-KS 2.6x/2.0x intensity, +OF-Limb reaches 11.1/9.6 ops/byte");
}

fn f1() {
    let scaled = ScaledF1::paper();
    println!(
        "Section III-C — scaled F1 ({} modular multipliers, {} TB/s HBM3)",
        scaled.modular_multipliers, scaled.hbm_tbps
    );
    let (hidft, hdft) = paper_utilization_ceilings();
    println!(
        "  H-IDFT max utilization: {:>6.2}%   (paper: 8.61%)",
        hidft * 100.0
    );
    println!(
        "  H-DFT  max utilization: {:>6.2}%   (paper: 13.32%)",
        hdft * 100.0
    );
}

fn fig4() {
    println!("Fig. 4 — modular-mult breakdown of HRot at max level, (N,L)=(2^16,23)");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>8}",
        "dnum", "(I)NTT%", "BConv%", "MultEvk%", "Others%"
    );
    for dnum in [4usize, 24] {
        let p = CkksParams {
            dnum,
            ..CkksParams::ark()
        };
        let b = hrot_breakdown(&p, p.max_level);
        let (ntt, bconv, evk, other) = b.percentages();
        let label = if dnum == 24 { "max (24)" } else { "4" };
        println!("{label:<10} {ntt:>8.1} {bconv:>8.1} {evk:>9.1} {other:>8.1}");
    }
    println!("\npaper: dnum=4 -> 54.8/34.2/9.1; dnum=max -> 73.3/9.2/16.9");
}

fn table4() {
    let a = Area::for_config(&ArkConfig::base());
    let p = PeakPower::for_config(&ArkConfig::base());
    println!("Table IV — ARK area and peak power (7 nm model constants)");
    println!(
        "{:<22} {:>10} {:>12}",
        "Component", "Area(mm²)", "Peak power(W)"
    );
    let rows = [
        ("4 BConvUs", a.bconvu, p.bconvu),
        ("4 NTTUs", a.nttu, p.nttu),
        ("4 AutoUs", a.autou, p.autou),
        ("8 MADUs", a.madu, p.madu),
        ("Register files", a.rf, p.rf),
        ("Scratchpad memory", a.sram, p.sram),
        ("NoC", a.noc, p.noc),
        ("HBM", a.hbm, p.hbm),
    ];
    for (name, area, power) in rows {
        println!("{name:<22} {area:>10.1} {power:>12.1}");
    }
    println!("{:<22} {:>10.1} {:>12.1}", "Sum", a.total(), p.total());
    println!("\npaper: 418.3 mm², 281.3 W");
}

fn table5() {
    let tas_ns = t_amortized_per_slot(&ArkConfig::base()) * 1e9;
    let helr_ms = helr_ms_per_iteration();
    println!("Table V — T_A.S. and HELR (30 iterations, 1,024 images each)");
    println!("{:<10} {:>14} {:>14}", "System", "T_A.S.", "HELR (ms/iter)");
    for (system, tas_us, helr) in [
        (
            "Lattigo",
            reported::TAS_LATTIGO_US,
            reported::HELR_LATTIGO_MS,
        ),
        ("100x", reported::TAS_100X_US, reported::HELR_100X_MS),
        ("F1", reported::TAS_F1_US, reported::HELR_F1_MS),
        ("F1+", reported::TAS_F1P_US, reported::HELR_F1P_MS),
    ] {
        println!("{system:<10} {tas_us:>11} µs {helr:>14.0}");
    }
    println!(
        "{:<10} {:>11.1} ns {:>14.2}  <- this simulator",
        "ARK(sim)", tas_ns, helr_ms
    );
    println!(
        "{:<10} {:>11.1} ns {:>14.3}  <- paper",
        "ARK(paper)",
        reported::TAS_ARK_NS,
        reported::HELR_ARK_MS
    );
    println!(
        "\nspeedups (sim): vs 100x T_A.S. {:.0}x (paper 563x); vs 100x HELR {:.0}x (paper 104x)",
        reported::TAS_100X_US * 1e3 / tas_ns,
        reported::HELR_100X_MS / helr_ms
    );
    println!(
        "vs F1+: T_A.S. {:.0}x (paper 2,353x); HELR {:.0}x (paper 18x)",
        reported::TAS_F1P_US * 1e3 / tas_ns,
        reported::HELR_F1P_MS / helr_ms
    );
}

fn table6() {
    let (resnet_s, _) = simulate_workload(Workload::ResNet, AlgoVariant::MinKsOfLimb);
    let (sorting_s, _) = simulate_workload(Workload::Sorting, AlgoVariant::MinKsOfLimb);
    println!("Table VI — complex workloads vs CPU baselines");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10}",
        "Workload", "CPU (s)", "ARK sim (s)", "paper (s)", "speedup"
    );
    for (workload, cpu_s, sim_s, paper_s) in [
        (
            "ResNet-20",
            reported::RESNET_CPU_S,
            resnet_s,
            reported::RESNET_ARK_S,
        ),
        (
            "Sorting",
            reported::SORTING_CPU_S,
            sorting_s,
            reported::SORTING_ARK_S,
        ),
    ] {
        println!(
            "{:<12} {:>10.0} {:>12.3} {:>12.3} {:>9.0}x",
            workload,
            cpu_s,
            sim_s,
            paper_s,
            cpu_s / sim_s
        );
    }
    println!("\npaper speedups: 18,214x (ResNet-20), 11,590x (sorting)");
}

fn fig7() {
    println!("Fig. 7 — execution time while applying the algorithms incrementally");
    for w in Workload::all() {
        println!("\n{}:", w.label());
        // the half-SRAM row prints before `Baseline`, so all four are
        // simulated before any speedup is formed
        let rows = AlgoVariant::all().map(|v| (v, simulate_workload(w, v)));
        let (_, (baseline_s, _)) = rows
            .iter()
            .find(|(v, _)| *v == AlgoVariant::Baseline)
            .expect("Baseline is one of the four variants");
        for (v, (s, r)) in &rows {
            println!(
                "  {:<20} {:>12}   speedup vs baseline {:>5.2}x   HBM {:>7.2} GB",
                v.label(),
                fmt_time(*s),
                baseline_s / s,
                r.hbm_bytes() as f64 / 1e9
            );
        }
    }
    println!("\npaper speedups (Min-KS+OF-Limb vs baseline): boot 2.36x, HELR 1.72x, ResNet 2.20x, sorting 2.08x");
}

fn fig8() {
    println!("Fig. 8 — alternative ARK designs (algorithms on)");
    let configs = [
        ArkConfig::base(),
        ArkConfig::limb_wise_only(),
        ArkConfig::two_x_clusters(),
        ArkConfig::two_x_hbm(),
    ];
    for w in Workload::all() {
        println!("\n{}:", w.label());
        let mut base_s = None;
        for cfg in &configs {
            let (s, r) = simulate_on(w, cfg);
            let rel = *base_s.get_or_insert(s) / s;
            let pw = average_power(&r, cfg);
            println!(
                "  {:<24} {:>12}  rel perf {:>5.2}x  avg power {:>6.1} W",
                cfg.name,
                fmt_time(s),
                rel,
                pw.total()
            );
        }
    }
    println!(
        "\npaper: alt-distribution 0.67-0.85x, 2x clusters up to 1.45x, 2x HBM ~1.07x (1.47x HELR)"
    );
}

fn fig9() {
    println!("Fig. 9(a)(b) — MAC units per BConv lane (HELR / ResNet-20)");
    for macs in 1..=8usize {
        let cfg = ArkConfig::with_bconv_macs(macs);
        let (h, _) = simulate_on(Workload::Helr, &cfg);
        let (r, _) = simulate_on(Workload::ResNet, &cfg);
        println!(
            "  {macs} MACs: HELR {:>12}   ResNet-20 {:>12}",
            fmt_time(h),
            fmt_time(r)
        );
    }
    println!("\nFig. 9(c)(d) — total scratchpad capacity");
    for mib in [192usize, 256, 320, 384, 448, 512, 576] {
        let cfg = ArkConfig::with_scratchpad(mib);
        let (h, _) = simulate_on(Workload::Helr, &cfg);
        let (r, _) = simulate_on(Workload::ResNet, &cfg);
        println!(
            "  {mib:>4} MB: HELR {:>12}   ResNet-20 {:>12}",
            fmt_time(h),
            fmt_time(r)
        );
    }
    println!("\npaper: 1->6 MACs gives 1.37x/1.72x then saturates; 192->512 MB gives 1.53x/2.42x then saturates");
}

fn table7() {
    let tas = t_amortized_per_slot(&ArkConfig::base()) * 1e9;
    let helr_ms = helr_ms_per_iteration();
    let (resnet, _) = simulate_workload(Workload::ResNet, AlgoVariant::MinKsOfLimb);
    let (sorting, _) = simulate_workload(Workload::Sorting, AlgoVariant::MinKsOfLimb);
    println!("Table VII — ARK vs recent FHE accelerators (reported numbers)");
    println!(
        "{:<16} {:>12} {:>12} {:>12}",
        "", "ARK (sim)", "CraterLake", "BTS"
    );
    println!(
        "{:<16} {:>9.1} ns {:>9.1} ns {:>9.1} ns",
        "T_A.S.",
        tas,
        reported::TAS_CRATERLAKE_NS,
        reported::TAS_BTS_NS
    );
    println!(
        "{:<16} {:>9.2} ms {:>9.1} ms {:>9.1} ms",
        "HELR (per iter)",
        helr_ms,
        reported::HELR_CRATERLAKE_MS,
        reported::HELR_BTS_MS
    );
    println!(
        "{:<16} {:>10.3} s {:>10.3} s {:>10.2} s",
        "ResNet-20",
        resnet,
        reported::RESNET_CRATERLAKE_S,
        reported::RESNET_BTS_S
    );
    println!(
        "{:<16} {:>10.2} s {:>12} {:>10.1} s",
        "Sorting",
        sorting,
        "-",
        reported::SORTING_BTS_S
    );
    let a = Area::for_config(&ArkConfig::base()).total();
    let p = PeakPower::for_config(&ArkConfig::base()).total();
    println!(
        "{:<16} {:>9.1} mm² {:>8} mm² {:>8} mm²",
        "Area", a, 472.3, 373.6
    );
    println!(
        "{:<16} {:>10.1} W {:>10} W {:>10.1} W",
        "Peak power", p, ">317", 163.2
    );
    println!("\npaper ARK: 14.3 ns / 7.42 ms / 0.125 s / 1.99 s; beats CraterLake 1.23-2.58x, BTS 3.19-15.32x");
}

fn oftwist() {
    let n = 1 << 12;
    let (baseline, of_twist) = (twist_storage_words(n, false), twist_storage_words(n, true));
    println!("OF-Twist — twisting-factor storage per limb (N = 2^12):");
    println!(
        "  baseline: {baseline} words, OF-Twist: {of_twist} words ({:.1}% saved; paper: 99%)",
        100.0 * (1.0 - of_twist as f64 / baseline as f64)
    );
    // paper-scale: 30 MB of scratchpad reclaimed — rerun bootstrapping
    // with OF-Twist off (storage charged against the evk cache)
    let params = CkksParams::ark();
    let trace = full_bootstrap(&params);
    for (label, of_twist) in [("OF-Twist on", true), ("OF-Twist off", false)] {
        let cfg = ArkConfig {
            of_twist,
            ..ArkConfig::base()
        };
        let r = run(&trace, &params, &cfg, CompileOptions::all_on());
        println!(
            "  {label:<14} boot {:>10}  HBM {:>6.2} GB",
            fmt_time(r.seconds),
            r.hbm_bytes() as f64 / 1e9
        );
    }
    println!("\npaper: OF-Twist saves 30 MB of on-chip storage (2·(α+L+1)·N words)");
}

/// The Eq. 13 amortization (1/n) behind the paper's HELR discussion:
/// small workloads waste ARK's throughput until the slots fill.
fn slots() {
    let params = CkksParams::ark();
    let cfg = ArkConfig::base();
    println!("Slot-utilization sweep — bootstrap time and per-slot amortized cost");
    println!("{:<10} {:>14} {:>18}", "slots", "boot time", "time/slot");
    for slots_log2 in [8u32, 10, 12, 14, 15] {
        let t = if slots_log2 == 15 {
            full_bootstrap(&params)
        } else {
            bootstrap_trace(
                &params,
                &BootstrapTraceConfig::sparse(slots_log2, KeyStrategy::MinKs),
            )
        };
        let r = run(&t, &params, &cfg, CompileOptions::all_on());
        let n = 1u64 << slots_log2;
        println!(
            "{:<10} {:>14} {:>15.1} ns",
            format!("2^{slots_log2}"),
            fmt_time(r.seconds),
            r.seconds * 1e9 / n as f64
        );
    }
    println!("\nshape: per-slot cost collapses as slots fill — the paper's HELR (n=256)");
    println!("underutilizes ARK by ~2 orders of magnitude vs full packing (n=2^15)");
}

fn chiplet() {
    let params = CkksParams::ark();
    let trace = full_bootstrap(&params);
    println!("Chiplet exploration — bootstrapping, Min-KS + OF-Limb");
    println!(
        "{:<28} {:>12} {:>10} {:>12}",
        "design", "boot time", "rel perf", "rel fab cost"
    );
    let mono = run(
        &trace,
        &params,
        &ChipletPlan::monolithic().config(),
        CompileOptions::all_on(),
    );
    for (plan, label) in [
        (ChipletPlan::monolithic(), "monolithic (418 mm²)"),
        (ChipletPlan::new(2, 2000.0), "2 chiplets, 2 TB/s D2D"),
        (ChipletPlan::new(2, 1000.0), "2 chiplets, 1 TB/s D2D"),
        (ChipletPlan::new(4, 1000.0), "4 chiplets, 1 TB/s D2D"),
        (ChipletPlan::new(4, 500.0), "4 chiplets, 0.5 TB/s D2D"),
    ] {
        let r = run(&trace, &params, &plan.config(), CompileOptions::all_on());
        println!(
            "{:<28} {:>12} {:>9.2}x {:>11.2}x",
            label,
            fmt_time(r.seconds),
            mono.seconds / r.seconds,
            plan.relative_cost(418.3)
        );
    }
    println!("\ntakeaway: 2 chiplets at 2 TB/s D2D keep 86% performance for ~74% fabrication cost");
}
