//! CI-facing static verification of the scenario programs.
//!
//! ```text
//! cargo run -p ark-scenarios --bin verify            # summary per scenario
//! cargo run -p ark-scenarios --bin verify -- --schedule   # + per-op rows
//! ```
//!
//! Exit code 0 iff every scenario program passes static verification;
//! any diagnostic prints the op index and the typed runtime error the
//! evaluation would have hit, and exits 1.

use ark_fhe::verify::VerifyReport;
use ark_scenarios::{verify_scenario, HelrScenario, ResNetScenario, Scenario};
use std::process::ExitCode;

fn print_report(s: &dyn Scenario, report: &VerifyReport, schedule: bool) {
    let setup = s.setup();
    println!("── {} ({})", s.name(), setup.params.name);
    println!(
        "   ops {:<5} registers {:<5} inputs {}  trace {} ops",
        report.ops, report.registers, report.n_inputs, report.trace_len
    );
    println!(
        "   peak live {} ct-units at op {} (digit spine {} units)",
        report.peak_live_units, report.peak_event, report.digit_units
    );
    println!(
        "   key surface: {} rotations {:?}, conjugation {}, galois {:?}",
        report.rotations.len(),
        report.rotations,
        report.conjugation,
        report.galois_elements
    );
    println!(
        "   depth: min level {}, bootstraps {}, output levels {:?}",
        report.min_level, report.bootstraps, report.output_levels
    );
    if schedule {
        println!("   index  op                 level  live-units");
        for row in &report.schedule {
            println!(
                "   {:<6} {:<18} {:<6} {}",
                row.index, row.op, row.level, row.live_units
            );
        }
    }
    match &report.finding {
        None => println!("   OK"),
        Some(f) => println!("   REJECTED at {f}"),
    }
}

fn main() -> ExitCode {
    let schedule = std::env::args().any(|a| a == "--schedule");
    let scenarios: [Box<dyn Scenario>; 2] = [
        Box::new(HelrScenario::default()),
        Box::new(ResNetScenario::default()),
    ];
    let mut failed = false;
    for s in &scenarios {
        match verify_scenario(s.as_ref()) {
            Ok(report) => {
                print_report(s.as_ref(), &report, schedule);
                failed |= !report.is_ok();
            }
            Err(e) => {
                println!("── {}: setup failed verification: {e}", s.name());
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
