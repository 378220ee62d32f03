//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! ark-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, in this process
//! ark-benchmark run [--seed N] [--seconds S] [--reps K] [--out FILE] every workload, a child process each
//! ark-benchmark run --reps 10 --vary-seed                            ... each repetition on its own seed
//! ark-benchmark run --smoke                                          two jobs per loop, all names checked
//! ark-benchmark compare A.json B.json                                apply the bounds to two result files
//! ```

mod compare;
mod defs;
mod encrypted;
mod json;
mod layers;
mod paper;
mod run;
mod served;
mod span;
mod span_eval;
mod spec;
mod stats;
#[cfg(test)]
mod tests;
mod workload;

use run::RunArgs;
use spec::Spec;
use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workload::Budget;

/// Heap allocations of the whole process, for `math.allocs_per_job`.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every call forwards its arguments unchanged to `System`,
// under the contract the caller already upholds; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as is
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed on as is
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's pointer, layout and size, passed on as is
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed on as is
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  ark-benchmark run [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                    [--jobs J] [--smoke] [--reps K] [--vary-seed] [--out FILE]
  ark-benchmark compare A.json B.json";

fn parse_run(args: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    fn number<T: std::str::FromStr>(
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<T, String> {
        let v = args.next().ok_or(format!("{flag} needs a value"))?;
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a number"))
    }
    let mut out = RunArgs {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        jobs: None,
        out: None,
        reps: 1,
        vary_seed: false,
    };
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => out.workload = Some(args.next().ok_or("--workload needs a name")?),
            "--out" => out.out = Some(args.next().ok_or("--out needs a path")?.into()),
            "--seed" => out.seed = number(&flag, &mut args)?,
            "--seconds" => out.seconds = Some(number(&flag, &mut args)?),
            "--jobs" => out.jobs = Some(number(&flag, &mut args)?),
            "--reps" => out.reps = number(&flag, &mut args)?,
            // two jobs per loop: enough to print and check every name
            "--smoke" => out.jobs = Some(2),
            "--vary-seed" => out.vary_seed = true,
            // `--trace` alone turns tracing on; `--trace 0|1` sets it
            "--trace" => {
                out.trace = args.peek().is_none_or(|v| v != "0");
                if args.peek().is_some_and(|v| v == "0" || v == "1") {
                    args.next();
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if out.reps == 0 || out.jobs == Some(0) || out.seconds.is_some_and(|s| s <= 0.0) {
        return Err("--reps, --jobs and --seconds must be positive".into());
    }
    Ok(out)
}

fn run(args: RunArgs, process_start: Instant) -> Result<bool, String> {
    let spec = Spec::load()?;
    let Some(name) = &args.workload else {
        run::run_all(&spec, &args)?;
        return Ok(true);
    };
    if !spec.workloads.contains(name) {
        return Err(format!("`{name}` is not a workload of BENCHMARK.json"));
    }
    let budget = match args.jobs {
        Some(jobs) => Budget::Jobs(jobs),
        None => Budget::Seconds(args.seconds.unwrap_or(spec.run_seconds)),
    };
    let out = run::run_one(&spec, name, args.seed, budget, args.trace, process_start)?;
    run::print_output(name, &out);
    Ok(out.correct)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let mut args = std::env::args().skip(1);
    let outcome = match args.next().as_deref() {
        Some("run") => parse_run(args).and_then(|a| run(a, process_start)),
        Some("compare") => match (args.next(), args.next(), args.next()) {
            (Some(a), Some(b), None) => {
                Spec::load().and_then(|spec| compare::compare(&spec, &a, &b))
            }
            _ => Err(USAGE.into()),
        },
        _ => Err(USAGE.into()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod cli_tests {
    use super::parse_run;

    fn parse(args: &[&str]) -> Result<super::RunArgs, String> {
        parse_run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_drivers_argument_order_parses() {
        let a = parse(&[
            "--workload",
            "helr_local",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("helr_local"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, Some(10.0), false));
        assert!(parse(&["--trace", "1"]).unwrap().trace);
    }

    #[test]
    fn a_bare_trace_flag_turns_tracing_on() {
        let a = parse(&["--trace", "--seed", "3"]).unwrap();
        assert!(a.trace);
        assert_eq!(a.seed, 3);
        assert!(parse(&["--trace"]).unwrap().trace);
    }

    #[test]
    fn smoke_means_two_jobs_and_bad_input_is_refused() {
        assert_eq!(parse(&["--smoke"]).unwrap().jobs, Some(2));
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--seed", "x"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
