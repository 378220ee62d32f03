//! `run`: one workload in this process, or every workload in a child
//! process each.

use crate::defs::def;
use crate::encrypted::Encrypted;
use crate::json::{obj, Json};
use crate::paper::PaperModel;
use crate::span;
use crate::spec::{repo_root, Metrics, Spec};
use crate::stats::{median, percentile};
use crate::workload::{Budget, LayerInput, Timed, Workload};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Set-up is repeated while all repetitions together stay under this
/// many seconds, so cheap set-ups report a median of several.
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_REPS_MAX: usize = 5;
/// The trace run alternates untraced and traced blocks, so drift over
/// the run does not read as tracing overhead: this many of each, this
/// share of `--seconds` per block.
const TRACE_ROUNDS: usize = 4;
const TRACE_BLOCK_SHARE: f64 = 0.075;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: Option<f64>,
    pub trace: bool,
    /// A fixed job count per loop in place of `--seconds`.
    pub jobs: Option<usize>,
    pub out: Option<PathBuf>,
    /// Untraced runs per workload when running all of them.
    pub reps: usize,
    /// Repetition `k` runs on seed `seed + k`, as the acceptance
    /// procedure does; otherwise every repetition shares `seed`.
    pub vary_seed: bool,
}

/// The result of one workload run: the last line it prints.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Json,
}

impl RunOutput {
    fn to_json(&self) -> Json {
        obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics.clone()),
        ])
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    if name == "paper_model" {
        return Ok(Box::new(PaperModel::setup()));
    }
    let def = def(name, seed, nproc()).ok_or(format!("unknown workload `{name}`"))?;
    Encrypted::setup(def, seed, nproc())
        .map(|w| Box::new(w) as Box<dyn Workload>)
        .map_err(|e| format!("{name}: set-up failed: {e}"))
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Runs one workload in this process.
pub fn run_one(
    spec: &Spec,
    name: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    process_start: Instant,
) -> Result<RunOutput, String> {
    let quick = matches!(budget, Budget::Jobs(_));
    // the first repetition starts where the process did
    let mut rep_start = process_start;
    let mut setup_s: Vec<f64> = Vec::new();
    let mut workload = loop {
        let w = build(name, seed)?;
        let took = rep_start.elapsed().as_secs_f64();
        setup_s.push(took);
        let spent: f64 = setup_s.iter().sum();
        if quick || setup_s.len() == SETUP_REPS_MAX || spent + took > SETUP_BUDGET_S {
            break w;
        }
        drop(w); // joins a server's threads before the next one starts
        rep_start = Instant::now();
    };

    let mut m = Metrics::default();
    let (attempted, failed);
    if !trace {
        let timed = workload.run_jobs(budget, false);
        (attempted, failed) = (timed.attempted, timed.failed);
        m.set("setup_s", median(&setup_s));
        m.set("job_p50_ms", median(&timed.job_ms));
        m.set("job_p90_ms", percentile(&timed.job_ms, 0.9));
        m.set("jobs_per_s", timed.job_ms.len() as f64 / timed.wall_s);
        m.set("peak_rss_mib", peak_rss_mib()?);
        m.set(
            "wire_kib_per_job",
            workload.wire_bytes_per_job() as f64 / 1024.0,
        );
        // an exact reference match still reads as finite precision
        m.set(
            "precision_bits",
            -workload.worst_err().max(f64::EPSILON).log2(),
        );
        m.set(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
        );
    } else {
        let (mut untraced, mut traced) = (Timed::default(), Timed::default());
        let mut allocs = 0;
        for _ in 0..if quick { 1 } else { TRACE_ROUNDS } {
            untraced.merge(workload.run_jobs(budget.scaled(TRACE_BLOCK_SHARE), false));
            let before = crate::ALLOCS.load(Ordering::Relaxed);
            traced.merge(workload.run_jobs(budget.scaled(TRACE_BLOCK_SHARE), true));
            allocs += crate::ALLOCS.load(Ordering::Relaxed) - before;
        }
        (attempted, failed) = (
            untraced.attempted + traced.attempted,
            untraced.failed + traced.failed,
        );
        m.set(
            "math.allocs_per_job",
            allocs as f64 / traced.attempted.max(1) as f64,
        );
        workload.layer_metrics(
            &LayerInput {
                untraced: &untraced,
                traced: &traced,
                quick,
            },
            &mut m,
        );
        m.set(
            "trace.overhead_pct",
            100.0 * (median(&traced.job_ms) / median(&untraced.job_ms) - 1.0),
        );
        m.set("trace.spans", traced.spans.len() as f64);
        let path = repo_root()
            .join("benchmark/out")
            .join(format!("trace-{name}.json"));
        span::write_json(&path, name, &traced.spans)
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(RunOutput {
        correct: failed == 0 && workload.checks_ok(),
        attempted,
        failed,
        metrics: spec.render(&m, trace)?,
    })
}

/// Prints every metric by name with its unit, then the result line.
pub fn print_output(name: &str, out: &RunOutput) {
    println!(
        "{name}: attempted {} failed {} correct {}",
        out.attempted, out.failed, out.correct
    );
    for (metric, v) in out.metrics.as_object().unwrap_or_default() {
        let value = v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = v.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("  {metric:<40} {value:>16.6} {unit}");
    }
    println!("{}", out.to_json().to_line());
}

fn host() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu", Json::Str(cpu)),
    ])
}

/// Runs one workload in a child process and parses its result line.
fn run_child(args: &RunArgs, name: &str, seed: u64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(jobs) = args.jobs {
        cmd.args(["--jobs", &jobs.to_string()]);
    }
    if let Some(seconds) = args.seconds {
        cmd.args(["--seconds", &seconds.to_string()]);
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name}: spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let result = Json::parse(line).map_err(|e| format!("{name}: no result line: {e}"))?;
    if !output.status.success() {
        return Err(format!("{name}: exited with {}: {line}", output.status));
    }
    Ok(result)
}

/// Runs every workload, one child process per run: `reps` untraced
/// runs and one traced run each. Prints a table and writes the result
/// file `compare` reads.
pub fn run_all(spec: &Spec, args: &RunArgs) -> Result<(), String> {
    let mut results = Vec::new();
    for name in &spec.workloads {
        for trace in [false, true] {
            let reps = if trace { 1 } else { args.reps };
            let mut runs = Vec::with_capacity(reps);
            for rep in 0..reps as u64 {
                let seed = args.seed + if args.vary_seed { rep } else { 0 };
                runs.push(run_child(args, name, seed, trace)?);
            }
            let sum = |key: &str| -> f64 {
                runs.iter()
                    .filter_map(|r| r.get(key).and_then(Json::as_f64))
                    .sum()
            };
            let section = if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            println!(
                "{name} (trace {}): attempted {} failed {}",
                u8::from(trace),
                sum("attempted"),
                sum("failed")
            );
            let mut metrics = Vec::with_capacity(section.len());
            for metric in section {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| {
                        r.get("metrics")
                            .and_then(|m| m.get(&metric.name))
                            .and_then(|m| m.get("value"))
                            .and_then(Json::as_f64)
                            .ok_or(format!("{name}: `{}` was not printed", metric.name))
                    })
                    .collect::<Result<_, _>>()?;
                println!(
                    "  {:<40} {:>16.6} {}",
                    metric.name,
                    median(&values),
                    metric.unit
                );
                metrics.push((
                    metric.name.clone(),
                    obj([
                        ("unit", Json::Str(metric.unit.clone())),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ));
            }
            results.push(obj([
                ("workload", Json::Str(name.clone())),
                ("trace", Json::Bool(trace)),
                ("attempted", Json::Num(sum("attempted"))),
                ("failed", Json::Num(sum("failed"))),
                ("metrics", Json::Obj(metrics)),
            ]));
        }
    }
    let file = obj([
        ("schema", Json::Str("ark-benchmark/v1".into())),
        ("seed", Json::Num(args.seed as f64)),
        ("vary_seed", Json::Bool(args.vary_seed)),
        (
            "seconds",
            Json::Num(args.seconds.unwrap_or(spec.run_seconds)),
        ),
        (
            "jobs",
            args.jobs.map_or(Json::Null, |j| Json::Num(j as f64)),
        ),
        ("host", host()),
        ("results", Json::Arr(results)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| repo_root().join("benchmark/out/result.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(&path, file.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}
