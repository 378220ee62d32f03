//! Tests that need an engine or a whole workload run.

use crate::run::run_one;
use crate::span::{totals, Recorder};
use crate::span_eval::{SpanEvaluator, OP_CLASSES};
use crate::spec::Spec;
use crate::workload::Budget;
use ark_ckks::params::CkksParams;
use ark_fhe::engine::{Engine, HeProgram};
use ark_math::cfft::C64;
use ark_serve::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// Op spans plus `engine.execute`'s self time are the execute span
/// exactly, and that plus the job's own self time is the job's wall
/// time within 2 %.
#[test]
fn op_spans_and_the_unattributed_rest_reconcile_with_job_wall_time() {
    let params = CkksParams::small();
    let mut engine = Engine::builder()
        .params(params.clone())
        .seed(5)
        .rotations(&[1])
        .threads(1)
        .build()
        .unwrap();
    let mut program = Program::new(2);
    let (x, y) = (program.reg(0), program.reg(1));
    let sum = program.add(x, y);
    let product = program.mul_rescale(sum, x);
    let rotated = program.rotate(product, 1);
    program.output(rotated);
    let values = vec![C64::new(0.25, 0.0); params.slots()];
    let inputs = [
        engine.encrypt(&values, params.max_level).unwrap(),
        engine.encrypt(&values, params.max_level).unwrap(),
    ];

    let mut rec = Recorder::new(0);
    let mut wall_ns = 0;
    for job in 1..=5 {
        let start = Instant::now();
        rec.set_job(job);
        rec.open("job");
        let eval = engine.shared_evaluator().unwrap();
        rec.open("engine.execute");
        let mut eval = SpanEvaluator::new(eval, &mut rec);
        program.run(&mut eval, &inputs).unwrap();
        drop(eval);
        rec.close();
        rec.close();
        wall_ns += start.elapsed().as_nanos() as u64;
    }
    let spans = rec.finish();
    let by_name = totals(&spans);

    assert_eq!(by_name["engine.op.elementwise"].count, 5);
    assert_eq!(by_name["engine.op.mul_rescale"].count, 5);
    assert_eq!(by_name["engine.op.rotate"].count, 5);
    let ops_ns: u64 = OP_CLASSES
        .iter()
        .filter_map(|c| by_name.get(c))
        .map(|t| t.total_ns)
        .sum();
    let execute = by_name["engine.execute"];
    assert_eq!(ops_ns + execute.self_ns, execute.total_ns);
    let job = by_name["job"];
    assert_eq!(execute.total_ns + job.self_ns, job.total_ns);
    let attributed = (ops_ns + execute.self_ns) as f64;
    assert!(
        (wall_ns as f64 - attributed).abs() / wall_ns as f64 <= 0.02,
        "spans cover {attributed} ns of {wall_ns} ns"
    );
}

fn values(spec: &Spec, name: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let out = run_one(spec, name, seed, Budget::Jobs(2), trace, Instant::now()).unwrap();
    assert!(out.correct, "{name} seed {seed} trace {trace}");
    assert_eq!(out.failed, 0);
    out.metrics
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.get("value").unwrap().as_f64().unwrap()))
        .collect()
}

/// Whether a metric is a count: exact for a fixed seed.
fn is_count(name: &str) -> bool {
    name == "wire_kib_per_job"
        || name == "precision_bits"
        || name == "ok_share"
        || name == "core.sim_cycles"
        || name.starts_with("core.paper.")
        || (name.starts_with("engine.op.") && name.ends_with(".count"))
}

/// Two smoke runs with one seed agree on every count metric; a served
/// workload's inputs follow the seed.
#[test]
fn count_metrics_repeat_exactly_for_a_fixed_seed() {
    let spec = Spec::load().unwrap();
    for name in ["resnet_served", "wire_served", "paper_model"] {
        for trace in [false, true] {
            let first = values(&spec, name, 9, trace);
            let again = values(&spec, name, 9, trace);
            let expected = if trace {
                spec.per_layer.len()
            } else {
                spec.end_to_end.len()
            };
            assert_eq!(first.len(), expected, "{name}: every metric is printed");
            for (metric, v) in first.iter().filter(|(k, _)| is_count(k)) {
                assert_eq!(again[metric], *v, "{name}/{metric}");
            }
        }
    }
    let one = values(&spec, "wire_served", 9, false);
    let other = values(&spec, "wire_served", 10, false);
    assert_ne!(one["precision_bits"], other["precision_bits"]);
    assert_eq!(one["wire_kib_per_job"], other["wire_kib_per_job"]);
}

/// The traced served run's five phases tile every job span, and the
/// server's op counters match the local engine's histogram.
#[test]
fn served_phases_add_up_to_the_job() {
    let spec = Spec::load().unwrap();
    let v = values(&spec, "resnet_served", 4, true);
    assert_eq!(v["serve.ops_match"], 1.0);
    assert_eq!(v["scenarios.trace_shape_ok"], 1.0);
    assert_eq!(v["engine.op.rotate_sum.count"], 1.0);
    let phases = v["client.encode_request_ms"]
        + v["net.write_ms"]
        + v["serve.wait_ms"]
        + v["net.read_ms"]
        + v["client.decode_response_ms"];
    // the job's mean latency, recovered from the tax over the replay
    let job_ms = v["engine.execute.ms"] * (1.0 + v["serve.tax_pct"] / 100.0);
    assert!(
        (phases - job_ms).abs() / job_ms < 0.02,
        "{phases} against {job_ms}"
    );
}
