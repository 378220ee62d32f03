//! The cycle model's numbers, pinned at full precision: a change to the
//! host path of `ark_core::{compile, simulate}` (data structures,
//! buffers, the scheduler's bookkeeping) must leave every figure here
//! exactly as it is. `paper.golden.txt` pins the same model where it
//! branches (config variants, ½ SRAM, baseline options) but rounds; this
//! keeps every digit, and the graph's shape with them.
//!
//! A pin that moves is a change to the *model*, not to its host path:
//! say so in the PR, and replace the pin with the `actual` the failure
//! prints.

use ark_bench::{workload_trace, Workload};
use ark_ckks::minks::KeyStrategy;
use ark_ckks::params::CkksParams;
use ark_core::pf::{DataKind, PfGraph, Resource};
use ark_core::{compile, simulate, ArkConfig, CompileOptions};
use ark_math::wire::put_u64;
use ark_workloads::hdft::{hdft_trace, HdftConfig};
use ark_workloads::trace::{HeOp, KeyId, Trace};
use Resource::{AutoU, BconvU, Hbm, Madu, Noc, Nttu};

/// Everything `compile` + `simulate` say about one trace.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    nodes: usize,
    edges: usize,
    /// FNV-1a over every node's `(resource, work, data, latency)` and
    /// its edge list, in order.
    graph_fnv: u64,
    cycles: u64,
    /// Busy cycles in `Resource` order; `None` where the report has no
    /// such key (no node ran on that resource).
    busy: [Option<u64>; 6],
    hbm_evk_words: u64,
    hbm_plaintext_words: u64,
    hbm_other_words: u64,
    noc_words: u64,
    mod_mults: u64,
}

/// FNV-1a 64, implemented here so the graph pins do not move with the
/// wire layer's checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn graph_fnv(g: &PfGraph) -> u64 {
    let mut bytes = Vec::new();
    for (id, node) in g.nodes().iter().enumerate() {
        put_u64(&mut bytes, node.resource as u64);
        put_u64(&mut bytes, node.work);
        let data = match node.data {
            None => 0,
            Some(DataKind::Evk) => 1,
            Some(DataKind::Plaintext) => 2,
            Some(DataKind::Other) => 3,
        };
        put_u64(&mut bytes, data);
        put_u64(&mut bytes, node.latency);
        put_u64(&mut bytes, g.deps(id).len() as u64);
        for &d in g.deps(id) {
            put_u64(&mut bytes, d as u64);
        }
    }
    fnv1a(&bytes)
}

fn measure(trace: &Trace, p: &CkksParams, cfg: &ArkConfig, opts: CompileOptions) -> Pin {
    let g = compile(trace, p, cfg, opts);
    let r = simulate(&g, cfg, p.n());
    let busy = [Nttu, BconvU, AutoU, Madu, Hbm, Noc].map(|res| r.busy.get(&res).copied());
    Pin {
        nodes: g.len(),
        edges: g.edge_count(),
        graph_fnv: graph_fnv(&g),
        cycles: r.cycles,
        busy,
        hbm_evk_words: r.hbm_evk_words,
        hbm_plaintext_words: r.hbm_plaintext_words,
        hbm_other_words: r.hbm_other_words,
        noc_words: r.noc_words,
        mod_mults: r.mod_mults,
    }
}

/// The four paper workloads as the benchmark's `paper_model` runs them:
/// `CkksParams::ark()`, Min-KS, OF-Limb on, `ArkConfig::base()`.
#[test]
fn paper_workloads_are_pinned() {
    let p = CkksParams::ark();
    let cfg = ArkConfig::base();
    let expected = [
        (
            Workload::Bootstrapping,
            Pin {
                nodes: 4852,
                edges: 5612,
                graph_fnv: 4113448010418258046,
                cycles: 5282960,
                busy: [
                    Some(1553920),
                    Some(745236),
                    Some(186832),
                    Some(1957880),
                    Some(1370723),
                    Some(987698),
                ],
                hbm_evk_words: 141164544,
                hbm_plaintext_words: 25165824,
                hbm_other_words: 0,
                noc_words: 967311360,
                mod_mults: 20265369600,
            },
        ),
        (
            Workload::Helr,
            Pin {
                nodes: 79563,
                edges: 93903,
                graph_fnv: 11672362107207270440,
                cycles: 96322387,
                busy: [
                    Some(22410240),
                    Some(11270490),
                    Some(3575040),
                    Some(23937600),
                    Some(56614273),
                    Some(16311540),
                ],
                hbm_evk_words: 6731857920,
                hbm_plaintext_words: 279183360,
                hbm_other_words: 0,
                noc_words: 15925248000,
                mod_mults: 283721072640,
            },
        ),
        (
            Workload::ResNet,
            Pin {
                nodes: 136860,
                edges: 158466,
                graph_fnv: 17922572176498738859,
                cycles: 144876003,
                busy: [
                    Some(42718016),
                    Some(20457888),
                    Some(5140352),
                    Some(52836080),
                    Some(37781191),
                    Some(27470624),
                ],
                hbm_evk_words: 3921543168,
                hbm_plaintext_words: 667484160,
                hbm_other_words: 0,
                noc_words: 26881687552,
                mod_mults: 553839099904,
            },
        ),
        (
            Workload::Sorting,
            Pin {
                nodes: 19770,
                edges: 22860,
                graph_fnv: 15530736476780914977,
                cycles: 21280242,
                busy: [
                    Some(6272768),
                    Some(3002520),
                    Some(748896),
                    Some(7874360),
                    Some(5559941),
                    Some(3992854),
                ],
                hbm_evk_words: 574095360,
                hbm_plaintext_words: 100794368,
                hbm_other_words: 0,
                noc_words: 3909484544,
                mod_mults: 81661263872,
            },
        ),
    ];
    for (w, pin) in expected {
        let (trace, _) = workload_trace(w, &p, KeyStrategy::MinKs);
        let actual = measure(&trace, &p, &cfg, CompileOptions::all_on());
        assert_eq!(actual, pin, "{w:?}: the model's output moved");
    }
}

/// Lowering branches no paper workload above takes: hoisted rotation
/// groups (fresh and stale digits), the limb-wise-only redistribution,
/// `of_limb: false` with evk eviction at ½ SRAM, and a trace with no
/// automorphism — whose report must carry no `AutoU` key at all (the
/// wire size of a `SimReport` depends on the key set).
#[test]
fn other_lowering_branches_are_pinned() {
    let p = CkksParams::ark();
    let hidft = HdftConfig::paper_hidft(&p, KeyStrategy::Baseline);
    let mut hmult = Trace::new("hmult");
    hmult.push(HeOp::HMult { level: 10 });
    hmult.push(HeOp::HRescale { level: 10 });
    // digits the trace never marks fresh: the compiler must still raise
    // them when it holds none, or holds another level's
    let mut stale = Trace::new("stale digits and the remaining arms");
    let hoisted = |level, amount| HeOp::HRotHoisted {
        level,
        amount,
        key: KeyId::Rot(amount),
        fresh_digits: false,
    };
    for op in [
        hoisted(10, 1),
        hoisted(10, 2),
        hoisted(9, 1),
        HeOp::HAdd { level: 9 },
        hoisted(9, 2),
        HeOp::HConj { level: 9 },
        HeOp::CMult { level: 9 },
        HeOp::CAdd { level: 9 },
        HeOp::PAdd {
            level: 9,
            fresh_plaintext: true,
        },
        HeOp::PMult {
            level: 9,
            fresh_plaintext: false,
        },
        HeOp::ModRaise,
    ] {
        stale.push(op);
    }
    let cases = [
        (
            "hoisted H-IDFT, baseline keys",
            hdft_trace(&HdftConfig {
                hoisting: true,
                ..hidft
            }),
            ArkConfig::base(),
            CompileOptions::all_on(),
            Pin {
                nodes: 1686,
                edges: 1994,
                graph_fnv: 6983375182467605449,
                cycles: 5257772,
                busy: [
                    Some(648960),
                    Some(277384),
                    Some(249312),
                    Some(977952),
                    Some(5232884),
                    Some(348000),
                ],
                hbm_evk_words: 638582784,
                hbm_plaintext_words: 12582912,
                hbm_other_words: 0,
                noc_words: 342097920,
                mod_mults: 8687321088,
            },
        ),
        (
            "H-IDFT, limb-wise only",
            hdft_trace(&HdftConfig::paper_hidft(&p, KeyStrategy::MinKs)),
            ArkConfig::limb_wise_only(),
            CompileOptions::all_on(),
            Pin {
                nodes: 1728,
                edges: 2064,
                graph_fnv: 3992250962738041700,
                cycles: 3446410,
                busy: [
                    Some(791808),
                    Some(386638),
                    Some(124320),
                    Some(977952),
                    Some(850412),
                    Some(1278536),
                ],
                hbm_evk_words: 91226112,
                hbm_plaintext_words: 12582912,
                hbm_other_words: 0,
                noc_words: 638582784,
                mod_mults: 10439098368,
            },
        ),
        (
            "H-IDFT, baseline keys, no OF-Limb, half SRAM",
            hdft_trace(&hidft),
            ArkConfig::half_sram(),
            CompileOptions { of_limb: false },
            Pin {
                nodes: 1782,
                edges: 2153,
                graph_fnv: 822182554877185243,
                cycles: 7472300,
                busy: [
                    Some(509184),
                    Some(386638),
                    Some(124320),
                    Some(977952),
                    Some(7447412),
                    Some(487200),
                ],
                hbm_evk_words: 638582784,
                hbm_plaintext_words: 289406976,
                hbm_other_words: 0,
                noc_words: 478937088,
                mod_mults: 8224505856,
            },
        ),
        (
            "HMult + HRescale at level 10",
            hmult,
            ArkConfig::base(),
            CompileOptions::all_on(),
            Pin {
                nodes: 23,
                edges: 24,
                graph_fnv: 13806977965779146640,
                cycles: 47158,
                busy: [
                    Some(6400),
                    Some(3126),
                    None,
                    Some(4960),
                    Some(35752),
                    Some(4588),
                ],
                hbm_evk_words: 4456448,
                hbm_plaintext_words: 0,
                hbm_other_words: 0,
                noc_words: 4456448,
                mod_mults: 75694080,
            },
        ),
        (
            "stale hoisted digits and the remaining arms",
            stale,
            ArkConfig::base(),
            CompileOptions::all_on(),
            Pin {
                nodes: 99,
                edges: 113,
                graph_fnv: 14952965303623974740,
                cycles: 145438,
                busy: [
                    Some(25088),
                    Some(13111),
                    Some(12496),
                    Some(16504),
                    Some(105784),
                    Some(19854),
                ],
                hbm_evk_words: 13107200,
                hbm_plaintext_words: 65536,
                hbm_other_words: 0,
                noc_words: 19267584,
                mod_mults: 295632896,
            },
        ),
    ];
    for (what, trace, cfg, opts, pin) in cases {
        let actual = measure(&trace, &p, &cfg, opts);
        assert_eq!(actual, pin, "{what}: the model's output moved");
    }
}
