#!/usr/bin/env bash
# Validates every BENCH_*.json benchmark artifact in the repo root:
# well-formed JSON, the schema-specific required keys present, and the
# in-run correctness flags true. One script replaces the per-job inline
# python steps so every CI job (and local runs) validate artifacts the
# same way.
#
# Usage: scripts/check_bench.sh [DIR]   (default: repo root / cwd)
set -euo pipefail

dir="${1:-.}"
shopt -s nullglob
files=("$dir"/BENCH_*.json)
if [ ${#files[@]} -eq 0 ]; then
    echo "check_bench: no BENCH_*.json artifacts found in $dir" >&2
    exit 1
fi

python3 - "${files[@]}" <<'EOF'
import json, os, sys

# per-artifact contract: required keys, and flags that must be true
CONTRACTS = {
    "BENCH_PR2.json": {
        "keys": ["schema", "params", "results", "thread_counts"],
        "flags": ["bit_identical_across_threads"],
    },
    "BENCH_PR3.json": {
        "keys": ["schema", "params", "results"],
        "flags": ["roundtrip_validated"],
    },
    "BENCH_PR4.json": {
        "keys": ["schema", "params"],
        "flags": ["compression_ok", "runtime_bit_identical"],
    },
    "BENCH_PR5.json": {
        "keys": [
            "schema", "params", "results", "decompose_counts",
            "evk_loads_per_strategy", "hoisted_speedup",
            "rotate_sum_speedup",
        ],
        "flags": ["bit_identical", "rotate_sum_agrees"],
    },
    "BENCH_PR6.json": {
        "keys": ["schema", "params", "results", "host_parallelism"],
        "flags": ["zero_protocol_errors", "bit_identical"],
    },
    "BENCH_PR7.json": {
        "keys": [
            "schema", "params", "results", "allocations_per_op",
            "speedup_vs_nested",
        ],
        "flags": ["bit_identical", "zero_alloc_steady_state"],
    },
    "BENCH_PR8.json": {
        "keys": ["schema", "params", "results"],
        "flags": ["accuracy_ok", "remote_bit_identical", "verify_ok"],
    },
}

failed = False
for path in sys.argv[1:]:
    name = os.path.basename(path)
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"FAIL {name}: unreadable or malformed JSON: {e}")
        failed = True
        continue
    contract = CONTRACTS.get(name)
    if contract is None:
        print(f"FAIL {name}: unknown artifact (add its contract to scripts/check_bench.sh)")
        failed = True
        continue
    missing = [k for k in contract["keys"] if k not in d]
    bad_flags = [k for k in contract["flags"] if d.get(k) is not True]
    if missing or bad_flags:
        if missing:
            print(f"FAIL {name}: missing keys {missing}")
        if bad_flags:
            print(f"FAIL {name}: flags not true: {bad_flags}")
        failed = True
        continue
    print(f"ok   {name}: {json.dumps(d['params'])}")

sys.exit(1 if failed else 0)
EOF
