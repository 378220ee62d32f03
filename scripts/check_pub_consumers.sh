#!/usr/bin/env bash
# Checks that ark-math exports only what runs: every `pub` item (fn,
# type, const, static, trait, module or struct field) in crates/math/src
# outside `#[cfg(test)]` code must have a reference in product code, or
# an allow-list line below naming its role (test oracle, test knob or
# test probe). Product code is every line of src/, crates/*/src,
# benchmark/src and fuzz/src that is neither a comment nor inside
# `#[cfg(test)]` code, other than the item's own definition line.
#
# A reference to a fn is a call or a path (`name(`, `::name`); to any
# other item, the bare word. Matching is textual, so a common method
# name (`new`, `len`) always finds one: the check catches dead specific
# names, not every dead method. An allow-list line whose item is gone,
# or has gained a product reference, is stale and fails the check too.
# CI runs this in the lint job.
#
# Usage: scripts/check_pub_consumers.sh [REPO_ROOT]   (default: cwd)
set -euo pipefail

root="${1:-.}"
if [ ! -d "$root/crates/math/src" ]; then
    echo "check_pub_consumers: no crates/math/src under $root" >&2
    exit 1
fi

python3 - "$root" <<'EOF'
import glob, os, re, sys

root = sys.argv[1]

# `module::name  role: why`. The role says why a test-only item is
# public: a test oracle (an independent reference that product kernels
# are checked against), a test knob (a setting only tests turn) or a
# test probe (a read-out only tests take).
ALLOW = """
automorphism::apply_coeff                test oracle: the Galois map on coefficients, against which eval_permutation is checked
automorphism::apply_eval                 test oracle: allocating permute, used by the nested reference in crates/math/tests/support
automorphism::strided_block_destination  test oracle: the AutoU strided-destination property (Section V-D)
bconv::from_indices                      test oracle: source limbs, read by the nested reference
bconv::to_indices                        test oracle: target limbs, read by the nested reference
bconv::routine                           test oracle: allocating BConvRoutine (Alg. 1) that routine_with is checked against
cfft::conj                               test oracle: expected slots of the conjugation tests
cfft::fft                                test oracle: the plain complex FFT behind the special-FFT tests
crt::decompose                           test oracle: big integer to residues, the inverse of reconstruct
crt::product                             test oracle: the CRT modulus, read by the exact-BConv tests
modulus::to_signed                       test oracle: centered lift of a residue
ntt::negacyclic_mul                      test oracle: one-limb product through the NTT
ntt::negacyclic_mul_naive                test oracle: O(N^2) negacyclic convolution
par::with_min_dispatch_words             test knob: drops the fan-out floor so small test rings take the threaded path
scratch::peak_in_use_words               test probe: working-set high-water mark read by the rotate_sum charge test
scratch::pooled_words                    test probe: words retained by the free pools, read by the arena tests
wire::poly_to_frame                      test oracle: a standalone polynomial frame for the codec tests
"""

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern)\s+)*"
    r"(?:fn|struct|enum|trait|type|static|const|mod)\s+(?:mut\s+)?([A-Za-z_]\w*)"
)
FIELD = re.compile(r"^\s*pub\s+([a-z_]\w*)\s*:")
COMMENT = re.compile(r"^\s*//")
CFG_TEST = re.compile(r"^\s*#\[cfg\((?:all\()?test\b")
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')
WORD = re.compile(r"[A-Za-z_]\w*")


def mentions(kind_fn, name, text):
    """Whether `text` refers to the item: any word match for a type,
    const or field, a call or a path for a fn (a field or local of the
    same name is not a use of the method)."""
    if not kind_fn:
        return True
    return re.search(rf"\b{name}\s*(?:::\s*<[^>]*>\s*)?\(|::\s*{name}\b", text) is not None


def product_lines(path):
    """(line number, text) of every line outside comments and
    `#[cfg(test)]` items, whose extent is found by brace counting."""
    out = []
    skipping = False
    depth = 0
    opened = False
    with open(path) as f:
        for no, line in enumerate(f, 1):
            if not skipping and CFG_TEST.match(line):
                skipping, depth, opened = True, 0, False
            if skipping:
                code = LITERAL.sub("", line.split("//")[0])
                depth += code.count("{") - code.count("}")
                opened = opened or "{" in code
                if (opened and depth <= 0) or (not opened and code.rstrip().endswith(";")):
                    skipping = False
                continue
            if COMMENT.match(line):
                continue
            out.append((no, line))
    return out


def rust_files(pattern):
    return sorted(
        p for p in glob.glob(os.path.join(root, pattern), recursive=True)
        if "/target/" not in p and "/vendor/" not in p
    )


product = []
for pattern in ("src/**/*.rs", "crates/*/src/**/*.rs", "benchmark/src/**/*.rs", "fuzz/src/**/*.rs"):
    product += rust_files(pattern)

refs = {}  # word -> {(path, line number): line}
for path in product:
    for no, line in product_lines(path):
        for w in set(WORD.findall(line)):
            refs.setdefault(w, {})[(path, no)] = line

items = []  # (module::name, path, line number, definition line)
for path in rust_files("crates/math/src/*.rs"):
    module = os.path.splitext(os.path.basename(path))[0]
    for no, line in product_lines(path):
        m = ITEM.match(line) or FIELD.match(line)
        if m:
            items.append((f"{module}::{m.group(1)}", path, no, line.strip()))

ROLES = ("test oracle:", "test knob:", "test probe:")
failures = []
allow = {}
for entry in ALLOW.strip().splitlines():
    key, role = entry.split(None, 1)
    allow[key] = role
    if not role.startswith(ROLES):
        failures.append(f"allow-list line `{key}` names no role ({', '.join(ROLES)})")

seen = set()
for key, path, no, text in items:
    seen.add(key)
    name = key.split("::", 1)[1]
    is_fn = re.search(r"\bfn\s", text) is not None
    used = any(
        site != (path, no) and mentions(is_fn, name, line)
        for site, line in refs.get(name, {}).items()
    )
    rel = os.path.relpath(path, root)
    if key in allow and used:
        failures.append(f"{rel}:{no}: stale allow-list line `{key}`: it has a product reference now")
    elif key not in allow and not used:
        failures.append(f"{rel}:{no}: `{text}` has no product reference; delete it or allow-list its role")
for key in allow:
    if key not in seen:
        failures.append(f"stale allow-list line `{key}`: no such pub item in crates/math/src")

if failures:
    print(f"FAIL: {len(failures)} pub item(s) in crates/math/src without a consumer or a role:")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"ok   {len(items)} pub item(s) in crates/math/src, {len(allow)} of them test-only by role")
EOF
