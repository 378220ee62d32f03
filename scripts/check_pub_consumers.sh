#!/usr/bin/env bash
# Checks that every library crate of the workspace exports only what
# runs: every `pub` item (fn, type, const, static, trait, module or
# struct field) in the audited sources outside `#[cfg(test)]` code must
# have a reference in product code, or an allow-list line below naming
# its role (test oracle, test knob, test probe or deployment setting).
#
# Audited: src/ (ark-fhe) and crates/{math,ckks,workloads,core,net,
# client,serve,scenarios,bench}/src, binaries under src/bin excepted.
# Product code is every line of src/, crates/*/src, benchmark/src,
# fuzz/src, examples/ and crates/*/examples that is neither a comment
# nor inside `#[cfg(test)]` code, other than the definition line of an
# audited item of the same name (the item's own, or a namesake's).
#
# A reference to a fn is a call or a path (`name(`, `::name`), the
# bare name as an argument of a macro invocation (`m!(.., name, ..)`),
# or, in the file that defines the fn, the bare name as a call argument
# (`f(x, name)`, `.map(name)`: the fn passed by value; elsewhere such a
# name is a local, and a fn imported to be passed is named by its `use`
# path); to any other item, the bare word. Matching is textual, so a common
# method name (`new`, `len`) always finds one, and two methods that
# share a name look used if either is used: the check catches dead
# specific names, not every dead method. An allow-list line whose item is gone,
# or has gained a product reference, is stale and fails the check too.
# CI runs this, and its `--self-test`, in the lint job.
#
# Usage: scripts/check_pub_consumers.sh [REPO_ROOT]   (default: cwd)
#        scripts/check_pub_consumers.sh --self-test
set -euo pipefail

if [ "${1:-}" = "--self-test" ]; then
    mode=self-test
    root=.
else
    mode=audit
    root="${1:-.}"
fi

python3 - "$mode" "$root" <<'EOF'
import glob, os, re, sys, tempfile

# `crate::module::name  role: why`. The role says why an item no
# product code reaches is public: a test oracle (an independent
# reference that product code is checked against), a test knob (a
# setting only tests turn), a test probe (a read-out only tests take)
# or a deployment setting (a knob an operator sets, kept configurable
# though no caller in the repository sets it).
ALLOW = """
ark_math::automorphism::apply_coeff                test oracle: the Galois map on coefficients, against which eval_permutation is checked
ark_math::automorphism::apply_eval                 test oracle: allocating permute, used by the nested reference in crates/math/tests/support
ark_math::automorphism::strided_block_destination  test oracle: the AutoU strided-destination property (Section V-D)
ark_math::bconv::from_indices                      test oracle: source limbs, read by the nested reference
ark_math::bconv::to_indices                        test oracle: target limbs, read by the nested reference
ark_math::bconv::routine                           test oracle: allocating BConvRoutine (Alg. 1) that routine_with is checked against
ark_math::cfft::conj                               test oracle: expected slots of the conjugation tests
ark_math::cfft::fft                                test oracle: the plain complex FFT behind the special-FFT tests
ark_math::crt::decompose                           test oracle: big integer to residues, the inverse of reconstruct
ark_math::crt::product                             test oracle: the CRT modulus, read by the exact-BConv tests
ark_math::modulus::to_signed                       test oracle: centered lift of a residue
ark_math::ntt::negacyclic_mul                      test oracle: one-limb product through the NTT
ark_math::ntt::negacyclic_mul_naive                test oracle: O(N^2) negacyclic convolution
ark_math::par::with_min_dispatch_words             test knob: drops the fan-out floor so small test rings take the threaded path
ark_math::scratch::peak_in_use_words               test probe: working-set high-water mark read by the rotate_sum charge test
ark_math::scratch::pooled_words                    test probe: words retained by the free pools, read by the arena tests
ark_math::wire::poly_to_frame                      test oracle: a standalone polynomial frame for the codec tests
ark_fhe::engine::keys::runtime_keys_enabled        test probe: whether a session derives undeclared keys, read by the runtime-key tests
ark_fhe::engine::keys::runtime_cached_keys         test probe: entries in the bounded runtime-key cache, read by the runtime-key tests
ark_fhe::engine::keys::evk_words                   test probe: resident key words, read by the engine tests
ark_ckks::evalmod::eval_clear                      test oracle: the Clenshaw value that eval_chebyshev is checked against
ark_ckks::lintrans::from_matrix                    test oracle: diagonals of a dense matrix, checked against the plain product
ark_ckks::lintrans::eval_linear_transform_per_rotation  test oracle: the unhoisted BSGS evaluation the hoisted one must equal bit for bit
ark_ckks::minks::detect_arithmetic_pattern         test oracle: Min-KS's arithmetic-progression test (Fig. 1), run on the HELR and ResNet rotation sets
ark_ckks::minks::keys_per_bsgs_pass                test oracle: Min-KS's key-count formula (Fig. 1), against which the planned key sets are checked
ark_ckks::oflimb                                   test oracle: OF-Limb (Eq. 12), whose exactness backs the model's of_limb traffic; kept until the runtime-data-generation ablation decides it
ark_ckks::oflimb::expand_plaintext                 test oracle: OF-Limb's on-chip limb extension (Eq. 12)
ark_ckks::oflimb::encode_compressed                test oracle: OF-Limb's one-limb plaintext encoding (Eq. 12)
ark_workloads::helr::inner_product_rotations       test oracle: the rotation amounts of HELR's inner product, which the tests show form no arithmetic progression
ark_workloads::trace::key_switch_count             test probe: key-switches in a trace, read by the trace, HELR and sorting tests
ark_workloads::trace::decompose_count              test probe: digit decompositions in a trace, read by the hoisting tests
ark_workloads::trace::distinct_keys                test probe: distinct evaluation keys in a trace (the quantity Min-KS minimizes), read by the key-count tests
ark_core::pf::total_work                           test probe: work per resource in a compiled graph, read by the compile tests
ark_core::pf::hbm_words                            test probe: HBM words per data kind in a compiled graph, read by the traffic tests
ark_core::pf::evk_hits                             test probe: evk cache hits in a compiled graph, read by the scratchpad tests
ark_core::pf::evk_misses                           test probe: evk cache misses in a compiled graph, read by the scratchpad tests
ark_client::core::in_flight                        test probe: requests awaiting a response, read by the core and interop tests
ark_serve::server::shards                          test probe: worker count of a running server, read by the server tests
ark_serve::client::read_timeout                    deployment setting: socket read deadline of a client connection
ark_serve::client::write_timeout                   deployment setting: socket write deadline of a client connection
"""

# (crate, source directory) of every audited library crate
CRATES = [
    ("ark_fhe", "src"),
    ("ark_math", "crates/math/src"),
    ("ark_ckks", "crates/ckks/src"),
    ("ark_workloads", "crates/workloads/src"),
    ("ark_core", "crates/core/src"),
    ("ark_net", "crates/net/src"),
    ("ark_client", "crates/client/src"),
    ("ark_serve", "crates/serve/src"),
    ("ark_scenarios", "crates/scenarios/src"),
    ("ark_bench", "crates/bench/src"),
]
CONSUMERS = (
    "src/**/*.rs", "crates/*/src/**/*.rs", "benchmark/src/**/*.rs",
    "fuzz/src/**/*.rs", "examples/**/*.rs", "crates/*/examples/**/*.rs",
)
ROLES = ("test oracle:", "test knob:", "test probe:", "deployment setting:")

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern)\s+)*"
    r"(?:fn|struct|enum|trait|type|static|const|mod)\s+(?:mut\s+)?([A-Za-z_]\w*)"
)
FIELD = re.compile(r"^\s*pub\s+([a-z_]\w*)\s*:")
COMMENT = re.compile(r"^\s*//")
CFG_TEST = re.compile(r"^\s*#\[cfg\((?:all\()?test\b")
LITERAL = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'')
WORD = re.compile(r"[A-Za-z_]\w*")
MACRO_CALL = re.compile(r"\b(?!macro_rules\b)[A-Za-z_]\w*!\s*[(\[{]")
OPEN, CLOSE = "([{", ")]}"


def mentions(is_fn, name, text, macro_args, same_file):
    """Whether `text` refers to the item: any word match for a type,
    const or field; for a fn a call or a path (a field or local of the
    same name is not a use of the method), an argument of a macro
    invocation that is the bare name (`macro_args`, literals removed),
    or, on a line of the fn's own file (`same_file`), the bare name as
    a call argument."""
    if not is_fn:
        return True
    if re.search(rf"\b{name}\s*(?:::\s*<[^>]*>\s*)?\(|::\s*{name}\b", text):
        return True
    if same_file and re.search(rf"[(,]\s*{name}\s*[,)]", LITERAL.sub("", text.split("//")[0])):
        return True
    return re.search(rf"(?:^|[,(\[{{])\s*{name}\s*(?:[,)\]}}]|$)", macro_args) is not None


def product_lines(path):
    """(line number, text, macro-argument text) of every line outside
    comments and `#[cfg(test)]` items, whose extent is found by brace
    counting. The third field holds the parts of the line, literals
    removed, that sit inside a macro invocation's delimiters."""
    out = []
    skipping = False
    depth = 0
    opened = False
    macro_depth = 0  # delimiter depth inside the current macro call
    with open(path) as f:
        for no, line in enumerate(f, 1):
            if not skipping and CFG_TEST.match(line):
                skipping, depth, opened = True, 0, False
            code = LITERAL.sub("", line.split("//")[0])
            if skipping:
                depth += code.count("{") - code.count("}")
                opened = opened or "{" in code
                if (opened and depth <= 0) or (not opened and code.rstrip().endswith(";")):
                    skipping = False
                continue
            if COMMENT.match(line):
                continue
            args = []
            i = 0
            while i < len(code):
                if macro_depth == 0:
                    m = MACRO_CALL.search(code, i)
                    if not m:
                        break
                    i = m.end()
                    macro_depth = 1
                    continue
                c = code[i]
                if c in OPEN:
                    macro_depth += 1
                elif c in CLOSE:
                    macro_depth -= 1
                args.append(c if macro_depth else " ")
                i += 1
            out.append((no, line, "".join(args)))
    return out


def rust_files(root, pattern):
    return sorted(
        p for p in glob.glob(os.path.join(root, pattern), recursive=True)
        if "/target/" not in p and "/vendor/" not in p
    )


def module_path(crate, src, path):
    """`crate::a::b` for src/a/b.rs or src/a/b/mod.rs; `crate` for lib.rs."""
    parts = os.path.splitext(os.path.relpath(path, src))[0].split(os.sep)
    if parts[-1] in ("lib", "mod"):
        parts = parts[:-1]
    return "::".join([crate] + parts)


def audit(root, allow_text, crates):
    """The audit's failures and a summary line."""
    refs = {}  # word -> {(path, line number): (line, macro args)}
    for pattern in CONSUMERS:
        for path in rust_files(root, pattern):
            for no, line, args in product_lines(path):
                for w in set(WORD.findall(line)):
                    refs.setdefault(w, {})[(path, no)] = (line, args)

    failures = []
    items = []  # (crate::module::name, path, line number, definition line)
    for crate, src in crates:
        src = os.path.join(root, src)
        if not os.path.isdir(src):
            failures.append(f"no library source directory {os.path.relpath(src, root)}")
            continue
        for path in rust_files(src, "**/*.rs"):
            if os.path.relpath(path, src).startswith("bin" + os.sep):
                continue
            module = module_path(crate, src, path)
            for no, line, _ in product_lines(path):
                m = ITEM.match(line) or FIELD.match(line)
                if m:
                    items.append((f"{module}::{m.group(1)}", path, no, line.strip()))

    allow = {}
    for entry in allow_text.strip().splitlines():
        key, role = entry.split(None, 1)
        allow[key] = role
        if not role.startswith(ROLES):
            failures.append(f"allow-list line `{key}` names no role ({', '.join(ROLES)})")

    # name -> every audited definition line of that name: a namesake's
    # definition is no more a use than the item's own
    definitions = {}
    for key, path, no, _ in items:
        definitions.setdefault(key.rsplit("::", 1)[1], set()).add((path, no))
    dead_by_key = {}  # key -> [(path, line number, text)] of its items without a reference
    for key, path, no, text in items:
        name = key.rsplit("::", 1)[1]
        is_fn = re.search(r"\bfn\s", text) is not None
        used = any(
            site not in definitions[name] and mentions(is_fn, name, line, args, site[0] == path)
            for site, (line, args) in refs.get(name, {}).items()
        )
        dead = dead_by_key.setdefault(key, [])
        if not used:
            dead.append((path, no, text))
    for key, dead in dead_by_key.items():
        if key in allow and not dead:
            failures.append(f"stale allow-list line `{key}`: it has a product reference now")
        elif key not in allow:
            for path, no, text in dead:
                rel = os.path.relpath(path, root)
                failures.append(f"{rel}:{no}: `{text}` has no product reference; delete it or allow-list its role")
    for key in allow:
        if key not in dead_by_key:
            failures.append(f"stale allow-list line `{key}`: no such pub item in the audited crates")
    summary = f"{len(items)} pub item(s) in {len(crates)} crate(s), {len(allow)} of them test-only or settings by role"
    return failures, summary


def self_test():
    """Runs the audit over throwaway trees; each case names the
    failures it expects, by a substring of each."""
    lib = """\
pub fn live() {}
pub fn dead_fn() {}
pub fn by_macro() {}
pub fn by_example() {}
pub fn oracle() {}
pub fn by_value() {}
pub fn shadowed() {}
pub struct One;
pub struct Two;
impl One {
    pub fn twin(&self) {}
}
impl Two {
    pub fn twin(&self) {}
}
fn route(xs: &[u8]) { apply(xs, by_value); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { super::oracle(); super::dead_fn(); }
}
"""
    user = "fn main() { demo::live(); run!(by_macro); let shadowed = 1; show(0, shadowed); }\n"
    example = "fn main() { demo::by_example(); }\n"
    oracle = "demo::oracle  test oracle: the reference the tests compare against"
    probe = "\ndemo::dead_fn  test probe: read by a test"
    shadow = "\ndemo::shadowed  test probe: read by a test"
    # (what, allow-list, a substring of each expected failure, names no
    # failure may mention)
    twins = "\ndemo::twin  test probe: read by a test"
    base = oracle + shadow + twins
    cases = [
        ("a dead pub fn fails", base, ["`pub fn dead_fn() {}` has no product reference"], []),
        ("two same-named unused methods both fail", oracle + shadow + probe,
         ["crates/demo/src/lib.rs:11: `pub fn twin(&self) {}`",
          "crates/demo/src/lib.rs:14: `pub fn twin(&self) {}`"], []),
        ("a stale allow-list line fails", base + probe + "\ndemo::live  test probe: read by tests",
         ["stale allow-list line `demo::live`"], []),
        ("a line with an unknown role fails", base + "\ndemo::dead_fn  test helper: called by a test",
         ["allow-list line `demo::dead_fn` names no role"], []),
        ("a fn used only as a macro argument passes", base + probe, [], ["by_macro"]),
        ("an item used only by an example passes", base + probe, [], ["by_example"]),
        ("a fn passed by value in its own file passes", base + probe, [], ["by_value"]),
        ("a same-named local in another file is no reference", oracle + probe + twins,
         ["`pub fn shadowed() {}` has no product reference"], []),
    ]
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        for path, text in [("crates/demo/src/lib.rs", lib), ("crates/app/src/main.rs", user),
                           ("examples/show.rs", example)]:
            os.makedirs(os.path.dirname(os.path.join(tmp, path)), exist_ok=True)
            with open(os.path.join(tmp, path), "w") as f:
                f.write(text)
        for what, allow_text, expect, absent in cases:
            failures, _ = audit(tmp, allow_text, [("demo", "crates/demo/src")])
            good = (
                len(failures) == len(expect)
                and all(any(e in f for f in failures) for e in expect)
                and not any(a in f for a in absent for f in failures)
            )
            print(f"{'ok  ' if good else 'FAIL'} self-test: {what}")
            if not good:
                ok = False
                for f in failures:
                    print(f"       got: {f}")
    sys.exit(0 if ok else 1)


mode, root = sys.argv[1], sys.argv[2]
if mode == "self-test":
    self_test()
failures, summary = audit(root, ALLOW, CRATES)
if failures:
    print(f"FAIL: {len(failures)} pub item(s) without a consumer or a role:")
    for f in failures:
        print(f"  {f}")
    sys.exit(1)
print(f"ok   {summary}")
EOF
