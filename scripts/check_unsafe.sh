#!/usr/bin/env bash
# Audits every `unsafe` occurrence in first-party Rust sources: each
# one must carry a `// SAFETY:` justification (or, for `unsafe fn`
# declarations, a `# Safety` doc section) on the same line or within
# the preceding lines. Every library crate root (`src/lib.rs`) must
# also carry `#![forbid(unsafe_code)]`: the justified sites live in
# test binaries, and a library that needs one must say so here first.
# Vendored and generated code is excluded. CI runs this in the lint
# job; run it locally before adding unsafe code.
#
# Usage: scripts/check_unsafe.sh [REPO_ROOT]   (default: cwd)
set -euo pipefail

root="${1:-.}"
files=$(find "$root/src" "$root/crates" "$root/fuzz" -name '*.rs' -not -path '*/vendor/*' -not -path '*/target/*' | sort)
if [ -z "$files" ]; then
    echo "check_unsafe: no Rust sources found under $root" >&2
    exit 1
fi

# shellcheck disable=SC2086
python3 - $files <<'EOF'
import re, sys

# how far above an `unsafe` token a SAFETY justification may sit
# (covers a `/// # Safety` doc section heading an unsafe fn, and an
# impl-level comment covering a short unsafe trait impl)
WINDOW = 8

# `\b` keeps lint names like unsafe_op_in_unsafe_fn from matching
UNSAFE = re.compile(r"\bunsafe\b")
JUSTIFIED = re.compile(r"SAFETY:|# Safety")
COMMENT = re.compile(r"^\s*(//|//!|///)")

FORBID = re.compile(r"^#!\[forbid\(unsafe_code\)\]", re.M)

sites = 0
undocumented = []
unforbidden = []
for path in sys.argv[1:]:
    with open(path) as f:
        lines = f.readlines()
    if path.endswith("/src/lib.rs") and not FORBID.search("".join(lines)):
        unforbidden.append(path)
    for i, line in enumerate(lines):
        if not UNSAFE.search(line):
            continue
        if COMMENT.match(line):
            continue  # prose about unsafe, not unsafe code
        sites += 1
        window = lines[max(0, i - WINDOW) : i + 1]
        if not any(JUSTIFIED.search(l) for l in window):
            undocumented.append(f"{path}:{i + 1}: {line.strip()}")

if unforbidden:
    print(f"FAIL: {len(unforbidden)} library crate root(s) without #![forbid(unsafe_code)]:")
    for s in unforbidden:
        print(f"  {s}")
if undocumented:
    print(f"FAIL: {len(undocumented)} unsafe site(s) without a SAFETY justification:")
    for s in undocumented:
        print(f"  {s}")
if unforbidden or undocumented:
    sys.exit(1)
libs = sum(p.endswith("/src/lib.rs") for p in sys.argv[1:])
print(f"ok   {sites} unsafe site(s), all documented; {libs} library crate(s) forbid unsafe code")
EOF
