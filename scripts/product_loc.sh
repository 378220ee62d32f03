#!/usr/bin/env bash
# Prints the product lines of the workspace's Rust sources: lines that
# are not blank, not `//` comments (`///` and `//!` docs included) and
# not inside a `#[cfg(test)]` item (the attribute, the item and its
# body). This is the count CHANGES.md reports as "product lines".
#
# Without PATHs it prints one row per source tree, `src/` and every
# `crates/*/src` (binaries under `src/bin` included), then the total.
# Each PATH, a file or directory relative to REPO_ROOT, gets a row of
# its own instead; `.rs` files under a directory are counted.
#
# `--self-test` counts a fixture (comments, a `#[cfg(test)]` module
# whose strings hold `{` and `//`, a one-line `#[cfg(test)]` item, char
# literals and lifetimes) and checks that exactly its product lines are
# counted. CI runs it, and the count, in the lint job.
#
# Usage: scripts/product_loc.sh [REPO_ROOT [PATH...]]   (default: cwd)
#        scripts/product_loc.sh --self-test
set -euo pipefail

root="${1:-.}"
if [ "$#" -gt 0 ]; then shift; fi

python3 - "$root" "$@" <<'EOF'
import glob, os, re, sys, tempfile

CFG_TEST = re.compile(r"^\s*#\[cfg\((?:all\()?test\b")


def code_events(text):
    """Yields `{`, `}` and `;` of `text` that are code, not part of a
    string, char literal or comment, in order."""
    i, n, depth_comment = 0, len(text), 0
    while i < n:
        c = text[i]
        if depth_comment:
            if text.startswith("*/", i):
                depth_comment, i = depth_comment - 1, i + 2
            elif text.startswith("/*", i):
                depth_comment, i = depth_comment + 1, i + 2
            else:
                i += 1
        elif text.startswith("//", i):
            i = text.find("\n", i)
            i = n if i < 0 else i
        elif text.startswith("/*", i):
            depth_comment, i = 1, i + 2
        elif raw := re.match(r'b?r(#*)"', text[i:]):
            end = text.find('"' + raw.group(1), i + raw.end())
            i = n if end < 0 else end + 1 + len(raw.group(1))
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 2 if text[i] == "\\" else 1
            i += 1
        elif c == "'":
            # a char literal ('x', '\n', '\u{7b}'), else a lifetime
            lit = re.match(r"'(?:\\(?:u\{[0-9a-fA-F]*\}|.)|[^\\'])'", text[i:])
            i += lit.end() if lit else 1
        else:
            if c in "{};":
                yield i, c
            i += 1


def product_lines(path):
    """The 1-based numbers of the product lines of the file `path`."""
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    starts, offset = [], 0
    for line in lines:
        starts.append(offset)
        offset += len(line) + 1
    # mark the lines of every #[cfg(test)] item: from the attribute to
    # the `;` or the `}` that closes the item's first `{`
    skip = [False] * len(lines)
    events = list(code_events(text))
    for number, line in enumerate(lines):
        attribute = CFG_TEST.match(line)
        if skip[number] or not attribute:
            continue
        # the item starts after the attribute's `]`, on its line or below
        item = text.find("]", starts[number] + attribute.end())
        depth, end = 0, len(text)
        for at, c in events:
            if at < item:
                continue
            if c == ";" and depth == 0:
                end = at
                break
            depth += {"{": 1, "}": -1}.get(c, 0)
            if depth < 0:  # a field or arm: its enclosing item closes
                end = at - 1
                break
            if c == "}" and depth == 0:
                end = at
                break
        last = number
        while last + 1 < len(lines) and starts[last + 1] <= end:
            last += 1
        for k in range(number, last + 1):
            skip[k] = True
    return [
        number + 1
        for number, line in enumerate(lines)
        if not skip[number] and line.strip() and not line.strip().startswith("//")
    ]


def count(root, rel):
    path = os.path.join(root, rel)
    if os.path.isfile(path):
        return len(product_lines(path))
    files = glob.glob(os.path.join(path, "**", "*.rs"), recursive=True)
    if not files:
        sys.exit(f"product_loc: no .rs file under {rel}")
    return sum(len(product_lines(f)) for f in files)


# Every product line of the fixture, and no other line, ends in `// +`.
FIXTURE = """\
//! A crate doc line.

/// A doc line.
pub fn open() -> char { // +
    // a comment holding a brace {
    '{' // +
} // +

pub struct Holder<'a> { // +
    name: &'a str, // +
} // +

#[cfg(all(test, feature = "slow"))]
fn helper<'a>(s: &'a str) -> usize {
    if s.is_empty() { '}' as usize } else { s.len() }
}

#[cfg(test)] use std::fmt::Debug;

pub fn two() -> usize { // +
    2 // +
} // +

#[cfg(test)]
mod tests {
    const BRACE: &str = "{ // not a comment";
    const RAW: &str = r#"a quoted "{" // {"#;
    // a closing brace in a comment: }

    #[test]
    fn t() {
        assert_eq!(super::open(), '{');
    }
}

pub fn three<'b>(x: &'b u8) -> &'b u8 { // +
    x // +
} // +
"""


def self_test():
    expect = [k + 1 for k, line in enumerate(FIXTURE.split("\n")) if line.endswith("// +")]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lib.rs")
        with open(path, "w", encoding="utf-8") as f:
            f.write(FIXTURE)
        got = product_lines(path)
    if got != expect:
        print(f"FAIL self-test: counted lines {got}, expected {expect}")
        sys.exit(1)
    print(f"ok   self-test: {len(got)} product lines of the fixture counted, no other")
    sys.exit(0)


root, paths = sys.argv[1], sys.argv[2:]
if root == "--self-test":
    self_test()
if not paths:
    crates = sorted(glob.glob(os.path.join(root, "crates", "*", "src")))
    paths = ["src"] + [os.path.relpath(c, root) for c in crates]
rows = [(rel, count(root, rel)) for rel in paths]
width = max(len(rel) for rel, _ in rows + [("total", 0)])
for rel, lines in rows:
    print(f"{rel:<{width}}  {lines:>6}")
print(f"{'total':<{width}}  {sum(lines for _, lines in rows):>6}")
EOF
