//! The `paper` binary, run as CI and a reader would: every name in its
//! list is unique and resolves, every section prints something, no
//! figure in the full output is `NaN` or infinite, and the full output
//! is `paper.golden.txt` byte for byte — the cycle model is
//! deterministic and prints no host timing, so a diff there is a change
//! to the model (or to a table's layout), never noise.

use std::process::{Command, Output};

fn paper(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_paper"))
        .args(args)
        .output()
        .expect("the paper binary runs")
}

#[test]
fn every_listed_section_resolves_and_prints_finite_numbers() {
    // an unknown name prints the list on stderr, nothing on stdout
    let refused = paper(&["fig7", "table0"]);
    assert_eq!(refused.status.code(), Some(2));
    assert!(refused.stdout.is_empty(), "nothing runs before the refusal");
    let listing = String::from_utf8(refused.stderr).expect("UTF-8");
    assert!(
        listing.contains("`table0`"),
        "names the culprit:\n{listing}"
    );
    let names: Vec<&str> = listing
        .lines()
        .skip(1)
        .map(|line| line.split_whitespace().next().expect("a name per line"))
        .collect();

    let mut full = String::new();
    for (i, name) in names.iter().enumerate() {
        assert!(!names[..i].contains(name), "two sections named {name}");
        let run = paper(&[name]);
        assert!(run.status.success(), "{name} failed: {run:?}");
        let text = String::from_utf8(run.stdout).expect("UTF-8");
        assert!(!text.trim().is_empty(), "{name} printed nothing");
        for bad in ["NaN", "inf"] {
            assert!(!text.contains(bad), "{name} printed {bad}:\n{text}");
        }
        full.push_str(&text);
    }

    // no argument means all of them, in the listed order
    let all = paper(&[]);
    assert!(all.status.success());
    assert_eq!(String::from_utf8(all.stdout).expect("UTF-8"), full);

    assert!(
        full == include_str!("paper.golden.txt"),
        "`paper` no longer prints crates/bench/tests/paper.golden.txt. If the model was \
         meant to change, say so in the PR and regenerate it:\n  \
         cargo run --release -q -p ark-bench --bin paper > crates/bench/tests/paper.golden.txt\n\
         it printed:\n{full}"
    );
}
