//! A self-contained fuzzing driver for the workspace's untrusted
//! decode boundary — usable offline, with no `cargo-fuzz`/libFuzzer
//! toolchain (the build environment has no network access).
//!
//! Each target binary (`fuzz_frame`, `fuzz_program`, `fuzz_ingest`)
//! loads the checked-in corpus from `fuzz/corpus/<target>/`, then runs
//! a bounded number of iterations: pick a corpus entry (or start from
//! scratch), apply a stack of deterministic xorshift-driven mutations
//! (bit flips, truncation, extension, splices, integer smashes), and
//! feed the result to the decoder under test. The contract is the
//! library's: **malformed bytes yield typed errors, never panics or
//! unbounded allocation** — so the harness simply lets a panic crash
//! the process (non-zero exit fails CI) after a hook dumps the
//! offending input as hex for replay and for a regression corpus
//! entry.
//!
//! Determinism: same `--seed` + same corpus ⇒ same inputs, so every
//! failure reproduces. CI runs each target with a bounded `--iters`
//! over the checked-in corpus (`fuzz-smoke`); longer local runs just
//! raise the bound.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// xorshift64* — cheap, deterministic, dependency-free.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // the state must never be zero
        Self(seed | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn byte(&mut self) -> u8 {
        self.next_u64() as u8
    }

    pub fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

/// Parsed command line shared by every target.
pub struct Options {
    pub iters: u64,
    pub seed: u64,
    pub corpus_dir: PathBuf,
    pub max_len: usize,
}

/// Parses `--iters N --seed S --corpus DIR --max-len L`, with
/// defaults sized for a CI smoke run.
pub fn parse_args(target: &str) -> Options {
    let mut opts = Options {
        iters: 2000,
        seed: default_seed(target),
        corpus_dir: default_corpus_dir(target),
        max_len: 1 << 16,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--iters" => opts.iters = value("--iters").parse().expect("--iters: u64"),
            "--seed" => opts.seed = value("--seed").parse().expect("--seed: u64"),
            "--corpus" => opts.corpus_dir = value("--corpus").into(),
            "--max-len" => opts.max_len = value("--max-len").parse().expect("--max-len: usize"),
            other => panic!("unknown argument {other} (try --iters/--seed/--corpus/--max-len)"),
        }
    }
    opts
}

/// A stable per-target default seed (an FNV-1a hash of the name).
fn default_seed(target: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in target.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn default_corpus_dir(target: &str) -> PathBuf {
    // works from the workspace root (CI) and from fuzz/ (local runs)
    let from_root = Path::new("fuzz/corpus").join(target);
    if from_root.is_dir() {
        return from_root;
    }
    Path::new("corpus").join(target)
}

/// Loads every corpus file, sorted by name for determinism.
pub fn load_corpus(dir: &Path) -> Vec<Vec<u8>> {
    let mut entries: Vec<(String, Vec<u8>)> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter(|e| e.path().is_file())
            .map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                let bytes = std::fs::read(e.path()).expect("corpus entry readable");
                (name, bytes)
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries.into_iter().map(|(_, b)| b).collect()
}

/// One mutation stack over a base input.
pub fn mutate(rng: &mut Rng, base: &[u8], max_len: usize) -> Vec<u8> {
    let mut data = base.to_vec();
    let rounds = 1 + rng.below(8);
    for _ in 0..rounds {
        match rng.below(6) {
            // flip one byte
            0 if !data.is_empty() => {
                let i = rng.below(data.len());
                data[i] ^= rng.byte() | 1;
            }
            // flip one bit
            1 if !data.is_empty() => {
                let i = rng.below(data.len());
                data[i] ^= 1 << rng.below(8);
            }
            // truncate
            2 if !data.is_empty() => {
                data.truncate(rng.below(data.len()));
            }
            // extend with noise
            3 => {
                let n = 1 + rng.below(64);
                for _ in 0..n {
                    if data.len() >= max_len {
                        break;
                    }
                    data.push(rng.byte());
                }
            }
            // smash an aligned little-endian integer with an extreme
            // (length fields love this)
            4 if data.len() >= 8 => {
                let i = rng.below(data.len() - 7);
                let v: u64 = match rng.below(6) {
                    0 => 0,
                    1 => u64::MAX,
                    2 => u64::from(u32::MAX),
                    3 => 1 << rng.below(63),
                    4 => u64::from(u16::MAX),
                    _ => rng.next_u64(),
                };
                let w = [2usize, 4, 8][rng.below(3)];
                data[i..i + w].copy_from_slice(&v.to_le_bytes()[..w]);
            }
            // splice a random slice of the base back in
            _ if !base.is_empty() && !data.is_empty() => {
                let from = rng.below(base.len());
                let n = 1 + rng.below(base.len() - from);
                let at = rng.below(data.len());
                let end = (at + n).min(data.len());
                let n = end - at;
                data[at..end].copy_from_slice(&base[from..from + n]);
            }
            _ => {}
        }
    }
    data.truncate(max_len);
    data
}

/// The input currently being executed, for the panic hook.
static CURRENT_INPUT: Mutex<Vec<u8>> = Mutex::new(Vec::new());

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Runs `f` over `opts.iters` mutated inputs. Any panic inside `f`
/// aborts the process after printing the offending input — copy the
/// hex into `fuzz/corpus/<target>/` as a regression entry once the
/// decoder is fixed.
pub fn run(target: &str, opts: &Options, mut f: impl FnMut(&[u8])) {
    let corpus = load_corpus(&opts.corpus_dir);
    println!(
        "fuzz[{target}]: {} corpus entries from {}, {} iters, seed {:#x}",
        corpus.len(),
        opts.corpus_dir.display(),
        opts.iters,
        opts.seed
    );
    let default_hook = std::panic::take_hook();
    let name = target.to_string();
    std::panic::set_hook(Box::new(move |info| {
        let input = CURRENT_INPUT.lock().map(|g| g.clone()).unwrap_or_default();
        eprintln!(
            "fuzz[{name}]: PANIC on input ({} bytes): {}",
            input.len(),
            hex(&input)
        );
        default_hook(info);
    }));

    let mut rng = Rng::new(opts.seed);
    // every corpus entry runs unmutated first: checked-in regression
    // inputs must stay fixed forever
    for entry in &corpus {
        *CURRENT_INPUT.lock().unwrap() = entry.clone();
        f(entry);
    }
    for _ in 0..opts.iters {
        let base: &[u8] = if corpus.is_empty() || rng.chance(16) {
            &[]
        } else {
            &corpus[rng.below(corpus.len())]
        };
        let input = mutate(&mut rng, base, opts.max_len);
        *CURRENT_INPUT.lock().unwrap() = input.clone();
        f(&input);
    }
    let _ = std::panic::take_hook();
    println!("fuzz[{target}]: ok ({} iters, no panics)", opts.iters);
}
