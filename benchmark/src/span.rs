//! In-memory span recorder. The benchmark records spans from its own
//! files, around its calls into each layer; nothing here touches the
//! product crates.

use crate::json::{obj, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval. `parent` is 0 for a root span; spans of one job
/// share `job`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Records spans for one thread. Ids are unique across recorders with
/// different lanes, so per-connection recorders merge without clashes.
#[derive(Debug)]
pub struct Recorder {
    spans: Vec<Span>,
    /// Indices into `spans` of the spans `open` started and `close`
    /// has not ended yet, innermost last.
    stack: Vec<usize>,
    lane: u64,
    job: u64,
}

impl Recorder {
    pub fn new(lane: u64) -> Self {
        Self {
            // grown on demand: one large block up front changes the
            // allocator's trimming and slows allocation-heavy jobs
            spans: Vec::new(),
            stack: Vec::new(),
            lane,
            job: 0,
        }
    }

    /// Sets the job id that spans opened from now on carry.
    pub fn set_job(&mut self, job: u64) {
        self.job = job;
    }

    fn next_id(&self) -> u64 {
        (self.lane << 40) | (self.spans.len() as u64 + 1)
    }

    /// Starts a span now, as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        let id = self.next_id();
        let parent = self.stack.last().map_or(0, |&i| self.spans[i].id);
        let start = now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            id,
            parent,
            job: self.job,
            start_ns: start,
            end_ns: start,
        });
    }

    /// Ends the innermost open span now.
    pub fn close(&mut self) {
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = now_ns();
    }

    /// Records a finished span with explicit times and parent. Used
    /// where a job's phases interleave with other jobs' (a pipelined
    /// connection), so a stack cannot describe them.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u64,
        job: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.next_id();
        self.spans.push(Span {
            name,
            id,
            parent,
            job,
            start_ns,
            end_ns,
        });
        id
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.stack.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time of every span, in `spans` order: its duration minus the
/// part of its interval that its child spans cover. Overlapping
/// children count once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Totals of one span name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Sums count, duration and self time by span name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

pub fn write_json(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    let rows = spans
        .iter()
        .map(|s| {
            obj([
                ("name", Json::Str(s.name.to_string())),
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(s.parent as f64)),
                ("job", Json::Num(s.job as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ])
            .to_line()
        })
        .collect::<Vec<_>>()
        .join(",\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(
        path,
        format!("{{\"workload\": \"{workload}\", \"spans\": [\n{rows}\n]}}\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            id,
            parent,
            job: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn open_and_close_nest() {
        let mut rec = Recorder::new(3);
        rec.set_job(7);
        rec.open("job");
        rec.open("inner");
        rec.open("leaf");
        rec.close();
        rec.close();
        rec.open("sibling");
        rec.close();
        rec.close();
        let spans = rec.finish();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("job").parent, 0);
        assert_eq!(by_name("inner").parent, by_name("job").id);
        assert_eq!(by_name("leaf").parent, by_name("inner").id);
        assert_eq!(by_name("sibling").parent, by_name("job").id);
        assert!(spans.iter().all(|s| s.job == 7 && s.id >> 40 == 3));
        assert!(by_name("job").start_ns <= by_name("inner").start_ns);
        assert!(by_name("inner").end_ns <= by_name("job").end_ns);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // root 0..100 with children 10..30 and 50..80; the second child
        // has its own child 60..70
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 80),
            span(4, 3, 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 10]);
        // self times of a tree sum to the root's duration
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 90),
            span(4, 1, 95, 120),
        ];
        // covered: 10..90 and 95..100
        assert_eq!(self_times_ns(&spans)[0], 15);
    }

    #[test]
    fn totals_group_by_name() {
        let mut spans = vec![span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 80)];
        spans[0].name = "job";
        let t = totals(&spans);
        assert_eq!(
            t["job"],
            Total {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(t["s"].count, 2);
        assert_eq!(t["s"].total_ns, 50);
    }
}
