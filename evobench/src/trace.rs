//! In-memory span recorder. Spans are recorded only in benchmark code,
//! around calls into the program's public functions; they are kept in
//! memory and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one operation share `op`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `parallel.gram`.
    pub name: &'static str,
    /// Operation id (generation, campaign or request number).
    pub op: u64,
    /// Index of the enclosing span in the merged span list.
    pub parent: Option<usize>,
    /// Start, in ns since the run's origin.
    pub start_ns: u64,
    /// End, in ns since the run's origin.
    pub end_ns: u64,
}

impl Span {
    fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread. Every span is folded into the
/// tracer's own [`Breakdown`] when it ends; spans nested no deeper than
/// `keep_depth` are also kept for the trace file.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    op: u64,
    keep_depth: usize,
    spans: Vec<Span>,
    open: Vec<Open>,
    totals: Breakdown,
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    kept: Option<usize>,
    start_ns: u64,
    child_ns: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "an open span must be ended"]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer whose times count from `origin` (share one origin across
    /// threads so their spans line up) and that keeps every span.
    pub fn new(origin: Instant) -> Tracer {
        Tracer::keeping(origin, usize::MAX)
    }

    /// A tracer that keeps only spans nested at most `keep_depth` deep
    /// (1 = roots only); deeper spans still count in [`Tracer::breakdown`].
    pub fn keeping(origin: Instant, keep_depth: usize) -> Tracer {
        Tracer {
            origin,
            op: 0,
            keep_depth,
            spans: Vec::new(),
            open: Vec::new(),
            totals: Breakdown::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        self.begin_at(name, start_ns)
    }

    /// Open a span that started at `start_ns` (a time taken earlier).
    pub fn begin_at(&mut self, name: &'static str, start_ns: u64) -> SpanId {
        let kept = (self.open.len() < self.keep_depth).then(|| {
            self.spans.push(Span {
                name,
                op: self.op,
                parent: self.open.last().and_then(|o| o.kept),
                start_ns,
                end_ns: start_ns,
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            kept,
            start_ns,
            child_ns: 0,
        });
        SpanId(self.open.len())
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        self.end_at(id, end_ns);
    }

    /// Close the innermost open span at `end_ns`.
    pub fn end_at(&mut self, id: SpanId, end_ns: u64) {
        debug_assert_eq!(id.0, self.open.len(), "spans must close innermost first");
        let Some(open) = self.open.pop() else {
            return;
        };
        let dur = end_ns.saturating_sub(open.start_ns);
        self.totals
            .add(open.name, dur, dur.saturating_sub(open.child_ns));
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Number of spans kept so far: the index the next kept span gets.
    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    /// Self and total times of every span ended so far on this tracer.
    pub fn breakdown(&self) -> &Breakdown {
        &self.totals
    }

    /// The kept spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Merge per-thread span lists, re-basing parent indices.
pub fn merge(lists: Vec<Vec<Span>>) -> Vec<Span> {
    let mut out = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    out
}

/// Per-name totals of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    /// Name → (Σ self time, Σ duration, span count); self time is the
    /// duration minus the part of it covered by children. Times in ns.
    totals: BTreeMap<&'static str, (u64, u64, u64)>,
}

impl Breakdown {
    /// Self and total times per name. A child's interval is clipped to its
    /// parent's, so spans recorded on other threads cannot push a parent's
    /// self time below zero.
    pub fn of(spans: &[Span]) -> Breakdown {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut b = Breakdown::default();
        for (i, s) in spans.iter().enumerate() {
            let mut iv: Vec<(u64, u64)> = children[i]
                .iter()
                .map(|&c| {
                    let c = &spans[c];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, z)| z > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for (a, z) in iv {
                let a = a.max(reach);
                if z > a {
                    covered += z - a;
                    reach = z;
                }
            }
            b.add(s.name, s.dur(), s.dur().saturating_sub(covered));
        }
        b
    }

    fn add(&mut self, name: &'static str, total_ns: u64, self_ns: u64) {
        let t = self.totals.entry(name).or_default();
        t.0 += self_ns;
        t.1 += total_ns;
        t.2 += 1;
    }

    /// Σ self time of `name`, in µs.
    pub fn self_us(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0, |t| t.0) as f64 / 1e3
    }

    /// Σ duration of `name`, in µs.
    pub fn total_us(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0, |t| t.1) as f64 / 1e3
    }

    /// Share of the `root` spans' wall time that child layers account for,
    /// in percent: 100 × (1 − root self time / root duration).
    pub fn attributed_pct(&self, root: &str) -> f64 {
        let total = self.total_us(root);
        if total <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.self_us(root) / total)
    }
}

/// Write spans as CSV (`op,parent,name,start_ns,end_ns`).
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op,parent,name,start_ns,end_ns")?;
    for s in spans {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        writeln!(
            w,
            "{},{parent},{},{},{}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, z: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns: a,
            end_ns: z,
        }
    }

    #[test]
    fn self_time_subtracts_clipped_children() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("b", Some(0), 30, 60),  // overlaps a: union counts once
            span("c", Some(0), 90, 130), // runs past the parent: clipped
        ];
        let b = Breakdown::of(&spans);
        assert_eq!(b.self_us("root"), (100 - 50 - 10) as f64 / 1e3);
        assert_eq!(b.self_us("c"), 40.0 / 1e3);
        assert!((b.attributed_pct("root") - 60.0).abs() < 1e-9);
    }

    #[test]
    fn online_totals_match_offline_self_times() {
        let mut t = Tracer::keeping(Instant::now(), 1);
        let root = t.begin_at("root", 0);
        let a = t.begin_at("a", 10);
        t.end_at(a, 40);
        let b = t.begin_at("b", 50);
        t.end_at(b, 70);
        t.end_at(root, 100);
        assert_eq!(t.breakdown().self_us("root"), 0.05);
        assert_eq!(t.breakdown().self_us("a"), 0.03);
        assert_eq!(t.into_spans().len(), 1, "only the root is kept");
    }
}
