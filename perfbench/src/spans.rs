//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's side, around calls into each
//! layer's public functions: name, start, end, parent span and the op they
//! belong to. They stay in memory until the run ends, when
//! [`Recorder::write_jsonl`] writes them out. [`Recorder::self_time_by_op`]
//! turns them into per-layer self time: a span's duration minus the part
//! of it its direct children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id of spans recorded during set-up, before the first op.
pub const SETUP_OP: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `core.trace`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op this span belongs to ([`SETUP_OP`] during set-up).
    pub op: u32,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans. Single-threaded: spans wrap calls made from the
/// benchmark's own thread, whatever threads the program starts inside.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u32,
    enabled: bool,
    counters: BTreeMap<(u32, &'static str), u64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now, attributing spans to set-up.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP_OP,
            enabled: true,
            counters: BTreeMap::new(),
        }
    }

    /// A recorder that records nothing: [`Recorder::span`] just runs its
    /// closure. Untraced runs use it.
    pub fn disabled() -> Self {
        Recorder { enabled: false, ..Self::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Attributes the spans recorded from now on to `op`.
    pub fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op: self.op });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds `n` to the current op's counter `name` (a deterministic count,
    /// kept apart from the wall-clock spans).
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry((self.op, name)).or_insert(0) += n;
        }
    }

    /// Counter `name` of `op`, if anything was counted.
    pub fn counter(&self, op: u32, name: &str) -> Option<u64> {
        self.counters.iter().find(|((o, n), _)| *o == op && *n == name).map(|(_, &v)| v)
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        self.spans.iter().zip(&child_ns).map(|(s, &c)| s.duration_ns().saturating_sub(c)).collect()
    }

    /// Summed self time per (op, layer name), in seconds.
    pub fn self_time_by_op(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry((s.op, s.name)).or_insert(0.0) += t as f64 * 1e-9;
        }
        out
    }

    /// Summed wall time per (op, layer name), children included, in seconds.
    pub fn inclusive_by_op(&self) -> BTreeMap<(u32, &'static str), f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry((s.op, s.name)).or_insert(0.0) += s.duration_ns() as f64 * 1e-9;
        }
        out
    }

    /// Durations in seconds of every span called `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 * 1e-9).collect()
    }

    /// Writes one JSON object per span, in start order.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let op = if s.op == SETUP_OP { "\"setup\"".to_string() } else { s.op.to_string() };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{op}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new();
        rec.set_op(0);
        rec.span("outer", |rec| {
            rec.span("mid", |rec| {
                rec.span("leaf", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            });
        });
        let spans = rec.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        let selfs = rec.self_times_ns();
        let total: u64 = selfs.iter().sum();
        assert_eq!(total, spans[0].duration_ns(), "self times partition the root span");
        assert!(selfs[2] >= 2_000_000);
    }
}
