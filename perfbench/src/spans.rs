//! In-memory span recording around calls into each layer.
//!
//! A span is a name, a start and an end (nanoseconds since the run's
//! epoch), the span that caused it, and the unit or request id it
//! belongs to. Each worker thread owns a [`Recorder`]; spans stay in
//! memory and are written out once, when the run ends. A disabled
//! recorder still runs the timed closure but records nothing, so the
//! same code measures the untraced figure.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `sim.frontend`.
    pub name: &'static str,
    /// Sub-identity within `name` (the policy index of a replay), else 0.
    pub tag: u16,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same recorder.
    pub parent: Option<u32>,
    /// Benchmark unit or request id.
    pub unit: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A per-thread span buffer.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    /// Spans recorded so far, in start order.
    pub spans: Vec<Span>,
}

/// Handle of an open span (`None` when recording is off).
pub type Open = Option<u32>;

impl Recorder {
    /// A recorder timing against `epoch`; records only when `enabled`.
    pub fn new(epoch: Instant, enabled: bool) -> Recorder {
        Recorder { epoch, enabled, spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds since the epoch.
    pub fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Opens a span.
    pub fn begin(&mut self, name: &'static str, tag: u16, parent: Open, unit: u64) -> Open {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span { name, tag, start_ns, end_ns: start_ns, parent, unit });
        Some((self.spans.len() - 1) as u32)
    }

    /// Closes a span opened by [`Recorder::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(i) = open {
            let now = self.now_ns();
            self.spans[i as usize].end_ns = now;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        tag: u16,
        parent: Open,
        unit: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, tag, parent, unit);
        let out = f();
        self.end(open);
        out
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the durations of its direct children. Children of one parent run on
/// the parent's thread one after another, so they never overlap and the
/// subtraction is exact. `spans` must be one recorder's buffer (parent
/// indices are local to it).
pub fn self_times(spans: &[Span], into: &mut BTreeMap<&'static str, u64>) {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p as usize] += span.dur_ns();
        }
    }
    for (span, children) in spans.iter().zip(child_ns) {
        *into.entry(span.name).or_default() += span.dur_ns().saturating_sub(children);
    }
}

/// Writes every span as one JSON line (`thread` numbers the recorders).
pub fn write_jsonl(path: &Path, recorders: &[&[Span]]) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut count = 0usize;
    for (thread, spans) in recorders.iter().enumerate() {
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\":{thread},\"name\":\"{}\",\"tag\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"unit\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns, s.unit
            )?;
            count += 1;
        }
    }
    out.flush()?;
    Ok(count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = [
            Span { name: "unit", tag: 0, start_ns: 0, end_ns: 100, parent: None, unit: 0 },
            Span { name: "a", tag: 0, start_ns: 10, end_ns: 40, parent: Some(0), unit: 0 },
            Span { name: "b", tag: 0, start_ns: 40, end_ns: 90, parent: Some(0), unit: 0 },
        ];
        let mut out = BTreeMap::new();
        self_times(&spans, &mut out);
        assert_eq!(out["unit"], 20);
        assert_eq!(out["a"], 30);
        assert_eq!(out["b"], 50);
    }

    #[test]
    fn disabled_recorder_runs_the_closure_and_records_nothing() {
        let mut rec = Recorder::new(Instant::now(), false);
        assert_eq!(rec.time("x", 0, None, 0, || 7), 7);
        assert!(rec.spans.is_empty());
    }
}
