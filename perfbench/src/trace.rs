//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer (CSV
//! parse, `Runtime::new`, `run_slot`, checkpoint, resume, and the layer
//! replays), kept in memory, and written out as CSV when the run ends.
//! Spans of one slot share the slot number as their identifier.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are microseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `slot` or `slot.tier.postcard`.
    pub name: String,
    /// Start, µs since the recorder's epoch.
    pub start_us: f64,
    /// End, µs since the recorder's epoch.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The slot the span belongs to (`None` outside the slot loop).
    pub slot: Option<u64>,
}

impl Span {
    /// The span's duration in µs.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Records spans relative to one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    /// µs since the epoch of `at`.
    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span and returns its index.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
        slot: Option<u64>,
    ) -> usize {
        self.spans.push(Span { name: name.into(), start_us, end_us, parent, slot });
        self.spans.len() - 1
    }

    /// Records a span for `[start, end)` measured as instants.
    pub fn record_between(
        &mut self,
        name: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        slot: Option<u64>,
    ) -> usize {
        let (s, e) = (self.offset_us(start), self.offset_us(end));
        self.record(name, s, e, parent, slot)
    }

    /// All spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the part of it that its
    /// direct children cover (children are assumed not to overlap).
    pub fn self_time_us(&self, index: usize) -> f64 {
        let span = &self.spans[index];
        let covered: f64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(index))
            .map(|c| (c.end_us.min(span.end_us) - c.start_us.max(span.start_us)).max(0.0))
            .sum();
        (span.duration_us() - covered).max(0.0)
    }

    /// The spans as CSV: `index,parent,slot,name,start_us,end_us`.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("index,parent,slot,name,start_us,end_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            let slot = s.slot.map(|p| p.to_string()).unwrap_or_default();
            let _ =
                writeln!(out, "{i},{parent},{slot},{},{:.3},{:.3}", s.name, s.start_us, s.end_us);
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let slot = t.record("slot", 0.0, 100.0, None, Some(0));
        let tier = t.record("slot.tier.postcard", 10.0, 70.0, Some(slot), Some(0));
        t.record("inner", 20.0, 30.0, Some(tier), Some(0));
        t.record("slot.checkpoint", 80.0, 95.0, Some(slot), Some(0));
        assert_eq!(t.self_time_us(slot), 25.0);
        assert_eq!(t.self_time_us(tier), 50.0);
        let csv = t.to_csv();
        assert!(csv.starts_with("index,parent,slot,name,start_us,end_us\n"));
        assert_eq!(csv.lines().count(), 5);
    }
}
