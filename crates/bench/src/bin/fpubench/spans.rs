//! Spans recorded around public calls in the traced run.
//!
//! Each generator thread owns one [`Tracer`]; nothing is shared while a
//! phase runs. A span names the call, the request it served, the span
//! that caused it, and its start and end. Every span feeds per-name
//! aggregates (count, total time, time covered by children); the first
//! [`SPAN_CAP`] spans of each tracer are also kept verbatim for the
//! span file, so a long phase cannot grow memory without bound.
//!
//! Children of one parent never overlap here (they run one after the
//! other on the calling threads), so a parent's self time — its
//! duration minus the time its children cover — is its total minus
//! the children's totals.

use std::io::Write;
use std::time::Instant;

/// Spans kept verbatim per tracer for the span file.
pub const SPAN_CAP: usize = 5_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// The enclosing span's name for the same request, or "" for a root.
    pub parent: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub child_ns: u64,
}

pub struct Tracer {
    /// Off: `start` reads no clock and `end` records nothing.
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Tracer {
    /// A recording tracer; timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            on: true,
            epoch,
            spans: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced path).
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// An empty tracer for another thread: same epoch, same on/off.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            aggs: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch of `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now (0 when off).
    #[inline]
    pub fn start(&self) -> u64 {
        if self.on {
            self.ns(Instant::now())
        } else {
            0
        }
    }

    /// Close a span started at `start_ns` now.
    #[inline]
    pub fn end(&mut self, name: &'static str, parent: &'static str, req: u64, start_ns: u64) {
        if self.on {
            let end_ns = self.ns(Instant::now());
            self.record(name, parent, req, start_ns, end_ns);
        }
    }

    /// Record a span whose endpoints were taken elsewhere (for example
    /// a round trip begun on the sending thread).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if !self.on {
            return;
        }
        let d = end_ns.saturating_sub(start_ns);
        let a = self.agg_mut(name);
        a.count += 1;
        a.total_ns += d;
        if !parent.is_empty() {
            self.agg_mut(parent).child_ns += d;
        }
        if self.spans.len() < SPAN_CAP {
            self.spans.push(Span {
                name,
                parent,
                req,
                start_ns,
                end_ns,
            });
        }
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        let i = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[i].1
    }

    /// Fold another thread's tracer (same epoch) into this one.
    pub fn merge(&mut self, other: Tracer) {
        for (name, a) in other.aggs {
            let mine = self.agg_mut(name);
            mine.count += a.count;
            mine.total_ns += a.total_ns;
            mine.child_ns += a.child_ns;
        }
        let room = SPAN_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
    }

    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(Agg::default(), |(_, a)| *a)
    }

    /// Mean duration of the spans named `name`, in µs (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns as f64 / a.count as f64 / 1e3
        }
    }

    /// Mean self time (duration minus children) of `name`, in µs.
    pub fn mean_self_us(&self, name: &str) -> f64 {
        let a = self.agg(name);
        if a.count == 0 {
            0.0
        } else {
            a.total_ns.saturating_sub(a.child_ns) as f64 / a.count as f64 / 1e3
        }
    }

    /// The verbatim spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Write the verbatim spans of every phase as JSON lines.
pub fn write_file(path: &std::path::Path, phases: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, t) in phases {
        for s in t.spans() {
            writeln!(
                w,
                r#"{{"phase": "{phase}", "name": "{}", "req": {}, "parent": "{}", "start_ns": {}, "end_ns": {}}}"#,
                s.name, s.req, s.parent, s.start_ns, s.end_ns
            )?;
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(Instant::now());
        // Request 1: a 100 ns round trip holding 10 + 30 ns of client work.
        t.record("rt", "", 1, 0, 100);
        t.record("enc", "rt", 1, 0, 10);
        t.record("dec", "rt", 1, 70, 100);
        // Request 2 on another thread: 50 ns, one 20 ns child.
        let mut other = Tracer::new(Instant::now());
        other.record("rt", "", 2, 200, 250);
        other.record("enc", "rt", 2, 200, 220);
        t.merge(other);
        assert_eq!(t.agg("rt").count, 2);
        assert_eq!(t.mean_us("rt"), 0.075);
        assert_eq!(t.mean_self_us("rt"), 0.045);
        assert_eq!(t.mean_us("enc"), 0.015);
        assert_eq!(t.spans().len(), 5);
    }

    #[test]
    fn an_off_tracer_records_nothing_and_storage_is_capped() {
        let mut off = Tracer::off();
        let s = off.start();
        off.end("x", "", 0, s);
        assert_eq!(off.agg("x").count, 0);
        let mut on = Tracer::new(Instant::now());
        for i in 0..(SPAN_CAP as u64 + 10) {
            on.record("x", "", i, i, i + 2);
        }
        assert_eq!(on.spans().len(), SPAN_CAP);
        assert_eq!(on.agg("x").count, SPAN_CAP as u64 + 10);
    }
}
