//! Spans recorded in the benchmark's own memory, around its calls into each
//! layer, and written out when the traced run ends.

use std::io::{self, Write};
use std::time::Instant;

/// One timed interval.  Spans of one op share `op`; `parent` is the id of the
/// span that caused this one (0: none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1_000.0
    }
}

/// A per-actor span buffer.  Switched off it records nothing, which is how
/// the end-to-end run and the overhead baseline run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            // Room for a traced window of cheap ops without regrowing.
            spans: Vec::with_capacity(1 << 18),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserve the id of a span whose children are recorded before it ends.
    pub fn open(&mut self) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.spans.push(Span {
            id: 0,
            parent: 0,
            op: 0,
            name: "",
            start_ns: 0,
            end_ns: 0,
        });
        self.spans.len() as u32
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Fill in a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: u32, name: &'static str, op: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        self.spans[id as usize - 1] = Span {
            id,
            parent: 0,
            op,
            name,
            start_ns,
            end_ns,
        };
    }

    /// Record a finished child span.
    pub fn leaf(&mut self, name: &'static str, op: u32, parent: u32, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Spans written per rung and actor: enough to follow a few thousand ops
/// through every layer without writing hundreds of megabytes per run.
const SPANS_WRITTEN: usize = 50_000;

/// Append one actor's spans to `out` as tab-separated lines.
pub fn write_spans(
    out: &mut impl Write,
    rung: &str,
    actor: &str,
    tracer: &Tracer,
) -> io::Result<()> {
    for span in tracer.spans().iter().take(SPANS_WRITTEN) {
        writeln!(
            out,
            "{rung}\t{actor}\t{}\t{}\t{}\t{}\t{}\t{}",
            span.op, span.id, span.parent, span.name, span.start_ns, span.end_ns
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_point_at_their_parent_and_off_records_nothing() {
        let epoch = Instant::now();
        let mut tracer = Tracer::on(epoch);
        let root = tracer.open();
        let t1 = epoch + Duration::from_micros(10);
        let t2 = epoch + Duration::from_micros(30);
        tracer.leaf("cache.lookup", 7, root, t1, t2);
        tracer.close(root, "q", 7, epoch, t2 + Duration::from_micros(5));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].id, spans[0].name, spans[0].op), (1, "q", 7));
        assert_eq!((spans[1].parent, spans[1].name), (1, "cache.lookup"));
        assert_eq!(spans[1].micros(), 20.0);
        // Self time of the root: its duration minus its children's.
        assert_eq!(spans[0].micros() - spans[1].micros(), 15.0);

        let mut text = Vec::new();
        write_spans(&mut text, "R3", "reader", &tracer).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("R3\treader\t7\t1\t0\tq\t0\t35000\n"));

        let mut off = Tracer::off();
        let id = off.open();
        off.leaf("x", 1, id, epoch, t1);
        off.close(id, "q", 1, epoch, t2);
        assert!(off.spans().is_empty());
    }
}
