//! Span-style tracing: a bounded ring of recent [`SpanRecord`]s.
//!
//! [`SpanLog::record`] pushes an already-measured record: the slow-query
//! log measures the duration in the protocol loop anyway.
//!
//! The ring is deliberately tiny and lossy: it answers "what just
//! happened", not "what ever happened".  When full, the oldest record is
//! dropped.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// What kind of work this was (e.g. a protocol verb).
    pub name: String,
    /// Free-form payload (e.g. the query text).
    pub detail: String,
    /// Clock reading when the span started.
    pub start_micros: u64,
    /// How long the span took.
    pub duration_micros: u64,
}

/// A bounded ring buffer of recent spans.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    ring: Mutex<VecDeque<SpanRecord>>,
}

impl SpanLog {
    /// A ring holding at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// Push one record, evicting the oldest when full.
    pub fn record(&self, record: SpanRecord) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
    }

    /// Oldest-first copy of the current contents.
    pub fn recent(&self) -> Vec<SpanRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().cloned().collect()
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// `true` when no record is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_ordered() {
        let log = SpanLog::new(2);
        for i in 0..3u64 {
            log.record(SpanRecord {
                name: format!("s{i}"),
                detail: String::new(),
                start_micros: i,
                duration_micros: 0,
            });
        }
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].name, "s1");
        assert_eq!(recent[1].name, "s2");
    }
}
