//! Labeled nulls.
//!
//! Datalog± existential rules introduce *labeled nulls*: fresh values that
//! stand for unknown-but-existing domain elements.  The paper uses them in two
//! places: for missing non-categorical attributes when navigating downwards
//! (rule (8): the unknown shift `z`), and for unknown category members when
//! navigating downwards with existential categorical variables (rule (9)/(10):
//! the unknown unit `u`).
//!
//! Nulls compare equal only to themselves, and are never rewritten: the
//! chase checks equality-generating dependencies as constraints over
//! constants rather than unifying nulls (see `ontodq-chase`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a labeled null.
///
/// Identifiers are plain integers; equality of nulls is identity of ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NullId(pub u64);

impl NullId {
    /// Raw numeric id.
    pub fn id(self) -> u64 {
        self.0
    }
}

impl fmt::Display for NullId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⊥{}", self.0)
    }
}

/// Generator of fresh labeled nulls.
///
/// The generator is thread-safe (the chase engine may parallelize trigger
/// evaluation) and monotone: ids are never reused within a generator.
#[derive(Debug, Default)]
pub struct NullGenerator {
    next: AtomicU64,
}

impl NullGenerator {
    /// A generator that starts numbering nulls at zero.
    pub fn new() -> Self {
        Self {
            next: AtomicU64::new(0),
        }
    }

    /// A generator that starts numbering at `start`; useful when resuming a
    /// chase over an instance that already contains nulls.
    pub fn starting_at(start: u64) -> Self {
        Self {
            next: AtomicU64::new(start),
        }
    }

    /// Produce a fresh null id.
    pub fn fresh(&self) -> NullId {
        NullId(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// The id the next call to [`NullGenerator::fresh`] would return.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }
}

impl Clone for NullGenerator {
    fn clone(&self) -> Self {
        Self {
            next: AtomicU64::new(self.peek()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ids_are_distinct_and_increasing() {
        let gen = NullGenerator::new();
        let a = gen.fresh();
        let b = gen.fresh();
        let c = gen.fresh();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert!(a < b && b < c);
    }

    #[test]
    fn starting_at_respects_start() {
        let gen = NullGenerator::starting_at(100);
        assert_eq!(gen.fresh(), NullId(100));
        assert_eq!(gen.fresh(), NullId(101));
    }

    #[test]
    fn display_uses_bottom_symbol() {
        assert_eq!(NullId(7).to_string(), "⊥7");
    }

    #[test]
    fn clone_preserves_counter() {
        let gen = NullGenerator::new();
        gen.fresh();
        gen.fresh();
        let cloned = gen.clone();
        assert_eq!(cloned.peek(), 2);
        assert_eq!(cloned.fresh(), NullId(2));
    }

    #[test]
    fn generator_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NullGenerator>();
    }
}
