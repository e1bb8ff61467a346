//! Syntactic analyses of Datalog± programs.
//!
//! * [`marking`] — the sticky-marking procedure;
//! * [`mod@classify`] — membership tests for linear, guarded, weakly guarded,
//!   sticky, weakly sticky and weakly acyclic TGD sets, and a combined
//!   [`classify::ClassReport`];
//! * [`separability`] — the sufficient condition for EGDs to be separable
//!   from the TGDs, as used by the paper for dimensional constraints;
//! * [`magic`] — the magic-set (demand) transformation specializing a
//!   program to one query's bound constants, for goal-directed chase
//!   evaluation;
//! * [`mod@lint`] — the `ontodq-lint` diagnostics pass: safety, arity and
//!   stratification checks, dead/unreachable/cartesian/duplicate rule lints,
//!   EGD-separability surfacing, and the [`lint::TerminationCertificate`]
//!   the chase engine consumes.

pub(crate) mod classify;
pub(crate) mod lint;
pub(crate) mod magic;
pub(crate) mod marking;
pub(crate) mod separability;

pub use classify::{classify, classify_tgds, ClassReport, DatalogClass};
pub use magic::{magic_transform, DemandProgram};
pub use separability::{check_program, EgdSeparability, SeparabilityReport};
