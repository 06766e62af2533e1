//! `aa-spec`: an independent executable specification of gradecast +
//! TreeAA, cross-validated against the `aa-check` engine.
//!
//! The spec is a deliberately naive small-step state machine in the
//! TLA/Quint style: one explicit global state ([`state::SpecState`] —
//! every party, the in-flight queue, pending timers, the clock), a set
//! of guarded transitions ([`state::Action`] + [`state::SpecState::step`]),
//! and **no optimization sharing with the engine** — sets are plain
//! vectors, every threshold is a linear recount, and the tree geometry
//! is per-vertex BFS from first principles ([`tree`]). Terminal states
//! are exactly the states with no enabled transition.
//!
//! The payoff is the differential harness ([`diff`]): for every
//! instance in the existing lattice, the set of reachable terminal
//! states under `aa-check`'s sleep-set-pruned enumeration must equal
//! the spec's reachable set over the same schedules — the spec explores
//! the **full** schedule tree, so agreement simultaneously validates the
//! protocol model and the soundness of the pruning rule. On mismatch the harness emits a
//! minimized divergence report with a replayable witness schedule.
//!
//! Intentional symmetry with the engine: the spec replicates the
//! run-loop's event ordering and the scheduler's clock arithmetic
//! (TICK accumulation, `(now + TICK).max(due)`) operation for
//! operation, so floating-point times — and therefore silence rounds
//! and terminal renderings — are bit-identical, never merely close.

#![warn(missing_docs)]

pub mod diff;
pub mod party;
pub mod rbc;
pub mod state;
pub mod tree;

pub use diff::{differential, differential_all_assignments, DiffFailure, DiffReport, Divergence};
pub use state::{spec_explore, spec_run, Action, SpecInstance, SpecState};
pub use tree::SpecTree;
