//! A deterministic, synchronous, round-based message-passing simulator with
//! a Byzantine adversary framework.
//!
//! This crate is the execution substrate for every protocol in the
//! workspace. It models the standard synchronous network of the paper
//! (Section 2): `n` parties on a fully connected network of *authenticated*
//! channels, lockstep rounds, guaranteed delivery within one round, and a
//! computationally unbounded, **rushing, adaptive** adversary that may
//! permanently corrupt up to `t` parties.
//!
//! # Execution model
//!
//! * Protocols are round state machines implementing [`Protocol`]: in each
//!   round they read the messages delivered to them (sent in the previous
//!   round) and emit new messages through a [`RoundCtx`].
//! * Channels are authenticated: an [`Envelope`]'s `from` field is stamped
//!   by the engine and cannot be forged by any sender, honest or corrupt.
//! * The adversary ([`Adversary`]) runs *after* the honest parties in every
//!   round (rushing): it inspects all traffic of the current round, may
//!   corrupt further parties mid-execution (up to the budget `t`), discards
//!   or forwards the tentative messages of corrupted parties, and injects
//!   arbitrary messages from corrupted senders — including different
//!   messages to different recipients (equivocation).
//! * Everything is deterministic: honest protocols are deterministic and
//!   adversaries own their seeded RNGs, so a run is a pure function of
//!   (configuration, protocol, adversary, seed).
//!
//! # Performance model
//!
//! Traffic is tracked by *shape*: a broadcast is stored once as a bare
//! payload ([`Outbox`]) and delivered to all `n` recipients as one shared
//! per-round list ([`Inbox`]), so all-to-all rounds cost O(n) payload
//! moves instead of O(n²) clones. Within a round, parties are stepped
//! sequentially or on several threads ([`StepMode`]) with byte-identical
//! results; see the `engine` module docs for the full breakdown.
//!
//! # Example
//!
//! ```
//! use sim_net::{run_simulation, Inbox, Passive, PartyId, Protocol, RoundCtx,
//!               SimConfig};
//!
//! /// Every party broadcasts its id and outputs the sum of all ids it saw.
//! struct SumParty { id: PartyId, sum: u64 }
//!
//! impl Protocol for SumParty {
//!     type Msg = u64;
//!     type Output = u64;
//!     fn step(&mut self, round: u32, inbox: &Inbox<u64>, ctx: &mut RoundCtx<u64>) {
//!         match round {
//!             1 => ctx.broadcast(self.id.index() as u64),
//!             _ => {
//!                 self.sum = inbox.iter().map(|e| e.payload).sum();
//!             }
//!         }
//!     }
//!     fn output(&self) -> Option<u64> {
//!         (self.sum > 0).then_some(self.sum)
//!     }
//! }
//!
//! let cfg = SimConfig { n: 4, t: 0, max_rounds: 10 };
//! let report = run_simulation(cfg, |id, _n| SumParty { id, sum: 0 }, Passive).unwrap();
//! assert!(report.outputs.iter().all(|o| *o == Some(0 + 1 + 2 + 3)));
//! ```

#![warn(missing_docs)]
mod adversary;
mod engine;
mod fault;
mod mailbox;
mod message;
mod metrics;
mod outcome;
mod party;

pub use adversary::{
    Adversary, AdversaryCtx, BudgetExceeded, ComposedAdversary, CrashAdversary,
    EquivocatingAdversary, Passive, ScriptedAdversary, SelectiveOmission, StaticByzantine,
};
pub use engine::{
    auto_threads, run_simulation, run_simulation_faulted_traced, run_simulation_traced,
    run_simulation_with, EngineConfig, RunReport, SimConfig, SimError, StepMode,
    PARALLEL_THRESHOLD,
};
pub use fault::{CrashFault, FaultPlan, FaultPlanError, Partition};
pub use mailbox::{Inbox, Outbox, Received};
pub use message::{Envelope, PartyId, Payload};
pub use metrics::{Metrics, RoundMetrics};
pub use outcome::{Degradation, Evidence, EvidenceCertificate, Monitored, Outcome, SilenceMonitor};
pub use party::{step_standalone, Protocol, RoundCtx};

// Flight-recorder types, re-exported so protocol crates can emit events
// through their existing `sim-net` dependency.
pub use aa_trace::{EventKind, EventLog, ProtoEvent, Trace, TraceEvent};
