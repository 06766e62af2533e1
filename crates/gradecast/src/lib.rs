//! Gradecast (graded broadcast): the three-round primitive underlying the
//! round-optimal real-valued AA protocol of Ben-Or, Dolev and Hoch, which
//! the paper uses as its `RealAA` building block.
//!
//! A designated *leader* disseminates a value; every party outputs a pair
//! `(value, grade)` with `grade ∈ {0, 1, 2}` such that, among honest
//! parties:
//!
//! 1. **Honest leader.** If the leader is honest with value `v`, every
//!    honest party outputs `(v, 2)`.
//! 2. **Binding.** If two honest parties output grades `≥ 1`, their values
//!    are equal.
//! 3. **Grade gap.** The grades of any two honest parties differ by at most
//!    one (in particular, `2` at one party excludes `0` at another).
//!
//! The construction is the classic lead/echo/vote pattern over a
//! synchronous network with `t < n/3` Byzantine parties:
//!
//! * **Round 1 (lead).** The leader broadcasts `lead(v)`.
//! * **Round 2 (echo).** Every party broadcasts `echo(ℓ, v)` for the value
//!   it received from leader `ℓ`.
//! * **Round 3 (vote).** A party that saw `n − t` matching echoes for `v`
//!   broadcasts `vote(ℓ, v)`. Output: the value with the most votes, with
//!   grade 2 at `≥ n − t` votes, grade 1 at `≥ t + 1`, grade 0 otherwise.
//!
//! All `n` instances (every party acting as leader once) run *in parallel*
//! inside the same three rounds — this is how `RealAA` uses them, via
//! [`BatchGradecast`]: one struct-of-arrays message per sender per phase
//! carrying that sender's slot for every leader (see the [`batch`] module
//! docs), so a round delivers O(n²) messages. [`BundleGradecast`] shares
//! the same three rounds between `k` independent AA instances (see
//! [`bundle`]). A standalone [`BatchGradecastProtocol`] adapter runs one
//! parallel batch on a `sim-net` simulation for testing and message
//! accounting. The textbook one-message-per-leader encoding survives only
//! as the test oracle the batched tallies are pinned against.
//!
//! # One core
//!
//! Both wires drive one tally core, an arena of `k × n` instance-major
//! lanes allocated once per party and reset in place each iteration:
//! [`BatchGradecast`] is the core at `k = 1` behind [`GcBatchMsg`],
//! [`BundleGradecast`] the core at `k` behind [`GcBundleMsg`]. Every
//! message is absorbed by one rule (a masked kernel sweep, then a per-slot
//! rule on the leftovers) and graded by one routine. Echo and vote
//! messages ([`GcBatch`], [`GcBundle`]) are the core's own lanes.
//!
//! # Muting
//!
//! A muted leader gets no relaying (echoing and voting) from a party, which
//! still evaluates that leader's grades from other parties' traffic.
//! Muting is how `RealAA` permanently silences parties caught
//! equivocating: once more than `t` honest parties mute a leader, no value
//! of that leader can gather the `n − t` echoes needed for a single honest
//! vote, so every honest party grades it 0 forever after. The muted sets
//! live in the core and survive its reset; `RealAA` writes them through
//! [`BundleGradecast::on_votes_with`].
//!
//! # Example
//!
//! ```
//! use gradecast::{BatchGradecastProtocol, Grade};
//! use sim_net::{run_simulation, Passive, SimConfig};
//!
//! // Seven parties gradecast their ids in parallel; no corruption.
//! let cfg = SimConfig { n: 7, t: 2, max_rounds: 8 };
//! let report = run_simulation(
//!     cfg,
//!     |id, n| BatchGradecastProtocol::new(id, n, 2, id.index() as u64),
//!     Passive,
//! ).unwrap();
//! for out in report.honest_outputs() {
//!     for (leader, slot) in out.iter().enumerate() {
//!         assert_eq!(slot.grade, Grade::Two);
//!         assert_eq!(slot.value, Some(leader as u64));
//!     }
//! }
//! ```

#![warn(missing_docs)]
mod arena;
pub mod batch;
pub mod bundle;
mod grade;

pub use batch::{BatchGradecast, BatchGradecastProtocol, GcBatch, GcBatchMsg, GcSlots, GcValue};
pub use bundle::{BundleError, BundleGradecast, GcBundle, GcBundleMsg};
pub use grade::{Grade, GradecastOutput};
