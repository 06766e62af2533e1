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
//! inside the same three rounds, and [`BundleGradecast`] shares those
//! rounds between `k` independent AA instances: one struct-of-arrays
//! message per sender per phase carries that sender's slot for every
//! leader of every instance (see the [`batch`] and [`bundle`] module
//! docs), so a round delivers O(n²) messages whatever `k` is. A single
//! instance is `k = 1`; `RealAA` runs exactly that. The textbook
//! one-message-per-leader encoding survives only as the test oracle the
//! tallies are pinned against.
//!
//! # One core
//!
//! [`BundleGradecast`] drives one tally core, an arena of `k × n`
//! instance-major lanes allocated once per party and reset in place each
//! iteration. Every message is absorbed by one rule (a masked kernel
//! sweep, then a per-slot rule on the leftovers) and graded by one
//! routine. A lead ([`GcBundleMsg::Leads`]) is one `Arc<[Option<V>]>`,
//! one entry per instance; an echo or a vote ([`GcBundle`]) is the core's
//! own presence and key lanes.
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
//! use std::sync::Arc;
//!
//! use gradecast::{BundleGradecast, GcBundleMsg, Grade};
//! use sim_net::PartyId;
//!
//! /// Every party heard every message of a phase: `(sender, message)`.
//! fn heard(msgs: &[GcBundleMsg<u64>]) -> impl Iterator<Item = (PartyId, &GcBundleMsg<u64>)> {
//!     msgs.iter().enumerate().map(|(p, m)| (PartyId(p), m))
//! }
//!
//! // Seven parties gradecast their ids in parallel, one instance (k = 1),
//! // no corruption: each broadcasts what its phase returns.
//! let (n, t, active) = (7, 2, [true]);
//! let mut parties: Vec<BundleGradecast<u64>> = (0..n)
//!     .map(|p| BundleGradecast::new(PartyId(p), n, t, 1).unwrap())
//!     .collect();
//! let leads: Vec<_> = (0..n)
//!     .map(|p| parties[p].lead_msg(Arc::new([Some(p as u64)])))
//!     .collect();
//! let echoes: Vec<_> = parties.iter_mut().map(|g| g.on_leads(heard(&leads), &active)).collect();
//! let votes: Vec<_> = parties.iter_mut().map(|g| g.on_echoes(heard(&echoes), &active)).collect();
//! for g in &mut parties {
//!     let grades = g.on_votes(heard(&votes), &active).remove(0).unwrap();
//!     for (leader, slot) in grades.iter().enumerate() {
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

pub use batch::GcValue;
#[doc(hidden)]
pub use batch::{BatchGradecast, GcBatchMsg};
pub use bundle::{BundleError, BundleGradecast, GcBundle, GcBundleMsg};
pub use grade::{Grade, GradecastOutput};

#[cfg(test)]
#[path = "../tests/support/mod.rs"]
mod support;
