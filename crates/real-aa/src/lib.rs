//! Round-optimal synchronous Byzantine approximate agreement on real
//! values.
//!
//! This crate implements the `RealAA` building block the paper relies on
//! (Theorem 3): the gradecast-based protocol of Ben-Or, Dolev and Hoch,
//! which tolerates `t < n/3` Byzantine parties and, for honest inputs that
//! are `D`-close, reaches `ε`-agreement within
//! `R_RealAA(D, ε) = ⌈7·log₂(D/ε) / log₂log₂(D/ε)⌉` communication rounds —
//! asymptotically matching Fekete's lower bound, in contrast to the
//! `O(log(D/ε))` rounds of the classic halving iteration.
//!
//! # Protocol outline
//!
//! The protocol runs a fixed number of 3-round iterations (the count is the
//! publicly computable [`iterations_for`]). In each iteration every party
//! gradecasts its current value; all `n` gradecasts share the iteration's
//! three rounds, each party sending one slot-vector message per round
//! that covers all `n` leaders (see the [`gradecast`] crate). A party then
//!
//! 1. **accepts** every value with grade ≥ 1 into a multiset (acceptance is
//!    purely grade-based);
//! 2. **mutes** — permanently stops relaying for — every leader whose grade
//!    was ≤ 1;
//! 3. adopts the mean of the multiset after discarding the `t` lowest and
//!    `t` highest entries.
//!
//! Muting is what makes the protocol round-optimal: an inconsistency
//! (one honest party accepting a leader's value while another rejects it)
//! forces every honest grade for that leader into `{0, 1}`, so *all* honest
//! parties mute it, after which none of its values can ever reach grade
//! ≥ 1 again. Each Byzantine party can therefore disturb at most **one**
//! iteration, and an undisturbed iteration collapses the honest range to a
//! single point. The per-iteration contraction is `t_i / (n − 2t)` where
//! `t_i` is the number of parties burned in iteration `i` and
//! `Σ t_i ≤ t` — exactly the envelope behind Theorem 3 (see DESIGN.md §5
//! for the full argument and for how this reconstruction relates to the
//! original, which is not retrievable offline).
//!
//! # What's here
//!
//! * [`RealAaParty`] — the protocol, fixed-round or with sound early
//!   stopping ([`RealAaConfig::early_stopping`]);
//! * [`BundledAaParty`] — `k` instances sharing one message per round:
//!   the per-instance machine and round schedule of [`RealAaParty`]
//!   (private module `instance`, written once) on a bundled wire;
//! * [`IteratedAaParty`] — the classic `O(log(D/ε))`-round
//!   trim-and-halve baseline of Dolev et al., for the comparisons in the
//!   paper's introduction;
//! * [`adversary`] — Byzantine strategies, including
//!   [`adversary::BudgetSplitEquivocator`], which realizes the worst-case
//!   convergence envelope against `RealAA`;
//! * [`R64`] — finite, totally ordered real values used on the wire;
//! * round-complexity formulas ([`iterations_for`], [`rounds_bound`],
//!   [`halving_iterations`]).
//!
//! # Example
//!
//! ```
//! use real_aa::{RealAaConfig, RealAaParty};
//! use sim_net::{run_simulation, Passive, SimConfig};
//!
//! let cfg = RealAaConfig::new(4, 1, 1.0, 8.0).unwrap();
//! let inputs = [0.0, 8.0, 3.0, 5.0];
//! let report = run_simulation(
//!     SimConfig { n: 4, t: 1, max_rounds: 200 },
//!     |id, _n| RealAaParty::new(id, cfg, inputs[id.index()]),
//!     Passive,
//! ).unwrap();
//! let outs = report.honest_outputs();
//! let spread = outs.iter().cloned().fold(f64::MIN, f64::max)
//!     - outs.iter().cloned().fold(f64::MAX, f64::min);
//! assert!(spread <= 1.0); // ε-agreement
//! assert!(outs.iter().all(|&v| (0.0..=8.0).contains(&v))); // validity
//! ```

#![warn(missing_docs)]
pub mod adversary;
mod bundle;
mod instance;
mod iterated;
mod multiset;
mod real_aa;
mod rounds;
mod value;

pub use bundle::{BundleError, BundledAaMsg, BundledAaParty};
pub use iterated::{IteratedAaConfig, IteratedAaParty, PlainValueMsg};
pub use multiset::{trimmed, trimmed_mean, trimmed_midpoint};
pub use real_aa::{RealAaConfig, RealAaMsg, RealAaParty};
pub use rounds::{halving_iterations, iterations_for, rounds_bound};
pub use value::R64;
