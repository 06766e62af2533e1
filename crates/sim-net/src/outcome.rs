//! Graceful degradation: structured outcomes with evidence certificates.
//!
//! Every protocol in this workspace assumes `t < n/3`. When reality
//! violates that bound — more than `t` parties crash, stay silent, or
//! provably equivocate — a bare output value would be *silently wrong*.
//! This module gives protocols a vocabulary for saying so instead: an
//! [`Outcome`] is either a plain [`Outcome::Value`] or an
//! [`Outcome::Degraded`] carrying the best-effort fallback value *and* an
//! [`EvidenceCertificate`] naming the observed faults that exceeded the
//! budget.
//!
//! The [`Monitored`] wrapper retrofits degradation onto any synchronous
//! [`Protocol`] without touching it: it watches each round's inbox through
//! a [`SilenceMonitor`] and wraps the inner output accordingly. Protocols
//! with richer fault views (e.g. `async-aa`'s reliable-broadcast layer,
//! which can *prove* equivocation from conflicting echo quorums) build
//! their certificates directly.

use std::collections::BTreeMap;
use std::fmt;

use crate::mailbox::Inbox;
use crate::message::Payload;
use crate::party::{Protocol, RoundCtx};

/// One piece of observed-fault evidence.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Evidence {
    /// A party failed to deliver anything in a round where at least
    /// `n − t` parties did (so under `t < n/3` it cannot be explained by
    /// scheduling alone).
    Silence {
        /// The silent party.
        party: usize,
        /// The first round the silence was observed.
        round: u32,
    },
    /// A party provably sent conflicting messages where the protocol
    /// required consistency (e.g. two distinct values each backed by an
    /// echo quorum intersecting the honest set).
    Equivocation {
        /// The equivocating party.
        party: usize,
        /// Where the conflict was observed (protocol-specific, e.g.
        /// `"rbc iter 2 broadcaster 5"`).
        context: String,
    },
}

impl fmt::Display for Evidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Evidence::Silence { party, round } => {
                write!(f, "party {party} silent since round {round}")
            }
            Evidence::Equivocation { party, context } => {
                write!(f, "party {party} equivocated ({context})")
            }
        }
    }
}

impl Evidence {
    /// The implicated party.
    pub fn party(&self) -> usize {
        match self {
            Evidence::Silence { party, .. } | Evidence::Equivocation { party, .. } => *party,
        }
    }
}

/// The evidence justifying a [`Outcome::Degraded`] outcome: the observed
/// faulty parties exceeded the configured budget.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvidenceCertificate {
    /// The individual observations, sorted (one per implicated party at
    /// minimum).
    pub evidence: Vec<Evidence>,
    /// Number of distinct implicated parties.
    pub observed: usize,
    /// The configured corruption budget `t` that was exceeded.
    pub budget: usize,
}

impl EvidenceCertificate {
    /// Builds a certificate from raw evidence, deduplicating by party and
    /// sorting for determinism.
    pub fn new(mut evidence: Vec<Evidence>, budget: usize) -> Self {
        evidence.sort();
        evidence.dedup();
        let mut parties: Vec<usize> = evidence.iter().map(Evidence::party).collect();
        parties.sort_unstable();
        parties.dedup();
        EvidenceCertificate {
            evidence,
            observed: parties.len(),
            budget,
        }
    }

    /// Whether the certificate actually demonstrates an over-threshold
    /// condition (more implicated parties than the budget allows).
    pub fn exceeds_budget(&self) -> bool {
        self.observed > self.budget
    }
}

impl fmt::Display for EvidenceCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} faulty parties observed (budget t = {}):",
            self.observed, self.budget
        )?;
        for e in &self.evidence {
            write!(f, " [{e}]")?;
        }
        Ok(())
    }
}

/// A degraded result: the best-effort fallback value plus the certificate
/// explaining why the protocol's guarantees no longer apply.
#[derive(Clone, Debug, PartialEq)]
pub struct Degradation<T> {
    /// Best-effort value (for AA protocols: still inside the input hull
    /// the party has observed).
    pub fallback: T,
    /// Why the run degraded.
    pub certificate: EvidenceCertificate,
}

/// A protocol outcome that distinguishes a fully guaranteed value from a
/// degraded best-effort one.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome<T> {
    /// The protocol terminated with all its guarantees intact.
    Value(T),
    /// Observed faults exceeded the budget; guarantees are void, but the
    /// carried value is still the party's best effort and the certificate
    /// is checkable.
    Degraded(Degradation<T>),
}

impl<T> Outcome<T> {
    /// The carried value, guaranteed or best-effort.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Value(v) => v,
            Outcome::Degraded(d) => &d.fallback,
        }
    }

    /// Consumes the outcome, returning the carried value.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Value(v) => v,
            Outcome::Degraded(d) => d.fallback,
        }
    }

    /// Whether this is a degraded outcome.
    pub fn is_degraded(&self) -> bool {
        matches!(self, Outcome::Degraded(_))
    }

    /// The certificate, if degraded.
    pub fn certificate(&self) -> Option<&EvidenceCertificate> {
        match self {
            Outcome::Value(_) => None,
            Outcome::Degraded(d) => Some(&d.certificate),
        }
    }
}

/// A per-round silence detector.
///
/// The rule: in any round where *any* message arrived — the party's own
/// broadcast included, since the network delivers it back to the sender —
/// the network and the protocol schedule were live, and every other party
/// that delivered nothing is suspected as of that round; a suspect that is
/// heard again is cleared (crash-*recovery* is not a standing fault). In a
/// round with no traffic at all, nobody is suspected: schedule-wide
/// silence is indistinguishable from a quiet protocol phase. Counting the
/// own message matters for a lone survivor: it hears nobody else, and
/// must still suspect everyone who is gone.
///
/// For the all-to-all protocols in this workspace (every honest party
/// broadcasts in every round of its schedule), an honest, connected party
/// is heard in every observed round, so under `t < n/3` actually holding
/// the *final* suspect set is at most the `t` faulty parties and a correct
/// run is never misclassified as over-threshold. Transient suspicion
/// (e.g. during a partition that later heals) clears itself.
#[derive(Clone, Debug)]
pub struct SilenceMonitor {
    n: usize,
    t: usize,
    first_silent: BTreeMap<usize, u32>,
}

impl SilenceMonitor {
    /// Creates a monitor for an `n`-party network with budget `t`.
    pub fn new(n: usize, t: usize) -> Self {
        SilenceMonitor {
            n,
            t,
            first_silent: BTreeMap::new(),
        }
    }

    /// Feeds one round's observation: the deduplicated set of senders that
    /// delivered to this party (as a membership bitmap, the party's own
    /// delivered message included) plus the party's own id (never
    /// suspected).
    pub fn observe_round(&mut self, round: u32, me: usize, seen: &[bool]) {
        let any_speaker = seen.iter().any(|&present| present);
        for (party, &present) in seen.iter().enumerate().take(self.n) {
            if party == me {
                continue;
            }
            if present {
                self.first_silent.remove(&party);
            } else if any_speaker {
                self.first_silent.entry(party).or_insert(round);
            }
        }
    }

    /// Convenience: observes an inbox directly.
    pub fn observe_inbox<M>(&mut self, round: u32, me: usize, inbox: &Inbox<M>) {
        let mut seen = vec![false; self.n];
        for r in inbox.iter() {
            if r.from.index() < self.n {
                seen[r.from.index()] = true;
            }
        }
        self.observe_round(round, me, &seen);
    }

    /// The currently suspected parties with the first round each went
    /// silent.
    pub fn suspects(&self) -> &BTreeMap<usize, u32> {
        &self.first_silent
    }

    /// Whether the suspect count exceeds the budget.
    pub fn over_threshold(&self) -> bool {
        self.first_silent.len() > self.t
    }

    /// The suspects as [`Evidence`].
    pub fn evidence(&self) -> Vec<Evidence> {
        self.first_silent
            .iter()
            .map(|(&party, &round)| Evidence::Silence { party, round })
            .collect()
    }

    /// A certificate over the current suspects.
    pub fn certificate(&self) -> EvidenceCertificate {
        EvidenceCertificate::new(self.evidence(), self.t)
    }
}

/// Wraps any synchronous protocol with silence-based degradation: the
/// output becomes an [`Outcome`] that turns [`Outcome::Degraded`] when the
/// observed silent-party count exceeds `t`.
///
/// Message traffic is completely unchanged — the wrapper only *reads* the
/// inbox — so a network of `Monitored<P>` parties is wire-compatible with
/// a network of plain `P` parties.
#[derive(Clone, Debug)]
pub struct Monitored<P> {
    inner: P,
    monitor: SilenceMonitor,
}

impl<P> Monitored<P> {
    /// Wraps `inner` for an `n`-party network with budget `t`.
    pub fn new(inner: P, n: usize, t: usize) -> Self {
        Monitored {
            inner,
            monitor: SilenceMonitor::new(n, t),
        }
    }

    /// The wrapped protocol.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The silence monitor's current state.
    pub fn monitor(&self) -> &SilenceMonitor {
        &self.monitor
    }
}

impl<P: Protocol> Protocol for Monitored<P>
where
    P::Msg: Payload,
{
    type Msg = P::Msg;
    type Output = Outcome<P::Output>;

    fn step(&mut self, round: u32, inbox: &Inbox<Self::Msg>, ctx: &mut RoundCtx<Self::Msg>) {
        // Round 1 delivers an empty inbox by construction; observing it
        // would suspect everyone, so only rounds with history count.
        if round > 1 {
            self.monitor.observe_inbox(round, ctx.me().index(), inbox);
        }
        self.inner.step(round, inbox, ctx);
    }

    fn output(&self) -> Option<Self::Output> {
        let value = self.inner.output()?;
        Some(if self.monitor.over_threshold() {
            Outcome::Degraded(Degradation {
                fallback: value,
                certificate: self.monitor.certificate(),
            })
        } else {
            Outcome::Value(value)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartyId, Received};

    #[test]
    fn outcome_accessors() {
        let v: Outcome<u32> = Outcome::Value(7);
        assert_eq!(*v.value(), 7);
        assert!(!v.is_degraded());
        assert!(v.certificate().is_none());

        let cert = EvidenceCertificate::new(
            vec![
                Evidence::Silence { party: 1, round: 3 },
                Evidence::Equivocation {
                    party: 2,
                    context: "iter 0".into(),
                },
            ],
            1,
        );
        assert_eq!(cert.observed, 2);
        assert!(cert.exceeds_budget());
        let d: Outcome<u32> = Outcome::Degraded(Degradation {
            fallback: 9,
            certificate: cert.clone(),
        });
        assert_eq!(*d.value(), 9);
        assert!(d.is_degraded());
        assert_eq!(d.certificate(), Some(&cert));
        assert_eq!(d.into_value(), 9);
    }

    #[test]
    fn certificate_dedups_by_party_and_displays() {
        let cert = EvidenceCertificate::new(
            vec![
                Evidence::Silence { party: 3, round: 2 },
                Evidence::Silence { party: 3, round: 2 },
                Evidence::Silence { party: 1, round: 4 },
            ],
            2,
        );
        assert_eq!(cert.evidence.len(), 2);
        assert_eq!(cert.observed, 2);
        assert!(!cert.exceeds_budget());
        let text = cert.to_string();
        assert!(text.contains("budget t = 2"), "{text}");
        assert!(text.contains("party 1 silent since round 4"), "{text}");
    }

    #[test]
    fn silence_monitor_suspects_and_clears() {
        let mut m = SilenceMonitor::new(4, 1);
        // One silent party while others speak: suspected, under budget.
        m.observe_round(2, 0, &[true, true, true, false]);
        assert_eq!(m.suspects().get(&3), Some(&2));
        assert!(!m.over_threshold());
        // A second silent party crosses t = 1.
        m.observe_round(3, 0, &[true, true, false, false]);
        assert!(m.over_threshold());
        let cert = m.certificate();
        assert_eq!(cert.observed, 2);
        assert!(cert.exceeds_budget());
        // Recovery: both heard again, suspicion clears entirely.
        m.observe_round(4, 0, &[true, true, true, true]);
        assert!(m.suspects().is_empty());
        assert!(!m.over_threshold());
    }

    #[test]
    fn schedule_wide_silence_suspects_nobody() {
        let mut m = SilenceMonitor::new(3, 0);
        // Nothing arrived, not even my own message: a quiet protocol
        // phase, not a fault.
        m.observe_round(2, 1, &[false, false, false]);
        assert!(m.suspects().is_empty());
    }

    #[test]
    fn a_lone_survivor_suspects_everyone_gone() {
        let mut m = SilenceMonitor::new(4, 1);
        // Only my own broadcast came back: the round was live, and the
        // three parties that sent nothing are suspected, over budget.
        m.observe_round(2, 1, &[false, true, false, false]);
        assert_eq!(m.suspects().keys().copied().collect::<Vec<_>>(), [0, 2, 3]);
        assert!(m.over_threshold());
        // The same through an inbox holding only the own message.
        let mut m = SilenceMonitor::new(4, 1);
        let own = Received {
            from: PartyId(1),
            payload: (),
        };
        m.observe_inbox(2, 1, &Inbox::from_messages(vec![own]));
        assert!(m.over_threshold());
        m.observe_inbox(3, 1, &Inbox::<()>::empty());
        assert_eq!(m.suspects().len(), 3, "an empty round changes nothing");
    }

    #[test]
    fn self_is_never_suspected() {
        let mut m = SilenceMonitor::new(3, 0);
        // Party 2 speaks; both 0 and me (1) are absent, but only 0 is
        // suspected.
        m.observe_round(2, 1, &[false, false, true]);
        assert_eq!(m.suspects().keys().copied().collect::<Vec<_>>(), vec![0]);
    }
}
