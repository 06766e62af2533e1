//! Inbound and outbound mailboxes: the zero-copy broadcast fan-out layer.
//!
//! A broadcast used to be materialised as `n` cloned [`Envelope`]s — one
//! per recipient — before the engine even decided whether to deliver it.
//! For the all-to-all protocols in this workspace (gradecast, `RealAA`,
//! `TreeAA`) that made every round Θ(n²) payload clones and Θ(n³) total
//! inbox insertions per gradecast batch.
//!
//! This module splits traffic by *shape* instead:
//!
//! * an [`Outbox`] keeps unicasts as explicit envelopes and broadcasts as a
//!   bare payload list — a broadcast costs one `push`, not `n` clones;
//! * an [`Inbox`] hands every recipient the round's broadcast traffic as a
//!   single shared list (an [`Arc`] built once by the engine) plus small
//!   per-recipient lanes of unicasts and of adversary injections.
//!
//! Recipients cannot tell the difference: [`Inbox::iter`] yields each
//! message once with its authenticated sender, exactly as if the envelopes
//! had been materialised.

use std::sync::Arc;

use crate::message::{Envelope, PartyId, Payload};

/// A delivered message: the payload plus its engine-authenticated sender.
///
/// The recipient is implicit — an inbox belongs to exactly one party — so
/// unlike [`Envelope`] there is no `to` field to carry around n times for
/// a broadcast.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Received<M> {
    /// True sender (authenticated by the engine).
    pub from: PartyId,
    /// The message body.
    pub payload: M,
}

/// One party's view of the messages delivered to it this round.
///
/// Iteration order is deterministic: first the round's broadcasts (by
/// sender id, emission order within a sender), then unicasts by sender
/// id, then adversary injections in injection order.
#[derive(Clone, Debug)]
pub struct Inbox<M> {
    /// The round's broadcast traffic, shared by every recipient.
    pub(crate) broadcasts: Arc<Vec<Received<M>>>,
    /// Unicasts (and cut broadcasts' copies) addressed to this party.
    pub(crate) direct: Vec<Received<M>>,
    /// Adversary injections addressed to this party, queued when sent.
    pub(crate) injected: Vec<Received<M>>,
}

impl<M> Default for Inbox<M> {
    fn default() -> Self {
        Inbox {
            broadcasts: Arc::new(Vec::new()),
            direct: Vec::new(),
            injected: Vec::new(),
        }
    }
}

impl<M> Inbox<M> {
    /// An empty inbox (what round 1 delivers).
    pub fn empty() -> Self {
        Inbox::default()
    }

    /// An inbox holding exactly `messages`, in order.
    ///
    /// The engine builds inboxes itself; this constructor exists for
    /// *composed* protocols that drive an inner protocol's `step` by hand
    /// (see `tree-aa`) and for tests.
    pub fn from_messages(messages: Vec<Received<M>>) -> Self {
        Inbox {
            direct: messages,
            ..Inbox::default()
        }
    }

    /// An inbox holding the payloads of `envelopes`, in order (the `to`
    /// fields are discarded — an inbox is already addressed).
    pub fn from_envelopes(envelopes: Vec<Envelope<M>>) -> Self {
        Inbox::from_messages(
            envelopes
                .into_iter()
                .map(|e| Received {
                    from: e.from,
                    payload: e.payload,
                })
                .collect(),
        )
    }

    /// Number of messages delivered.
    pub fn len(&self) -> usize {
        self.broadcasts.len() + self.direct.len() + self.injected.len()
    }

    /// Whether nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All delivered messages: shared broadcasts first, then unicasts,
    /// then injections.
    pub fn iter(&self) -> impl Iterator<Item = &Received<M>> {
        self.into_iter()
    }
}

impl<'a, M> IntoIterator for &'a Inbox<M> {
    type Item = &'a Received<M>;
    type IntoIter = std::iter::Chain<
        std::iter::Chain<std::slice::Iter<'a, Received<M>>, std::slice::Iter<'a, Received<M>>>,
        std::slice::Iter<'a, Received<M>>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        (self.broadcasts.iter().chain(&self.direct)).chain(&self.injected)
    }
}

/// One party's tentative traffic for a round, split by shape.
///
/// Built by [`RoundCtx::into_outbox`](crate::RoundCtx::into_outbox);
/// consumed by the engine (which moves each broadcast payload into the
/// round's shared list — no per-recipient clone ever happens) and shown to
/// the adversary.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    pub(crate) from: PartyId,
    pub(crate) n: usize,
    pub(crate) unicasts: Vec<Envelope<M>>,
    pub(crate) broadcasts: Vec<M>,
}

impl<M: Payload> Outbox<M> {
    /// An empty outbox for `from` in an `n`-party network.
    pub fn new(from: PartyId, n: usize) -> Self {
        Outbox {
            from,
            n,
            unicasts: Vec::new(),
            broadcasts: Vec::new(),
        }
    }

    /// The party whose traffic this is.
    pub fn sender(&self) -> PartyId {
        self.from
    }

    /// Number of parties in the network (every broadcast fans out to all
    /// of them, sender included).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The point-to-point messages, in emission order.
    pub fn unicasts(&self) -> &[Envelope<M>] {
        &self.unicasts
    }

    /// The broadcast payloads, in emission order. Each is logically
    /// addressed to all `n` parties.
    pub fn broadcasts(&self) -> &[M] {
        &self.broadcasts
    }

    /// Whether no traffic was emitted.
    pub fn is_empty(&self) -> bool {
        self.unicasts.is_empty() && self.broadcasts.is_empty()
    }

    /// The number of point-to-point messages this outbox expands to:
    /// `unicasts + broadcasts × n`.
    pub fn message_count(&self) -> usize {
        self.unicasts.len() + self.broadcasts.len() * self.n
    }

    /// The traffic as materialised envelopes: each broadcast expanded to
    /// all `n` recipients (in id order), then the unicasts.
    ///
    /// This is the *expensive* compatibility view — it clones payloads —
    /// intended for adversaries that rewrite a corrupted party's traffic
    /// per recipient. The engine itself never calls it.
    pub fn envelopes(&self) -> impl Iterator<Item = Envelope<M>> + '_ {
        let from = self.from;
        let n = self.n;
        self.broadcasts
            .iter()
            .flat_map(move |m| {
                (0..n).map(move |i| Envelope {
                    from,
                    to: PartyId(i),
                    payload: m.clone(),
                })
            })
            .chain(self.unicasts.iter().cloned())
    }

    /// Decomposes into `(unicasts, broadcasts)`, e.g. for re-wrapping an
    /// inner protocol's traffic into an outer message type.
    pub fn into_parts(self) -> (Vec<Envelope<M>>, Vec<M>) {
        (self.unicasts, self.broadcasts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_orders_broadcasts_before_direct() {
        let inbox = Inbox {
            broadcasts: Arc::new(vec![Received {
                from: PartyId(0),
                payload: 10u64,
            }]),
            direct: vec![Received {
                from: PartyId(2),
                payload: 20,
            }],
            injected: vec![Received {
                from: PartyId(1),
                payload: 30,
            }],
        };
        let seen: Vec<(usize, u64)> = inbox.iter().map(|r| (r.from.index(), r.payload)).collect();
        assert_eq!(seen, [(0, 10), (2, 20), (1, 30)]);
        assert_eq!(inbox.len(), 3);
        assert!(!inbox.is_empty());
    }

    #[test]
    fn inbox_from_envelopes_drops_addressing() {
        let inbox = Inbox::from_envelopes(vec![Envelope {
            from: PartyId(1),
            to: PartyId(0),
            payload: 7u64,
        }]);
        assert_eq!(
            inbox.iter().next().unwrap(),
            &Received {
                from: PartyId(1),
                payload: 7
            }
        );
    }

    #[test]
    fn shared_broadcast_list_is_one_allocation() {
        let shared = Arc::new(vec![Received {
            from: PartyId(0),
            payload: 1u64,
        }]);
        let a = Inbox {
            broadcasts: Arc::clone(&shared),
            ..Inbox::default()
        };
        let b = Inbox {
            broadcasts: Arc::clone(&shared),
            ..Inbox::default()
        };
        assert!(Arc::ptr_eq(&a.broadcasts, &b.broadcasts));
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn outbox_counts_and_expands_broadcasts() {
        let mut ob: Outbox<u64> = Outbox::new(PartyId(1), 3);
        ob.broadcasts.push(5);
        ob.unicasts.push(Envelope {
            from: PartyId(1),
            to: PartyId(0),
            payload: 9,
        });
        assert_eq!(ob.message_count(), 4);
        let envs: Vec<Envelope<u64>> = ob.envelopes().collect();
        assert_eq!(envs.len(), 4);
        assert!(envs[..3]
            .iter()
            .enumerate()
            .all(|(i, e)| { e.from == PartyId(1) && e.to == PartyId(i) && e.payload == 5 }));
        assert_eq!(envs[3].payload, 9);
    }

    #[test]
    fn outbox_into_parts_preserves_shape() {
        let mut ob: Outbox<u64> = Outbox::new(PartyId(0), 2);
        ob.broadcasts.push(1);
        ob.broadcasts.push(2);
        let (unicasts, broadcasts) = ob.into_parts();
        assert!(unicasts.is_empty());
        assert_eq!(broadcasts, [1, 2]);
    }
}
