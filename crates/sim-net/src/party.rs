//! The protocol (party state machine) abstraction.

use aa_trace::{EventLog, ProtoEvent};

use crate::mailbox::{Inbox, Outbox};
use crate::message::{Envelope, PartyId, Payload};

/// A synchronous protocol, written as a per-party round state machine.
///
/// The engine drives all parties in lockstep. In round `r` (1-based), each
/// party receives the messages that were sent to it in round `r − 1` (round
/// 1 delivers an empty inbox) and may send messages via the [`RoundCtx`].
///
/// Implementations must be deterministic functions of their construction
/// parameters and observed inboxes — the honest parties of the paper's model
/// are deterministic, and the simulator's reproducibility relies on it.
/// Because each party's round is such a pure function, the engine is free
/// to step parties concurrently (see `StepMode`); the `Send` bounds on
/// `run_simulation` exist for that.
pub trait Protocol {
    /// Message type exchanged by this protocol.
    type Msg: Payload;
    /// The value a party terminates with.
    type Output: Clone;

    /// Executes one round: consume this round's inbox, emit this round's
    /// messages.
    fn step(&mut self, round: u32, inbox: &Inbox<Self::Msg>, ctx: &mut RoundCtx<Self::Msg>);

    /// The party's output, once it has terminated. The engine stops when
    /// every honest party reports `Some`.
    fn output(&self) -> Option<Self::Output>;
}

/// Per-round sending context handed to a party by the engine.
///
/// All sends are attributed to the stepping party; recipients are any of the
/// `n` parties, including the sender itself (self-delivery is ordinary
/// delivery in the next round).
///
/// Unicasts and broadcasts are tracked separately (see
/// [`Outbox`]): a broadcast records its payload **once** instead of
/// materialising `n` cloned envelopes, which is what makes all-to-all
/// rounds linear instead of quadratic in allocations.
#[derive(Debug)]
pub struct RoundCtx<M> {
    me: PartyId,
    n: usize,
    unicasts: Vec<Envelope<M>>,
    broadcasts: Vec<M>,
    tracing: bool,
    log: EventLog,
}

impl<M: Payload> RoundCtx<M> {
    /// Creates a standalone context (tracing disabled).
    ///
    /// The engine builds these internally; the constructor is public so
    /// that *composed* protocols can drive an inner protocol's `step` with
    /// a scratch context and re-wrap its outbox into their own message
    /// type (see `tree-aa`, which nests real-valued AA engines).
    pub fn new(me: PartyId, n: usize) -> Self {
        RoundCtx {
            me,
            n,
            unicasts: Vec::new(),
            broadcasts: Vec::new(),
            tracing: false,
            log: EventLog::new(),
        }
    }

    /// Creates a context with flight-recorder tracing enabled: protocol
    /// events passed to [`RoundCtx::emit_with`] are packed into the
    /// context's log, which [`RoundCtx::take_log`] hands over.
    pub fn traced(me: PartyId, n: usize) -> Self {
        RoundCtx {
            tracing: true,
            ..RoundCtx::new(me, n)
        }
    }

    /// Whether this round is being traced. Protocols rarely need this:
    /// [`RoundCtx::emit_with`] already evaluates its closure only when
    /// tracing is on.
    pub fn tracing(&self) -> bool {
        self.tracing
    }

    /// Records a protocol-level trace event.
    ///
    /// The closure is invoked **only when tracing is enabled**, so an
    /// instrumented protocol pays nothing — not even the event's string
    /// formatting — on ordinary untraced runs. When it is, the built
    /// event is packed into the log at once and dropped: no built event
    /// outlives this call.
    pub fn emit_with<F: FnOnce() -> ProtoEvent>(&mut self, build: F) {
        if self.tracing {
            self.record(build);
        }
    }

    /// The traced half of [`RoundCtx::emit_with`], kept out of line: an
    /// emit site sits in a protocol's hottest loops, and an untraced run
    /// should carry a test and a call there, not the event's builder.
    #[inline(never)]
    fn record<F: FnOnce() -> ProtoEvent>(&mut self, build: F) {
        self.log.push(build());
    }

    /// Takes the log of the protocol events recorded this round
    /// (emission order), leaving an empty one.
    pub fn take_log(&mut self) -> EventLog {
        std::mem::take(&mut self.log)
    }

    /// The stepping party's own id.
    pub fn me(&self) -> PartyId {
        self.me
    }

    /// Total number of parties.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Sends `msg` to `to`, delivered next round.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range — addressing a party that does not
    /// exist is a protocol bug, not a runtime condition.
    pub fn send(&mut self, to: PartyId, msg: M) {
        assert!(
            to.index() < self.n,
            "recipient {to} out of range (n = {})",
            self.n
        );
        self.unicasts.push(Envelope {
            from: self.me,
            to,
            payload: msg,
        });
    }

    /// Sends `msg` to every party (including the sender).
    ///
    /// The payload is moved, not cloned: fan-out to the `n` recipients
    /// happens structurally in the engine's shared broadcast list.
    pub fn broadcast(&mut self, msg: M) {
        self.broadcasts.push(msg);
    }

    /// Consumes the context and returns the accumulated outbox (public
    /// for the same composition use case as [`RoundCtx::new`]).
    pub fn into_outbox(self) -> Outbox<M> {
        Outbox {
            from: self.me,
            n: self.n,
            unicasts: self.unicasts,
            broadcasts: self.broadcasts,
        }
    }
}

/// Feeds a hand-built round through a protocol outside the engine: steps
/// `party` with `inbox` and returns its outbox. This is the harness half of
/// protocol composition (see `tree-aa`) and of history-replay tests.
pub fn step_standalone<P: Protocol>(
    party: &mut P,
    me: PartyId,
    n: usize,
    round: u32,
    inbox: &Inbox<P::Msg>,
) -> Outbox<P::Msg> {
    let mut ctx = RoundCtx::new(me, n);
    party.step(round, inbox, &mut ctx);
    ctx.into_outbox()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn broadcast_is_recorded_once_but_counts_n() {
        let mut ctx: RoundCtx<u64> = RoundCtx::new(PartyId(1), 3);
        ctx.broadcast(5);
        let out = ctx.into_outbox();
        assert_eq!(out.broadcasts(), [5]);
        assert!(out.unicasts().is_empty());
        assert_eq!(out.message_count(), 3);
        assert_eq!(out.sender(), PartyId(1));
    }

    #[test]
    fn send_is_attributed_to_sender() {
        let mut ctx: RoundCtx<u64> = RoundCtx::new(PartyId(2), 4);
        ctx.send(PartyId(0), 9);
        let out = ctx.into_outbox();
        assert_eq!(
            out.unicasts(),
            [Envelope {
                from: PartyId(2),
                to: PartyId(0),
                payload: 9
            }]
        );
        assert_eq!(out.message_count(), 1);
    }

    #[test]
    fn only_a_traced_context_evaluates_or_stores_an_event() {
        let emit = |ctx: &mut RoundCtx<u64>| {
            ctx.emit_with(|| ProtoEvent::new("gc.grade").u64("leader", 1));
            ctx.take_log()
        };
        let mut plain = RoundCtx::new(PartyId(0), 2);
        plain.emit_with(|| unreachable!("untraced: the closure must not run"));
        assert_eq!(emit(&mut plain).heap_bytes(), 0);
        let log = emit(&mut RoundCtx::traced(PartyId(0), 2));
        assert_eq!(log.len(), 1);
        assert_eq!(log.iter().next().unwrap().label, "gc.grade");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn send_out_of_range_panics() {
        let mut ctx: RoundCtx<u64> = RoundCtx::new(PartyId(0), 2);
        ctx.send(PartyId(2), 1);
    }
}
