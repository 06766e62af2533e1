//! Outside-in spans: a recorder, and a [`Timed`] adapter that wraps any
//! party and times every call into it.
//!
//! Nothing under `crates/` is instrumented. A layer is measured by
//! timing the calls that cross its public boundary, from the benchmark's
//! side of it: `Timed<P>` implements [`sim_net::Protocol`] and
//! [`async_net::AsyncProtocol`] by delegation and records one span per
//! construction, `step`, `on_start`, `on_message` and `on_timer`. On TCP
//! it is nested as `Timed<Reliable<Timed<P>>>`, so `Reliable`'s own time
//! is the outer span minus the inner one.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use async_net::{AsyncCtx, AsyncProtocol};
use sim_net::{Envelope, Inbox, Protocol, RoundCtx};

/// "No span": the parent of a run span, and the id no span ever gets.
pub const NO_SPAN: u32 = 0;

/// One timed interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique within a recorder, never [`NO_SPAN`].
    pub id: u32,
    /// The span this one ran inside ([`NO_SPAN`] for a run span).
    pub parent: u32,
    /// The run (deployment) the span belongs to.
    pub run: u32,
    /// The party or node whose call this was (`u32::MAX` for the driver).
    pub party: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// The lockstep round for `step` spans, 0 otherwise.
    pub round: u32,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CURRENT: Cell<u32> = const { Cell::new(NO_SPAN) };
}

/// Collects spans in memory; the runner drains it after every run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    run: AtomicU32,
    /// The open run span: the parent of spans opened on threads the
    /// system started (engine workers, node threads), which have no
    /// enclosing span of their own.
    run_span: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(NO_SPAN + 1),
            run: AtomicU32::new(0),
            run_span: AtomicU32::new(NO_SPAN),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect(
                "a span is pushed in one statement, so a panicking thread leaves the list valid",
            )
            .push(span);
    }

    /// Times `f` as a span named `name`, a child of whatever span is open
    /// on this thread (or of the run span on a thread without one).
    pub fn scope<R>(&self, name: &'static str, party: u32, round: u32, f: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let enclosing = CURRENT.with(|c| c.replace(id));
        let parent = self.parent_of(enclosing);
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        CURRENT.with(|c| c.set(enclosing));
        self.push(Span {
            id,
            parent,
            run: self.run.load(Ordering::SeqCst),
            party,
            name,
            round,
            start_ns,
            end_ns,
        });
        r
    }

    /// Records a span that started at `start_ns` and ends now, as a child
    /// of the span open on this thread. For intervals that end inside a
    /// callback (`on_ready`) and so cannot be a closure.
    pub fn close(&self, name: &'static str, party: u32, start_ns: u64) {
        let end_ns = self.now_ns();
        self.push(Span {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent: self.parent_of(CURRENT.with(Cell::get)),
            run: self.run.load(Ordering::SeqCst),
            party,
            name,
            round: 0,
            start_ns,
            end_ns,
        });
    }

    /// The parent of a span opened while `enclosing` was this thread's
    /// innermost span.
    fn parent_of(&self, enclosing: u32) -> u32 {
        if enclosing == NO_SPAN {
            self.run_span.load(Ordering::SeqCst)
        } else {
            enclosing
        }
    }

    /// Times `f` as run number `run`: the root span every other span of
    /// the run descends from.
    pub fn run<R>(&self, run: u32, f: impl FnOnce() -> R) -> R {
        self.run.store(run, Ordering::SeqCst);
        self.scope("run", u32::MAX, 0, || {
            self.run_span
                .store(CURRENT.with(Cell::get), Ordering::SeqCst);
            let r = f();
            self.run_span.store(NO_SPAN, Ordering::SeqCst);
            r
        })
    }

    /// Removes and returns every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("see push"))
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Σ duration.
    pub total_ns: u64,
    /// Σ (duration − the part of it child spans cover).
    pub self_ns: u64,
}

/// Sums spans by name. A span's self time is its duration minus the
/// durations of its direct children (children on other threads can
/// overlap, so self time saturates at zero).
#[must_use]
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// The span names one layer's calls are recorded under.
#[derive(Debug)]
pub struct LayerNames {
    /// Party construction.
    pub new: &'static str,
    /// `Protocol::step`.
    pub step: &'static str,
    /// `AsyncProtocol::on_start`.
    pub on_start: &'static str,
    /// `AsyncProtocol::on_message`.
    pub on_message: &'static str,
    /// `AsyncProtocol::on_timer`.
    pub on_timer: &'static str,
}

macro_rules! layer_names {
    ($id:ident, $layer:literal) => {
        #[doc = concat!("Span names of the `", $layer, "` layer.")]
        pub const $id: LayerNames = LayerNames {
            new: concat!($layer, ".new"),
            step: concat!($layer, ".step"),
            on_start: concat!($layer, ".on_start"),
            on_message: concat!($layer, ".on_message"),
            on_timer: concat!($layer, ".on_timer"),
        };
    };
}

layer_names!(REAL_AA, "real-aa");
layer_names!(TREE_AA, "tree-aa");
layer_names!(ASYNC_AA, "async-aa");
layer_names!(RELIABLE, "async-net.reliable");

/// A party with every call into it timed.
#[derive(Debug)]
pub struct Timed<P> {
    inner: P,
    rec: Arc<Recorder>,
    names: &'static LayerNames,
    party: u32,
}

impl<P> Timed<P> {
    /// Builds the party with `build`, timing the construction.
    pub fn new(
        rec: &Arc<Recorder>,
        names: &'static LayerNames,
        party: usize,
        build: impl FnOnce() -> P,
    ) -> Self {
        let party = party as u32;
        Timed {
            inner: rec.scope(names.new, party, 0, build),
            rec: Arc::clone(rec),
            names,
            party,
        }
    }

    /// The wrapped party.
    pub fn inner(&self) -> &P {
        &self.inner
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn step(&mut self, round: u32, inbox: &Inbox<P::Msg>, ctx: &mut RoundCtx<P::Msg>) {
        let inner = &mut self.inner;
        self.rec.scope(self.names.step, self.party, round, || {
            inner.step(round, inbox, ctx);
        });
    }

    fn output(&self) -> Option<P::Output> {
        Protocol::output(&self.inner)
    }
}

impl<P: AsyncProtocol> AsyncProtocol for Timed<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn on_start(&mut self, ctx: &mut AsyncCtx<P::Msg>) {
        let inner = &mut self.inner;
        self.rec
            .scope(self.names.on_start, self.party, 0, || inner.on_start(ctx));
    }

    fn on_message(&mut self, env: Envelope<P::Msg>, ctx: &mut AsyncCtx<P::Msg>) {
        let inner = &mut self.inner;
        self.rec.scope(self.names.on_message, self.party, 0, || {
            inner.on_message(env, ctx);
        });
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AsyncCtx<P::Msg>) {
        let inner = &mut self.inner;
        self.rec.scope(self.names.on_timer, self.party, 0, || {
            inner.on_timer(token, ctx);
        });
    }

    fn output(&self) -> Option<P::Output> {
        AsyncProtocol::output(&self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_scopes_link_parents_and_self_time_excludes_children() {
        let rec = Arc::new(Recorder::default());
        rec.run(7, || {
            rec.scope("outer", 1, 0, || {
                rec.scope("inner", 1, 0, || std::hint::black_box(0));
            });
        });
        let spans = rec.drain();
        assert!(rec.drain().is_empty());
        let by = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (run, outer, inner) = (by("run"), by("outer"), by("inner"));
        assert_eq!(run.parent, NO_SPAN);
        assert_eq!(outer.parent, run.id);
        assert_eq!(inner.parent, outer.id);
        assert!(spans.iter().all(|s| s.run == 7));
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["outer"].self_ns,
            outer.dur_ns() - inner.dur_ns(),
            "self time is the span minus its children"
        );
        assert_eq!(totals["run"].self_ns, run.dur_ns() - outer.dur_ns());
    }

    #[test]
    fn spans_from_other_threads_hang_off_the_run_span() {
        let rec = Arc::new(Recorder::default());
        rec.run(0, || {
            std::thread::scope(|s| {
                s.spawn(|| rec.scope("worker", 3, 0, || ()));
            });
        });
        let spans = rec.drain();
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, run.id);
        assert_eq!(worker.party, 3);
    }
}
