//! The differential trace gate.
//!
//! A networked deployment is only trustworthy if it runs the *same
//! protocol execution* the verified in-process simulator would run. The
//! gate makes that checkable: a [`GateCase`] pins everything that
//! determines an execution — tree, inputs, `t`, seed, delay floor — and
//! can produce both
//!
//! * the **reference run**: `Reliable<AsyncTreeAaParty>` under the
//!   in-process [`VirtualScheduler`] with an [`AsyncRecorder`], and
//! * the node/cluster configuration for the **networked run** of the
//!   identical case (the config fingerprint in the TCP handshake is
//!   derived here, so mismatched processes refuse to talk).
//!
//! [`differential_gate`] then demands that the merged networked trace
//! reconciles with the reference **event for event** — same protocol
//! events, same virtual times, same per-party order. Any divergence in
//! scheduling, codecs, or transport logic surfaces as a first-diverging
//! event, not as a flaky end-to-end assertion.

use std::sync::Arc;

use aa_trace::{reconcile_proto, Trace};
use async_aa::{AsyncAaMsg, AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{
    run_async_with, splitmix64, AsyncConfig, AsyncRecorder, DelayModel, PassiveAsync, Reliable,
    VirtualScheduler,
};
use sim_net::{Outcome, PartyId};
use tree_model::{Tree, VertexId};

/// One fully pinned execution: everything both the reference simulator
/// and a networked cluster need to replay the same schedule.
#[derive(Clone, Debug)]
pub struct GateCase {
    /// The public tree.
    pub tree: Arc<Tree>,
    /// Input vertex per party (length = `n`).
    pub inputs: Vec<VertexId>,
    /// Corruption bound.
    pub t: usize,
    /// Seed of the content-keyed delay schedule.
    pub seed: u64,
    /// Delay floor / conservative lookahead (the transport default 0.5).
    pub min_delay: f64,
    /// Trace label.
    pub label: String,
}

/// What the in-process reference produced.
#[derive(Clone, Debug)]
pub struct ReferenceRun {
    /// Per-party outcomes.
    pub outcomes: Vec<Outcome<VertexId>>,
    /// The recorded reference trace.
    pub trace: Trace,
}

impl GateCase {
    /// Builds a case from tree text (the `tree-model` `parse_tree`
    /// format) and per-party input vertex indices.
    ///
    /// # Errors
    ///
    /// Reports unparsable trees, out-of-range inputs, or `n ≤ 3t`.
    pub fn from_text(
        tree_text: &str,
        inputs: &[usize],
        t: usize,
        seed: u64,
    ) -> Result<Self, String> {
        let tree = tree_model::parse_tree(tree_text).map_err(|e| e.to_string())?;
        let nv = tree.vertex_count();
        let mut vids = Vec::with_capacity(inputs.len());
        for &i in inputs {
            let Some(v) = tree.vertices().nth(i) else {
                return Err(format!("input vertex {i} out of range (tree has {nv})"));
            };
            vids.push(v);
        }
        let case = GateCase {
            tree: Arc::new(tree),
            inputs: vids,
            t,
            seed,
            min_delay: 0.5,
            label: format!("net-gate-{seed}"),
        };
        // Validate the protocol preconditions once, up front.
        case.protocol_config()?;
        Ok(case)
    }

    /// Number of parties.
    #[must_use]
    pub fn n(&self) -> usize {
        self.inputs.len()
    }

    /// The derived protocol configuration.
    ///
    /// # Errors
    ///
    /// If `n ≤ 3t`.
    pub fn protocol_config(&self) -> Result<AsyncTreeAaConfig, String> {
        AsyncTreeAaConfig::new(self.n(), self.t, &self.tree)
    }

    /// A 64-bit fingerprint over everything that pins the execution.
    /// Carried in the TCP handshake: two processes launched with
    /// different trees, inputs, seeds, or delay floors refuse to talk
    /// instead of silently diverging.
    #[must_use]
    pub fn config_fp(&self) -> u64 {
        let mut h = splitmix64(0x6761_7465_5f66_7030 ^ self.seed);
        let mut mix = |x: u64| {
            h = splitmix64(h ^ x);
        };
        mix(self.n() as u64);
        mix(self.t as u64);
        mix(self.min_delay.to_bits());
        mix(self.tree.vertex_count() as u64);
        for v in self.tree.vertices() {
            mix(self.tree.parent(v).map_or(u64::MAX, |p| p.index() as u64));
        }
        for v in &self.inputs {
            mix(v.index() as u64);
        }
        h
    }

    /// The party object a node (or the reference run) executes: the
    /// tree-AA protocol behind the retransmitting reliable layer.
    ///
    /// # Panics
    ///
    /// Panics if the case violates `n > 3t` — construct cases through
    /// [`GateCase::from_text`] or validate with
    /// [`GateCase::protocol_config`] first.
    #[must_use]
    pub fn party(&self, i: usize) -> Reliable<AsyncTreeAaParty> {
        let cfg = self.protocol_config().expect("validated case");
        Reliable::new(
            AsyncTreeAaParty::new(cfg, Arc::clone(&self.tree), self.inputs[i]),
            self.n(),
        )
    }

    /// Runs the in-process reference: the identical protocol objects
    /// under [`VirtualScheduler`], with every proto event recorded.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures (event-cap exhaustion) as text.
    pub fn reference_run(&self) -> Result<ReferenceRun, String> {
        let n = self.n();
        let cfg = AsyncConfig {
            n,
            t: self.t,
            seed: self.seed,
            delay: DelayModel::Uniform {
                min: self.min_delay,
            },
            max_events: 3_000_000,
        };
        let mut sched: VirtualScheduler<async_net::RelMsg<AsyncAaMsg>> =
            VirtualScheduler::new(n, self.seed, self.min_delay);
        let mut recorder = AsyncRecorder::new(n, self.t, &self.label);
        let report = run_async_with(
            &cfg,
            None,
            |p: PartyId, _| self.party(p.index()),
            PassiveAsync,
            &mut sched,
            Some(&mut recorder),
        )
        .map_err(|e| e.to_string())?;
        let outcomes = report
            .outputs
            .into_iter()
            .enumerate()
            .map(|(i, o)| o.ok_or(i))
            .collect::<Result<Vec<_>, usize>>()
            .map_err(|i| format!("reference run: party {i} produced no output"))?;
        Ok(ReferenceRun {
            outcomes,
            trace: recorder.into_trace(),
        })
    }
}

/// The gate itself: the networked trace must reconcile with the
/// reference protocol-event-for-protocol-event (same labels, fields,
/// virtual times, per-party order). Returns the number of reconciled
/// events.
///
/// # Errors
///
/// The first diverging event, rendered with both sides' canonical JSON.
pub fn differential_gate(reference: &Trace, networked: &Trace) -> Result<usize, String> {
    reconcile_proto(reference, networked)
}

/// A canonical fingerprint of a trace's *protocol* projection: the
/// FNV-1a hash of the canonical JSON of the proto events alone, in the
/// gate's reconciliation order. Transport-level events (fault drops,
/// reconnects, recovery markers) are excluded, so a run that crashed
/// and recovered fingerprints identically to one that never did — this
/// is the value the crash-recovery e2e checks for bit-identity.
///
/// # Errors
///
/// Propagates projection failures (malformed proto events) as text.
pub fn proto_fingerprint(trace: &Trace) -> Result<u64, String> {
    let projected = aa_trace::proto_projection(trace)?;
    let mut canon = Trace::new(trace.n, trace.t, &trace.label);
    for ev in projected {
        canon.push(ev.round, ev.kind);
    }
    Ok(aa_trace::fnv1a_64(canon.to_canonical_string().as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PATH5: &str = "vertex 0\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nedge 0 1\nedge 1 2\nedge 2 3\nedge 3 4\n";

    #[test]
    fn reference_run_terminates_and_agrees() {
        let case = GateCase::from_text(PATH5, &[0, 4, 2, 1], 1, 7).unwrap();
        let r = case.reference_run().unwrap();
        assert_eq!(r.outcomes.len(), 4);
        for o in &r.outcomes {
            assert!(!o.is_degraded(), "clean run must not degrade: {o:?}");
        }
        // The trace carries stamped proto events for every party.
        let proj = aa_trace::proto_projection(&r.trace).unwrap();
        assert!(!proj.is_empty());
    }

    #[test]
    fn reference_run_is_reproducible() {
        let case = GateCase::from_text(PATH5, &[4, 0, 3, 3], 1, 21).unwrap();
        let a = case.reference_run().unwrap();
        let b = case.reference_run().unwrap();
        assert_eq!(a.trace.to_canonical_string(), b.trace.to_canonical_string());
        assert_eq!(differential_gate(&a.trace, &b.trace).unwrap(), {
            aa_trace::proto_projection(&a.trace).unwrap().len()
        });
    }

    #[test]
    fn fingerprint_tracks_every_parameter() {
        let base = GateCase::from_text(PATH5, &[0, 4, 2, 1], 1, 7).unwrap();
        let fp = base.config_fp();
        let mut seed = base.clone();
        seed.seed = 8;
        assert_ne!(fp, seed.config_fp());
        let mut inputs = base.clone();
        inputs.inputs[0] = base.tree.vertices().nth(1).unwrap();
        assert_ne!(fp, inputs.config_fp());
        let mut delay = base.clone();
        delay.min_delay = 0.25;
        assert_ne!(fp, delay.config_fp());
    }
}
