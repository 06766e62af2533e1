//! Symmetry reduction: orbit canonicalization of visited states and
//! terminal states under the tree's automorphism group acting on party
//! permutations.
//!
//! A symmetry of a checking instance is a pair `g = (σ, π)` of a tree
//! automorphism `σ` (from [`tree_model::automorphisms`]) and a party
//! permutation `π` such that relabeling the *initial* condition through
//! `g` reproduces it exactly: honest party `π(i)` must start with input
//! `σ(input_i)`, the adversary's time-0 injections must map onto each
//! other, and `σ` must stabilize the tree's canonical diameter path
//! setwise (so the real-arithmetic projection properties checked by
//! `crate::props` are invariant). Both conditions are checked
//! *computationally* against the instance's actual initial message queue
//! rather than re-derived symbolically — the filter can never drift from
//! what the engine does.
//!
//! Under such a `g`, running any schedule and then relabeling is the
//! same as relabeling first and running the `π`-mirrored schedule, so
//! the reachable states (and terminal states) come in `g`-orbits. The
//! scheduler merges orbits by canonicalizing its visited keys over the
//! group ([`crate::sched::SymMode`]); two projections in that key (sleep
//! flags and timer tie-break ids, which do not mirror) make the merge an
//! *audit-gated* reduction rather than a theorem — see
//! `crate::explore::explore` for the cross-check that re-runs pruned
//! branches and asserts their canonical terminals were already found.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

use async_aa::{AsyncAaMsg, RbcMsg};
use async_net::AsyncSimError;
use sim_net::{Evidence, Outcome, PartyId};
use tree_model::automorphisms;

use crate::explore::{Execution, Instance};
use crate::lattice::{ByzBehavior, LatticeAssignment};
use crate::sched::{SymMode, VisitedMap};

/// Cap on the filtered group size: canonicalization cost is linear in
/// the group order, and beyond a few dozen elements extra symmetries
/// buy little additional pruning. The subset kept is a prefix in
/// enumeration order (identity first) — a non-closed subset only merges
/// fewer orbits, never unsound ones.
const GROUP_CAP: usize = 64;

/// Cap on the raw tree-automorphism enumeration (before filtering).
const SIGMA_CAP: usize = 4096;

/// One symmetry `(σ, π)` of a checking instance.
#[derive(Clone, Debug)]
pub struct GroupElem {
    /// Vertex relabeling: `sigma[v]` is the image of dense index `v`.
    pub sigma: Vec<usize>,
    /// Party permutation: `pi[p]` is the image of party `p`; preserves
    /// the honest/corrupted split.
    pub pi: Vec<usize>,
    /// Inverse of `pi`.
    pub pi_inv: Vec<usize>,
}

impl GroupElem {
    /// Whether this is the identity symmetry.
    pub fn is_identity(&self) -> bool {
        self.sigma.iter().enumerate().all(|(i, &j)| i == j)
            && self.pi.iter().enumerate().all(|(i, &j)| i == j)
    }

    fn sigma_u32(&self, v: u32) -> u32 {
        // Out-of-range vertex indices (possible only in adversarial
        // payloads outside the lattice) relabel to themselves.
        self.sigma.get(v as usize).map_or(v, |&w| w as u32)
    }

    /// `σ/π`-relabels a wire message. `Report` entries are re-sorted by
    /// party: honest parties emit them in ascending party order, so the
    /// mirrored sender's report lists the permuted entries re-sorted.
    pub fn relabel_msg(&self, msg: &AsyncAaMsg) -> AsyncAaMsg {
        match msg {
            AsyncAaMsg::Rbc {
                iter,
                broadcaster,
                inner,
            } => AsyncAaMsg::Rbc {
                iter: *iter,
                broadcaster: PartyId(
                    self.pi
                        .get(broadcaster.index())
                        .copied()
                        .unwrap_or(broadcaster.index()),
                ),
                inner: match inner {
                    RbcMsg::Init(v) => RbcMsg::Init(self.sigma_u32(*v)),
                    RbcMsg::Echo(v) => RbcMsg::Echo(self.sigma_u32(*v)),
                    RbcMsg::Ready(v) => RbcMsg::Ready(self.sigma_u32(*v)),
                },
            },
            AsyncAaMsg::Report { iter, entries } => {
                let mut entries: Vec<(u32, u32)> = entries
                    .iter()
                    .map(|&(p, v)| {
                        let p = self.pi.get(p as usize).copied().unwrap_or(p as usize);
                        (p as u32, self.sigma_u32(v))
                    })
                    .collect();
                entries.sort_unstable();
                AsyncAaMsg::Report {
                    iter: *iter,
                    entries,
                }
            }
        }
    }
}

/// The filtered symmetry group of one `(instance, assignment)` pair.
pub struct SymmetryGroup {
    /// Group elements; the identity is always first.
    pub elems: Vec<GroupElem>,
}

impl SymmetryGroup {
    /// The trivial group (identity only) for an `n`-party instance on an
    /// `m`-vertex tree.
    pub fn identity(n: usize, m: usize) -> Self {
        SymmetryGroup {
            elems: vec![GroupElem {
                sigma: (0..m).collect(),
                pi: (0..n).collect(),
                pi_inv: (0..n).collect(),
            }],
        }
    }

    /// Group order.
    pub fn order(&self) -> usize {
        self.elems.len()
    }

    /// Computes the symmetry group of `(instance, assignment)`: all
    /// `(σ, π)` with `σ ∈ Aut(T)` stabilizing the diameter path setwise
    /// and `π` a party permutation preserving the honest/corrupted split,
    /// filtered by invariance of the instance's time-0 message queue
    /// (which subsumes `σ(input_i) = input_{π(i)}` and compatibility of
    /// the corrupted parties' lattice behaviours).
    pub fn for_instance(instance: &Instance, assignment: &LatticeAssignment) -> Self {
        let n = instance.n;
        let corrupted = assignment.behaviors.len();
        let honest = n - corrupted;
        let path_set: BTreeSet<usize> = instance
            .tree
            .diameter_info()
            .path
            .vertices()
            .iter()
            .map(|v| v.index())
            .collect();
        let msgs = initial_msgs(instance, assignment);
        let base = per_pair(msgs.iter().map(|(f, t, m)| (*f, *t, format!("{m:?}"))));
        let mut elems = Vec::new();
        'sigma: for sigma in automorphisms(&instance.tree, SIGMA_CAP) {
            if !path_set.iter().all(|&v| path_set.contains(&sigma[v])) {
                continue;
            }
            for pi in split_preserving_perms(honest, corrupted) {
                let pi_inv = invert(&pi);
                let g = GroupElem {
                    sigma: sigma.clone(),
                    pi,
                    pi_inv,
                };
                let mapped = per_pair(
                    msgs.iter()
                        .map(|(f, t, m)| (g.pi[*f], g.pi[*t], format!("{:?}", g.relabel_msg(m)))),
                );
                if mapped == base {
                    elems.push(g);
                    if elems.len() >= GROUP_CAP {
                        break 'sigma;
                    }
                }
            }
        }
        debug_assert!(elems.first().is_some_and(GroupElem::is_identity));
        SymmetryGroup { elems }
    }

    /// Builds the scheduler-side tracker for this group (see
    /// [`SymMode`]): party permutation tables plus a payload hasher that
    /// returns, per group element, the hash of the relabeled message;
    /// orbit keys go into `visited`.
    pub(crate) fn sym_mode<'v>(
        &self,
        n: usize,
        visited: &'v mut VisitedMap,
    ) -> SymMode<'v, AsyncAaMsg> {
        let perms = self
            .elems
            .iter()
            .map(|g| (g.pi.clone(), g.pi_inv.clone()))
            .collect();
        let elems: Vec<GroupElem> = self.elems.clone();
        SymMode::new(
            perms,
            Box::new(move |m: &AsyncAaMsg| {
                elems
                    .iter()
                    .map(|g| {
                        let mut h = DefaultHasher::new();
                        format!("{:?}", g.relabel_msg(m)).hash(&mut h);
                        h.finish()
                    })
                    .collect()
            }),
            n,
            visited,
        )
    }
}

/// All permutations of `0..honest+corrupted` fixing the honest prefix
/// and corrupted suffix setwise, in lexicographic order (identity
/// first).
fn split_preserving_perms(honest: usize, corrupted: usize) -> Vec<Vec<usize>> {
    let hs = permutations(honest);
    let cs = permutations(corrupted);
    let mut out = Vec::with_capacity(hs.len() * cs.len());
    for h in &hs {
        for c in &cs {
            let mut pi = h.clone();
            pi.extend(c.iter().map(|&x| honest + x));
            out.push(pi);
        }
    }
    out
}

/// All permutations of `0..k` in lexicographic order.
fn permutations(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    let mut used = vec![false; k];
    fn rec(k: usize, cur: &mut Vec<usize>, used: &mut Vec<bool>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in 0..k {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(k, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(k, &mut cur, &mut used, &mut out);
    out
}

fn invert(pi: &[usize]) -> Vec<usize> {
    let mut inv = vec![0; pi.len()];
    for (i, &j) in pi.iter().enumerate() {
        inv[j] = i;
    }
    inv
}

/// The instance's complete time-0 message queue as `(from, to, msg)`:
/// every honest party's iteration-0 `Init` broadcast (in party order,
/// recipients in id order — exactly the engine's flush order) followed
/// by the adversary's injections in [`LatticeAdversary::on_start`]
/// order.
///
/// [`LatticeAdversary::on_start`]: crate::lattice::LatticeAdversary
pub(crate) fn initial_msgs(
    instance: &Instance,
    assignment: &LatticeAssignment,
) -> Vec<(usize, usize, AsyncAaMsg)> {
    let n = instance.n;
    let honest = n - assignment.behaviors.len();
    let mut out = Vec::new();
    if instance.async_cfg().iterations > 0 {
        for i in 0..honest {
            for to in 0..n {
                out.push((
                    i,
                    to,
                    AsyncAaMsg::Rbc {
                        iter: 0,
                        broadcaster: PartyId(i),
                        inner: RbcMsg::Init(instance.inputs[i].index() as u32),
                    },
                ));
            }
        }
    }
    for (k, behavior) in assignment.behaviors.iter().enumerate() {
        let me = honest + k;
        let rbc = |inner: RbcMsg<u32>| AsyncAaMsg::Rbc {
            iter: 0,
            broadcaster: PartyId(me),
            inner,
        };
        match *behavior {
            ByzBehavior::Silent => {}
            ByzBehavior::Consistent(v) => {
                for to in 0..honest {
                    out.push((me, to, rbc(RbcMsg::Init(v))));
                }
            }
            ByzBehavior::Equivocate(a, b) => {
                for to in 0..honest {
                    let v = if to < honest / 2 { a } else { b };
                    out.push((me, to, rbc(RbcMsg::Init(v))));
                    out.push((me, to, rbc(RbcMsg::Echo(b))));
                }
            }
        }
    }
    out
}

/// Groups a message sequence into per-`(from, to)` projections,
/// preserving order within each pair.
fn per_pair(
    msgs: impl Iterator<Item = (usize, usize, String)>,
) -> BTreeMap<(usize, usize), Vec<String>> {
    let mut map: BTreeMap<(usize, usize), Vec<String>> = BTreeMap::new();
    for (f, t, m) in msgs {
        map.entry((f, t)).or_default().push(m);
    }
    map
}

/// The canonical terminal state of a completed execution: the minimum,
/// over the group, of a rendered relabeling of the run's outcome.
///
/// Returns `None` for pruned runs (their terminals belong to other
/// branches) and for scheduler-aborted runs. Degradation certificates
/// keep the evidence *kind* and implicated party but drop free-text
/// equivocation context (which embeds party ids in unstructured
/// strings).
pub fn canonical_terminal(group: &SymmetryGroup, exec: &Execution) -> Option<String> {
    if exec.pruned() {
        return None;
    }
    let report = match &exec.result {
        Ok(report) => report,
        Err(AsyncSimError::Aborted { .. }) => return None,
        Err(AsyncSimError::Stalled { events }) => return Some(format!("stalled({events})")),
        Err(e) => return Some(format!("error({e})")),
    };
    let n = report.outputs.len();
    group
        .elems
        .iter()
        .map(|g| {
            let slots: Vec<String> = (0..n)
                .map(|j| match &report.outputs[g.pi_inv[j]] {
                    None => "corrupted".to_string(),
                    Some(Outcome::Value(v)) => format!("value({})", g.sigma_u32(v.index() as u32)),
                    Some(Outcome::Degraded(d)) => {
                        let evidence: BTreeSet<(u8, usize, u32)> = d
                            .certificate
                            .evidence
                            .iter()
                            .map(|ev| match ev {
                                Evidence::Silence { party, round } => (0, g.pi[*party], *round),
                                Evidence::Equivocation { party, .. } => (1, g.pi[*party], 0),
                            })
                            .collect();
                        format!(
                            "degraded({}, evidence {:?}, observed {}, budget {})",
                            g.sigma_u32(d.fallback.index() as u32),
                            evidence,
                            d.certificate.observed,
                            d.certificate.budget
                        )
                    }
                })
                .collect();
            slots.join("; ")
        })
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use async_net::AsyncAdversary;
    use std::sync::Arc;
    use tree_model::generate;

    fn instance(n: usize, t: usize, tree: Arc<tree_model::Tree>, inputs: Vec<usize>) -> Instance {
        let vs: Vec<_> = tree.vertices().collect();
        Instance {
            n,
            t,
            tree: tree.clone(),
            inputs: inputs.into_iter().map(|i| vs[i]).collect(),
            max_events: 200_000,
        }
    }

    #[test]
    fn initial_msgs_match_the_real_adversary() {
        // The symbolic reconstruction of the time-0 queue must agree with
        // LatticeAdversary::on_start for every behaviour shape.
        let tree = Arc::new(generate::path(4));
        for behaviors in [
            vec![ByzBehavior::Silent],
            vec![ByzBehavior::Consistent(2)],
            vec![ByzBehavior::Equivocate(0, 3)],
        ] {
            let assignment = LatticeAssignment { behaviors };
            let inst = instance(4, 1, tree.clone(), vec![0, 1, 2, 0]);
            let mut sends = Vec::new();
            crate::lattice::LatticeAdversary::new(4, assignment.clone()).on_start(&mut sends);
            let symbolic: Vec<(usize, usize, String)> = initial_msgs(&inst, &assignment)
                .into_iter()
                .filter(|(f, _, _)| *f >= 3) // adversary part only
                .map(|(f, t, m)| (f, t, format!("{m:?}")))
                .collect();
            let real: Vec<(usize, usize, String)> = sends
                .into_iter()
                .map(|(f, t, m)| (f.index(), t.index(), format!("{m:?}")))
                .collect();
            assert_eq!(symbolic, real, "assignment {}", assignment.describe());
        }
    }

    #[test]
    fn distinct_inputs_off_the_far_end_give_a_trivial_group() {
        // path5 with inputs v0,v1,v2,v3: all inputs distinct (no party
        // exchange) and reversal would need a party holding v4, so only
        // the identity survives.
        let inst = instance(4, 0, Arc::new(generate::path(5)), vec![0, 1, 2, 3]);
        let g = SymmetryGroup::for_instance(&inst, &LatticeAssignment { behaviors: vec![] });
        assert_eq!(g.order(), 1);
        assert!(g.elems[0].is_identity());
    }

    #[test]
    fn equal_input_parties_are_exchangeable() {
        // path4 with inputs v0,v1,v2,v0: parties 0 and 3 hold the same
        // input, so swapping them (σ = id) is a symmetry; reversal is
        // not (nobody holds v3).
        let inst = instance(4, 0, Arc::new(generate::path(4)), vec![0, 1, 2, 0]);
        let g = SymmetryGroup::for_instance(&inst, &LatticeAssignment { behaviors: vec![] });
        assert_eq!(g.order(), 2);
        let e = &g.elems[1];
        assert!(e.sigma.iter().enumerate().all(|(i, &j)| i == j));
        assert_eq!(e.pi, vec![3, 1, 2, 0]);
    }

    #[test]
    fn star_with_paired_inputs_has_a_mirror() {
        // star(5): center 0, leaves 1..4; diameter path is leaf–center–
        // leaf. Inputs (v0, v3, v4, v0) for 4 honest parties: swapping
        // leaves v3 ↔ v4 together with parties 1 ↔ 2 is a symmetry; the
        // diameter path must be stabilized, which the v3↔v4 swap does
        // whenever neither lies on it — and if one does, the filter
        // simply rejects, so we only assert on what survives.
        let tree = Arc::new(generate::star(5));
        let inst = instance(4, 0, tree, vec![0, 3, 4, 0]);
        let g = SymmetryGroup::for_instance(&inst, &LatticeAssignment { behaviors: vec![] });
        // At least the v3↔v4 / party 1↔2 mirror survives (the off-path
        // leaves 3 and 4 are interchangeable, and the diameter path
        // v1–v0–v2 may additionally reverse).
        assert!(g.order() >= 2, "order {}", g.order());
        assert!(g.elems[0].is_identity());
        assert!(g.elems[1..].iter().all(|e| !e.is_identity()));
        for e in &g.elems {
            // Semantic invariant: party π(i) starts with input σ(input_i).
            for i in 0..4 {
                assert_eq!(
                    e.sigma[inst.inputs[i].index()],
                    inst.inputs[e.pi[i]].index()
                );
            }
        }
    }

    #[test]
    fn relabel_sorts_report_entries() {
        let g = GroupElem {
            sigma: vec![1, 0],
            pi: vec![1, 0],
            pi_inv: vec![1, 0],
        };
        let msg = AsyncAaMsg::Report {
            iter: 0,
            entries: vec![(0, 0), (1, 1)],
        };
        match g.relabel_msg(&msg) {
            AsyncAaMsg::Report { entries, .. } => {
                assert_eq!(entries, vec![(0, 0), (1, 1)]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn identity_group_canonical_terminal_is_stable() {
        use crate::explore::execute;
        let inst = instance(4, 0, Arc::new(generate::path(3)), vec![0, 1, 2, 0]);
        let assignment = LatticeAssignment { behaviors: vec![] };
        let g = SymmetryGroup::identity(4, 3);
        let e1 = execute(&inst, &assignment, &[], 0);
        let e2 = execute(&inst, &assignment, &[], 0);
        let t1 = canonical_terminal(&g, &e1).expect("completed run has a terminal");
        assert_eq!(t1, canonical_terminal(&g, &e2).unwrap());
        assert!(t1.contains("value("));
    }
}
