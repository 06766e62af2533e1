use std::sync::Arc;

use real_aa::PlainValueMsg;
use sim_net::{step_standalone, Inbox, Outbox, PartyId, Protocol, Received, RoundCtx};
use tree_aa::{check_tree_aa, EngineKind, InnerMsg, TreeAaConfig, TreeAaParty, TreeMsg};
use tree_model::{generate, VertexId};

use crate::Table;

/// **E7 — Figure 5: the one-edge path ambiguity and the `v_k` fallback.**
///
/// `PathsFinder` only guarantees paths equal up to one trailing edge; a
/// party holding the shorter path can receive `closestInt(j) = k + 1` from
/// the second engine run and cannot know which neighbor extends its path —
/// so `TreeAA` outputs its own last vertex `v_k` instead.
///
/// Divergent engine outputs require an adversary that keeps honest values
/// split through the *final* iteration. Against the gradecast engine that
/// costs one fresh Byzantine leader per attacked iteration (it is silenced
/// immediately); against the **halving engine** a single equivocator can
/// split every iteration for free — so this experiment runs `TreeAA` over
/// the halving engine with a persistent high/low equivocator, which is the
/// easiest way to drive the honest `j`s exactly one apart. It counts: runs
/// with diverged paths, runs where the `v_k` fallback fired, and safety
/// violations (which must be zero — the fallback is exactly what makes
/// Definition 2 hold in this case).
pub fn e7() -> String {
    let mut out = String::new();
    // A spider gives the root-path structure of Figure 5: several branches
    // below a shared root, so the "one past the end" position is genuinely
    // ambiguous for the shorter-path holder.
    let tree = Arc::new(generate::spider(3, 8));
    let (n, t) = (4usize, 1usize);
    let byz = 3usize;
    let cfg = TreeAaConfig::new(n, t, EngineKind::Halving, &tree).expect("valid");
    let r1 = cfg.phase1_rounds();
    let m = tree.vertex_count();

    let mut runs = 0usize;
    let mut diverged_paths = 0usize;
    let mut fallback_fired = 0usize;
    let mut violations = 0usize;

    for case in 0..m * 3 {
        // Honest inputs clustered on adjacent vertices (deep positions
        // included): the deepest holder's projection then sits at the very
        // end of its path, putting the agreed position right at the
        // boundary where the ambiguity bites.
        let inputs: Vec<VertexId> = (0..n)
            .map(|i| tree.vertices().nth((case / 3 + i.min(2)) % m).expect("ok"))
            .collect();

        // Manual drive so party state (found paths) stays inspectable.
        let mut parties: Vec<TreeAaParty> = (0..n)
            .map(|i| TreeAaParty::new(PartyId(i), cfg.clone(), Arc::clone(&tree), inputs[i]))
            .collect();
        let mut inboxes: Vec<Inbox<TreeMsg>> = vec![Inbox::empty(); n];
        for round in 1..=cfg.total_rounds() + 1 {
            let mut tentative: Vec<Outbox<TreeMsg>> = Vec::with_capacity(n);
            for (i, p) in parties.iter_mut().enumerate() {
                let inbox = std::mem::take(&mut inboxes[i]);
                tentative.push(step_standalone(p, PartyId(i), n, round, &inbox));
            }
            // Party 3 is Byzantine: replace its traffic with per-recipient
            // extreme equivocation (high to even ids, low to odd ids),
            // correctly tagged for the current phase and local iteration.
            let (phase, local) = if round <= r1 {
                (1u8, round)
            } else {
                (2u8, round - r1)
            };
            let mut byz_ctx: RoundCtx<TreeMsg> = RoundCtx::new(PartyId(byz), n);
            for to in 0..n {
                let value = if to % 2 == 0 { 1e9 } else { -1e9 };
                byz_ctx.send(
                    PartyId(to),
                    TreeMsg {
                        phase,
                        inner: InnerMsg::Plain(PlainValueMsg {
                            iter: local - 1,
                            value,
                        }),
                    },
                );
            }
            tentative[byz] = byz_ctx.into_outbox();
            let mut next: Vec<Vec<Received<TreeMsg>>> = vec![Vec::new(); n];
            for outbox in tentative {
                for env in outbox.envelopes() {
                    next[env.to.index()].push(Received {
                        from: env.from,
                        payload: env.payload,
                    });
                }
            }
            inboxes = next.into_iter().map(Inbox::from_messages).collect();
        }
        runs += 1;

        let honest: Vec<usize> = (0..n).filter(|&i| i != byz).collect();
        let paths: Vec<_> = honest
            .iter()
            .map(|&i| parties[i].found_path().expect("path set"))
            .collect();
        let lens: Vec<usize> = paths.iter().map(|p| p.len()).collect();
        let min_len = *lens.iter().min().expect("non-empty");
        let max_len = *lens.iter().max().expect("non-empty");
        if max_len > min_len {
            diverged_paths += 1;
        }
        let outputs: Vec<VertexId> = honest
            .iter()
            .map(|&i| parties[i].output().expect("terminated"))
            .collect();
        // Fallback detection: some shorter-path party output its own last
        // vertex while a longer-path party output beyond it.
        if max_len > min_len {
            let mut short_at_end = false;
            let mut long_beyond = false;
            for (k, p) in paths.iter().enumerate() {
                let (_, last) = p.endpoints();
                if p.len() == min_len && outputs[k] == last {
                    short_at_end = true;
                }
                if p.len() == max_len && p.position(outputs[k]) == Some(max_len - 1) {
                    long_beyond = true;
                }
            }
            if short_at_end && long_beyond {
                fallback_fired += 1;
            }
        }
        let honest_inputs: Vec<VertexId> = honest.iter().map(|&i| inputs[i]).collect();
        if check_tree_aa(&tree, &honest_inputs, &outputs).is_err() {
            violations += 1;
        }
    }

    outln!(
        out,
        "### E7: Figure 5 path ambiguity under persistent equivocation\n"
    );
    let mut table = Table::new(&[
        "runs",
        "paths diverged",
        "v_k fallback pattern",
        "safety violations",
    ]);
    table.row(vec![
        runs.to_string(),
        diverged_paths.to_string(),
        fallback_fired.to_string(),
        violations.to_string(),
    ]);
    outln!(out, "{}", table.render());
    assert_eq!(violations, 0, "Definition 2 must hold in every run");
    assert!(
        diverged_paths > 0,
        "expected some path divergence to exercise Figure 5"
    );
    out
}
