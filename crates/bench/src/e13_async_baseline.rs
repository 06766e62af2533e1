use std::sync::Arc;

use async_aa::{AsyncTreeAaConfig, AsyncTreeAaParty};
use async_net::{run_async, AsyncConfig, DelayModel, SilentAsync};
use sim_net::{Outcome, PartyId};
use tree_aa::{check_tree_aa, EngineKind, NowakRybickiConfig, TreeAaConfig};
use tree_model::generate;

use crate::{spaced_inputs, Table};

/// **E13 — The asynchronous state of the art, measured.**
///
/// The paper's round-complexity claim is synchronous; the asynchronous
/// `O(log D)` protocol of Nowak & Rybicki remains the state of the art in
/// that model (Section 1.2). This experiment runs our implementation of it
/// (Bracha RBC + witness technique, crate `async-aa`) and reports its
/// asynchronous time (normalized max-delay units — the async analogue of
/// rounds) and message complexity across diameters and delay models,
/// next to the synchronous protocols on the same trees.
pub fn e13() -> String {
    let mut out = String::new();
    let (n, t) = (7usize, 2usize);
    outln!(
        out,
        "### E13: async tree AA (RBC + witnesses) vs synchronous protocols (n = {n}, t = {t})\n"
    );
    let mut table = Table::new(&[
        "|V| (path)",
        "iterations",
        "async time (uniform)",
        "async time (lockstep)",
        "async msgs",
        "sync TreeAA rounds",
        "sync baseline rounds",
    ]);
    for exp in [3u32, 5, 7, 9, 11] {
        let size = (1usize << exp) + 1;
        let tree = Arc::new(generate::path(size));
        let inputs = spaced_inputs(&tree, n, size / n + 1);
        let cfg = AsyncTreeAaConfig::new(n, t, &tree).expect("valid");

        let mut times = Vec::new();
        let mut msgs = 0usize;
        for (delay, seed) in [
            (DelayModel::Uniform { min: 0.05 }, 11u64),
            (DelayModel::Lockstep, 12),
        ] {
            let report = run_async(
                AsyncConfig {
                    n,
                    t,
                    seed,
                    delay,
                    max_events: 20_000_000,
                },
                |id, _| AsyncTreeAaParty::new(cfg.clone(), Arc::clone(&tree), inputs[id.index()]),
                SilentAsync {
                    parties: vec![PartyId(2), PartyId(5)],
                },
            )
            .expect("async run completes");
            let honest_inputs: Vec<_> = (0..n)
                .filter(|&i| i != 2 && i != 5)
                .map(|i| inputs[i])
                .collect();
            let outputs: Vec<_> = report
                .honest_outputs()
                .into_iter()
                .map(Outcome::into_value)
                .collect();
            check_tree_aa(&tree, &honest_inputs, &outputs).expect("definition 2 holds");
            times.push(report.completion_time);
            msgs = report.messages_delivered;
        }

        let sync_cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, &tree).expect("valid");
        let nr = NowakRybickiConfig::new(n, t, &tree).expect("valid");
        table.row(vec![
            size.to_string(),
            cfg.iterations.to_string(),
            format!("{:.1}", times[0]),
            format!("{:.1}", times[1]),
            msgs.to_string(),
            sync_cfg.total_rounds().to_string(),
            nr.rounds().to_string(),
        ]);
    }
    outln!(out, "{}", table.render());
    outln!(
        out,
        "\nReading: the async protocol needs a constant number of causal hops per \
         iteration (RBC depth 3 + report), so its normalized time grows with \
         log2(D) exactly like the synchronous baseline's rounds — the O(log D) \
         state of the art the paper's synchronous TreeAA improves on \
         asymptotically. Silent-Byzantine runs confirm it only ever waits for \
         n - t parties."
    );
    out
}
