//! Pins the honest side of chaos runs: under [`TreeAaChaos`] and
//! [`NrChaos`] the corrupted parties are the adversary's, and how the
//! engine treats them (stepped and discarded, or frozen) must not change
//! one bit of what the honest parties do. Each row pins the FNV-1a
//! fingerprint of the whole report's `Debug` form — honest outputs, the
//! corrupted set, rounds executed and every round's message and byte
//! counts — in both step modes.

use std::fmt::Debug;
use std::sync::Arc;

use sim_net::{run_simulation_with, EngineConfig, PartyId, RunReport, SimConfig, StepMode};
use tree_aa::adversary::{NrChaos, TreeAaChaos};
use tree_aa::{EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty};
use tree_model::{generate, Tree, VertexId};

const MODES: [StepMode; 2] = [StepMode::Sequential, StepMode::Parallel { threads: 3 }];

fn fingerprint<O: Debug>(report: &RunReport<O>) -> u64 {
    aa_codec::fnv1a_64(format!("{report:?}").as_bytes())
}

/// `t` distinct parties, spread over the ids by `seed`.
fn byz(n: usize, t: usize, seed: u64) -> Vec<PartyId> {
    (0..t)
        .map(|i| PartyId((seed as usize * 5 + 3 * i) % n))
        .collect()
}

fn inputs(tree: &Tree, n: usize) -> Vec<VertexId> {
    let m = tree.vertex_count();
    (0..n)
        .map(|i| tree.vertices().nth((i * 7) % m).unwrap())
        .collect()
}

fn engine(n: usize, t: usize, max_rounds: u32, mode: StepMode) -> EngineConfig {
    EngineConfig {
        sim: SimConfig { n, t, max_rounds },
        step_mode: mode,
    }
}

fn tree_aa_run(tree: &Arc<Tree>, n: usize, t: usize, seed: u64, mode: StepMode) -> u64 {
    let cfg = TreeAaConfig::new(n, t, EngineKind::Gradecast, tree).unwrap();
    let inputs = inputs(tree, n);
    let adv = TreeAaChaos::new(byz(n, t, seed), seed, 2.0 * tree.vertex_count() as f64);
    let report = run_simulation_with(
        engine(n, t, cfg.total_rounds() + 5, mode),
        |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        adv,
    )
    .unwrap();
    fingerprint(&report)
}

fn baseline_run(tree: &Arc<Tree>, n: usize, t: usize, seed: u64, mode: StepMode) -> u64 {
    let cfg = NowakRybickiConfig::new(n, t, tree).unwrap();
    let inputs = inputs(tree, n);
    let adv = NrChaos::new(byz(n, t, seed), seed, tree.vertex_count());
    let report = run_simulation_with(
        engine(n, t, cfg.rounds() + 5, mode),
        |id, _| NowakRybickiParty::new(id, cfg.clone(), Arc::clone(tree), inputs[id.index()]),
        adv,
    )
    .unwrap();
    fingerprint(&report)
}

/// `(n, t, seed, fingerprint)`.
type Pin = (usize, usize, u64, u64);

fn check(pins: &[Pin], run: impl Fn(usize, usize, u64, StepMode) -> u64) {
    for &(n, t, seed, pin) in pins {
        for mode in MODES {
            let got = run(n, t, seed, mode);
            assert_eq!(
                got, pin,
                "n = {n}, t = {t}, seed {seed}, {mode:?}: fingerprint {got:#018x}"
            );
        }
    }
}

const TREE_AA_PINS: [Pin; 6] = [
    (7, 2, 0, 0x4de6_a2bd_9110_d444),
    (7, 2, 1, 0xf57a_d087_d132_3c0f),
    (7, 2, 2, 0x61dc_1f0f_c06b_0002),
    (31, 10, 0, 0x5dcb_a6e9_470c_b5d3),
    (31, 10, 1, 0xcce7_3417_a848_9781),
    (31, 10, 2, 0xa644_7587_ffbf_9704),
];

const BASELINE_PINS: [Pin; 6] = [
    (7, 2, 0, 0x7a82_392d_59af_9bad),
    (7, 2, 1, 0x124f_8896_6ade_dffb),
    (7, 2, 2, 0xfb0e_5014_773b_c7ce),
    (31, 10, 0, 0x211d_691b_54a7_be20),
    (31, 10, 1, 0xbeb3_1cbf_82ce_8eb2),
    (31, 10, 2, 0x671f_0103_1b6b_5aa6),
];

#[test]
fn tree_aa_chaos_runs_match_their_pins() {
    let tree = Arc::new(generate::caterpillar(6, 2));
    check(&TREE_AA_PINS, |n, t, seed, mode| {
        tree_aa_run(&tree, n, t, seed, mode)
    });
}

#[test]
fn baseline_chaos_runs_match_their_pins() {
    let tree = Arc::new(generate::path(20));
    check(&BASELINE_PINS, |n, t, seed, mode| {
        baseline_run(&tree, n, t, seed, mode)
    });
}

/// The `sim-treeaa-wide` benchmark's shape: n = 256, t = 85 on
/// caterpillar(341, 2). Seconds in a release build; run with
/// `cargo test --release -p tree-aa -- --ignored`.
#[test]
#[ignore]
fn tree_aa_chaos_run_at_n256_matches_its_pin() {
    let tree = Arc::new(generate::caterpillar(341, 2));
    check(
        &[(256, 85, 1, 0x980a_3d60_564c_6ac2)],
        |n, t, seed, mode| tree_aa_run(&tree, n, t, seed, mode),
    );
}
