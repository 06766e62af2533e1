//! Pins the honest side of [`RealAaChaos`] runs: the corrupted parties are
//! the adversary's, and how the engine treats them (stepped and
//! discarded, or frozen) must not change one bit of what the honest
//! parties do. Each row pins the FNV-1a fingerprint of the whole report's
//! `Debug` form — honest outputs, the corrupted set, rounds executed and
//! every round's message and byte counts — in both step modes.

use real_aa::adversary::RealAaChaos;
use real_aa::{BundledAaParty, RealAaConfig};
use sim_net::{run_simulation_with, EngineConfig, PartyId, SimConfig, StepMode};

mod support;
use support::solo;

const MODES: [StepMode; 2] = [StepMode::Sequential, StepMode::Parallel { threads: 3 }];

/// `t` distinct parties, spread over the ids by `seed`.
fn byz(n: usize, t: usize, seed: u64) -> Vec<PartyId> {
    (0..t)
        .map(|i| PartyId((seed as usize * 5 + 3 * i) % n))
        .collect()
}

fn chaos_run(n: usize, t: usize, seed: u64, mode: StepMode) -> u64 {
    let cfg = RealAaConfig::new(n, t, 1.0, 100.0).unwrap();
    let inputs: Vec<f64> = (0..n).map(|i| (i * 37 % 101) as f64).collect();
    let adv = RealAaChaos::new(byz(n, t, seed), seed, (-50.0, 150.0));
    let report = run_simulation_with(
        EngineConfig {
            sim: SimConfig {
                n,
                t,
                max_rounds: cfg.rounds() + 5,
            },
            step_mode: mode,
        },
        |id, _| solo(id, cfg, inputs[id.index()]),
        adv,
    )
    .unwrap();
    aa_codec::fnv1a_64(format!("{report:?}").as_bytes())
}

/// `(n, t, seed, fingerprint)`.
type Pin = (usize, usize, u64, u64);

fn check(pins: &[Pin]) {
    for &(n, t, seed, pin) in pins {
        for mode in MODES {
            let got = chaos_run(n, t, seed, mode);
            assert_eq!(
                got, pin,
                "n = {n}, t = {t}, seed {seed}, {mode:?}: fingerprint {got:#018x}"
            );
        }
    }
}

#[test]
fn realaa_chaos_runs_match_their_pins() {
    check(&[
        (7, 2, 0, 0x51f7_9b6a_ed01_d631),
        (7, 2, 1, 0x14c1_5bd3_e46d_f8b2),
        (7, 2, 2, 0xf93d_f619_917b_34cc),
        (31, 10, 0, 0x864b_4985_12d0_83cf),
        (31, 10, 1, 0x50b3_fe41_9da6_0c49),
        (31, 10, 2, 0xb6b4_ebfe_332e_30b3),
    ]);
}

/// n = 256, t = 85, the width of the `sim-treeaa-wide` benchmark. Run
/// with `cargo test --release -p real-aa -- --ignored`.
#[test]
#[ignore]
fn realaa_chaos_run_at_n256_matches_its_pin() {
    check(&[(256, 85, 1, 0xe7bb_a7f9_188a_6d62)]);
}
