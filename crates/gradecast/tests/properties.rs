//! Property tests: the three gradecast guarantees hold under arbitrary
//! (randomized) Byzantine behaviour by up to `t` statically corrupted
//! parties.

use gradecast::{BatchGradecastProtocol, GcBatchMsg, GcSlots, GcValue, Grade};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use sim_net::{run_simulation, AdversaryCtx, PartyId, Payload, ScriptedAdversary, SimConfig};

/// `n` slots, each present with probability ½.
fn random_slots<T>(
    rng: &mut ChaCha8Rng,
    n: usize,
    mut entry: impl FnMut(&mut ChaCha8Rng) -> T,
) -> GcSlots<T> {
    let slots = (0..n).map(|_| rng.gen_bool(0.5).then(|| entry(rng)));
    GcSlots::from_options(slots.collect())
}

/// A chaos adversary: statically corrupts `bad` parties; every round each
/// corrupted party sprays random gradecast messages (random kinds, leader
/// slots, values, recipients). Receivers absorb one batch per sender per
/// phase, so each message speaks for a random subset of leaders rather
/// than one.
fn chaos<V>(
    bad: Vec<PartyId>,
    seed: u64,
    values: Vec<V>,
) -> impl FnMut(&mut AdversaryCtx<'_, GcBatchMsg<V>>)
where
    V: Payload + GcValue,
{
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    move |ctx| {
        if ctx.round() == 1 {
            for &p in &bad {
                ctx.corrupt(p).expect("within budget");
            }
        }
        let n = ctx.n();
        for &p in &bad {
            let burst = rng.gen_range(0..2 * n);
            for _ in 0..burst {
                let to = PartyId(rng.gen_range(0..n));
                let pick = |rng: &mut ChaCha8Rng| values[rng.gen_range(0..values.len())].clone();
                let msg = match rng.gen_range(0..3) {
                    0 => GcBatchMsg::Lead(pick(&mut rng)),
                    1 => GcBatchMsg::echoes(random_slots(&mut rng, n, pick)),
                    _ => GcBatchMsg::votes(random_slots(&mut rng, n, |r| pick(r).hash32())),
                };
                ctx.send(p, to, msg);
            }
        }
    }
}

fn check_gradecast_properties(n: usize, t: usize, num_bad: usize, seed: u64) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xABCD);
    // Pick corrupted set.
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let bad: Vec<PartyId> = ids[..num_bad].iter().map(|&i| PartyId(i)).collect();
    let is_bad = |i: usize| bad.iter().any(|b| b.index() == i);

    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let adv = ScriptedAdversary(chaos(bad.clone(), seed, (0u64..5).collect()));
    let inputs: Vec<u64> = (0..n).map(|i| 100 + i as u64).collect();
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
        adv,
    )
    .unwrap();

    let honest_outs: Vec<_> = (0..n)
        .filter(|&i| !is_bad(i))
        .map(|i| (i, report.outputs[i].clone().expect("honest output")))
        .collect();

    for leader in 0..n {
        // Property 1: honest leader -> everyone grades (v, 2).
        if !is_bad(leader) {
            for (_, out) in &honest_outs {
                assert_eq!(out[leader].grade, Grade::Two, "honest leader {leader}");
                assert_eq!(out[leader].value, Some(inputs[leader]));
            }
            continue;
        }
        // Property 2: binding among grades >= 1.
        let mut bound: Option<u64> = None;
        for (_, out) in &honest_outs {
            if out[leader].accepted() {
                let v = out[leader].value.expect("accepted implies value");
                match bound {
                    Some(b) => assert_eq!(b, v, "binding violated for leader {leader}"),
                    None => bound = Some(v),
                }
            }
        }
        // Property 3: grade gap <= 1.
        let grades: Vec<u8> = honest_outs
            .iter()
            .map(|(_, o)| o[leader].grade.as_u8())
            .collect();
        let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
        assert!(
            hi - lo <= 1,
            "grade gap violated for leader {leader}: {grades:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn properties_hold_under_chaos_n4(seed in any::<u64>()) {
        check_gradecast_properties(4, 1, 1, seed);
    }

    #[test]
    fn properties_hold_under_chaos_n7(seed in any::<u64>(), bad in 0usize..=2) {
        check_gradecast_properties(7, 2, bad, seed);
    }

    #[test]
    fn properties_hold_under_chaos_n10(seed in any::<u64>(), bad in 0usize..=3) {
        check_gradecast_properties(10, 3, bad, seed);
    }
}

/// A targeted (non-random) split adversary engineering a {0,1} grade split:
/// it leads value 7 to just enough parties that, with Byzantine help, some
/// honest parties vote but others see fewer than t+1 votes.
#[test]
fn engineered_grade_split_zero_one() {
    // n = 7, t = 2: echo threshold 5, vote thresholds 3 (grade 1), 5
    // (grade 2). Byzantine: p0 (leader), p1 (helper).
    let n = 7;
    let t = 2;
    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let adv = ScriptedAdversary(move |ctx: &mut AdversaryCtx<'_, GcBatchMsg<u64>>| {
        match ctx.round() {
            1 => {
                ctx.corrupt(PartyId(0)).unwrap();
                ctx.corrupt(PartyId(1)).unwrap();
                // Lead 7 to honest parties 2,3,4 only (3 = n - 2t - ... the
                // point: only 3 honest echoes will exist).
                for i in 2..=4 {
                    ctx.send(PartyId(0), PartyId(i), GcBatchMsg::Lead(7));
                }
            }
            2 => {
                // Byzantine echoes top up to the n - t = 5 threshold at
                // party 2 only: parties 2,3,4 echo (3 honest echoes reach
                // everyone); p0+p1 echo only to party 2.
                let echo = GcBatchMsg::echoes(GcSlots::single(n, 0, 7));
                for b in [0, 1] {
                    ctx.send(PartyId(b), PartyId(2), echo.clone());
                }
            }
            3 => {
                // Party 2 votes (it saw 5 echoes); its vote reaches all.
                // Byzantine votes go to parties 2 and 3 only, lifting them
                // to 3 votes = grade 1 while 4,5,6 see a single vote ->
                // grade 0.
                let vote = GcBatchMsg::votes(GcSlots::single(n, 0, 7u64.hash32()));
                for b in [0, 1] {
                    ctx.send(PartyId(b), PartyId(2), vote.clone());
                    ctx.send(PartyId(b), PartyId(3), vote.clone());
                }
            }
            _ => {}
        }
    });
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, id.index() as u64),
        adv,
    )
    .unwrap();
    let grades: Vec<u8> = (2..7)
        .map(|i| report.outputs[i].as_ref().unwrap()[0].grade.as_u8())
        .collect();
    // Parties 2 and 3 accept with grade 1; 4,5,6 reject with grade 0.
    assert_eq!(grades, vec![1, 1, 0, 0, 0]);
}

/// The three grade-semantics guarantees (per the gradecast lineage,
/// arXiv:1007.1049) under the protocol-agnostic `EquivocatingAdversary`:
/// unlike the chaos adversary above, every injected message is a
/// well-formed message stolen from real tentative traffic, so this
/// exercises the "plausible lies" corner rather than random noise.
#[test]
fn grade_semantics_hold_under_equivocation() {
    use sim_net::EquivocatingAdversary;

    for seed in 0..20u64 {
        let n = 7;
        let t = 2;
        let bad = [PartyId(1), PartyId(5)];
        let cfg = SimConfig {
            n,
            t,
            max_rounds: 10,
        };
        let inputs: Vec<u64> = (0..n).map(|i| 100 + i as u64).collect();
        let report = run_simulation(
            cfg,
            |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
            EquivocatingAdversary::new(bad.to_vec(), seed),
        )
        .unwrap();
        let honest_outs: Vec<_> = (0..n)
            .filter(|&i| !bad.iter().any(|b| b.index() == i))
            .map(|i| report.outputs[i].clone().expect("honest output"))
            .collect();

        for leader in 0..n {
            if !bad.iter().any(|b| b.index() == leader) {
                // Honest sender: every honest party outputs (v, 2).
                for out in &honest_outs {
                    assert_eq!(out[leader].grade, Grade::Two, "seed {seed} leader {leader}");
                    assert_eq!(out[leader].value, Some(inputs[leader]));
                }
            } else {
                // Binding: all accepted (grade >= 1) values are identical.
                let accepted: Vec<u64> = honest_outs
                    .iter()
                    .filter(|o| o[leader].accepted())
                    .map(|o| o[leader].value.expect("accepted implies value"))
                    .collect();
                assert!(
                    accepted.windows(2).all(|w| w[0] == w[1]),
                    "seed {seed}: binding violated for leader {leader}: {accepted:?}"
                );
                // Grade gap: any two honest grades differ by at most 1.
                let grades: Vec<u8> = honest_outs
                    .iter()
                    .map(|o| o[leader].grade.as_u8())
                    .collect();
                let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
                assert!(
                    hi - lo <= 1,
                    "seed {seed}: grade gap for leader {leader}: {grades:?}"
                );
            }
        }
    }
}

/// Grade semantics also hold when equivocation is *composed* with a
/// crash under one shared corruption budget.
#[test]
fn grade_semantics_hold_under_composed_equivocation_and_crash() {
    use sim_net::{ComposedAdversary, CrashAdversary, EquivocatingAdversary};

    let n = 7;
    let t = 2;
    let cfg = SimConfig {
        n,
        t,
        max_rounds: 10,
    };
    let inputs: Vec<u64> = (0..n).map(|i| 10 * i as u64).collect();
    let adv: ComposedAdversary<GcBatchMsg<u64>> = ComposedAdversary::new(vec![
        Box::new(EquivocatingAdversary::new(vec![PartyId(2)], 13)),
        Box::new(CrashAdversary {
            crashes: vec![(PartyId(6), 2)],
        }),
    ]);
    let report = run_simulation(
        cfg,
        |id, nn| BatchGradecastProtocol::new(id, nn, t, inputs[id.index()]),
        adv,
    )
    .unwrap();
    assert!(report.corrupted[2] && report.corrupted[6]);

    let honest_outs: Vec<_> = (0..n)
        .filter(|&i| !report.corrupted[i])
        .map(|i| report.outputs[i].clone().expect("honest output"))
        .collect();
    for leader in 0..n {
        if !report.corrupted[leader] {
            for out in &honest_outs {
                assert_eq!(out[leader].grade, Grade::Two);
                assert_eq!(out[leader].value, Some(inputs[leader]));
            }
        } else {
            let accepted: Vec<u64> = honest_outs
                .iter()
                .filter(|o| o[leader].accepted())
                .map(|o| o[leader].value.unwrap())
                .collect();
            assert!(accepted.windows(2).all(|w| w[0] == w[1]));
            let grades: Vec<u8> = honest_outs
                .iter()
                .map(|o| o[leader].grade.as_u8())
                .collect();
            let (lo, hi) = (grades.iter().min().unwrap(), grades.iter().max().unwrap());
            assert!(hi - lo <= 1, "leader {leader}: {grades:?}");
        }
    }
}
