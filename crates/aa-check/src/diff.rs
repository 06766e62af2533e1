//! Differential checking: the same instance through every model.
//!
//! The checker runs one honest instance through four independent stacks
//! and cross-asserts them wherever two models are both defined:
//!
//! 1. **Canonical explored** — the empty-script run of the enumerating
//!    scheduler (FIFO delivery, async tree AA).
//! 2. **Seeded lockstep async** — the production [`SeededScheduler`]
//!    under [`DelayModel::Lockstep`]. FIFO enumeration order *is*
//!    lockstep order (every delay is exactly 1, ties broken by creation
//!    order), so legs 1 and 2 must produce *identical* outputs.
//! 3. **Synchronous tree AA** — [`TreeAaParty`] on the lockstep
//!    round-based simulator. A different protocol on a different
//!    simulator, so only the paper's properties are asserted — except
//!    under unanimous inputs, where every correct AA protocol must
//!    output exactly the common input.
//! 4. **Real-valued AA on the diameter path** — the Section 5
//!    reduction: inputs projected to path positions, run through
//!    a one-instance [`BundledAaParty`] with ε = 1. Checked for interval validity and
//!    ε-agreement (and exactness under unanimity).
//!
//! [`SeededScheduler`]: async_net::SeededScheduler
//! [`DelayModel::Lockstep`]: async_net::DelayModel::Lockstep

use async_net::{run_async, AsyncConfig, DelayModel, PassiveAsync};
use real_aa::{BundledAaParty, RealAaConfig};
use sim_net::{run_simulation, Outcome, Passive, SimConfig};
use tree_aa::{EngineKind, TreeAaConfig, TreeAaParty};
use tree_model::ProjectionTable;

use crate::explore::{execute, Instance};
use crate::lattice::LatticeAssignment;
use crate::props;

/// Extra rounds granted to the sync simulator beyond the public bound
/// before it declares the run stuck (mirrors `aa-fuzz`).
const ROUND_SLACK: u32 = 5;

/// Runs all differential legs on the honest-only version of `instance`
/// (`t = 0`, all `n` parties honest with the given inputs).
///
/// # Errors
///
/// A human-readable description of the first cross-model disagreement
/// or single-model property violation.
pub fn differential(instance: &Instance, depth: usize) -> Result<(), String> {
    let honest = Instance {
        t: 0,
        ..instance.clone()
    };
    let unanimous = honest.inputs.windows(2).all(|w| w[0] == w[1]);
    let no_corruption = LatticeAssignment {
        behaviors: Vec::new(),
    };

    // Leg 1: canonical explored run (empty script = FIFO tail).
    let canonical = execute(&honest, &no_corruption, &[], depth);
    let canonical = canonical
        .result
        .map_err(|e| format!("canonical explored run failed: {e:?}"))?;

    // Leg 2: the production seeded scheduler in lockstep mode.
    let cfg = AsyncConfig {
        n: honest.n,
        t: 0,
        seed: 0,
        delay: DelayModel::Lockstep,
        max_events: honest.max_events,
    };
    let aa_cfg = honest.async_cfg();
    let tree = honest.tree.clone();
    let inputs = honest.inputs.clone();
    let lockstep = run_async(
        cfg,
        |me, _n| async_aa::AsyncTreeAaParty::new(aa_cfg.clone(), tree.clone(), inputs[me.index()]),
        PassiveAsync,
    )
    .map_err(|e| format!("seeded lockstep run failed: {e:?}"))?;

    if canonical.outputs != lockstep.outputs {
        return Err(format!(
            "canonical explored outputs {:?} differ from seeded lockstep outputs {:?}",
            canonical.outputs, lockstep.outputs
        ));
    }

    let async_values: Vec<_> = canonical
        .honest_outputs()
        .into_iter()
        .map(|o| match o {
            Outcome::Value(v) => Ok(v),
            Outcome::Degraded(_) => Err("honest-only async run degraded".to_string()),
        })
        .collect::<Result<_, _>>()?;
    props::check_vertex_outcome(&honest.tree, &honest.inputs, &async_values)
        .map_err(|v| format!("async canonical run: {v}"))?;

    // Leg 3: synchronous tree AA.
    let sync_cfg = TreeAaConfig::new(honest.n, 0, EngineKind::Gradecast, &honest.tree)?;
    let bound = sync_cfg.total_rounds();
    let sim_cfg = SimConfig {
        n: honest.n,
        t: 0,
        max_rounds: bound + 1 + ROUND_SLACK,
    };
    let tree = honest.tree.clone();
    let inputs = honest.inputs.clone();
    let report = run_simulation(
        sim_cfg,
        |me, _n| TreeAaParty::new(me, sync_cfg.clone(), tree.clone(), inputs[me.index()]),
        Passive,
    )
    .map_err(|e| format!("sync tree-aa run failed: {e}"))?;
    props::check_round_bound(report.rounds_executed, bound)
        .map_err(|v| format!("sync tree-aa: {v}"))?;
    let sync_outputs = report.honest_outputs();
    props::check_vertex_outcome(&honest.tree, &honest.inputs, &sync_outputs)
        .map_err(|v| format!("sync tree-aa: {v}"))?;

    if unanimous {
        let want = honest.inputs[0];
        if sync_outputs.iter().any(|&v| v != want) {
            return Err(format!(
                "unanimity: sync outputs {sync_outputs:?} differ from common input {want}"
            ));
        }
        if async_values.iter().any(|&v| v != want) {
            return Err(format!(
                "unanimity: async outputs {async_values:?} differ from common input {want}"
            ));
        }
    }

    // Leg 4: real-valued AA on diameter-path projections (Section 5).
    let dinfo = honest.tree.diameter_info();
    let table = ProjectionTable::new(&honest.tree, &dinfo.path);
    let positions: Vec<f64> = honest
        .inputs
        .iter()
        .map(|&v| table.position(v) as f64)
        .collect();
    let real_cfg = RealAaConfig::new(honest.n, 0, 1.0, dinfo.diameter as f64)?;
    let real_bound = real_cfg.rounds();
    let sim_cfg = SimConfig {
        n: honest.n,
        t: 0,
        max_rounds: real_bound + 1 + ROUND_SLACK,
    };
    let positions_in = positions.clone();
    let report = run_simulation(
        sim_cfg,
        |me, _n| BundledAaParty::new(me, real_cfg, vec![positions_in[me.index()]]).expect("k = 1"),
        Passive,
    )
    .map_err(|e| format!("real-aa projection run failed: {e}"))?;
    props::check_round_bound(report.rounds_executed, real_bound)
        .map_err(|v| format!("real-aa projection: {v}"))?;
    let real_outputs: Vec<f64> = report.honest_outputs().iter().map(|o| o[0]).collect();
    props::check_real_outcome(&positions, &real_outputs, 1.0)
        .map_err(|v| format!("real-aa projection: {v}"))?;
    if unanimous {
        let want = positions[0];
        if real_outputs
            .iter()
            .any(|&x| (x - want).abs() > props::REAL_TOL)
        {
            return Err(format!(
                "unanimity: real-aa outputs {real_outputs:?} differ from common position {want}"
            ));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tree_model::{generate, VertexId};

    fn instance(n: usize, vertices: usize, unanimous: bool) -> Instance {
        let tree = Arc::new(generate::path(vertices));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let inputs = (0..n)
            .map(|i| if unanimous { vs[0] } else { vs[i % vs.len()] })
            .collect();
        Instance {
            n,
            t: 0,
            tree,
            inputs,
            max_events: 200_000,
        }
    }

    #[test]
    fn differential_passes_on_split_inputs() {
        differential(&instance(4, 2, false), 2).unwrap();
    }

    #[test]
    fn differential_passes_under_unanimity() {
        differential(&instance(4, 3, true), 2).unwrap();
    }

    #[test]
    fn differential_passes_on_a_star() {
        let tree = Arc::new(generate::star(4));
        let vs: Vec<VertexId> = tree.vertices().collect();
        let instance = Instance {
            n: 4,
            t: 0,
            tree,
            inputs: vec![vs[1], vs[2], vs[3], vs[0]],
            max_events: 200_000,
        };
        differential(&instance, 2).unwrap();
    }
}
