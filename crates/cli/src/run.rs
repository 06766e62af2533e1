//! `treeaa run`: one protocol execution in the lockstep simulator,
//! checked for validity and 1-agreement.

use std::sync::Arc;

use sim_net::{
    run_simulation, Adversary, CrashAdversary, PartyId, Passive, Protocol, SelectiveOmission,
    SimConfig,
};
use tree_aa::adversary::{NrChaos, TreeAaChaos};
use tree_aa::{
    check_tree_aa, EngineKind, NowakRybickiConfig, NowakRybickiParty, TreeAaConfig, TreeAaParty,
};
use tree_model::VertexId;

use crate::tools::{build_tree_spec, parse_labels};
use crate::{io, Opts, Subcommand};

/// `run`: execute a protocol on a tree.
#[derive(Clone, Debug, PartialEq)]
pub struct Run {
    /// Tree spec: `<family><size>` (e.g. `path9`) or a tree file.
    pub tree: String,
    /// Comma-separated input vertex labels (one per party).
    pub inputs: String,
    /// Corruption bound.
    pub t: usize,
    /// `treeaa` or `baseline`.
    pub protocol: String,
    /// `gradecast` or `halving`.
    pub engine: String,
    /// `none`, `chaos`, `crash`, or `omission` (corrupts the last `t`
    /// parties).
    pub adversary: String,
    /// Adversary seed.
    pub seed: u64,
}

impl Subcommand for Run {
    const HELP: &'static str = "
  treeaa run    --tree <familyK|file> --inputs <l1,l2,...> [--t <T>]
                [--protocol treeaa|baseline] [--engine gradecast|halving]
                [--adversary none|chaos|crash|omission] [--seed <S>]

`run` uses one party per input label; with an adversary, the *last* t
parties are corrupted and their input labels are ignored.
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Run {
            tree: o.req("tree")?,
            inputs: o.req("inputs")?,
            t: o.or("t", 1)?,
            protocol: o.or("protocol", "treeaa".into())?,
            engine: o.or("engine", "gradecast".into())?,
            adversary: o.or("adversary", "none".into())?,
            seed: o.or("seed", 0)?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let tree = Arc::new(build_tree_spec(&self.tree)?);
        let inputs = parse_labels(&tree, &self.inputs)?;
        let (n, t) = (inputs.len(), self.t);
        let engine = match self.engine.as_str() {
            "gradecast" => EngineKind::Gradecast,
            "halving" => EngineKind::Halving,
            other => return Err(format!("unknown engine `{other}`")),
        };
        let byz: Vec<PartyId> = if self.adversary == "none" {
            Vec::new()
        } else {
            (n - t..n).map(PartyId).collect()
        };
        let sim = |rounds| SimConfig {
            n,
            t,
            max_rounds: rounds + 5,
        };
        let span = tree.vertex_count();
        let input = |id: PartyId| inputs[id.index()];
        let (outputs, rounds, messages) = match self.protocol.as_str() {
            "treeaa" => {
                let cfg = TreeAaConfig::new(n, t, engine, &tree).map_err(|e| e.to_string())?;
                self.simulate(
                    sim(cfg.total_rounds()),
                    |id, _| TreeAaParty::new(id, cfg.clone(), Arc::clone(&tree), input(id)),
                    TreeAaChaos::new(byz.clone(), self.seed, 2.0 * span as f64),
                    &byz,
                )?
            }
            "baseline" => {
                let cfg = NowakRybickiConfig::new(n, t, &tree).map_err(|e| e.to_string())?;
                self.simulate(
                    sim(cfg.rounds()),
                    |id, _| NowakRybickiParty::new(id, cfg.clone(), Arc::clone(&tree), input(id)),
                    NrChaos::new(byz.clone(), self.seed, span),
                    &byz,
                )?
            }
            other => return Err(format!("unknown protocol `{other}`")),
        };

        writeln!(out, "rounds    {rounds}").map_err(io)?;
        writeln!(out, "messages  {messages}").map_err(io)?;
        for (i, &v) in outputs.iter().enumerate() {
            writeln!(out, "party {i}: output {}", tree.label(v)).map_err(io)?;
        }
        match check_tree_aa(&tree, &inputs[..n - byz.len()], &outputs) {
            Ok(()) => writeln!(out, "verified: validity + 1-agreement hold").map_err(io),
            Err(v) => Err(format!("PROPERTY VIOLATION: {v}")),
        }
    }
}

impl Run {
    /// Runs the parties from `factory` under the chosen adversary, whose
    /// Byzantine choice is the protocol's own `chaos`. Returns the honest
    /// outputs, the communication rounds and the message count.
    fn simulate<P, A>(
        &self,
        sim: SimConfig,
        factory: impl FnMut(PartyId, usize) -> P,
        chaos: A,
        byz: &[PartyId],
    ) -> Result<(Vec<VertexId>, u32, usize), String>
    where
        P: Protocol<Output = VertexId> + Send,
        P::Msg: Send + Sync,
        A: Adversary<P::Msg>,
    {
        let report = match self.adversary.as_str() {
            "none" => run_simulation(sim, factory, Passive),
            "chaos" => run_simulation(sim, factory, chaos),
            "crash" => run_simulation(
                sim,
                factory,
                CrashAdversary {
                    crashes: byz.iter().map(|&p| (p, 2)).collect(),
                },
            ),
            "omission" => run_simulation(
                sim,
                factory,
                SelectiveOmission::new(byz.to_vec(), 0.4, self.seed),
            ),
            other => return Err(format!("unknown adversary `{other}`")),
        }
        .map_err(|e| e.to_string())?;
        Ok((
            report.honest_outputs(),
            report.communication_rounds(),
            report.metrics.total_messages(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    fn run(tree: &str, inputs: &str, protocol: &str, engine: &str, adversary: &str) -> Command {
        Command::Run(Run {
            tree: tree.into(),
            inputs: inputs.into(),
            t: 1,
            protocol: protocol.into(),
            engine: engine.into(),
            adversary: adversary.into(),
            seed: 11,
        })
    }

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse_args(&argv("run --tree x.tree --inputs a,b,c,d")).unwrap();
        match cmd {
            Command::Run(Run {
                t,
                protocol,
                engine,
                adversary,
                ..
            }) => {
                assert_eq!(t, 1);
                assert_eq!(protocol, "treeaa");
                assert_eq!(engine, "gradecast");
                assert_eq!(adversary, "none");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_executes_and_verifies() {
        let mut buf = Vec::new();
        execute(
            parse_args(&argv("gen --family path --size 9")).unwrap(),
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("run.tree");
        std::fs::write(&file, &buf).unwrap();

        for (protocol, engine, adversary) in [
            ("treeaa", "gradecast", "none"),
            ("treeaa", "gradecast", "chaos"),
            ("treeaa", "halving", "none"),
            ("treeaa", "gradecast", "crash"),
            ("treeaa", "gradecast", "omission"),
            ("baseline", "gradecast", "none"),
            ("baseline", "gradecast", "omission"),
            ("baseline", "gradecast", "chaos"),
        ] {
            let inputs = "v0000,v0003,v0006,v0008";
            let text = |tree: &str| {
                let mut out = Vec::new();
                execute(run(tree, inputs, protocol, engine, adversary), &mut out).unwrap();
                String::from_utf8(out).unwrap()
            };
            let from_file = text(&file.to_string_lossy());
            assert!(
                from_file.contains("verified"),
                "{protocol}/{engine}/{adversary}: {from_file}"
            );
            // The family spec builds the same tree as the file.
            assert_eq!(text("path9"), from_file, "{protocol}/{engine}/{adversary}");
        }
    }

    #[test]
    fn unknown_vertex_label_is_a_clean_error() {
        let mut buf = Vec::new();
        execute(
            parse_args(&argv("gen --family path --size 4")).unwrap(),
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("labels.tree");
        std::fs::write(&file, &buf).unwrap();
        let cmd = run(
            &file.to_string_lossy(),
            "nope,v0001,v0002,v0003",
            "treeaa",
            "gradecast",
            "none",
        );
        let err = execute(cmd, &mut Vec::new()).unwrap_err();
        assert!(err.contains("unknown vertex label"), "{err}");
    }

    #[test]
    fn unknown_protocol_engine_and_adversary_are_clean_errors() {
        let inputs = "v0000,v0001,v0002,v0003";
        for (protocol, engine, adversary, want) in [
            ("treeaa", "gradecast", "sybil", "unknown adversary `sybil`"),
            (
                "baseline",
                "gradecast",
                "sybil",
                "unknown adversary `sybil`",
            ),
            ("treeaa", "magic", "none", "unknown engine `magic`"),
            ("paxos", "gradecast", "none", "unknown protocol `paxos`"),
        ] {
            let cmd = run("path4", inputs, protocol, engine, adversary);
            let err = execute(cmd, &mut Vec::new()).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
    }
}
