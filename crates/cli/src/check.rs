//! `treeaa check`: exhaustive model checking of one small instance.

use std::sync::Arc;

use crate::tools::build_tree_spec;
use crate::{io, Opts, Subcommand};

/// `check`: exhaustively model-check a small instance (bounded schedule
/// enumeration × Byzantine message-lattice assignments).
#[derive(Clone, Debug, PartialEq)]
pub struct Check {
    /// Number of parties (`n > 3t`, `n <= 6`).
    pub n: usize,
    /// Corruption bound (defaults to `(n - 1) / 3`).
    pub t: usize,
    /// Tree spec: `<family><size>` (e.g. `path4`, `star5`) or a tree
    /// file path.
    pub tree: String,
    /// `tree-aa` or `real-aa`.
    pub protocol: String,
    /// Enumerated delivery decisions per execution.
    pub depth: usize,
    /// Total execution budget across all assignments.
    pub max_runs: usize,
    /// Portfolio worker threads (0 = sequential exploration).
    pub threads: usize,
    /// File for the counterexample trace JSON if a check fails
    /// (empty disables saving).
    pub out: String,
}

impl Subcommand for Check {
    const HELP: &'static str = "
  treeaa check  --n <N> --tree <familyK|file> [--t <T>]
                [--protocol tree-aa|real-aa] [--depth <D>]
                [--max-runs <K>] [--threads <W>] [--out <file>]

`check` exhaustively model-checks one small instance (n <= 6, trees of
<= 7 vertices): every Byzantine value-assignment from a finite message
lattice x every asynchronous delivery schedule up to --depth enumerated
decisions, with sleep-set pruning. Every completed execution is
checked for validity, convex-hull containment,
1-agreement (or eps-agreement for real-aa), the termination bound and
the degradation contract, and a canonical run is cross-checked against
the lockstep synchronous simulators. --tree takes a generated family
with a trailing size (`path4`, `star5`) or a tree file. Output is
bit-identical across reruns; on failure the minimized counterexample
is printed and, with --out, its replayable trace JSON is saved. Exits
non-zero on a violation.
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        let n: usize = o.req("n")?;
        Ok(Check {
            n,
            t: o.or("t", n.saturating_sub(1) / 3)?,
            tree: o.req("tree")?,
            protocol: o.or("protocol", "tree-aa".into())?,
            depth: o.or("depth", 3)?,
            max_runs: o.or("max-runs", 50_000)?,
            threads: o.or("threads", 0)?,
            out: o.or("out", String::new())?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let tree = Arc::new(build_tree_spec(&self.tree)?);
        let protocol = aa_check::CheckProtocol::parse(&self.protocol)?;
        let mut opts = aa_check::CheckOptions::new(self.n, self.t, tree, protocol);
        opts.depth = self.depth;
        opts.max_runs = self.max_runs;
        opts.threads = (self.threads > 0).then_some(self.threads);
        let report = aa_check::check(&opts)?;
        writeln!(out, "{report}").map_err(io)?;
        let Some(cex) = report.violation else {
            return Ok(());
        };
        if !self.out.is_empty() {
            let json = cex.trace.to_canonical_string();
            std::fs::write(&self.out, format!("{json}\n")).map_err(io)?;
            writeln!(out, "counterexample trace -> {}", self.out).map_err(io)?;
        }
        Err(format!("property violation: {}", cex.violation))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    fn check(tree: &str, depth: usize, max_runs: usize, threads: usize) -> Command {
        Command::Check(Check {
            n: 4,
            t: 1,
            tree: tree.into(),
            protocol: "tree-aa".into(),
            depth,
            max_runs,
            threads,
            out: String::new(),
        })
    }

    #[test]
    fn parses_check_with_defaults() {
        assert_eq!(
            parse_args(&argv("check --n 4 --tree path4 --protocol tree-aa")).unwrap(),
            check("path4", 3, 50_000, 0)
        );
        assert_eq!(
            parse_args(&argv(
                "check --n 5 --t 1 --tree star5 --protocol real-aa --depth 2 \
                 --max-runs 999 --threads 4 --out cex.json"
            ))
            .unwrap(),
            Command::Check(Check {
                n: 5,
                t: 1,
                tree: "star5".into(),
                protocol: "real-aa".into(),
                depth: 2,
                max_runs: 999,
                threads: 4,
                out: "cex.json".into(),
            })
        );
        assert!(parse_args(&argv("check --tree path4")).is_err());
    }

    // The acceptance invocation: `treeaa check --n 4 --tree path4
    // --protocol tree-aa` explores exhaustively, passes, reports its
    // explored/pruned counts, and is bit-identical across reruns.
    #[test]
    fn check_passes_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(check("path4", 2, 50_000, 0), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        assert!(first.contains("verdict: PASS"), "{first}");
        assert!(first.contains("executions:"), "{first}");
        assert!(first.contains("canonical fingerprint:"), "{first}");
        assert!(!first.contains("[truncated"), "{first}");
    }

    // `--threads` flows through to the checker: the report names the
    // portfolio width, and the portfolio rerun is bit-identical.
    #[test]
    fn check_threads_flag_flows_through() {
        let run = |threads: usize| {
            let mut out = Vec::new();
            execute(check("star4", 2, 50_000, threads), &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let two = run(2);
        assert!(two.contains("verdict: PASS"), "{two}");
        assert!(two.contains("portfolio: 2 threads"), "{two}");
        assert_eq!(two, run(2), "portfolio reruns must be bit-identical");
    }

    #[test]
    fn check_accepts_a_tree_file_and_rejects_bad_specs() {
        let mut buf = Vec::new();
        execute(
            parse_args(&argv("gen --family path --size 4")).unwrap(),
            &mut buf,
        )
        .unwrap();
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("check.tree");
        std::fs::write(&file, &buf).unwrap();
        let mut out = Vec::new();
        execute(check(&file.to_string_lossy(), 1, 10_000, 0), &mut out).unwrap();
        assert!(String::from_utf8(out).unwrap().contains("verdict: PASS"));

        let err = execute(check("definitely-not-a-tree", 1, 10, 0), &mut Vec::new()).unwrap_err();
        assert!(err.contains("neither a tree family spec"), "{err}");
    }
}
