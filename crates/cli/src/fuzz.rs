//! `treeaa fuzz`: the deterministic adversarial property fuzzer.

use crate::{io, Opts, Subcommand};

/// `fuzz`: run the deterministic adversarial property fuzzer.
#[derive(Clone, Debug, PartialEq)]
pub struct Fuzz {
    /// Master seed of the case stream.
    pub seed: u64,
    /// Number of cases.
    pub cases: u64,
    /// Minimize failing cases before reporting them.
    pub minimize: bool,
    /// Overlay generated benign-fault plans (partitions, crash
    /// windows) and check the degradation contract.
    pub faults: bool,
    /// Directory for minimized repro files (empty disables saving).
    pub corpus: String,
}

impl Subcommand for Fuzz {
    const FLAGS: &'static [&'static str] = &["minimize", "faults"];
    const HELP: &'static str = "
  treeaa fuzz   [--seed <S>] [--cases <K>] [--minimize] [--faults]
                [--corpus <dir>]

`fuzz` runs K generated cases (random tree, inputs and adversary; all a
pure function of the seed) through TreeAA, the baseline and RealAA,
checking determinism, the round bound, validity and agreement. With
--minimize, failing cases are shrunk before reporting; with --corpus,
minimized repros are written there as JSON for `cargo test` replay.
With --faults, each case is additionally overlaid with a deterministic
benign-fault plan (healing partitions, crash/recovery windows, and
occasional over-budget crash sets), and the degradation contract is
checked: transient faults still terminate within the relaxed round
bound, and over-budget fault sets must yield `Degraded` outcomes with
checkable evidence certificates. Identical seed and case count give
bit-identical output. Exits non-zero if any case fails.
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Fuzz {
            seed: o.or("seed", 0)?,
            cases: o.or("cases", 100)?,
            minimize: o.flag("minimize"),
            faults: o.flag("faults"),
            corpus: o.or("corpus", String::new())?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let opts = aa_fuzz::FuzzOptions {
            seed: self.seed,
            cases: self.cases,
            minimize: self.minimize,
            faults: self.faults,
            corpus_dir: (!self.corpus.is_empty()).then(|| self.corpus.into()),
        };
        let violations = aa_fuzz::run_batch(&opts, out).map_err(io)?;
        if violations == 0 {
            Ok(())
        } else {
            Err(format!("{violations} invariant violation(s) found"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, Command};

    #[test]
    fn parses_fuzz_with_defaults_and_flags() {
        assert_eq!(
            parse_args(&argv("fuzz")).unwrap(),
            Command::Fuzz(Fuzz {
                seed: 0,
                cases: 100,
                minimize: false,
                faults: false,
                corpus: String::new(),
            })
        );
        assert_eq!(
            parse_args(&argv(
                "fuzz --seed 42 --cases 500 --minimize --faults --corpus fuzz-corpus"
            ))
            .unwrap(),
            Command::Fuzz(Fuzz {
                seed: 42,
                cases: 500,
                minimize: true,
                faults: true,
                corpus: "fuzz-corpus".into(),
            })
        );
    }

    #[test]
    fn fuzz_runs_clean_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Fuzz(Fuzz {
                    seed: 42,
                    cases: 25,
                    minimize: true,
                    faults: false,
                    corpus: String::new(),
                }),
                &mut out,
            )
            .unwrap();
            out
        };
        let first = run();
        assert_eq!(first, run());
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("0 violation(s)"), "{text}");
    }

    #[test]
    fn faulted_fuzz_runs_clean_and_is_bit_identical() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Fuzz(Fuzz {
                    seed: 42,
                    cases: 15,
                    minimize: false,
                    faults: true,
                    corpus: String::new(),
                }),
                &mut out,
            )
            .unwrap();
            out
        };
        let first = run();
        assert_eq!(first, run());
        let text = String::from_utf8(first).unwrap();
        assert!(text.contains("faults on"), "{text}");
        assert!(text.contains("0 violation(s)"), "{text}");
    }
}
