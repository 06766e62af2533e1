//! `treeaa trace`: a named canonical scenario under the flight recorder.

use crate::{io, Opts, Subcommand};

/// `trace`: record a deterministic flight-recorder trace of a named
/// canonical scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Trace {
    /// Scenario name (see [`aa_fuzz::scenario_names`]).
    pub scenario: String,
    /// Adversary seed.
    pub seed: u64,
    /// Output file (empty writes the JSON to stdout).
    pub out: String,
}

impl Subcommand for Trace {
    const HELP: &'static str = "
  treeaa trace  --scenario <name> [--seed <S>] [--out <file>]

`trace` runs a named canonical scenario (path-honest, star-crash,
caterpillar-equivocate, broom-realaa-equivocate, path-baseline-flaky,
star-halving-honest, partition-heal, crash-recovery, bundle-k4-honest,
bundle-k4-crash) under the deterministic flight recorder and emits
the canonical trace JSON — every round, send, delivery and protocol
decision. The trace is byte-identical across step modes and runs, so
`(scenario, seed)` reproduces the file exactly.
";

    fn parse(o: &mut Opts) -> Result<Self, String> {
        Ok(Trace {
            scenario: o.req("scenario")?,
            seed: o.or("seed", 0)?,
            out: o.or("out", String::new())?,
        })
    }

    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String> {
        let trace = aa_fuzz::record_scenario(&self.scenario, self.seed)?;
        let json = trace.to_canonical_string();
        if self.out.is_empty() {
            return writeln!(out, "{json}").map_err(io);
        }
        std::fs::write(&self.out, format!("{json}\n")).map_err(io)?;
        writeln!(
            out,
            "trace: {} events, fingerprint {:016x} -> {}",
            trace.events.len(),
            trace.fingerprint(),
            self.out
        )
        .map_err(io)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::argv;
    use crate::{execute, parse_args, usage, Command};

    #[test]
    fn usage_names_every_trace_scenario() {
        for name in aa_fuzz::SCENARIO_NAMES {
            assert!(usage().contains(name), "USAGE omits scenario {name}");
        }
    }

    #[test]
    fn parses_trace_with_defaults() {
        assert_eq!(
            parse_args(&argv("trace --scenario path-honest")).unwrap(),
            Command::Trace(Trace {
                scenario: "path-honest".into(),
                seed: 0,
                out: String::new(),
            })
        );
        assert!(parse_args(&argv("trace")).is_err());
    }

    #[test]
    fn trace_emits_reproducible_canonical_json() {
        let run = || {
            let mut out = Vec::new();
            execute(
                Command::Trace(Trace {
                    scenario: "star-halving-honest".into(),
                    seed: 3,
                    out: String::new(),
                }),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let first = run();
        assert_eq!(first, run());
        let parsed = aa_fuzz::Json::parse(first.trim()).unwrap();
        assert_eq!(
            parsed.get("label").and_then(aa_fuzz::Json::as_str),
            Some("star-halving-honest:3")
        );
    }

    #[test]
    fn trace_writes_a_file_and_reports_the_fingerprint() {
        let dir = std::env::temp_dir().join("treeaa-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("golden.trace.json");
        let mut out = Vec::new();
        execute(
            Command::Trace(Trace {
                scenario: "path-honest".into(),
                seed: 1,
                out: file.to_string_lossy().into_owned(),
            }),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("fingerprint"), "{text}");
        let written = std::fs::read_to_string(&file).unwrap();
        assert!(
            written.starts_with('{') && written.ends_with("}\n"),
            "bad file shape"
        );
    }

    #[test]
    fn trace_unknown_scenario_lists_the_names() {
        let err = execute(
            Command::Trace(Trace {
                scenario: "bogus".into(),
                seed: 0,
                out: String::new(),
            }),
            &mut Vec::new(),
        )
        .unwrap_err();
        assert!(err.contains("caterpillar-equivocate"), "{err}");
    }
}
