//! The `treeaa` command-line tool: generate input-space trees, run the AA
//! protocols on them (with or without adversaries), query the
//! lower-bound calculators, fuzz, model-check, trace, and deploy over
//! TCP. Every `--tree` takes a tree file in the plain-text format of
//! [`tree_model::parse_tree`] or a generated family (`path9`).
//!
//! Each subcommand is one module owning its arguments, their parser, its
//! usage text and its body; this file holds the option map they parse
//! from and the two dispatches. `main.rs` is a thin shim.

#![warn(missing_docs)]
use std::collections::BTreeMap;

pub mod check;
pub mod cluster;
pub mod fuzz;
pub mod run;
pub mod serve;
pub mod tools;
pub mod trace;

/// A parsed command line: one variant per subcommand.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// `gen`: emit a generated tree.
    Gen(tools::Gen),
    /// `info`: tree statistics and protocol round counts.
    Info(tools::Info),
    /// `run`: execute a protocol in the lockstep simulator.
    Run(run::Run),
    /// `bounds`: print lower bounds.
    Bounds(tools::Bounds),
    /// `fuzz`: the deterministic adversarial property fuzzer.
    Fuzz(fuzz::Fuzz),
    /// `check`: exhaustively model-check a small instance.
    Check(check::Check),
    /// `trace`: record a named scenario's flight-recorder trace.
    Trace(trace::Trace),
    /// `serve`: one party of a networked deployment.
    Serve(serve::Serve),
    /// `cluster`: launch and referee a local deployment.
    Cluster(cluster::Cluster),
    /// `wal-dump`: print a node's write-ahead log.
    WalDump(tools::WalDump),
    /// `help` or no arguments.
    Help,
}

/// What each subcommand's module provides.
trait Subcommand: Sized {
    /// Its options that take no value.
    const FLAGS: &'static [&'static str] = &[];
    /// Its help: a newline, its synopsis lines, then (after a blank
    /// line) its paragraphs if it has any.
    const HELP: &'static str;
    /// Reads its arguments out of the option map.
    fn parse(o: &mut Opts) -> Result<Self, String>;
    /// Runs it, writing its human-readable output to `out`.
    fn execute(self, out: &mut impl std::io::Write) -> Result<(), String>;
}

/// The arguments after a subcommand: `--key value` options, flags, and
/// positional arguments. Every read consumes what it reads, so whatever
/// is left over is something the subcommand does not take.
#[derive(Default)]
struct Opts {
    keys: BTreeMap<String, Option<String>>,
    positional: Vec<String>,
}

impl Opts {
    /// A key takes the next argument as its value unless it is one of
    /// `flags` or the next argument is itself an option.
    fn parse(args: &[String], flags: &[&str]) -> Opts {
        let mut o = Opts::default();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(key) => {
                    let value = it.next_if(|v| !flags.contains(&key) && !v.starts_with("--"));
                    o.keys.insert(key.to_string(), value.cloned());
                }
                None => o.positional.push(arg.clone()),
            }
        }
        o
    }

    fn opt<T: std::str::FromStr>(&mut self, key: &str) -> Result<Option<T>, String> {
        let Some(value) = self.keys.remove(key) else {
            return Ok(None);
        };
        let value = value.ok_or_else(|| format!("option --{key} needs a value"))?;
        parse_num(&value, key).map(Some)
    }

    fn or<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn req<T: std::str::FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.opt(key)?
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    fn flag(&mut self, key: &str) -> bool {
        self.keys.remove(key).is_some()
    }

    /// Parses `args` as subcommand `cmd`'s arguments.
    fn read<S: Subcommand>(cmd: &str, args: &[String]) -> Result<S, String> {
        let mut o = Opts::parse(args, S::FLAGS);
        let parsed = S::parse(&mut o)?;
        if let Some(arg) = o.positional.first() {
            return Err(format!("expected an option starting with --, got `{arg}`"));
        }
        match o.keys.keys().next() {
            Some(key) => Err(format!(
                "`{cmd}` takes no option --{key}; see `treeaa help`"
            )),
            None => Ok(parsed),
        }
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid {what}: `{s}`"))
}

fn io(e: std::io::Error) -> String {
    format!("i/o error: {e}")
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message for unknown commands, missing,
/// malformed or unknown options.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((cmd, args)) = args.split_first() else {
        return Ok(Command::Help);
    };
    Ok(match cmd.as_str() {
        "gen" => Command::Gen(Opts::read(cmd, args)?),
        "info" => Command::Info(Opts::read(cmd, args)?),
        "run" => Command::Run(Opts::read(cmd, args)?),
        "bounds" => Command::Bounds(Opts::read(cmd, args)?),
        "fuzz" => Command::Fuzz(Opts::read(cmd, args)?),
        "check" => Command::Check(Opts::read(cmd, args)?),
        "trace" => Command::Trace(Opts::read(cmd, args)?),
        "serve" => Command::Serve(Opts::read(cmd, args)?),
        "cluster" => Command::Cluster(Opts::read(cmd, args)?),
        "wal-dump" => Command::WalDump(Opts::read(cmd, args)?),
        "help" | "--help" | "-h" => Command::Help,
        other => return Err(format!("unknown command `{other}`; see `treeaa help`")),
    })
}

/// Executes a command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a message for file, parse, or protocol-precondition problems.
pub fn execute(cmd: Command, out: &mut impl std::io::Write) -> Result<(), String> {
    match cmd {
        Command::Gen(c) => c.execute(out),
        Command::Info(c) => c.execute(out),
        Command::Run(c) => c.execute(out),
        Command::Bounds(c) => c.execute(out),
        Command::Fuzz(c) => c.execute(out),
        Command::Check(c) => c.execute(out),
        Command::Trace(c) => c.execute(out),
        Command::Serve(c) => c.execute(out),
        Command::Cluster(c) => c.execute(out),
        Command::WalDump(c) => c.execute(out),
        Command::Help => write!(out, "{}", usage()).map_err(io),
    }
}

/// The help text: every subcommand's synopsis, then their paragraphs.
#[must_use]
pub fn usage() -> String {
    let helps = [
        tools::Gen::HELP,
        tools::Info::HELP,
        run::Run::HELP,
        tools::Bounds::HELP,
        fuzz::Fuzz::HELP,
        check::Check::HELP,
        trace::Trace::HELP,
        serve::Serve::HELP,
        cluster::Cluster::HELP,
        tools::WalDump::HELP,
    ];
    let mut synopses = String::from(
        "treeaa — Byzantine approximate agreement on trees (PODC 2025 reproduction)\n\nUSAGE:\n",
    );
    let mut paragraphs = String::new();
    for help in helps {
        let help = &help[1..];
        let (synopsis, about) = help.split_at(help.find("\n\n").map_or(help.len(), |i| i + 1));
        synopses.push_str(synopsis);
        paragraphs.push_str(about);
    }
    synopses + &paragraphs
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let err = parse_args(&argv("gen --size 5")).unwrap_err();
        assert!(err.contains("--family"), "{err}");
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    #[test]
    fn an_option_the_subcommand_does_not_read_is_an_error() {
        for (line, cmd, key) in [
            (
                "check --n 4 --tree path4 --depth 2 --dpeth 9",
                "check",
                "dpeth",
            ),
            ("gen --family path --size 2 --supervise", "gen", "supervise"),
            (
                "serve --tree path9 --inputs a,b,c,d --party-id 1 --reconnect-attempts 3",
                "serve",
                "reconnect-attempts",
            ),
            (
                "serve --tree path9 --inputs a,b,c,d --party-id 1 --min-delay 0.5",
                "serve",
                "min-delay",
            ),
            (
                "cluster --tree path9 --inputs a,b,c,d --min-delay 1",
                "cluster",
                "min-delay",
            ),
            // A flag of another subcommand is not a flag here: it takes no
            // value from the option after it.
            ("fuzz --gate --cases 3", "fuzz", "gate"),
        ] {
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(err.contains(&format!("`{cmd}`")), "{err}");
            assert!(err.contains(&format!("--{key}")), "{err}");
        }
    }

    #[test]
    fn flags_take_no_value_and_options_need_one() {
        let err = parse_args(&argv("fuzz --minimize 5")).unwrap_err();
        assert!(
            err.contains("expected an option starting with --, got `5`"),
            "{err}"
        );
        let err = parse_args(&argv("fuzz --seed --minimize")).unwrap_err();
        assert!(err.contains("option --seed needs a value"), "{err}");
        let err = parse_args(&argv("bounds --diameter 9 --n 4 --t")).unwrap_err();
        assert!(err.contains("option --t needs a value"), "{err}");
    }

    #[test]
    fn no_args_is_help() {
        assert_eq!(parse_args(&[]).unwrap(), Command::Help);
    }
}
