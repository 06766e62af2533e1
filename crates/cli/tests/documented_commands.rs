//! Every command line the docs show still parses. The test extracts
//! each `treeaa …` line and each `cargo run … -p cli -- …` line from the
//! fenced code blocks of README.md, DESIGN.md, EXPERIMENTS.md and the
//! verify skill, and from every line of the CI workflow, and feeds its
//! arguments to `parse_args`.
//!
//! Extraction: `\` continuations are joined; the arguments end at a
//! shell comment, redirect, pipe or command separator; quotes are
//! stripped; a shell or workflow expression (`$x`, `${x}`, `${{ … }}`)
//! becomes `1`. An expression where an option name is expected (CI's
//! `${{ matrix.flags }}`) stands for zero or more options and is
//! dropped.

use treeaa_cli::parse_args;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".github/workflows/ci.yml",
    ".claude/skills/verify/SKILL.md",
];

/// Stands in for a substituted expression until its position is known.
const EXPR: &str = "\u{0}expr";

/// The candidate lines of one document: code-block lines of a markdown
/// file, every line of anything else, with continuations joined.
fn code_lines(name: &str, text: &str) -> Vec<String> {
    let markdown = name.ends_with(".md");
    let mut in_code = !markdown;
    let mut lines = Vec::new();
    let mut pending = String::new();
    for line in text.lines() {
        if markdown && line.trim_start().starts_with("```") {
            in_code = !in_code;
            continue;
        }
        if !in_code {
            continue;
        }
        match line.trim_end().strip_suffix('\\') {
            Some(head) => pending.push_str(head),
            None => {
                pending.push_str(line);
                lines.push(std::mem::take(&mut pending));
            }
        }
    }
    lines
}

/// Replaces every `${{ … }}`, `${…}` and `$name` with [`EXPR`].
fn substitute(line: &str) -> String {
    let mut out = String::new();
    let mut rest = line;
    while let Some(at) = rest.find('$') {
        out.push_str(&rest[..at]);
        let tail = &rest[at + 1..];
        let skip = if let Some(body) = tail.strip_prefix("{{") {
            body.find("}}").map_or(tail.len(), |end| end + 4)
        } else if let Some(body) = tail.strip_prefix('{') {
            body.find('}').map_or(tail.len(), |end| end + 2)
        } else {
            tail.find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(tail.len())
        };
        if skip == 0 {
            // A lone `$` (a prompt) is not an expression.
            out.push('$');
            rest = tail;
            continue;
        }
        out.push(' ');
        out.push_str(EXPR);
        out.push(' ');
        rest = &tail[skip..];
    }
    out.push_str(rest);
    out
}

/// The `treeaa` arguments of one line, if it is a `treeaa` command line.
fn cli_args(line: &str) -> Option<Vec<String>> {
    let line = substitute(line);
    let words: Vec<&str> = line.split_whitespace().collect();
    let start = if let Some(run) = words.windows(2).position(|w| w == ["cargo", "run"]) {
        let dashes = run + words[run..].iter().position(|&w| w == "--")?;
        let package = words[run..dashes]
            .windows(2)
            .any(|w| matches!(w, ["-p" | "--package", "cli"]));
        if !package {
            return None;
        }
        dashes + 1
    } else {
        let at = words.iter().position(|&w| w == "treeaa")?;
        if words[..at].iter().any(|&w| w != "$") {
            return None;
        }
        at + 1
    };
    let mut args: Vec<String> = Vec::new();
    for word in &words[start..] {
        if word.starts_with(['#', '>', '|', '&', ';']) || word.starts_with("2>") {
            break;
        }
        let word = word.trim_matches(['"', '\'']);
        if word == EXPR {
            // An expression is a value after an option name or the
            // subcommand, and a whole option list after a value.
            if args.len() <= 1 || args.last().is_some_and(|a| a.starts_with("--")) {
                args.push("1".into());
            }
        } else if !word.is_empty() {
            args.push(word.to_string());
        }
    }
    Some(args)
}

#[test]
fn every_documented_command_line_parses() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut checked = 0;
    let mut failures = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root.join(doc))
            .unwrap_or_else(|e| panic!("cannot read {doc}: {e}"));
        for line in code_lines(doc, &text) {
            let Some(args) = cli_args(&line) else {
                continue;
            };
            checked += 1;
            if let Err(e) = parse_args(&args) {
                failures.push(format!("{doc}: `{}`: {e}", line.trim()));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(checked >= 30, "only {checked} command lines found");
}

#[test]
fn extraction_joins_continuations_and_substitutes_expressions() {
    let yml = "run: |\n  cargo run --release -p cli -- check \\\n    --n ${{ matrix.n }} \
               --max-runs $RUNS ${{ matrix.flags }} --out \"$f\" # note\n";
    let lines = code_lines("ci.yml", yml);
    assert_eq!(
        cli_args(&lines[1]).unwrap(),
        ["check", "--n", "1", "--max-runs", "1", "--out", "1"]
    );
    assert_eq!(
        cli_args("cargo run -q -p cli --bin treeaa -- gen --size 4 > /tmp/t").unwrap(),
        ["gen", "--size", "4"]
    );
    assert_eq!(
        cli_args("$ treeaa wal-dump x.wal").unwrap(),
        ["wal-dump", "x.wal"]
    );
    assert_eq!(cli_args("cargo run -p bench -- run"), None);
    assert_eq!(cli_args("the `treeaa serve` processes"), None);
    let md = "text `treeaa run`\n```sh\ntreeaa info --tree path9\n```\n";
    assert_eq!(code_lines("x.md", md), ["treeaa info --tree path9"]);
}
