//! Every E1–E13 table in `EXPERIMENTS.md` is program output.
//!
//! The document marks each experiment's output as a generated region:
//! the line `<!-- experiments:eN -->`, the text `bench::eN()` returns, one
//! blank line (so a table ends before the marker), then the line
//! `<!-- /experiments:eN -->`. This test runs every experiment in-process
//! and compares each region byte for byte. It always writes the document
//! with every region regenerated to the test's scratch directory under
//! `target/`; on a mismatch it names that path, so accepting a change in
//! program output is one `cp` and a reviewed `git diff`.

use std::path::Path;
use std::thread;

const DOC: &str = "EXPERIMENTS.md";

/// A generated region of the document: its id and the byte range of its
/// body (everything between the two marker lines).
struct Region {
    id: String,
    body: std::ops::Range<usize>,
}

/// The document's regions, in order. A marker is a line of its own.
fn regions(doc: &str) -> Result<Vec<Region>, String> {
    let mut out = Vec::new();
    let mut open: Option<(&str, usize, usize)> = None; // id, body start, line
    let mut at = 0;
    for (i, line) in doc.split_inclusive('\n').enumerate() {
        let text = line.trim_end_matches('\n');
        if let Some(id) = marker(text, "<!-- experiments:") {
            if let Some((prev, _, l)) = open {
                return Err(format!("{DOC}:{l}: `{prev}` is never closed"));
            }
            open = Some((id, at + line.len(), i + 1));
        } else if let Some(id) = marker(text, "<!-- /experiments:") {
            match open.take() {
                Some((open_id, start, _)) if open_id == id => out.push(Region {
                    id: id.to_string(),
                    body: start..at,
                }),
                _ => return Err(format!("{DOC}:{}: `{id}` closes no open region", i + 1)),
            }
        }
        at += line.len();
    }
    match open {
        Some((id, _, l)) => Err(format!("{DOC}:{l}: `{id}` is never closed")),
        None => Ok(out),
    }
}

/// The id of a marker line `<prefix>ID -->`.
fn marker<'a>(line: &'a str, prefix: &str) -> Option<&'a str> {
    line.strip_prefix(prefix)?.strip_suffix(" -->")
}

/// 1-based line number of byte offset `at`.
fn line_of(doc: &str, at: usize) -> usize {
    doc[..at].matches('\n').count() + 1
}

/// Where the region `body` of `doc` first departs from `want`.
fn first_difference(doc: &str, body: &std::ops::Range<usize>, want: &str) -> String {
    let have: Vec<&str> = doc[body.clone()].split('\n').collect();
    let want: Vec<&str> = want.split('\n').collect();
    let i = (0..)
        .find(|&i| have.get(i) != want.get(i))
        .expect("the texts differ");
    let show = |l: Option<&&str>| l.map_or("<end of region>".into(), |l| format!("{l:?}"));
    format!(
        "{DOC}:{}: first differing line\n    expected (program):      {}\n    actual ({DOC}): {}",
        line_of(doc, body.start) + i,
        show(want.get(i)),
        show(have.get(i))
    )
}

#[test]
fn every_published_experiment_table_equals_the_program_output() {
    // `None` for an experiment that panicked (an `assert!` of its own);
    // the panic message names it, since its thread is named after it.
    let outputs: Vec<(&str, Option<String>)> = thread::scope(|s| {
        let running: Vec<_> = bench::EXPERIMENTS
            .iter()
            .map(|&(id, run)| {
                let h = thread::Builder::new()
                    .name(id.into())
                    .spawn_scoped(s, run)
                    .expect("spawn an experiment thread");
                (id, h)
            })
            .collect();
        running
            .into_iter()
            .map(|(id, h)| (id, h.join().ok()))
            .collect()
    });

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(DOC);
    let doc = std::fs::read_to_string(&path).expect("read EXPERIMENTS.md");
    let found = regions(&doc).unwrap_or_else(|e| panic!("{e}"));

    let mut errors = Vec::new();
    let mut regenerated = String::new();
    let mut copied = 0;
    for region in &found {
        match outputs.iter().find(|(id, _)| *id == region.id) {
            None => errors.push(format!("{}: no such experiment", region.id)),
            Some((id, None)) => errors.push(format!("{id}: panicked (message above)")),
            Some((_, Some(out))) => {
                let want = format!("{out}\n");
                if doc[region.body.clone()] != want {
                    let diff = first_difference(&doc, &region.body, &want);
                    errors.push(format!("{}: {diff}", region.id));
                }
                regenerated.push_str(&doc[copied..region.body.start]);
                regenerated.push_str(&want);
                copied = region.body.end;
            }
        }
    }
    regenerated.push_str(&doc[copied..]);
    for (id, _) in &outputs {
        match found.iter().filter(|r| r.id == *id).count() {
            1 => {}
            0 => errors.push(format!("{id}: {DOC} has no region for it")),
            k => errors.push(format!("{id}: {DOC} has {k} regions for it")),
        }
    }

    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(DOC);
    std::fs::write(&out, &regenerated).expect("write the regenerated document");
    assert!(
        errors.is_empty(),
        "{DOC} does not match the program:\n\n{}\n\nThe regenerated document is {}; \
         review `diff {} {}` and copy it over to accept the program's output.",
        errors.join("\n\n"),
        out.display(),
        path.display(),
        out.display()
    );
}
