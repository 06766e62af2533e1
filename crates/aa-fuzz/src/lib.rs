//! `aa-fuzz` — a seeded, fully deterministic adversarial property-fuzzing
//! harness for the approximate-agreement protocols of this workspace.
//!
//! The paper's guarantees are universally quantified: validity,
//! ε-agreement and the round bound must hold for *every* tree, *every*
//! honest input placement and *every* adversary within the `t < n/3`
//! budget. Hand-picked scenarios cannot cover that space; this crate
//! samples it. A master seed induces a stream of [`FuzzCase`]s — random
//! tree (eight topology families, caterpillars and brooms over-weighted
//! because the round-bound analysis is tight there), random inputs, and a
//! random adversary composed from the `sim-net` zoo — each of which is
//! run through `tree-aa` (both inner engines), the `O(log D)` baseline,
//! or `real-aa` (solo and bundled).
//!
//! Every case runs through **one pipeline**, [`run_case`] (see [`run`]):
//! both step modes, the flight recorder on, every party wrapped in the
//! silence monitor, under the case's fault plan (an empty one when the
//! case has no fault atoms). It checks, in order:
//!
//! 1. sequential ≡ parallel: equal reports and byte-identical traces,
//! 2. the protocol's explicit round bound, relaxed by the fault plan's
//!    scheduled extent,
//! 3. the `aa-trace` invariant checkers (round totals, hull monotonicity,
//!    grade semantics; round totals only under a fault plan),
//! 4. exact trace-vs-metrics accounting,
//! 5. the degradation contract,
//! 6. without a fault plan, convex-hull validity and 1-agreement
//!    (ε-agreement for `real-aa`).
//!
//! [`run_batch`], [`minimize`](minimize::minimize), [`replay_corpus`] and
//! [`record_scenario`] all call it, so a failure the batch finds is the
//! failure the minimizer shrinks and the corpus replays.
//!
//! With `--faults` the stream additionally overlays benign-fault plans
//! (healing partitions, crash/recovery windows, and occasional
//! catastrophic over-budget crash sets), putting the *degradation
//! contract* to work: transient faults must still terminate within the
//! relaxed round bound, and over-budget fault sets must surface as
//! structured `Degraded` outcomes carrying checkable evidence
//! certificates — never as silently unguaranteed values.
//!
//! Everything is a pure function of integers: case `i` of seed `s` is
//! reproducible from `(s, i)` alone, two identical invocations produce
//! bit-identical output, and no wall-clock or host state leaks in.
//!
//! Failing cases are shrunk by [`minimize`](minimize::minimize) (the case
//! spec stores generator parameters, so shrinking is integer surgery) and
//! persisted as JSON repros in `fuzz-corpus/`, which the workspace test
//! suite replays on every `cargo test` — a bug found once stays fixed.
//!
//! ```
//! use aa_fuzz::{gen_case, run_case};
//!
//! let case = gen_case(42, 0);
//! run_case(&case).expect("invariants hold");
//! ```

#![warn(missing_docs)]

pub mod adversary;
pub mod case;
pub mod corpus;
pub mod gen;
pub mod json;
pub mod minimize;
pub mod run;
pub mod scenario;

use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub use adversary::build_adversary;
pub use case::{AdvAtom, AdvAtomKind, Family, FaultAtom, FuzzCase, ProtocolKind, TreeSpec};
pub use corpus::{load_case, load_dir, save_case, CorpusEntry};
pub use gen::{gen_case, with_faults};
pub use json::Json;
pub use minimize::{minimize, Minimized};
pub use run::{run_case, run_case_mutated, CaseStats, CheckFailure, Mutation, TracedCase};
pub use scenario::{record_scenario, scenario, scenario_names, SCENARIO_NAMES};

/// Options of a fuzzing batch (the `cli fuzz` subcommand maps onto this).
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// Master seed of the case stream.
    pub seed: u64,
    /// Number of cases to run.
    pub cases: u64,
    /// Whether to minimize failing cases before reporting them.
    pub minimize: bool,
    /// Whether to overlay each case with a generated benign-fault plan
    /// (partitions, crash/recovery windows — see [`with_faults`]), putting
    /// the degradation contract to work.
    pub faults: bool,
    /// Where to persist minimized repros (`None` disables persistence).
    pub corpus_dir: Option<PathBuf>,
}

/// Budget of shrink executions per failing case.
const MINIMIZE_ATTEMPTS: usize = 500;

/// Runs a batch of generated cases, reporting to `out`, and returns the
/// number of invariant violations found.
///
/// The report is a pure function of `opts` — it contains no timing, paths
/// outside `opts.corpus_dir`, or other host state — so two runs with the
/// same options are bit-identical (the acceptance contract of the `fuzz`
/// subcommand).
///
/// # Errors
///
/// Propagates I/O errors from `out` or from corpus persistence.
pub fn run_batch(opts: &FuzzOptions, out: &mut dyn Write) -> io::Result<usize> {
    writeln!(
        out,
        "fuzz: seed {} · {} cases{}",
        opts.seed,
        opts.cases,
        if opts.faults { " · faults on" } else { "" }
    )?;
    let mut violations = 0usize;
    for index in 0..opts.cases {
        let mut case = gen_case(opts.seed, index);
        if opts.faults {
            case = with_faults(case, opts.seed, index);
        }
        let Err(failure) = run_case(&case) else {
            continue;
        };
        violations += 1;
        writeln!(
            out,
            "case {index} [{} on {} n={} t={}]: {failure}",
            case.protocol.name(),
            case.tree.family.name(),
            case.n,
            case.t
        )?;
        let (repro, reason) = if opts.minimize {
            let minimized = minimize::minimize(&case, Mutation::None, MINIMIZE_ATTEMPTS);
            writeln!(
                out,
                "  minimized to {} vertices, n={}, {} atom(s) in {} attempts",
                minimized.case.tree.build().vertex_count(),
                minimized.case.n,
                minimized.case.atoms.len(),
                minimized.attempts
            )?;
            (minimized.case, minimized.failure.to_string())
        } else {
            (case, failure.to_string())
        };
        writeln!(out, "  repro: {}", repro.to_json())?;
        if let Some(dir) = &opts.corpus_dir {
            let path = save_case(dir, &repro, &reason)?;
            writeln!(out, "  saved: {}", path.display())?;
        }
    }
    writeln!(
        out,
        "fuzz: {} cases, {} violation(s), seed {}",
        opts.cases, violations, opts.seed
    )?;
    Ok(violations)
}

/// Replays every corpus file under `dir` and checks that all invariants
/// now hold — minimized repros enter the corpus when a bug is found, and
/// stay as permanent regression tests after it is fixed. Returns the
/// number of cases replayed.
///
/// # Errors
///
/// Returns a message naming every unreadable file or still-failing case.
pub fn replay_corpus(dir: &Path) -> Result<usize, String> {
    let entries = load_dir(dir)?;
    let mut failures = Vec::new();
    for (path, entry) in &entries {
        if let Err(failure) = run_case(&entry.case) {
            failures.push(format!("{}: {failure}", path.display()));
        }
    }
    if failures.is_empty() {
        Ok(entries.len())
    } else {
        Err(failures.join("\n"))
    }
}
