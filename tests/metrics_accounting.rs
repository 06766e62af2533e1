//! Metrics accounting: the engine's [`sim_net::Metrics`] and the flight
//! recorder are two independent observers of the same run, so their
//! totals must agree *exactly* — honest messages, total messages and
//! bytes recomputed from the traced `broadcast`/`unicast`/`inject`
//! events equal the `RunReport` counters across a seeded stream of
//! generated fuzz cases.

use aa_fuzz::{gen_case, run_case};
use aa_trace::recomputed_totals;

const CASES: u64 = 50;
const SEED: u64 = 0xACC0;

#[test]
fn metrics_equal_trace_totals_over_seeded_cases() {
    for index in 0..CASES {
        let case = gen_case(SEED, index);
        // `run_case` runs the case under Sequential *and* Parallel
        // stepping and requires the two reports (metrics included) equal
        // and the two traces byte-identical, so one recomputation against
        // one set of metrics covers both modes.
        let traced = run_case(&case)
            .unwrap_or_else(|e| panic!("case {index} ({}): {e}", case.protocol.name()));
        let totals = recomputed_totals(&traced.trace);
        let metrics = &traced.metrics;
        assert_eq!(
            totals.honest_messages,
            metrics.honest_messages(),
            "case {index}: honest message totals diverge"
        );
        assert_eq!(
            totals.messages(),
            metrics.total_messages(),
            "case {index}: total message counts diverge"
        );
        assert_eq!(
            totals.bytes,
            metrics.total_bytes(),
            "case {index}: byte totals diverge"
        );
    }
}
