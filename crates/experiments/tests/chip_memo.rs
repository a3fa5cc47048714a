//! Regression pin for the chip memo: static timing analysis runs *once per
//! memoized chip blank*, never per oracle or per accessor call. Before the
//! hoist, every `static_critical_delay_ps()` / screen construction re-ran a
//! full STA pass; this test pins the budget so it cannot creep back.
//!
//! Kept as a single test in its own binary: the counters are process-wide
//! and cumulative, so concurrent test functions would race the deltas.

use ntc_experiments::{build_oracle, CH3_REGIME};
use ntc_timing::sta::analysis_count;
use ntc_timing::take_sta_counters;
use ntc_varmodel::Corner;

// Seeds no other test binary uses: the chip memo is process-wide, and a
// blank fabricated by another test in *this* binary would hide analyses.
const SEED_BASE: u64 = 990_001;
const CHIPS: u64 = 5;
const BUFFERED_SEED: u64 = 990_101;

#[test]
fn static_analysis_runs_once_per_chip_blank() {
    // Start from drained telemetry so the drain below meters only this
    // sweep.
    let _ = take_sta_counters();

    // A 5-chip sweep on the bare topology: one nominal pass (hoisted to
    // the topology memo — it anchors the clocks) + one full analysis per
    // chip, nothing more.
    let before = analysis_count();
    let mut criticals = Vec::new();
    for seed in SEED_BASE..SEED_BASE + CHIPS {
        let oracle = build_oracle(Corner::NTC, seed, false, CH3_REGIME);
        criticals.push(oracle.static_critical_delay_ps());
    }
    assert_eq!(
        analysis_count() - before,
        1 + CHIPS,
        "N-chip sweep: topology anchor + one analysis per chip"
    );

    // The chips are genuinely different dies, not replays of one
    // signature.
    criticals.sort_by(f64::total_cmp);
    criticals.dedup();
    assert!(criticals.len() > 1, "distinct seeds give distinct chips");

    // The accessors read the memoized values — zero additional passes.
    let before = analysis_count();
    let oracle = build_oracle(Corner::NTC, SEED_BASE, false, CH3_REGIME);
    let nominal = oracle.nominal_critical_delay_ps();
    let static_crit = oracle.static_critical_delay_ps();
    assert!(static_crit > nominal * 0.5 && static_crit.is_finite());
    assert_eq!(analysis_count() - before, 0, "accessors must not re-run STA");

    // A memoized replay of any chip of the sweep costs nothing.
    let before = analysis_count();
    let _again = build_oracle(Corner::NTC, SEED_BASE + 1, false, CH3_REGIME);
    assert_eq!(analysis_count() - before, 0, "memoized blank rebuilt STA");

    // The drained telemetry that feeds `OracleStats` and the repro
    // manifest agrees with the cumulative count: the sweep, nothing for
    // the replays.
    assert_eq!(take_sta_counters().sta_full, 1 + CHIPS, "telemetry: full passes");

    // Buffered blank: bare-nominal anchor + buffered-nominal (both
    // topology-level) + the chip's own analysis.
    let before = analysis_count();
    let _buffered = build_oracle(Corner::NTC, BUFFERED_SEED, true, CH3_REGIME);
    assert_eq!(
        analysis_count() - before,
        3,
        "buffered chip blank: bare anchor + buffered nominal + chip analysis"
    );
}
