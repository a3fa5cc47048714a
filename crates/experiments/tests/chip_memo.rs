//! Regression pin for the chip memo: static timing analysis runs *once per
//! memoized chip blank*, never per oracle or per accessor call. Before the
//! hoist, every `static_critical_delay_ps()` / screen construction re-ran a
//! full STA pass; this test pins the budget so it cannot creep back.
//!
//! Kept as a single test in its own binary: the chip memo is process-wide,
//! so a blank another test fabricated first would hide analyses.

use ntc_experiments::{build_oracle, CH3_REGIME};
use ntc_varmodel::telemetry::{with_counter_scope, Counter};
use ntc_varmodel::Corner;

// Seeds no other test binary uses: the chip memo is process-wide, and a
// blank fabricated by another test in *this* binary would hide analyses.
const SEED_BASE: u64 = 990_001;
const CHIPS: u64 = 5;
const BUFFERED_SEED: u64 = 990_101;

/// Run `f` in a counter scope; return its result and the static
/// analyses it ran.
fn analyses<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, counts) = with_counter_scope(f);
    (out, counts[Counter::StaFull])
}

#[test]
fn static_analysis_runs_once_per_chip_blank() {
    // A 5-chip sweep on the bare topology: one nominal pass (hoisted to
    // the topology memo — it anchors the clocks) + one full analysis per
    // chip, nothing more.
    let (mut criticals, n) = analyses(|| {
        (SEED_BASE..SEED_BASE + CHIPS)
            .map(|seed| {
                build_oracle(Corner::NTC, seed, false, CH3_REGIME).static_critical_delay_ps()
            })
            .collect::<Vec<f64>>()
    });
    assert_eq!(
        n,
        1 + CHIPS,
        "N-chip sweep: topology anchor + one analysis per chip"
    );

    // The chips are genuinely different dies, not replays of one
    // signature.
    criticals.sort_by(f64::total_cmp);
    criticals.dedup();
    assert!(criticals.len() > 1, "distinct seeds give distinct chips");

    // The accessors read the memoized values — zero additional passes.
    let ((), n) = analyses(|| {
        let oracle = build_oracle(Corner::NTC, SEED_BASE, false, CH3_REGIME);
        let nominal = oracle.nominal_critical_delay_ps();
        let static_crit = oracle.static_critical_delay_ps();
        assert!(static_crit > nominal * 0.5 && static_crit.is_finite());
    });
    assert_eq!(n, 0, "accessors must not re-run STA");

    // A memoized replay of any chip of the sweep costs nothing.
    let (_again, n) = analyses(|| build_oracle(Corner::NTC, SEED_BASE + 1, false, CH3_REGIME));
    assert_eq!(n, 0, "memoized blank rebuilt STA");

    // Buffered blank: bare-nominal anchor + buffered-nominal (both
    // topology-level) + the chip's own analysis.
    let (_buffered, n) = analyses(|| build_oracle(Corner::NTC, BUFFERED_SEED, true, CH3_REGIME));
    assert_eq!(
        n, 3,
        "buffered chip blank: bare anchor + buffered nominal + chip analysis"
    );
}
