//! Attribution completeness: a counter scope sees every count its run
//! makes, in every family and on every sweep worker.
//!
//! A replay-source grid at four jobs exercises each layer: the sweep
//! engine (busy/wall time), fresh chips (static timing), the delay
//! oracle, the grid disk cache (a cold miss plus a store), the computed
//! cells at two operating points, and whole-trace replay. Scoped around
//! the run, the counts must equal what the process-wide root counted.
//!
//! One `#[test]` body in its own binary: the root table is process-wide,
//! so no other test may count while this one compares.

use ntc_core::scenario::SchemeSpec;
use ntc_experiments::{cache, run_grid, runner, GridSpec, Regime};
use ntc_varmodel::telemetry::{self, with_counter_scope, Counter, Counts, Family};
use ntc_varmodel::OperatingPoint;
use ntc_workload::{Benchmark, TraceSource};

const TRACE_SEED: u64 = 23;
const CYCLES: usize = 3_000;
/// Chip seeds no other test uses, so the chip memo is cold and every
/// chip's static analysis happens inside the scope.
const CHIP_SEED_BASE: u64 = 880_001;

/// Drain every family from the root table.
fn drain_root() -> Counts {
    let mut all = Counts::default();
    for family in [
        Family::Sweep,
        Family::Oracle,
        Family::Cache,
        Family::Cells,
        Family::Workload,
    ] {
        all += telemetry::take(family);
    }
    all
}

#[test]
fn scoped_counts_equal_the_root_drain_in_every_family() {
    let dir = std::env::temp_dir().join(format!("ntc-attribution-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let traces = dir.join("traces");
    let benchmarks = vec![Benchmark::Mcf, Benchmark::Gzip];
    for &bench in &benchmarks {
        TraceSource::Record(traces.clone())
            .segments(bench, TRACE_SEED, CYCLES)
            .expect("trace recorded");
    }
    let spec = GridSpec {
        benchmarks,
        chips: 2,
        schemes: vec![
            SchemeSpec::RazorCh3,
            SchemeSpec::Hfg,
            SchemeSpec::DcsIcslt { entries: 32 },
        ],
        voltages: vec![
            OperatingPoint::NTC,
            OperatingPoint::parse("v0.60").expect("roster point"),
        ],
        regime: Regime::Ch3,
        chip_seed_base: CHIP_SEED_BASE,
        trace_seed: TRACE_SEED,
        cycles: CYCLES,
        source: TraceSource::Replay(traces),
    };
    cache::set_disk_dir(Some(dir.join("cache")));
    runner::set_jobs(4);

    let _ = drain_root();
    let (_result, scoped) = with_counter_scope(|| run_grid(&spec));
    let root = drain_root();

    for &c in Counter::ALL {
        assert_eq!(scoped[c], root[c], "{:?} {}", c.family(), c.name());
    }
    // Every family did real work, so the equalities above are not 0 = 0.
    for c in [
        Counter::SweepBusyNs,
        Counter::SweepWallNs,
        Counter::GateSims,
        Counter::StaFull,
        Counter::DiskMisses,
        Counter::BytesWritten,
        Counter::CellsV045,
        Counter::CellsV060,
        Counter::TraceReplays,
        Counter::ReplayedInstructions,
    ] {
        assert!(scoped[c] > 0, "{} counted nothing", c.name());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
