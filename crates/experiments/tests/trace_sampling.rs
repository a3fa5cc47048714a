//! Trace record/replay conformance: the acceptance contract of the
//! binary-trace subsystem, end to end through the grid engine.
//!
//! * `Record` runs are bit-identical to plain `Generator` runs and
//!   leave the binary trace files behind;
//! * `Replay` of those files is bit-identical to the generator —
//!   the whole [`ntc_experiments::GridResult`], float bit patterns
//!   included;
//! * `Phases` (SimPoint-weighted replay) simulates at most 20% of the
//!   full trace's instructions and lands every per-scheme mean within a
//!   pinned tolerance of the full run.
//!
//! * at `--jobs 8`, many cells of one benchmark racing on parallel
//!   workers still record each trace file and sample each phase set
//!   exactly once.
//!
//! One `#[test]` body: the workload telemetry counters are
//! process-global, so the runs must drain them sequentially (the
//! same pattern as the serve and parallel-determinism suites).

use ntc_core::scenario::SchemeSpec;
use ntc_experiments::{run_grid_uncached, runner, GridSpec, Regime};
use ntc_varmodel::OperatingPoint;
use ntc_workload::{Benchmark, TraceSource};
use std::path::PathBuf;

const TRACE_SEED: u64 = 9;
const CYCLES: usize = 30_000;
/// The `--jobs 8` stress pass: enough chips that every worker resolves
/// the same trace cell, on a shorter trace to keep the pass cheap.
const STRESS_CHIPS: usize = 8;
const STRESS_CYCLES: usize = 5_000;

/// Pinned conformance tolerances for the phase-sampled estimates, in
/// absolute units of each metric, tuned empirically on the grid below.
/// Period stretch is chip-determined and phase-insensitive (observed
/// delta ~0); accuracy carries an inherent cold-start bias — every
/// phase representative restarts its scheme's predictor tables cold,
/// so a few points of the full-trace accuracy are lost to per-segment
/// warmup (observed ~5.1 here, and the effect does not shrink with
/// longer intervals because warmup cost and segment error count grow
/// together). A broken sampler — wrong weights, wrong intervals,
/// collapsed clusters — lands far outside both bounds.
const STRETCH_TOL: f64 = 0.01;
const ACCURACY_TOL: f64 = 8.0;

/// Aggregate prediction accuracy over an accumulator's weighted error
/// *counts* — the SimPoint-sound estimator for a ratio metric. The
/// per-run mean (`mean_prediction_accuracy`) is not comparable across
/// segment lengths: a short phase with zero engaged errors reports the
/// degenerate 100% convention, which skews the mean for schemes (like
/// plain Razor) whose true accuracy is 0.
fn aggregate_accuracy(acc: &ntc_core::scenario::SimAccumulator) -> f64 {
    acc.result().prediction_accuracy()
}

fn spec(source: TraceSource) -> GridSpec {
    GridSpec {
        benchmarks: vec![Benchmark::Mcf],
        chips: 2,
        schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
        voltages: vec![OperatingPoint::NTC],
        regime: Regime::Ch3,
        chip_seed_base: 310,
        trace_seed: TRACE_SEED,
        cycles: CYCLES,
        source,
    }
}

fn test_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ntc-trace-sampling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

#[test]
fn record_replay_is_bit_identical_and_phases_stay_within_tolerance() {
    let dir = test_dir();

    // ---- Baseline: the statistical generator --------------------------
    let generator = run_grid_uncached(&spec(TraceSource::Generator));
    let baseline_stats = ntc_workload::take_stats();
    assert!(
        !baseline_stats.any(),
        "generator runs must not touch the record/replay counters: {baseline_stats:?}"
    );

    // ---- Record: same results, trace files written --------------------
    let recorded = run_grid_uncached(&spec(TraceSource::Record(dir.clone())));
    assert_eq!(
        recorded, generator,
        "recording must not perturb the simulated results"
    );
    let record_stats = ntc_workload::take_stats();
    assert_eq!(
        record_stats.traces_recorded, 1,
        "one (benchmark, seed, cycles) cell → one trace file"
    );
    let trace_file = TraceSource::trace_path(&dir, Benchmark::Mcf, TRACE_SEED, CYCLES);
    assert!(trace_file.is_file(), "{} missing", trace_file.display());

    // ---- Replay: bit-identical fold -----------------------------------
    let replayed = run_grid_uncached(&spec(TraceSource::Replay(dir.clone())));
    assert_eq!(
        replayed, generator,
        "whole-trace replay must be bit-identical to the generator"
    );
    let replay_stats = ntc_workload::take_stats();
    assert!(replay_stats.trace_replays >= 1, "{replay_stats:?}");
    assert!(
        replay_stats.replayed_instructions >= CYCLES as u64,
        "{replay_stats:?}"
    );

    // ---- Phases: bounded work, bounded error --------------------------
    let phased = run_grid_uncached(&spec(TraceSource::Phases(dir.clone())));
    let phase_stats = ntc_workload::take_stats();
    assert!(phase_stats.phase_replays >= 1, "{phase_stats:?}");
    assert!(
        phase_stats.phase_instructions * 5 <= replay_stats.replayed_instructions,
        "weighted phases must simulate ≤ 20% of the full trace: {} of {}",
        phase_stats.phase_instructions,
        replay_stats.replayed_instructions
    );
    assert!(
        TraceSource::phases_path(&dir, Benchmark::Mcf, TRACE_SEED, CYCLES).is_file(),
        "first phase replay persists the sampled phase set"
    );
    for ((bench, point, full_accs), (_, _, phase_accs)) in
        generator.rows().iter().zip(phased.rows())
    {
        for (scheme, (full, phase)) in spec(TraceSource::Generator)
            .schemes
            .iter()
            .zip(full_accs.iter().zip(phase_accs))
        {
            let d_stretch = (full.mean_period_stretch() - phase.mean_period_stretch()).abs();
            assert!(
                d_stretch <= STRETCH_TOL,
                "{bench}/{point:?}/{}: period-stretch estimate off by {d_stretch:.4} \
                 (full {:.4}, phases {:.4})",
                scheme.name(),
                full.mean_period_stretch(),
                phase.mean_period_stretch()
            );
            let d_acc = (aggregate_accuracy(full) - aggregate_accuracy(phase)).abs();
            assert!(
                d_acc <= ACCURACY_TOL,
                "{bench}/{point:?}/{}: accuracy estimate off by {d_acc:.3} \
                 (full {:.3}, phases {:.3})",
                scheme.name(),
                aggregate_accuracy(full),
                aggregate_accuracy(phase)
            );
        }
    }

    // A second phase run re-reads the persisted `.ntp` file and folds to
    // the exact same result (determinism across the sample/load split).
    let phased_again = run_grid_uncached(&spec(TraceSource::Phases(dir.clone())));
    assert_eq!(phased_again, phased, "loaded phases == freshly sampled");

    // ---- --jobs 8: one writer per file, exact counters ----------------
    let stress_dir = dir.join("jobs8");
    let stress = |source| GridSpec {
        chips: STRESS_CHIPS,
        cycles: STRESS_CYCLES,
        ..spec(source)
    };
    runner::set_jobs(8);
    run_grid_uncached(&stress(TraceSource::Record(stress_dir.clone())));
    let record_stats = ntc_workload::take_stats();
    assert_eq!(
        record_stats.traces_recorded, 1,
        "{STRESS_CHIPS} racing cells of one trace → one recording: {record_stats:?}"
    );
    run_grid_uncached(&stress(TraceSource::Phases(stress_dir.clone())));
    let stress_stats = ntc_workload::take_stats();
    runner::set_jobs(0);
    let set = ntc_workload::simpoint::read_phases_file(&TraceSource::phases_path(
        &stress_dir,
        Benchmark::Mcf,
        TRACE_SEED,
        STRESS_CYCLES,
    ))
    .expect("the stress pass persists one phase set");
    assert_eq!(
        (stress_stats.phase_replays, stress_stats.phase_instructions),
        (
            STRESS_CHIPS as u64,
            STRESS_CHIPS as u64 * set.simulated_instructions()
        ),
        "every cell replays the one sampled phase set: {stress_stats:?}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
