//! `perfbench-tracer` — the traced half of the benchmark.
//!
//! Runs one benchmark workload in-process through the layers' public
//! functions and prints one JSON object: batch-level spans, the work
//! counters of every experiment or request, and the kernel replay of the
//! operand pairs that missed the oracle. `perfbench/run.py` compares the
//! counters and CSV bytes with the untraced run of the same inputs and
//! turns the spans into per-layer metrics.
//!
//! ```text
//! perfbench-tracer --workload fast-suite|full-grid --ids FILE --work DIR --jobs N
//! perfbench-tracer --workload serve-mix --requests FILE --work DIR --jobs N
//! ```
//!
//! Grid experiments are traced cell by cell and their folded result is
//! handed to the figure runner through the grid cache (see `grid.rs`);
//! every other experiment runs as one `experiments.figure` span.

mod grid;
mod kernel;
mod spans;

use ntc_core::scenario::SchemeSpec;
use ntc_core::tag_delay::{take_oracle_stats, OracleStats};
use ntc_experiments::cache::{self, CacheStats, MemoLru};
use ntc_experiments::scenario::{run_grid_traced, GridSpec, GridTier, Regime, GRID_MEMO_CAP};
use ntc_experiments::{all_experiments, config, runner, Scale};
use ntc_serve::protocol::{grid_table, parse_request, table_csv};
use ntc_serve::Request;
use ntc_workload::{WorkloadStats, ALL_BENCHMARKS};
use spans::span;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workload: String,
    inputs: PathBuf,
    work: PathBuf,
    jobs: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut inputs = None;
    let mut work = None;
    let mut jobs = 1;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--ids" | "--requests" => inputs = Some(PathBuf::from(value()?)),
            "--work" => work = Some(PathBuf::from(value()?)),
            "--jobs" => jobs = value()?.parse().map_err(|e| format!("--jobs: {e}"))?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        inputs: inputs.ok_or("--ids or --requests is required")?,
        work: work.ok_or("--work is required")?,
        jobs,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-tracer: {e}");
            std::process::exit(2);
        }
    };
    runner::set_jobs(args.jobs);
    let inputs = std::fs::read_to_string(&args.inputs).expect("read workload inputs");
    let lines: Vec<&str> = inputs.lines().filter(|l| !l.trim().is_empty()).collect();
    let start = Instant::now();
    let records = match args.workload.as_str() {
        "fast-suite" => repro(&lines, Scale::Fast, &args.work),
        "full-grid" => repro(&lines, Scale::Full, &args.work),
        "serve-mix" => serve(&lines, &args.work),
        other => {
            eprintln!("perfbench-tracer: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    // Measured after the timed run, so neither perturbs it.
    let replay = kernel::store_and_replay(&args.work.join("kernel"));
    let screen_build_ns = kernel::screen_build_ns();
    println!(
        "{{\"wall_ns\":{wall_ns},\"spans\":{},\"grid\":{{\"busy_ns\":{},\"wall_ns\":{},\
         \"instr\":{},\"source_instr\":{},\"cell_sims\":{}}},\"kernel\":{{\"pairs\":{},\
         \"ns\":{}}},\"screen_build_ns\":{screen_build_ns},\
         \"chips\":{},\"records\":[{}]}}",
        spans::to_json(),
        grid::GRID_BUSY_NS.load(Ordering::Relaxed),
        grid::GRID_WALL_NS.load(Ordering::Relaxed),
        grid::INSTR.load(Ordering::Relaxed),
        grid::SOURCE_INSTR.load(Ordering::Relaxed),
        grid::CELL_SIMS.load(Ordering::Relaxed),
        replay.pairs,
        replay.ns,
        kernel::chips(),
        records.join(",")
    );
}

/// Every counter family the untraced run reports, drained.
struct Drained {
    oracle: OracleStats,
    cache: CacheStats,
    workload: WorkloadStats,
    sweep: runner::SweepStats,
}

fn drain() -> Drained {
    Drained {
        oracle: take_oracle_stats(),
        cache: cache::take_stats(),
        workload: ntc_workload::take_stats(),
        sweep: runner::take_stats(),
    }
}

fn fields_json<const N: usize>(fields: [(&str, u64); N]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{{}}}", body.join(","))
}

fn record_json(
    id: &str,
    tier: &str,
    wall_ns: u64,
    d: &Drained,
    artifact_bytes: u64,
    csv: &Path,
) -> String {
    format!(
        "{{\"id\":\"{id}\",\"tier\":\"{tier}\",\"wall_ns\":{wall_ns},\"oracle\":{},\"cache\":{},\
         \"workload\":{},\"sweep_busy_ns\":{},\"sweep_wall_ns\":{},\"artifact_bytes\":{artifact_bytes},\
         \"csv\":\"{}\"}}",
        fields_json(d.oracle.fields()),
        fields_json(d.cache.fields()),
        fields_json(d.workload.fields()),
        d.sweep.busy.as_nanos(),
        d.sweep.wall.as_nanos(),
        csv.display()
    )
}

/// The grids a repro experiment folds through `run_grid`, at the default
/// voltage roster and trace source (the specs of `ch3::figures` and
/// `ch4::figures`). An experiment not listed here runs untraced inside
/// its figure span; a listed spec that drifted from the library shows up
/// as a grid-cache miss in that experiment's record.
fn repro_grids(id: &str, scale: Scale) -> Vec<GridSpec> {
    let grid = |regime, chip_seed_base, trace_seed, schemes: Vec<SchemeSpec>| GridSpec {
        benchmarks: ALL_BENCHMARKS.to_vec(),
        chips: scale.chips(),
        schemes,
        voltages: config::voltages(),
        regime,
        chip_seed_base,
        trace_seed,
        cycles: scale.cycles(),
        source: config::workload_source(),
    };
    match id {
        "fig3.8" => vec![grid(
            Regime::Ch3,
            100,
            7,
            [32, 64, 128, 256]
                .map(|entries| SchemeSpec::DcsIcslt { entries })
                .to_vec(),
        )],
        "fig3.9" => vec![grid(
            Regime::Ch3,
            100,
            7,
            [(16, 8), (16, 16), (32, 8), (32, 16)]
                .map(|(entries, associativity)| SchemeSpec::DcsAcslt {
                    entries,
                    associativity,
                })
                .to_vec(),
        )],
        "fig3.10" | "fig3.11" | "fig3.12" => vec![grid(
            Regime::Ch3,
            220,
            7,
            vec![
                SchemeSpec::RazorCh3,
                SchemeSpec::Hfg,
                SchemeSpec::DcsIcslt { entries: 128 },
                SchemeSpec::DcsAcslt {
                    entries: 32,
                    associativity: 16,
                },
            ],
        )],
        "fig4.9" => vec![grid(
            Regime::Ch4,
            0x49,
            13,
            [32, 64, 128, 256, 512]
                .map(|cet_entries| SchemeSpec::Trident { cet_entries })
                .to_vec(),
        )],
        "fig4.10" | "fig4.11" | "fig4.12" => vec![grid(
            Regime::Ch4,
            400,
            17,
            vec![
                SchemeSpec::RazorCh4,
                SchemeSpec::Ocst,
                SchemeSpec::Trident { cet_entries: 128 },
            ],
        )],
        _ => Vec::new(),
    }
}

/// Trace `spec` into `dir` and load it through the cache tiers, which
/// leaves it in the in-process memo exactly where a computed grid goes.
fn trace_and_load(spec: &GridSpec, dir: &Path) -> (Arc<ntc_experiments::GridResult>, u64) {
    let bytes = grid::traced_grid(spec, dir);
    let (result, tier) = span("experiments.cache.load", || run_grid_traced(spec));
    assert_eq!(
        tier,
        GridTier::Disk,
        "a traced artifact must load from disk"
    );
    assert!(
        cache::encode(spec, &result) == bytes,
        "traced fold differs from the library's encoding"
    );
    (result, bytes.len() as u64)
}

/// The repro workloads: each experiment id in order, its grids traced
/// first, then its figure runner, with the counters drained per
/// experiment the way `repro` drains them into its manifest.
fn repro(ids: &[&str], scale: Scale, work: &Path) -> Vec<String> {
    let inject = work.join("grids");
    let out = work.join("csv");
    cache::set_disk_dir(Some(inject.clone()));
    let suite = all_experiments();
    let mut traced: HashSet<Vec<u8>> = HashSet::new();
    let _ = drain();
    let mut records = Vec::new();
    for &id in ids {
        let (_, run) = suite
            .iter()
            .find(|(name, _)| *name == id)
            .unwrap_or_else(|| panic!("unknown experiment {id}"));
        let start = Instant::now();
        let mut artifact_bytes = 0;
        for spec in repro_grids(id, scale) {
            if traced.insert(spec.canonical_bytes()) {
                artifact_bytes += trace_and_load(&spec, &inject).1;
            }
        }
        let table = span("experiments.figure", || run(scale));
        let wall_ns = start.elapsed().as_nanos() as u64;
        let drained = drain();
        let csv = table.save_csv(&out).expect("write CSV");
        records.push(record_json(id, "", wall_ns, &drained, artifact_bytes, &csv));
    }
    records
}

/// The serve-mix workload: every `grid` request line in order, answered
/// through the same tiers the daemon uses (in-process memo, then the
/// disk cache, then a computed grid), with the CSV payload the daemon
/// would send.
fn serve(lines: &[&str], work: &Path) -> Vec<String> {
    let dir = work.join("cache");
    let out = work.join("csv");
    std::fs::create_dir_all(&out).expect("create CSV dir");
    cache::set_disk_dir(Some(dir.clone()));
    // Mirrors the library memo's recency order to know each request's
    // tier before answering it.
    let mut memo: MemoLru<GridSpec, ()> = MemoLru::new(GRID_MEMO_CAP);
    let _ = drain();
    let mut records = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let spec = match parse_request(line) {
            Ok(Request::Grid { spec }) => spec,
            other => panic!("request {i} is not a grid request: {other:?}"),
        };
        let start = Instant::now();
        let tier = if memo.get(&spec).is_some() {
            GridTier::Memo
        } else if cache::artifact_path(&dir, &spec).is_file() {
            GridTier::Disk
        } else {
            GridTier::Computed
        };
        memo.insert(spec.clone(), ());
        let (result, artifact_bytes) = match tier {
            GridTier::Computed => trace_and_load(&spec, &dir),
            _ => {
                let name = if tier == GridTier::Memo {
                    "experiments.cache.memo"
                } else {
                    "experiments.cache.load"
                };
                let (result, got) = span(name, || run_grid_traced(&spec));
                assert_eq!(got, tier, "request {i}: tier prediction");
                (result, 0)
            }
        };
        let csv = span("serve.render", || table_csv(&grid_table(&spec, &result)));
        let wall_ns = start.elapsed().as_nanos() as u64;
        let drained = drain();
        let path = out.join(format!("{i}.csv"));
        std::fs::write(&path, csv).expect("write CSV");
        records.push(record_json(
            &i.to_string(),
            tier.name(),
            wall_ns,
            &drained,
            artifact_bytes,
            &path,
        ));
    }
    records
}
