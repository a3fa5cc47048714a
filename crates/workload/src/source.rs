//! Where a simulation's instruction stream comes from: the statistical
//! generator, a recorded binary trace, or sampled weighted phases.
//!
//! [`TraceSource`] is the abstraction the scenario engine threads
//! through its grids. Every variant resolves a `(benchmark, seed,
//! cycles)` cell to one or more **weighted segments** — `(instructions,
//! weight)` pairs the simulators run and fold:
//!
//! * [`TraceSource::Generator`] — the statistical generator, one segment
//!   of weight 1. The legacy path; bit-identical to every pre-trace
//!   release.
//! * [`TraceSource::Record`] — generate like `Generator` *and* write the
//!   binary trace file into the directory (atomically, if not already
//!   present; one writer per file per process). Results are identical to `Generator` by construction —
//!   the generated stream itself is simulated — so recording is free to
//!   share cache identity with generator runs.
//! * [`TraceSource::Replay`] — decode the cell's recorded trace file and
//!   simulate it whole: one segment of weight 1. Byte-identical results
//!   to the generator when the file was recorded from the same seed
//!   (pinned by `trace_sampling.rs`).
//! * [`TraceSource::Phases`] — decode the recorded trace, sample (or
//!   load previously sampled) SimPoint phases, and return each
//!   representative slice with its cluster weight. An order of magnitude
//!   fewer simulated instructions; results land within a pinned
//!   tolerance, not byte-identity.
//!
//! Decoded traces and phase sets are memoized process-wide per file path
//! (an `Arc` per file), so a grid's many (chip × scheme × voltage) cells
//! decode each trace once. Replay traffic is counted in the workload
//! family of the counter table ([`ntc_varmodel::telemetry`]); see
//! [`take_stats`].

use crate::simpoint::{self, PhaseSet, DEFAULT_K};
use crate::trace_bin;
use crate::{Benchmark, TraceGenerator};
use ntc_isa::Instruction;
use ntc_varmodel::telemetry::{self, Counter, Family};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One weighted segment of a resolved cell: the instructions to
/// simulate and how many intervals of the full trace they stand for.
#[derive(Debug, Clone)]
pub struct Segment {
    /// The instructions of this segment.
    pub trace: Arc<Vec<Instruction>>,
    /// Fold weight: 1 for whole traces, the cluster size for phases.
    pub weight: u64,
}

/// Where the instruction stream of each grid cell comes from.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TraceSource {
    /// The statistical generator (the legacy path).
    Generator,
    /// Generate *and* record: write each cell's binary trace under the
    /// directory (if absent), then simulate the generated stream.
    Record(PathBuf),
    /// Replay recorded binary traces from the directory, whole.
    Replay(PathBuf),
    /// Replay SimPoint-sampled weighted phases of the recorded traces in
    /// the directory (sampling and caching the `.ntp` file on first
    /// use).
    Phases(PathBuf),
}

impl TraceSource {
    /// Stable short tag for canonical encodings and display. `Record`
    /// deliberately shares the generator's tag: its results are the
    /// generated stream's, so the two must share cache identity.
    pub fn canon_tag(&self) -> &'static str {
        match self {
            TraceSource::Generator | TraceSource::Record(_) => "generator",
            TraceSource::Replay(_) => "replay",
            TraceSource::Phases(_) => "phases",
        }
    }

    /// The trace directory, for the variants that have one.
    pub fn dir(&self) -> Option<&Path> {
        match self {
            TraceSource::Generator => None,
            TraceSource::Record(d) | TraceSource::Replay(d) | TraceSource::Phases(d) => Some(d),
        }
    }

    /// The canonical trace file of a cell inside a trace directory: one
    /// file per `(benchmark, seed, cycles)`, so every scale and seed
    /// coexists in one directory.
    pub fn trace_path(dir: &Path, bench: Benchmark, seed: u64, cycles: usize) -> PathBuf {
        dir.join(format!("{}-s{seed}-c{cycles}.ntt", bench.name()))
    }

    /// The canonical phase-set file of a cell (sampled from the trace
    /// file with the default interval length and cluster count).
    pub fn phases_path(dir: &Path, bench: Benchmark, seed: u64, cycles: usize) -> PathBuf {
        dir.join(format!("{}-s{seed}-c{cycles}.ntp", bench.name()))
    }

    /// Resolve a cell to its weighted segments.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a trace file is missing,
    /// corrupt, or disagrees with the requested cell length (a recorded
    /// trace of the wrong length must never silently stand in).
    pub fn segments(
        &self,
        bench: Benchmark,
        seed: u64,
        cycles: usize,
    ) -> Result<Vec<Segment>, String> {
        match self {
            TraceSource::Generator => Ok(vec![Segment {
                trace: generated(bench, seed, cycles),
                weight: 1,
            }]),
            TraceSource::Record(dir) => {
                let trace = generated(bench, seed, cycles);
                let path = Self::trace_path(dir, bench, seed, cycles);
                // Every chip × scheme × voltage cell of the benchmark
                // resolves this path, often on parallel sweep workers:
                // the claim lets exactly one of them write and count it.
                if claim_record(&path) && !path.is_file() {
                    trace_bin::write_trace_file(&path, &trace)
                        .map_err(|e| format!("recording {}: {e}", path.display()))?;
                    telemetry::add(Counter::TracesRecorded, 1);
                }
                Ok(vec![Segment { trace, weight: 1 }])
            }
            TraceSource::Replay(dir) => {
                let path = Self::trace_path(dir, bench, seed, cycles);
                let trace = memo_trace(&path)?;
                if trace.len() != cycles {
                    return Err(format!(
                        "{}: recorded trace has {} instructions, cell wants {cycles}",
                        path.display(),
                        trace.len()
                    ));
                }
                telemetry::add(Counter::TraceReplays, 1);
                telemetry::add(Counter::ReplayedInstructions, trace.len() as u64);
                Ok(vec![Segment { trace, weight: 1 }])
            }
            TraceSource::Phases(dir) => {
                let set = memo_phases(dir, bench, seed, cycles)?;
                telemetry::add(Counter::PhaseReplays, 1);
                telemetry::add(Counter::PhaseInstructions, set.simulated_instructions());
                Ok(set
                    .phases
                    .iter()
                    .map(|p| Segment {
                        trace: Arc::new(p.slice.clone()),
                        weight: p.weight,
                    })
                    .collect())
            }
        }
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::Generator => f.write_str("generator"),
            TraceSource::Record(d) => write!(f, "record:{}", d.display()),
            TraceSource::Replay(d) => write!(f, "replay:{}", d.display()),
            TraceSource::Phases(d) => write!(f, "phases:{}", d.display()),
        }
    }
}

/// Process-wide decoded-trace memo: a grid touches each trace file once
/// per (chip × scheme × voltage) cell, and a process touches only a
/// handful of distinct files, so an unbounded map is fine.
static TRACE_MEMO: Mutex<Option<HashMap<PathBuf, Arc<Vec<Instruction>>>>> = Mutex::new(None);
type PhaseCell = Arc<Mutex<Option<Arc<PhaseSet>>>>;

/// Same, for sampled phase sets: one cell per file, locked while its
/// set is loaded or sampled, so exactly one thread samples and writes
/// each `.ntp` file.
static PHASE_MEMO: Mutex<Option<HashMap<PathBuf, PhaseCell>>> = Mutex::new(None);
/// Trace files a [`TraceSource::Record`] cell has claimed in this process.
static RECORD_CLAIMS: Mutex<Option<HashSet<PathBuf>>> = Mutex::new(None);

/// Claim `path` for recording: true for the first caller in this process,
/// false for every later one.
fn claim_record(path: &Path) -> bool {
    RECORD_CLAIMS
        .lock()
        .expect("record claims poisoned")
        .get_or_insert_with(HashSet::new)
        .insert(path.to_path_buf())
}

fn memo_trace(path: &Path) -> Result<Arc<Vec<Instruction>>, String> {
    if let Some(hit) = TRACE_MEMO
        .lock()
        .expect("trace memo poisoned")
        .get_or_insert_with(HashMap::new)
        .get(path)
    {
        return Ok(hit.clone());
    }
    let trace = Arc::new(
        trace_bin::read_trace_file(path).map_err(|e| format!("{}: {e}", path.display()))?,
    );
    TRACE_MEMO
        .lock()
        .expect("trace memo poisoned")
        .get_or_insert_with(HashMap::new)
        .insert(path.to_path_buf(), trace.clone());
    Ok(trace)
}

fn memo_phases(
    dir: &Path,
    bench: Benchmark,
    seed: u64,
    cycles: usize,
) -> Result<Arc<PhaseSet>, String> {
    let path = TraceSource::phases_path(dir, bench, seed, cycles);
    let cell = PHASE_MEMO
        .lock()
        .expect("phase memo poisoned")
        .get_or_insert_with(HashMap::new)
        .entry(path.clone())
        .or_default()
        .clone();
    let mut slot = cell.lock().expect("phase memo poisoned");
    if let Some(hit) = slot.as_ref() {
        return Ok(hit.clone());
    }
    let set = if path.is_file() {
        Arc::new(
            simpoint::read_phases_file(&path).map_err(|e| format!("{}: {e}", path.display()))?,
        )
    } else {
        // Sample from the recorded trace and cache the result on disk —
        // deterministic, so every process derives the same phases.
        let trace = memo_trace(&TraceSource::trace_path(dir, bench, seed, cycles))?;
        let set = Arc::new(simpoint::sample_phases(
            &trace,
            simpoint::interval_len_for(cycles),
            DEFAULT_K,
            seed,
        ));
        simpoint::write_phases_file(&path, &set)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        set
    };
    *slot = Some(set.clone());
    Ok(set)
}

thread_local! {
    /// The last trace [`generated`] on this thread, with its key.
    static LAST_GENERATED: RefCell<Option<GeneratedTrace>> = const { RefCell::new(None) };
}

type GeneratedTrace = ((Benchmark, u64, usize), Arc<Vec<Instruction>>);

/// The generator trace of one cell, shared with the previous cell on
/// this thread when both ask for the same `(bench, seed, cycles)`.
///
/// A grid runs a benchmark's chips back to back, so consecutive cells
/// usually want the same trace (a pure function of its key). Reusing it
/// saves the regeneration. Dropping the previous trace only just before
/// the next one is collected hands its memory straight to the new trace:
/// a multi-megabyte trace freed per cell and reallocated after the next
/// chip's allocations fragments the heap, keeping a second trace's worth
/// of memory resident at full scale.
fn generated(bench: Benchmark, seed: u64, cycles: usize) -> Arc<Vec<Instruction>> {
    LAST_GENERATED.with(|slot| {
        let mut slot = slot.borrow_mut();
        match slot.as_ref() {
            Some((key, trace)) if *key == (bench, seed, cycles) => trace.clone(),
            _ => {
                let mut generator = TraceGenerator::new(bench, seed);
                *slot = None;
                let trace = Arc::new(generator.trace(cycles));
                *slot = Some(((bench, seed, cycles), trace.clone()));
                trace
            }
        }
    })
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

/// The workload family of the counter table: record/replay traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Binary trace files newly written by [`TraceSource::Record`].
    pub traces_recorded: u64,
    /// Cells resolved by whole-trace replay.
    pub trace_replays: u64,
    /// Cells resolved by weighted-phase replay.
    pub phase_replays: u64,
    /// Instructions fed to simulators from whole-trace replays.
    pub replayed_instructions: u64,
    /// Instructions fed to simulators from phase replays (unweighted —
    /// the actual simulated work, the quantity the ≤20% sampling bound
    /// is about).
    pub phase_instructions: u64,
}

impl WorkloadStats {
    /// The counters as `(manifest key, value)` pairs, in table order.
    pub fn fields(&self) -> [(&'static str, u64); 5] {
        [
            (Counter::TracesRecorded, self.traces_recorded),
            (Counter::TraceReplays, self.trace_replays),
            (Counter::PhaseReplays, self.phase_replays),
            (Counter::ReplayedInstructions, self.replayed_instructions),
            (Counter::PhaseInstructions, self.phase_instructions),
        ]
        .map(|(c, v)| (c.name(), v))
    }
}

/// Drain the process-wide record/replay counters, resetting them to
/// zero.
pub fn take_stats() -> WorkloadStats {
    let c = telemetry::take(Family::Workload);
    WorkloadStats {
        traces_recorded: c[Counter::TracesRecorded],
        trace_replays: c[Counter::TraceReplays],
        phase_replays: c[Counter::PhaseReplays],
        replayed_instructions: c[Counter::ReplayedInstructions],
        phase_instructions: c[Counter::PhaseInstructions],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ntc-source-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("test dir");
        dir
    }

    #[test]
    fn consecutive_cells_share_one_generated_trace() {
        let a = generated(Benchmark::Gzip, 3, 500);
        let b = generated(Benchmark::Gzip, 3, 500);
        assert!(Arc::ptr_eq(&a, &b), "same key on one thread: one trace");
        let c = generated(Benchmark::Mcf, 3, 500);
        assert_eq!(*a, TraceGenerator::new(Benchmark::Gzip, 3).trace(500));
        assert_eq!(*c, TraceGenerator::new(Benchmark::Mcf, 3).trace(500));
    }

    #[test]
    fn record_then_replay_reproduces_the_generator_stream() {
        let dir = test_dir("roundtrip");
        let source = TraceSource::Record(dir.clone());
        let recorded = source.segments(Benchmark::Mcf, 21, 600).expect("record");
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].weight, 1);
        let generated = TraceGenerator::new(Benchmark::Mcf, 21).trace(600);
        assert_eq!(*recorded[0].trace, generated, "record simulates the generated stream");

        let replayed = TraceSource::Replay(dir.clone())
            .segments(Benchmark::Mcf, 21, 600)
            .expect("replay");
        assert_eq!(*replayed[0].trace, generated, "replay decodes the same stream");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_refuses_missing_and_wrong_length_traces() {
        let dir = test_dir("refuse");
        let missing = TraceSource::Replay(dir.clone()).segments(Benchmark::Gap, 1, 500);
        assert!(missing.is_err(), "missing file is an error");
        // A file whose recorded length disagrees with the cell (here: a
        // 500-instruction trace renamed to the 400-cycle cell's path) is
        // refused, not padded or truncated.
        TraceSource::Record(dir.clone())
            .segments(Benchmark::Gap, 1, 500)
            .expect("record");
        std::fs::rename(
            TraceSource::trace_path(&dir, Benchmark::Gap, 1, 500),
            TraceSource::trace_path(&dir, Benchmark::Gap, 1, 400),
        )
        .expect("rename to mismatched cell");
        let wrong = TraceSource::Replay(dir.clone()).segments(Benchmark::Gap, 1, 400);
        let msg = wrong.expect_err("length mismatch is an error");
        assert!(msg.contains("500") && msg.contains("400"), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn phases_sample_cache_and_reload() {
        let dir = test_dir("phases");
        TraceSource::Record(dir.clone())
            .segments(Benchmark::Vortex, 3, 5_000)
            .expect("record");
        let source = TraceSource::Phases(dir.clone());
        let first = source.segments(Benchmark::Vortex, 3, 5_000).expect("sample");
        let path = TraceSource::phases_path(&dir, Benchmark::Vortex, 3, 5_000);
        assert!(path.is_file(), "phase set cached on disk");
        let total: u64 = first.iter().map(|s| s.weight).sum();
        assert_eq!(total, 50, "weights cover every interval");
        let simulated: usize = first.iter().map(|s| s.trace.len()).sum();
        assert!(
            simulated * 5 <= 5_000,
            "phases simulate ≤20% of the trace ({simulated} of 5000)"
        );
        // A reload (fresh memo path exercised via the file) agrees.
        let reloaded = simpoint::read_phases_file(&path).expect("reload");
        assert_eq!(reloaded.total_weight(), 50);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn canon_tags_alias_record_to_generator() {
        let d = PathBuf::from("/tmp/x");
        assert_eq!(TraceSource::Generator.canon_tag(), "generator");
        assert_eq!(TraceSource::Record(d.clone()).canon_tag(), "generator");
        assert_eq!(TraceSource::Replay(d.clone()).canon_tag(), "replay");
        assert_eq!(TraceSource::Phases(d).canon_tag(), "phases");
    }
}
