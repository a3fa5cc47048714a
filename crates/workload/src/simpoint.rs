//! SimPoint-style phase sampling: pick a few weighted representative
//! slices of a long trace so simulating the slices estimates the full
//! run.
//!
//! The pass follows the classic SimPoint recipe (Sherwood et al.),
//! adapted to the statistical workloads here:
//!
//! 1. slice the trace into fixed-size **intervals**;
//! 2. summarize each interval as an **opcode-mix vector** (the normalized
//!    frequency of each ISA opcode — the stand-in for basic-block
//!    vectors, and exactly the feature that drives both the ALU datapath
//!    mix and the error-tag population);
//! 3. cluster the vectors with a hand-rolled, seeded **k-means**
//!    (SplitMix64 initialisation — no external deps, and the same seed
//!    always produces the same phases);
//! 4. emit one **representative interval per cluster**, weighted by the
//!    cluster's size.
//!
//! Simulating each representative and folding its [`SimResult`] into the
//! accumulator `weight` times (see `SimAccumulator::push_weighted` in
//! `ntc-core`) then estimates the full-trace counters at a fraction of
//! the simulated instructions. The estimate is an approximation — each
//! phase replays from a fresh scheme state, so cross-phase learning is
//! lost — which is why the conformance suite pins a tolerance rather
//! than byte-identity.
//!
//! [`SimResult`]: ../ntc_core/sim/struct.SimResult.html

use crate::trace_bin::{self, fnv1a64, push_record, read_record, TraceBinError, RECORD_BYTES};
use ntc_isa::{Instruction, ALL_OPCODES};
use ntc_varmodel::rng::SplitMix64;
use std::path::Path;

/// Default cluster count: at most this many representative phases.
pub const DEFAULT_K: usize = 8;

/// Maximum k-means refinement iterations (assignments converge long
/// before this on the interval counts involved).
const MAX_ITERS: usize = 64;

/// The canonical interval length for a trace of `cycles` instructions:
/// ~2% of the trace, floored so intervals stay long enough for the
/// pairwise simulators (which need at least two instructions) and for
/// the mix vectors to be meaningful.
pub fn interval_len_for(cycles: usize) -> usize {
    (cycles / 50).max(100)
}

/// One representative slice of the trace plus its cluster weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// The representative interval's instructions.
    pub slice: Vec<Instruction>,
    /// How many intervals this phase stands for (cluster size).
    pub weight: u64,
}

/// The output of the sampling pass: weighted representative phases of
/// one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSet {
    /// Interval length the trace was sliced with.
    pub interval_len: usize,
    /// Length of the full trace the phases were sampled from.
    pub total_instructions: u64,
    /// Representative phases, ordered by their interval position in the
    /// source trace.
    pub phases: Vec<Phase>,
}

impl PhaseSet {
    /// Total weight — the number of intervals the phases stand for.
    pub fn total_weight(&self) -> u64 {
        self.phases.iter().map(|p| p.weight).sum()
    }

    /// Instructions actually simulated when replaying the phases once
    /// each (the cost side of the sampling trade).
    pub fn simulated_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.slice.len() as u64).sum()
    }
}

/// The opcode-mix feature vector of one interval: normalized frequency
/// per ISA opcode.
fn mix_vector(interval: &[Instruction]) -> Vec<f64> {
    let mut counts = vec![0u64; ALL_OPCODES.len()];
    for i in interval {
        counts[i.opcode.encoding() as usize] += 1;
    }
    let n = interval.len().max(1) as f64;
    counts.into_iter().map(|c| c as f64 / n).collect()
}

/// Squared Euclidean distance between two equal-length vectors.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Slice `trace` into `interval_len`-sized intervals, cluster their
/// opcode-mix vectors into at most `k` groups with seeded k-means, and
/// return one weighted representative per non-empty cluster.
///
/// The trailing partial interval (fewer than `interval_len`
/// instructions) is dropped, exactly as SimPoint drops it; weights sum
/// to the number of *full* intervals. Deterministic: the same
/// `(trace, interval_len, k, seed)` always yields the same phases.
///
/// # Panics
///
/// Panics if `interval_len` is zero, `k` is zero, or the trace is
/// shorter than one interval.
pub fn sample_phases(trace: &[Instruction], interval_len: usize, k: usize, seed: u64) -> PhaseSet {
    assert!(interval_len > 0, "interval length must be positive");
    assert!(k > 0, "cluster count must be positive");
    let n_intervals = trace.len() / interval_len;
    assert!(
        n_intervals > 0,
        "trace of {} instructions is shorter than one interval ({interval_len})",
        trace.len()
    );
    let vectors: Vec<Vec<f64>> = (0..n_intervals)
        .map(|i| mix_vector(&trace[i * interval_len..(i + 1) * interval_len]))
        .collect();
    let k = k.min(n_intervals);

    // k-means++-lite initialisation: first centroid uniform, each later
    // one the interval farthest from its nearest chosen centroid (ties
    // to the lowest index — deterministic).
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut centroid_idx = vec![rng.gen_index(n_intervals)];
    while centroid_idx.len() < k {
        let far = (0..n_intervals)
            .filter(|i| !centroid_idx.contains(i))
            .max_by(|&a, &b| {
                let da = centroid_idx.iter().map(|&c| dist2(&vectors[a], &vectors[c]));
                let db = centroid_idx.iter().map(|&c| dist2(&vectors[b], &vectors[c]));
                let da = da.fold(f64::INFINITY, f64::min);
                let db = db.fold(f64::INFINITY, f64::min);
                da.total_cmp(&db).then(b.cmp(&a))
            })
            .expect("k <= n_intervals leaves a candidate");
        centroid_idx.push(far);
    }
    let mut centroids: Vec<Vec<f64>> = centroid_idx.iter().map(|&i| vectors[i].clone()).collect();

    // Lloyd refinement until the assignment is stable.
    let mut assignment = vec![0usize; n_intervals];
    for _ in 0..MAX_ITERS {
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let best = (0..centroids.len())
                .min_by(|&a, &b| {
                    dist2(v, &centroids[a])
                        .total_cmp(&dist2(v, &centroids[b]))
                        .then(a.cmp(&b))
                })
                .expect("at least one centroid");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        for (c, centroid) in centroids.iter_mut().enumerate() {
            let members: Vec<&Vec<f64>> = vectors
                .iter()
                .zip(&assignment)
                .filter(|(_, &a)| a == c)
                .map(|(v, _)| v)
                .collect();
            if members.is_empty() {
                continue; // empty cluster keeps its centroid; dropped below
            }
            for (d, slot) in centroid.iter_mut().enumerate() {
                *slot = members.iter().map(|v| v[d]).sum::<f64>() / members.len() as f64;
            }
        }
    }

    // Representative per non-empty cluster: the member closest to the
    // centroid (ties to the earliest interval), weight = cluster size.
    let mut reps: Vec<(usize, u64)> = Vec::new();
    for (c, centroid) in centroids.iter().enumerate() {
        let mut best: Option<(usize, f64)> = None;
        let mut size = 0u64;
        for (i, v) in vectors.iter().enumerate() {
            if assignment[i] != c {
                continue;
            }
            size += 1;
            let d = dist2(v, centroid);
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((i, d));
            }
        }
        if let Some((i, _)) = best {
            reps.push((i, size));
        }
    }
    reps.sort_by_key(|&(i, _)| i);

    PhaseSet {
        interval_len,
        total_instructions: trace.len() as u64,
        phases: reps
            .into_iter()
            .map(|(i, weight)| Phase {
                slice: trace[i * interval_len..(i + 1) * interval_len].to_vec(),
                weight,
            })
            .collect(),
    }
}

// ---------------------------------------------------------------------
// Phase-set serialization (same artifact discipline as trace_bin)
// ---------------------------------------------------------------------

/// Leading magic of every phase-set file.
pub const PHASES_MAGIC: &[u8; 8] = b"NTCPHAS1";

/// Phase-set format version.
pub const PHASES_VERSION: u64 = 1;

/// Encode a phase set: magic, version, interval length, total trace
/// instructions, phase count, per-phase (weight, slice length, records),
/// trailing FNV-1a checksum.
pub fn encode_phases(set: &PhaseSet) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(PHASES_MAGIC);
    out.extend_from_slice(&PHASES_VERSION.to_le_bytes());
    out.extend_from_slice(&(set.interval_len as u64).to_le_bytes());
    out.extend_from_slice(&set.total_instructions.to_le_bytes());
    out.extend_from_slice(&(set.phases.len() as u64).to_le_bytes());
    for p in &set.phases {
        out.extend_from_slice(&p.weight.to_le_bytes());
        out.extend_from_slice(&(p.slice.len() as u64).to_le_bytes());
        for i in &p.slice {
            push_record(&mut out, i);
        }
    }
    let sum = fnv1a64(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode a phase set, verifying structure and the trailing checksum.
///
/// # Errors
///
/// Any structural violation yields the corresponding [`TraceBinError`]
/// (the phase format shares the trace format's error vocabulary).
pub fn decode_phases(bytes: &[u8]) -> Result<PhaseSet, TraceBinError> {
    let header = 8 + 8 + 8 + 8 + 8;
    if bytes.len() < header + 8 {
        return Err(TraceBinError::Truncated {
            expected: header + 8,
            actual: bytes.len(),
        });
    }
    if &bytes[0..8] != PHASES_MAGIC {
        return Err(TraceBinError::BadMagic);
    }
    let (body, trailer) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(trailer.try_into().expect("8 trailer bytes"));
    if fnv1a64(body) != stored {
        return Err(TraceBinError::ChecksumMismatch);
    }
    let u64_at = |at: usize| -> Option<u64> {
        Some(u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?))
    };
    let version = u64_at(8).expect("header length checked");
    if version != PHASES_VERSION {
        return Err(TraceBinError::BadVersion(version));
    }
    let interval_len = u64_at(16).expect("header length checked") as usize;
    let total_instructions = u64_at(24).expect("header length checked");
    let n_phases = u64_at(32).expect("header length checked");
    let mut pos = header;
    let mut phases = Vec::new();
    let truncated = || TraceBinError::Truncated {
        expected: bytes.len() + 1,
        actual: bytes.len(),
    };
    for _ in 0..n_phases {
        let weight = u64_at(pos).ok_or_else(truncated)?;
        let len = usize::try_from(u64_at(pos + 8).ok_or_else(truncated)?)
            .map_err(|_| truncated())?;
        pos += 16;
        // Bound the file-supplied length by the bytes actually present
        // before allocating for it: a checksum-valid file may still lie.
        let needed = len.saturating_mul(RECORD_BYTES);
        if needed > body.len().saturating_sub(pos) {
            return Err(TraceBinError::Truncated {
                expected: pos.saturating_add(needed).saturating_add(8),
                actual: bytes.len(),
            });
        }
        let mut slice = Vec::with_capacity(len);
        for r in 0..len {
            let rec = body.get(pos..pos + RECORD_BYTES).ok_or_else(truncated)?;
            slice.push(read_record(rec, r)?);
            pos += RECORD_BYTES;
        }
        phases.push(Phase { slice, weight });
    }
    if pos != body.len() {
        return Err(TraceBinError::TrailingBytes);
    }
    Ok(PhaseSet {
        interval_len,
        total_instructions,
        phases,
    })
}

/// Write a phase-set file atomically (temp + rename).
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_phases_file(path: &Path, set: &PhaseSet) -> std::io::Result<()> {
    trace_bin::write_atomic(path, &encode_phases(set))
}

/// Read and decode a phase-set file.
///
/// # Errors
///
/// Propagates I/O failures and every decode error of [`decode_phases`].
pub fn read_phases_file(path: &Path) -> Result<PhaseSet, TraceBinError> {
    decode_phases(&std::fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, TraceGenerator, ALL_BENCHMARKS};

    #[test]
    fn sampling_is_deterministic_and_weights_cover_all_intervals() {
        let trace = TraceGenerator::new(Benchmark::Gap, 3).trace(5_000);
        let a = sample_phases(&trace, 100, DEFAULT_K, 1);
        let b = sample_phases(&trace, 100, DEFAULT_K, 1);
        assert_eq!(a, b, "same inputs, same phases");
        assert_eq!(a.total_weight(), 50, "weights sum to the interval count");
        assert!(a.phases.len() <= DEFAULT_K);
        assert!(!a.phases.is_empty());
        for p in &a.phases {
            assert_eq!(p.slice.len(), 100);
            assert!(p.weight >= 1);
        }
        // The cost side: at most k intervals simulated.
        assert!(a.simulated_instructions() <= (DEFAULT_K * 100) as u64);
    }

    #[test]
    fn more_clusters_than_intervals_degrades_to_full_coverage() {
        let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(400);
        let set = sample_phases(&trace, 100, 16, 7);
        // k clamps to the interval count. Intervals with identical mix
        // vectors may still merge, so weights cover every interval but
        // the phase count can be below the clamp.
        assert_eq!(set.total_weight(), 4);
        assert!(!set.phases.is_empty() && set.phases.len() <= 4);
        assert!(set.simulated_instructions() <= 400);
        assert!(set.simulated_instructions().is_multiple_of(100));
    }

    #[test]
    fn weighted_mix_approximates_the_full_trace_mix() {
        // The whole point of the pass: the weighted opcode mix of the
        // representatives tracks the full trace's mix.
        for bench in ALL_BENCHMARKS {
            let trace = TraceGenerator::new(bench, 11).trace(20_000);
            let set = sample_phases(&trace, interval_len_for(20_000), DEFAULT_K, 11);
            let full = mix_vector(&trace);
            let mut est = vec![0.0f64; full.len()];
            let total_w = set.total_weight() as f64;
            for p in &set.phases {
                let v = mix_vector(&p.slice);
                for (e, x) in est.iter_mut().zip(&v) {
                    *e += x * p.weight as f64 / total_w;
                }
            }
            let err: f64 = full
                .iter()
                .zip(&est)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>();
            // L1 distance between two distributions is at most 2.0; the
            // weighted estimate stays an order of magnitude tighter.
            assert!(err < 0.2, "{bench}: L1 mix error {err:.4}");
        }
    }

    #[test]
    fn phase_file_roundtrip_and_corruption_detection() {
        let trace = TraceGenerator::new(Benchmark::Vortex, 5).trace(2_000);
        let set = sample_phases(&trace, 200, 4, 2);
        let bytes = encode_phases(&set);
        assert_eq!(decode_phases(&bytes).expect("decode"), set);
        // Every proper prefix fails.
        for len in (0..bytes.len()).step_by(7) {
            assert!(decode_phases(&bytes[..len]).is_err(), "prefix {len}");
        }
        // A flipped byte fails the checksum.
        let mut bad = bytes.clone();
        bad[40] ^= 1;
        assert!(decode_phases(&bad).is_err());

        let dir = std::env::temp_dir().join(format!("ntc-phases-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("p.ntp");
        write_phases_file(&path, &set).expect("write");
        assert_eq!(read_phases_file(&path).expect("read"), set);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn huge_slice_length_is_truncated_not_allocated() {
        // A checksum-valid file whose first slice claims u64::MAX / 64
        // records: decoding must refuse it before reserving the memory.
        let mut body = Vec::new();
        body.extend_from_slice(PHASES_MAGIC);
        for field in [PHASES_VERSION, 100, 1_000, 1, 1, u64::MAX / 64] {
            body.extend_from_slice(&field.to_le_bytes());
        }
        let sum = fnv1a64(&body);
        body.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_phases(&body),
            Err(TraceBinError::Truncated { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "shorter than one interval")]
    fn undersized_traces_are_rejected() {
        let trace = TraceGenerator::new(Benchmark::Mcf, 1).trace(50);
        let _ = sample_phases(&trace, 100, 4, 0);
    }
}
