//! The grid engine, outside in: the same cells, in the same order, through
//! the same public layer functions as `run_grid_uncached`, with one span
//! per `build_oracle`, trace-source resolve and `run_scheme` call.
//!
//! The folded rows are encoded into a grid-cache artifact byte for byte
//! the way `cache::store` would write them, for the library's own
//! `cache::load` to decode (see `trace_and_load` in `main.rs`).

use crate::kernel::{self, ChipKey};
use crate::spans::span;
use ntc_core::scenario::{ChipContext, SchemeSpec, SimAccumulator};
use ntc_core::scheme::{CycleContext, CycleOutcome, ResilienceScheme};
use ntc_core::sim::{run_scheme, SimResult};
use ntc_core::tag_delay::{
    set_oracle_scope, OracleConfig, OracleScope, OracleStats, TagDelayOracle,
};
use ntc_experiments::cache::{self, fnv1a64, key_preimage};
use ntc_experiments::config::{build_hardened_oracle, build_oracle};
use ntc_experiments::runner::sweep_over;
use ntc_experiments::scenario::{expand, fold_cells, screen_run_order, GridSpec};
use ntc_isa::{ErrorTag, Instruction};
use ntc_pipeline::Pipeline;
use ntc_timing::ClockSpec;
use ntc_varmodel::OperatingPoint;
use ntc_workload::Benchmark;
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Instructions handed to `run_scheme` (trace length per call).
pub static INSTR: AtomicU64 = AtomicU64::new(0);
/// Instructions produced by the trace source (segment lengths per cell).
pub static SOURCE_INSTR: AtomicU64 = AtomicU64::new(0);
/// Gate-level simulations observed inside traced cells.
pub static CELL_SIMS: AtomicU64 = AtomicU64::new(0);
/// Time of traced grid cells, summed over sweep workers.
pub static GRID_BUSY_NS: AtomicU64 = AtomicU64::new(0);
/// Wall time of traced grid sweeps.
pub static GRID_WALL_NS: AtomicU64 = AtomicU64::new(0);

type Row = (Benchmark, OperatingPoint, Vec<SimAccumulator>);
type Key = (ErrorTag, u32);
type Pair = (Instruction, Instruction);

/// The oracle's `(tag, bucket)` key of a pair: the same FNV fold over the
/// four operands that `TagDelayOracle` buckets with.
fn oracle_key(prev: &Instruction, cur: &Instruction) -> Key {
    let buckets = OracleConfig::default().buckets_per_tag;
    let bucket = if buckets <= 1 {
        0
    } else {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for v in [prev.a, prev.b, cur.a, cur.b] {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        (h % buckets as u64) as u32
    };
    (ErrorTag::of(prev, cur), bucket)
}

/// What one oracle has resolved, as far as the capture can see: the first
/// pair of every screened bucket (the pair a later fallback simulates)
/// and the buckets already simulated.
#[derive(Default)]
struct Shadow {
    first: HashMap<Key, Pair>,
    simulated: HashSet<Key>,
}

/// A transparent scheme wrapper that records which operand pairs the
/// oracle had to simulate. `run_scheme` resolves pair `(i, i+1)` just
/// before it hands cycle `i` to the scheme, so the counters read in
/// `on_cycle` say what that lookup did. Reading the counters is a handful
/// of atomic loads: no timer runs per lookup.
struct Probe<'a> {
    inner: Box<dyn ResilienceScheme>,
    trace: &'a [Instruction],
    scope: &'a OracleScope,
    shadow: &'a mut Shadow,
    out: &'a mut Vec<Instruction>,
    cycle: usize,
    last: OracleStats,
}

impl Probe<'_> {
    fn record(&mut self, pairs: &[Pair], now: OracleStats) {
        let mut sims = now.gate_sims - self.last.gate_sims;
        let fallbacks = now.screen_fallbacks - self.last.screen_fallbacks;
        let screened = now.screen_hits - self.last.screen_hits;
        self.last = now;
        if screened > 0 {
            for &(p, c) in pairs {
                self.shadow
                    .first
                    .entry(oracle_key(&p, &c))
                    .or_insert((p, c));
            }
        }
        for (n, &(p, c)) in pairs.iter().enumerate() {
            if sims == 0 {
                break;
            }
            let key = oracle_key(&p, &c);
            // Two lookups precede the first observation of a run: when
            // there are fewer simulations than lookups, skip a lookup
            // whose bucket was already resolved exactly.
            if (sims as usize) < pairs.len() - n && self.shadow.simulated.contains(&key) {
                continue;
            }
            let (sp, sc) = if fallbacks > 0 {
                self.shadow.first.get(&key).copied().unwrap_or((p, c))
            } else {
                (p, c)
            };
            self.shadow.simulated.insert(key);
            self.out.push(sp);
            self.out.push(sc);
            sims -= 1;
        }
    }
}

impl ResilienceScheme for Probe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_cycle(&mut self, ctx: &CycleContext<'_>) -> CycleOutcome {
        self.cycle += 1;
        let now = self.scope.snapshot();
        if now.gate_sims != self.last.gate_sims
            || now.screen_hits != self.last.screen_hits
            || now.screen_fallbacks != self.last.screen_fallbacks
        {
            let t = self.trace;
            let i = self.cycle;
            let mut pairs: Vec<Pair> = Vec::with_capacity(2);
            if i == 1 {
                pairs.push((t[0], t[1]));
            }
            if i + 1 < t.len() {
                pairs.push((t[i], t[i + 1]));
            }
            self.record(&pairs, now);
        }
        self.inner.on_cycle(ctx)
    }

    fn period_stretch(&self) -> f64 {
        self.inner.period_stretch()
    }

    fn screen_clock(&self, base: ClockSpec) -> ClockSpec {
        self.inner.screen_clock(base)
    }

    fn power_overhead_frac(&self) -> f64 {
        self.inner.power_overhead_frac()
    }
}

/// One oracle of a cell, with its chip identity and capture state.
struct CellOracle {
    key: ChipKey,
    oracle: TagDelayOracle,
    static_critical: f64,
    shadow: Shadow,
    captured: Vec<Instruction>,
}

fn built(key: ChipKey, build: impl FnOnce() -> TagDelayOracle) -> CellOracle {
    let oracle = span("experiments.config", build);
    kernel::register_chip(&key, &oracle);
    let static_critical = oracle.static_critical_delay_ps();
    CellOracle {
        key,
        oracle,
        static_critical,
        shadow: Shadow::default(),
        captured: Vec::new(),
    }
}

type CellOut = (Vec<Vec<(SimResult, u64)>>, Vec<(ChipKey, Vec<Instruction>)>);

/// `run_cell` of the scenario engine, layer by layer.
fn traced_cell(
    spec: &GridSpec,
    bench: Benchmark,
    point: OperatingPoint,
    chip: usize,
    need_buffered: bool,
) -> CellOut {
    let regime = spec.regime.params();
    let seed = spec.chip_seed_base + chip as u64;
    let corner = point.corner();
    let chip_key = |buffered: bool, top_k: usize| ChipKey {
        regime: spec.regime.name(),
        point: point.name(),
        seed,
        buffered,
        top_k,
    };
    let mut bare = built(chip_key(false, 0), || {
        build_oracle(corner, seed, false, regime)
    });
    let mut buffered = need_buffered.then(|| {
        built(chip_key(true, 0), || {
            build_oracle(corner, seed, true, regime)
        })
    });
    let nominal = bare.oracle.nominal_critical_delay_ps();
    let clock = regime.clock(nominal);
    let tdc_clock = regime.tdc_clock(nominal);
    let mut hardened: Vec<(usize, CellOracle)> = Vec::new();
    let segments = span("workload", || {
        spec.source.segments(bench, spec.trace_seed, spec.cycles)
    })
    .unwrap_or_else(|e| {
        panic!(
            "trace source {} cannot resolve {}: {e}",
            spec.source,
            bench.name()
        )
    });
    let scope = Arc::new(OracleScope::default());
    let prev_scope = set_oracle_scope(Some(scope.clone()));
    let mut results: Vec<Vec<(SimResult, u64)>> = vec![Vec::new(); spec.schemes.len()];
    for segment in &segments {
        SOURCE_INSTR.fetch_add(segment.trace.len() as u64, Ordering::Relaxed);
        for i in screen_run_order(&spec.schemes) {
            let s = &spec.schemes[i];
            let cell_oracle = if let Some(top_k) = s.hardened_top_k() {
                let idx = match hardened.iter().position(|(k, _)| *k == top_k) {
                    Some(idx) => idx,
                    None => {
                        let wants = s.wants_buffered_netlist();
                        hardened.push((
                            top_k,
                            built(chip_key(wants, top_k), || {
                                build_hardened_oracle(corner, seed, wants, regime, top_k)
                            }),
                        ));
                        hardened.len() - 1
                    }
                };
                &mut hardened[idx].1
            } else if s.wants_buffered_netlist() {
                buffered.as_mut().expect("buffered oracle built on demand")
            } else {
                &mut bare
            };
            let scheme_clock = if s.uses_tdc_clock() { tdc_clock } else { clock };
            let ctx = ChipContext {
                static_critical_delay_ps: cell_oracle.static_critical,
                clock: scheme_clock,
                trace_len: segment.trace.len(),
                point,
            };
            INSTR.fetch_add(segment.trace.len() as u64, Ordering::Relaxed);
            let CellOracle {
                oracle,
                shadow,
                captured,
                ..
            } = cell_oracle;
            let mut probe = Probe {
                inner: s.build(&ctx),
                trace: &segment.trace,
                scope: &scope,
                shadow,
                out: captured,
                cycle: 0,
                last: scope.snapshot(),
            };
            let result = span("core.sim", || {
                run_scheme(
                    &mut probe,
                    oracle,
                    &segment.trace,
                    scheme_clock,
                    Pipeline::core1(),
                )
            });
            results[i].push((result, segment.weight));
        }
    }
    set_oracle_scope(prev_scope);
    CELL_SIMS.fetch_add(scope.snapshot().gate_sims, Ordering::Relaxed);
    let mut captures = vec![(bare.key, bare.captured)];
    if let Some(b) = buffered {
        captures.push((b.key, b.captured));
    }
    captures.extend(hardened.into_iter().map(|(_, h)| (h.key, h.captured)));
    (results, captures)
}

/// Run `spec`'s cells through the sweep engine and fold them per row in
/// index order, exactly as `run_grid_uncached` does.
pub fn traced_rows(spec: &GridSpec) -> Vec<Row> {
    let need_buffered = spec.schemes.iter().any(SchemeSpec::wants_buffered_netlist);
    let groups = spec.row_groups();
    let grid = expand(&groups, spec.chips);
    let start = Instant::now();
    let cells = sweep_over(&grid, |_, &((bench, point), chip)| {
        let cell_start = Instant::now();
        let out = traced_cell(spec, bench, point, chip, need_buffered);
        GRID_BUSY_NS.fetch_add(cell_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    });
    GRID_WALL_NS.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    let mut results = Vec::with_capacity(cells.len());
    for (r, captures) in cells {
        for (key, pairs) in captures {
            kernel::add_capture(key, pairs);
        }
        results.push(r);
    }
    let rows = fold_cells(
        grid.iter().map(|&(g, _)| g),
        results,
        || vec![SimAccumulator::default(); spec.schemes.len()],
        |accs, results| {
            for (acc, segments) in accs.iter_mut().zip(&results) {
                for (r, w) in segments {
                    if *w == 1 {
                        acc.push(r);
                    } else {
                        acc.push_weighted(r, *w);
                    }
                }
            }
        },
    );
    rows.into_iter()
        .map(|((b, v), accs)| (b, v, accs))
        .collect()
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode folded rows as a grid-cache artifact (the `cache::encode`
/// layout: magic, key preimage, schemes, rows, trailing FNV-1a).
pub fn encode(spec: &GridSpec, rows: &[Row]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(b"NTCGRID1");
    let pre = key_preimage(spec);
    push_u64(&mut out, pre.len() as u64);
    out.extend_from_slice(&pre);
    push_u64(&mut out, spec.schemes.len() as u64);
    for s in &spec.schemes {
        push_str(&mut out, &s.name());
    }
    push_u64(&mut out, rows.len() as u64);
    for (bench, point, accs) in rows {
        push_str(&mut out, bench.name());
        push_str(&mut out, point.name());
        push_u64(&mut out, accs.len() as u64);
        for acc in accs {
            let p = acc.to_parts();
            match p.scheme {
                Some(name) => {
                    out.push(1);
                    push_str(&mut out, name);
                }
                None => out.push(0),
            }
            for v in [
                p.runs,
                p.cost.instructions,
                p.cost.stall_cycles,
                p.cost.flush_cycles,
                p.cost.flush_events,
                p.avoided,
                p.false_positives,
                p.recovered,
                p.corruptions,
                p.recovered_by_class.len() as u64,
            ] {
                push_u64(&mut out, v);
            }
            for c in p.recovered_by_class {
                push_u64(&mut out, c);
            }
            push_u64(&mut out, p.stretch_sum.to_bits());
            push_u64(&mut out, p.accuracy_sum.to_bits());
            push_u64(&mut out, p.power_overhead.to_bits());
        }
    }
    let sum = fnv1a64(&out);
    push_u64(&mut out, sum);
    out
}

/// Trace `spec` and write its artifact under `dir` (span
/// `experiments.cache.store`); returns the artifact bytes.
pub fn traced_grid(spec: &GridSpec, dir: &Path) -> Vec<u8> {
    let rows = span("grid", || traced_rows(spec));
    span("experiments.cache.store", || {
        let bytes = encode(spec, &rows);
        std::fs::create_dir_all(dir).expect("create artifact dir");
        std::fs::write(cache::artifact_path(dir, spec), &bytes).expect("write artifact");
        bytes
    })
}
