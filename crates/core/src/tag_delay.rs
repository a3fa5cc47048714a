//! The two-phase delay oracle linking the circuit layer to the
//! architecture layer — the paper's own flow: the statistical timing tool
//! produces cyclewise sensitized path delays (circuit layer), then the
//! timing-error simulation runs at instruction granularity over millions of
//! cycles (architecture layer).
//!
//! **Phase A (lazy, gate-level):** the first time a `(previous, current)`
//! instruction pair with a given operand bucket is seen, the two vectors
//! are pushed through the glitch-aware [`DynamicSim`](ntc_timing::DynamicSim) against the bound
//! chip signature, and the resulting min/max sensitized delays are cached.
//!
//! **Phase B (instruction-level):** subsequent occurrences replay the
//! cached delays. Because choke paths are a *permanent characteristic of a
//! chip instance* (§3.3), the same instruction pair sensitizing the same
//! paths reproduces the same delays — exactly the property the caching
//! exploits, and exactly why history-based prediction works at all.
//!
//! Within-tag variability (the reason prediction is not 100 % accurate) is
//! preserved: operand values hash into one of several buckets per tag, each
//! bucket simulated with its own real operands.

use ntc_isa::{ErrorTag, Instruction};
use ntc_netlist::generators::alu::Alu;
use ntc_netlist::Netlist;
use ntc_timing::{ClockSpec, ScreenBounds, ScreenVerdict, SimWorkspace};
use ntc_varmodel::{ChipSignature, Corner};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key of one entry in a [`SharedDelayCache`]: the tag plus the *full
/// operand words* of both instructions.
///
/// The shared table deliberately uses a finer key than the per-oracle
/// `(tag, bucket)` cache. A bucket aliases many operand pairs, so a
/// `(tag, bucket)` entry is path-dependent — it holds the delays of
/// whichever pair a given oracle happened to simulate first, which is part
/// of the modeled within-tag diversity and must stay private to each
/// oracle. The full-operand key, by contrast, pins down the gate-level
/// simulation inputs exactly, making the entry a pure function of the
/// chip: safe to share across experiments and threads.
pub type SharedDelayKey = (ErrorTag, u64, u64, u64, u64);

/// Number of independently locked shards in a [`ShardedDelayCache`]. A
/// power of two so the shard index is a mask of the key hash.
const CACHE_SHARDS: usize = 16;

/// An N-way hash-sharded delay table: each key maps (by hash) to one of
/// `CACHE_SHARDS` independently locked `HashMap`s, so Phase-A misses
/// from parallel sweep workers no longer serialize on a single mutex.
///
/// Shard choice cannot affect simulation results: every entry is a pure
/// function of the chip, each key always hashes to the same shard, and a
/// racing insert keeps the first writer's (identical) value — so the table
/// behaves observably like one big map, just with cheaper locks.
#[derive(Debug, Default)]
pub struct ShardedDelayCache {
    shards: [Mutex<HashMap<SharedDelayKey, CycleDelays>>; CACHE_SHARDS],
}

impl ShardedDelayCache {
    #[inline]
    fn shard(&self, key: &SharedDelayKey) -> &Mutex<HashMap<SharedDelayKey, CycleDelays>> {
        // DefaultHasher::new() is deterministic (fixed-key SipHash), unlike
        // a HashMap's per-instance RandomState.
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (CACHE_SHARDS - 1)]
    }

    /// Look up a cached delay pair.
    pub fn get(&self, key: &SharedDelayKey) -> Option<CycleDelays> {
        self.shard(key).lock().expect("delay cache poisoned").get(key).copied()
    }

    /// Insert unless present, keeping the first writer's entry on a race —
    /// the values are identical anyway (pure function of the chip).
    pub fn insert_if_absent(&self, key: SharedDelayKey, d: CycleDelays) {
        self.shard(&key)
            .lock()
            .expect("delay cache poisoned")
            .entry(key)
            .or_insert(d);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("delay cache poisoned").len())
            .sum()
    }

    /// True when no shard holds any entry.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.lock().expect("delay cache poisoned").is_empty())
    }
}

/// A delay table shared between oracles bound to the *same* fabricated
/// chip (same netlist + signature), so experiments replaying the same
/// instruction pairs reuse each other's Phase-A gate simulations instead
/// of repeating them.
///
/// Sharing is sound because a [`SharedDelayKey`] entry is a pure function
/// of the chip: whichever oracle simulates it first stores exactly the
/// value every other oracle would have computed from the same pair.
/// Results are therefore bit-identical with or without a shared cache, at
/// any thread count — only the number of gate-level simulations changes.
pub type SharedDelayCache = Arc<ShardedDelayCache>;

/// Cumulative oracle efficiency counters since the last
/// [`take_oracle_stats`] call, aggregated across every oracle in the
/// process (sweep workers included).
///
/// The struct doubles as the serialization contract for run telemetry:
/// [`OracleStats::fields`] enumerates the counters as stable
/// `(name, value)` pairs, so an encoder (the `repro` manifest writer)
/// never hard-codes field names that could drift from the struct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Phase-A gate-level simulations (cache misses all the way through).
    pub gate_sims: u64,
    /// Hits in per-oracle `(tag, bucket)` caches.
    pub local_hits: u64,
    /// Hits in the shared full-operand cache.
    pub shared_hits: u64,
    /// Queries answered by the conservative screen without running the
    /// exact kernel (fresh safe/quiet verdicts plus their replays).
    pub screen_hits: u64,
    /// Fresh screen consultations that came back inconclusive, forcing
    /// the exact kernel to run (a subset of `gate_sims`).
    pub screen_misses: u64,
    /// Queries on a screen-equipped oracle that bypassed the screen —
    /// the clock in force was incompatible with the screen thresholds, or
    /// the caller needed numeric delays — and ran/fetched the exact value.
    pub screen_fallbacks: u64,
    /// Static timing analyses
    /// ([`ntc_timing::StaticTiming::analyze`] passes).
    pub sta_full: u64,
}

impl OracleStats {
    /// Total delay queries answered.
    pub fn queries(&self) -> u64 {
        self.gate_sims + self.local_hits + self.shared_hits + self.screen_hits
    }

    /// The counters as stable `(field name, value)` pairs, in declaration
    /// order — the single source of truth for serializers.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("gate_sims", self.gate_sims),
            ("local_hits", self.local_hits),
            ("shared_hits", self.shared_hits),
            ("screen_hits", self.screen_hits),
            ("screen_misses", self.screen_misses),
            ("screen_fallbacks", self.screen_fallbacks),
            ("sta_full", self.sta_full),
            // Retired incremental-STA counters, kept at 0 so the manifest
            // and receipt key sets (read by perfbench) stay unchanged.
            ("sta_incremental", 0),
            ("incr_gates_touched", 0),
        ]
    }
}

impl std::ops::AddAssign for OracleStats {
    /// Counter-wise accumulation, e.g. folding per-experiment drains into
    /// a suite total.
    fn add_assign(&mut self, rhs: OracleStats) {
        self.gate_sims += rhs.gate_sims;
        self.local_hits += rhs.local_hits;
        self.shared_hits += rhs.shared_hits;
        self.screen_hits += rhs.screen_hits;
        self.screen_misses += rhs.screen_misses;
        self.screen_fallbacks += rhs.screen_fallbacks;
        self.sta_full += rhs.sta_full;
    }
}

static STAT_GATE_SIMS: AtomicU64 = AtomicU64::new(0);
static STAT_LOCAL_HITS: AtomicU64 = AtomicU64::new(0);
static STAT_SHARED_HITS: AtomicU64 = AtomicU64::new(0);
static STAT_SCREEN_HITS: AtomicU64 = AtomicU64::new(0);
static STAT_SCREEN_MISSES: AtomicU64 = AtomicU64::new(0);
static STAT_SCREEN_FALLBACKS: AtomicU64 = AtomicU64::new(0);

/// A per-run attribution scope for the oracle counters. While installed
/// on a thread (see [`set_oracle_scope`]), every increment additionally
/// lands in the scope, so a server interleaving jobs can attribute the
/// timing work each job caused without disturbing the process-wide
/// drain ([`take_oracle_stats`]) other callers rely on. The scope
/// carries its own [`ntc_timing::StaScope`] so one install covers the
/// whole timing stack, mirroring how the global drain folds
/// `take_sta_counters` in.
#[derive(Debug, Default)]
pub struct OracleScope {
    gate_sims: AtomicU64,
    local_hits: AtomicU64,
    shared_hits: AtomicU64,
    screen_hits: AtomicU64,
    screen_misses: AtomicU64,
    screen_fallbacks: AtomicU64,
    sta: std::sync::Arc<ntc_timing::StaScope>,
}

impl OracleScope {
    /// The counters accumulated in this scope so far (non-draining),
    /// with the STA counters of the embedded timing scope folded in.
    pub fn snapshot(&self) -> OracleStats {
        let sta = self.sta.snapshot();
        OracleStats {
            gate_sims: self.gate_sims.load(Ordering::Relaxed),
            local_hits: self.local_hits.load(Ordering::Relaxed),
            shared_hits: self.shared_hits.load(Ordering::Relaxed),
            screen_hits: self.screen_hits.load(Ordering::Relaxed),
            screen_misses: self.screen_misses.load(Ordering::Relaxed),
            screen_fallbacks: self.screen_fallbacks.load(Ordering::Relaxed),
            sta_full: sta.sta_full,
        }
    }
}

thread_local! {
    static ORACLE_SCOPE: std::cell::RefCell<Option<std::sync::Arc<OracleScope>>> =
        const { std::cell::RefCell::new(None) };
}

/// Install (or, with `None`, clear) the calling thread's oracle
/// attribution scope, returning the previous one so callers can restore
/// it. Also installs/clears the embedded [`ntc_timing::StaScope`] on the
/// same thread. Share one `Arc` across a run's worker threads to
/// aggregate their work.
pub fn set_oracle_scope(
    scope: Option<std::sync::Arc<OracleScope>>,
) -> Option<std::sync::Arc<OracleScope>> {
    ntc_timing::set_sta_scope(scope.as_ref().map(|s| s.sta.clone()));
    ORACLE_SCOPE.with(|s| s.replace(scope))
}

/// The calling thread's installed oracle scope, if any — what the sweep
/// runner captures before spawning workers so workers inherit it.
pub fn current_oracle_scope() -> Option<std::sync::Arc<OracleScope>> {
    ORACLE_SCOPE.with(|s| s.borrow().clone())
}

/// Bump a global oracle counter, mirroring the increment into the
/// thread's installed scope when one is present.
fn bump(global: &AtomicU64, pick: fn(&OracleScope) -> &AtomicU64) {
    global.fetch_add(1, Ordering::Relaxed);
    ORACLE_SCOPE.with(|s| {
        if let Some(scope) = s.borrow().as_ref() {
            pick(scope).fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Drain the process-wide [`OracleStats`] counters, resetting them to
/// zero — call once per run/experiment to report cache effectiveness.
/// Mirrors the runner's sweep-stats drain. The static-timing cost
/// counters live in `ntc-timing` (`take_sta_counters`) and are folded in
/// here, so one drain covers the whole timing stack.
pub fn take_oracle_stats() -> OracleStats {
    let sta = ntc_timing::take_sta_counters();
    OracleStats {
        gate_sims: STAT_GATE_SIMS.swap(0, Ordering::Relaxed),
        local_hits: STAT_LOCAL_HITS.swap(0, Ordering::Relaxed),
        shared_hits: STAT_SHARED_HITS.swap(0, Ordering::Relaxed),
        screen_hits: STAT_SCREEN_HITS.swap(0, Ordering::Relaxed),
        screen_misses: STAT_SCREEN_MISSES.swap(0, Ordering::Relaxed),
        screen_fallbacks: STAT_SCREEN_FALLBACKS.swap(0, Ordering::Relaxed),
        sta_full: sta.sta_full,
    }
}

/// Min/max sensitized delay of one simulated cycle, picoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleDelays {
    /// Earliest output transition (`None` when the cycle toggles nothing).
    pub min_ps: Option<f64>,
    /// Latest output transition.
    pub max_ps: Option<f64>,
}

/// Configuration of the oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleConfig {
    /// Operand buckets per tag: distinct gate-level samples kept for one
    /// `(prev, cur)` opcode+OWM tag. More buckets = finer within-tag
    /// delay diversity at more Phase-A cost.
    pub buckets_per_tag: usize,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig { buckets_per_tag: 2 }
    }
}

/// One screened `(tag, bucket)` entry: the conservative delay envelope
/// being replayed, plus the *representative pair* — the first pair of the
/// bucket, whose exact simulation the screen skipped. Keeping the pair is
/// what makes screening transparent: if the bucket is ever read under an
/// incompatible clock (or by a numeric consumer), the oracle promotes the
/// entry by simulating exactly this stored pair, reconstructing the very
/// value an unscreened oracle would have cached.
#[derive(Debug, Clone, Copy)]
struct ScreenedEntry {
    delays: CycleDelays,
    prev: Instruction,
    cur: Instruction,
}

/// Screen tier of a [`TagDelayOracle`]: shared bound tables, the clock the
/// current run screens against (if any), and the screened-bucket side table.
#[derive(Debug)]
struct ScreenState {
    bounds: Arc<ScreenBounds>,
    /// The clock of the run in progress — the *tightest* clock any
    /// consumer of this run thresholds delays against (schemes report it
    /// via [`ResilienceScheme::screen_clock`](crate::scheme::ResilienceScheme::screen_clock)).
    /// `None` between runs: every access then promotes screened buckets
    /// back to exact delays.
    armed: Option<ClockSpec>,
    screened: HashMap<(ErrorTag, u32), ScreenedEntry>,
}

impl ScreenState {
    /// Is `entry` interchangeable with the exact delays under `clock`?
    /// Quiet envelopes (no output activity, proven structurally) always
    /// are; safe envelopes are re-proven against the clock now in force,
    /// since they may have been admitted under a looser one.
    fn replayable(entry: &ScreenedEntry, clock: &ClockSpec) -> bool {
        match (entry.delays.min_ps, entry.delays.max_ps) {
            (None, None) => true,
            (Some(lo), Some(hi)) => {
                hi + ntc_timing::SCREEN_GUARD_PS <= clock.period_ps
                    && lo - ntc_timing::SCREEN_GUARD_PS >= clock.hold_ps
            }
            _ => false,
        }
    }
}

/// The per-chip tag→delay oracle.
///
/// Owns the netlist and its fabricated signature; borrows nothing, so it
/// can be moved into long-running simulations.
pub struct TagDelayOracle {
    netlist: Netlist,
    signature: ChipSignature,
    width: usize,
    config: OracleConfig,
    cache: HashMap<(ErrorTag, u32), CycleDelays>,
    shared: Option<SharedDelayCache>,
    screen: Option<ScreenState>,
    /// Precomputed critical delays (from the chip memo pool); computed on
    /// demand when absent.
    nominal_critical_ps: Option<f64>,
    static_critical_ps: Option<f64>,
    gate_sims: u64,
    screen_hits: u64,
    screen_misses: u64,
    screen_fallbacks: u64,
    /// Reusable kernel buffers: Phase-A simulation allocates nothing in
    /// steady state.
    workspace: SimWorkspace,
    pi_init: Vec<bool>,
    pi_sens: Vec<bool>,
}

impl std::fmt::Debug for TagDelayOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TagDelayOracle")
            .field("gates", &self.netlist.len())
            .field("cached", &self.cache.len())
            .field("gate_sims", &self.gate_sims)
            .finish_non_exhaustive()
    }
}

impl TagDelayOracle {
    /// Build an oracle over an EX-stage ALU of the architectural width,
    /// fabricated as chip `seed` at `corner` with `params` variation.
    pub fn for_chip(
        corner: Corner,
        params: ntc_varmodel::VariationParams,
        seed: u64,
        config: OracleConfig,
    ) -> Self {
        let alu = Alu::new(ntc_isa::ARCH_WIDTH);
        let netlist = alu.into_netlist();
        let signature = ChipSignature::fabricate(&netlist, corner, params, seed);
        Self::new(netlist, signature, config)
    }

    /// Build an oracle from an explicit netlist + signature (e.g. the
    /// hold-buffered variant used by Razor-style schemes).
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match the netlist, or the
    /// netlist lacks the `op`/`a`/`b` input ports of an ALU-shaped block.
    pub fn new(netlist: Netlist, signature: ChipSignature, config: OracleConfig) -> Self {
        assert_eq!(signature.delays_ps().len(), netlist.len());
        let width = netlist
            .input_port("a")
            .expect("ALU-shaped netlist with an `a` port")
            .bits
            .len();
        assert!(netlist.input_port("op").is_some(), "missing `op` port");
        assert!(netlist.input_port("b").is_some(), "missing `b` port");
        TagDelayOracle {
            netlist,
            signature,
            width,
            config,
            cache: HashMap::new(),
            shared: None,
            screen: None,
            nominal_critical_ps: None,
            static_critical_ps: None,
            gate_sims: 0,
            screen_hits: 0,
            screen_misses: 0,
            screen_fallbacks: 0,
            workspace: SimWorkspace::new(),
            pi_init: Vec::new(),
            pi_sens: Vec::new(),
        }
    }

    /// Attach a [`SharedDelayCache`]: misses in the local table consult
    /// (and populate) the shared one before falling back to gate-level
    /// simulation. The cache must belong to the same fabricated chip —
    /// the caller owns that invariant, typically by storing the cache
    /// alongside the memoized netlist/signature pair.
    pub fn with_shared_cache(mut self, cache: SharedDelayCache) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Attach a conservative screen: delay queries made while a run's
    /// clock is armed (see [`arm_screen`](Self::arm_screen)) may be
    /// answered by the screen's envelope instead of the exact kernel.
    /// The bounds must belong to this oracle's chip.
    ///
    /// Correctness contract: a screened answer is only ever a *safe*
    /// envelope (no possible transition crosses either threshold) or an
    /// exactly-quiet `None`/`None`, so any consumer that thresholds the
    /// delays against the armed clock classifies identically to an
    /// unscreened oracle. Consumers that read the delays numerically, or
    /// run under a tighter clock, transparently get the exact value: the
    /// screened bucket is promoted by simulating its stored first pair.
    ///
    /// # Panics
    ///
    /// Panics if the bounds were built for a different netlist.
    pub fn with_screen(mut self, bounds: Arc<ScreenBounds>) -> Self {
        assert_eq!(bounds.len(), self.netlist.len(), "screen/netlist mismatch");
        self.screen = Some(ScreenState {
            bounds,
            armed: None,
            screened: HashMap::new(),
        });
        self
    }

    /// Seed the precomputed critical delays (nominal and post-silicon
    /// static), so the accessors below stop re-running static analysis.
    /// The values must equal what the accessors would compute.
    pub fn with_critical_delays(mut self, nominal_ps: f64, static_ps: f64) -> Self {
        self.nominal_critical_ps = Some(nominal_ps);
        self.static_critical_ps = Some(static_ps);
        self
    }

    /// Engage the screen for a run at `clock` — the tightest clock any
    /// consumer of the run thresholds delays against (schemes stretching
    /// their clock, like HFG, arm the *stretched* one via
    /// [`ResilienceScheme::screen_clock`](crate::scheme::ResilienceScheme::screen_clock)).
    /// A no-op on screenless oracles. `run_scheme`/`profile_errors` call
    /// this on entry and [`disarm_screen`](Self::disarm_screen) on exit.
    pub fn arm_screen(&mut self, clock: &ClockSpec) {
        if let Some(state) = &mut self.screen {
            state.armed = Some(*clock);
        }
    }

    /// Disengage the screen: subsequent queries are answered exactly
    /// (screened buckets promote on access). A no-op on screenless
    /// oracles.
    pub fn disarm_screen(&mut self) {
        if let Some(state) = &mut self.screen {
            state.armed = None;
        }
    }

    /// True when a screen is attached (armed or not).
    pub fn has_screen(&self) -> bool {
        self.screen.is_some()
    }

    /// Number of `(tag, bucket)` entries currently held as screened
    /// envelopes rather than exact delays.
    pub fn screened_len(&self) -> usize {
        self.screen.as_ref().map_or(0, |s| s.screened.len())
    }

    /// The nominal (PV-free) critical delay of this oracle's netlist at its
    /// corner — the reference for clock selection. Answered from the value
    /// seeded by the chip memo pool when present; otherwise one static
    /// analysis runs per call.
    pub fn nominal_critical_delay_ps(&self) -> f64 {
        self.nominal_critical_ps.unwrap_or_else(|| {
            let nominal = ChipSignature::nominal(&self.netlist, self.signature.corner());
            ntc_timing::StaticTiming::analyze(&self.netlist, &nominal)
                .critical_delay_ps(&self.netlist)
        })
    }

    /// The *post-silicon* static critical delay of this chip — what a
    /// worst-case guardbanding controller (HFG) must budget for, since it
    /// cannot know which paths a workload will sensitize. Seeded by the
    /// chip memo pool when present.
    pub fn static_critical_delay_ps(&self) -> f64 {
        self.static_critical_ps.unwrap_or_else(|| {
            ntc_timing::StaticTiming::analyze(&self.netlist, &self.signature)
                .critical_delay_ps(&self.netlist)
        })
    }

    /// Sensitized min/max delays for executing `cur` right after `prev` on
    /// this chip.
    ///
    /// With a screen attached and armed, a first-in-bucket pair whose
    /// toggled-input cone provably cannot cross either threshold of the
    /// armed clock is answered with its conservative envelope instead of
    /// an exact simulation; replays of that bucket return the same
    /// envelope after re-proving it against the clock now armed. Any
    /// access outside an armed run — or under a clock the stored envelope
    /// cannot be proven safe at — promotes the bucket back to the exact
    /// delays of the *same* stored first pair, so screening never changes
    /// which pair defines a bucket — the property the bit-identical-results
    /// contract rests on.
    pub fn delays(&mut self, prev: &Instruction, cur: &Instruction) -> CycleDelays {
        let tag = ErrorTag::of(prev, cur);
        let bucket = operand_bucket(prev, cur, self.config.buckets_per_tag);
        let key = (tag, bucket);
        if let Some(d) = self.cache.get(&key) {
            bump(&STAT_LOCAL_HITS, |s| &s.local_hits);
            return *d;
        }
        if let Some(state) = &mut self.screen {
            let armed = state.armed;
            if let Some(clock) = armed {
                if let Some(e) = state.screened.get(&key) {
                    if ScreenState::replayable(e, &clock) {
                        self.screen_hits += 1;
                        bump(&STAT_SCREEN_HITS, |s| &s.screen_hits);
                        return e.delays;
                    }
                }
            }
            if let Some(entry) = state.screened.remove(&key) {
                // Unarmed access, or an envelope admitted under a looser
                // clock than the one now armed: rebuild the exact value an
                // unscreened oracle would hold by simulating the bucket's
                // original first pair — not the current one.
                self.screen_fallbacks += 1;
                bump(&STAT_SCREEN_FALLBACKS, |s| &s.screen_fallbacks);
                let d = self.simulate_uncached(tag, &entry.prev, &entry.cur);
                self.cache.insert(key, d);
                return d;
            }
        }
        // On a local miss the old path would simulate (prev, cur) exactly;
        // a shared hit under the full-operand key returns precisely that
        // simulation's result, so behaviour is unchanged by sharing.
        let full: SharedDelayKey = (tag, prev.a, prev.b, cur.a, cur.b);
        if let Some(shared) = &self.shared {
            if let Some(d) = shared.get(&full) {
                bump(&STAT_SHARED_HITS, |s| &s.shared_hits);
                self.cache.insert(key, d);
                return d;
            }
        }
        if let Some(state) = &mut self.screen {
            if let Some(clock) = state.armed {
                encode_into(self.width, prev, &mut self.pi_init);
                encode_into(self.width, cur, &mut self.pi_sens);
                match state.bounds.screen(&self.pi_init, &self.pi_sens, &clock) {
                    ScreenVerdict::Quiet => {
                        self.screen_hits += 1;
                        bump(&STAT_SCREEN_HITS, |s| &s.screen_hits);
                        let d = CycleDelays {
                            min_ps: None,
                            max_ps: None,
                        };
                        state.screened.insert(
                            key,
                            ScreenedEntry {
                                delays: d,
                                prev: *prev,
                                cur: *cur,
                            },
                        );
                        return d;
                    }
                    ScreenVerdict::Safe { min_ps, max_ps } => {
                        self.screen_hits += 1;
                        bump(&STAT_SCREEN_HITS, |s| &s.screen_hits);
                        let d = CycleDelays {
                            min_ps: Some(min_ps),
                            max_ps: Some(max_ps),
                        };
                        state.screened.insert(
                            key,
                            ScreenedEntry {
                                delays: d,
                                prev: *prev,
                                cur: *cur,
                            },
                        );
                        return d;
                    }
                    ScreenVerdict::Inconclusive => {
                        self.screen_misses += 1;
                        bump(&STAT_SCREEN_MISSES, |s| &s.screen_misses);
                    }
                }
            } else {
                self.screen_fallbacks += 1;
                bump(&STAT_SCREEN_FALLBACKS, |s| &s.screen_fallbacks);
            }
        }
        let d = self.simulate_uncached(tag, prev, cur);
        self.cache.insert(key, d);
        d
    }

    /// Exact Phase-A resolution of one pair: shared-cache lookup, then a
    /// gate-level simulation whose result is published to the shared
    /// cache. Only exact values ever enter the shared cache — screened
    /// envelopes stay in the oracle-private side table.
    fn simulate_uncached(&mut self, tag: ErrorTag, prev: &Instruction, cur: &Instruction) -> CycleDelays {
        let full: SharedDelayKey = (tag, prev.a, prev.b, cur.a, cur.b);
        if let Some(shared) = &self.shared {
            if let Some(d) = shared.get(&full) {
                bump(&STAT_SHARED_HITS, |s| &s.shared_hits);
                return d;
            }
        }
        encode_into(self.width, prev, &mut self.pi_init);
        encode_into(self.width, cur, &mut self.pi_sens);
        // Lean min/max entry point on the owned workspace: no per-miss
        // simulator construction, no per-output activity vectors.
        let t = self.workspace.simulate_pair_minmax(
            &self.netlist,
            &self.signature,
            &self.pi_init,
            &self.pi_sens,
        );
        self.gate_sims += 1;
        bump(&STAT_GATE_SIMS, |s| &s.gate_sims);
        let d = CycleDelays {
            min_ps: t.min_ps,
            max_ps: t.max_ps,
        };
        if let Some(shared) = &self.shared {
            shared.insert_if_absent(full, d);
        }
        d
    }

    /// Number of gate-level simulations run so far (Phase-A cost).
    pub fn gate_sim_count(&self) -> u64 {
        self.gate_sims
    }

    /// Queries this oracle answered from the screen tier.
    pub fn screen_hit_count(&self) -> u64 {
        self.screen_hits
    }

    /// Fresh screen consultations that were inconclusive.
    pub fn screen_miss_count(&self) -> u64 {
        self.screen_misses
    }

    /// Queries that bypassed an attached screen (disarmed/incompatible).
    pub fn screen_fallback_count(&self) -> u64 {
        self.screen_fallbacks
    }

    /// Number of cached (tag, bucket) delay entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The bound netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The bound chip signature.
    pub fn signature(&self) -> &ChipSignature {
        &self.signature
    }
}

/// Stable operand bucket for within-tag delay diversity.
fn operand_bucket(prev: &Instruction, cur: &Instruction, buckets: usize) -> u32 {
    if buckets <= 1 {
        return 0;
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in [prev.a, prev.b, cur.a, cur.b] {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    (h % buckets as u64) as u32
}

/// Encode an instruction as the ALU-shaped netlist's primary inputs,
/// reusing the caller's buffer (allocation-free once warm).
fn encode_into(width: usize, instr: &Instruction, pis: &mut Vec<bool>) {
    let func = instr.opcode.alu_func();
    let code = func.select_code();
    pis.clear();
    pis.extend((0..4).map(|i| (code >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (instr.a >> i) & 1 == 1));
    pis.extend((0..width).map(|i| (instr.b >> i) & 1 == 1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntc_isa::Opcode;
    use ntc_varmodel::VariationParams;

    fn oracle() -> TagDelayOracle {
        TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
    }

    #[test]
    fn delays_are_cached_per_tag_bucket() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let cur = Instruction::new(Opcode::Addu, 0xFFFF_FFFF, 1);
        let d1 = o.delays(&prev, &cur);
        let sims = o.gate_sim_count();
        let d2 = o.delays(&prev, &cur);
        assert_eq!(d1, d2);
        assert_eq!(o.gate_sim_count(), sims, "second query hits the cache");
        assert!(d1.max_ps.expect("carry toggles") > 0.0);
    }

    #[test]
    fn different_operands_can_use_different_buckets() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let mut sims = 0;
        for a in [1u64, 0xFF, 0xFFFF, 0xFFFF_FFFF, 0x8000_0000, 0x1234_5678] {
            let cur = Instruction::new(Opcode::Addu, a, 1);
            let _ = o.delays(&prev, &cur);
            sims = o.gate_sim_count();
        }
        assert!(sims >= 2, "multiple buckets simulated, got {sims}");
        assert!(sims <= 6);
    }

    #[test]
    fn mult_is_slower_than_move() {
        let mut o = oracle();
        let prev = Instruction::new(Opcode::Move, 0, 0);
        let mult = Instruction::new(Opcode::Mult, 0xABCD_1234, 0x1357_9BDF);
        let mv = Instruction::new(Opcode::Move, 0xABCD_1234, 0);
        let d_mult = o.delays(&prev, &mult).max_ps.expect("mult toggles");
        let d_move = o.delays(&prev, &mv).max_ps.expect("move toggles");
        assert!(
            d_mult > 2.0 * d_move,
            "mult {d_mult:.0}ps vs move {d_move:.0}ps"
        );
    }

    #[test]
    fn nominal_critical_delay_is_positive_and_stable() {
        let o = oracle();
        let d1 = o.nominal_critical_delay_ps();
        let d2 = o.nominal_critical_delay_ps();
        assert!(d1 > 0.0);
        assert_eq!(d1, d2);
    }

    #[test]
    fn shared_cache_matches_fresh_oracle_and_skips_simulation() {
        let mut fresh = oracle();
        let shared: SharedDelayCache = Default::default();
        let mut warm = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
        .with_shared_cache(shared.clone());
        let mut reader = TagDelayOracle::for_chip(
            Corner::NTC,
            VariationParams::ntc(),
            11,
            OracleConfig::default(),
        )
        .with_shared_cache(shared);
        let pairs = [
            (Instruction::new(Opcode::Addu, 0, 0), Instruction::new(Opcode::Addu, u64::MAX, 1)),
            (Instruction::new(Opcode::Mult, 3, 9), Instruction::new(Opcode::Xor, 0xF0F0, 0x0F0F)),
            (Instruction::new(Opcode::Sllv, 1, 7), Instruction::new(Opcode::Srav, 0x8000, 4)),
        ];
        for (p, c) in &pairs {
            assert_eq!(warm.delays(p, c), fresh.delays(p, c));
        }
        // The second shared-cache oracle answers every query without a
        // single gate-level simulation of its own.
        for (p, c) in &pairs {
            assert_eq!(reader.delays(p, c), fresh.delays(p, c));
        }
        assert_eq!(reader.gate_sim_count(), 0, "all hits came from the shared table");
    }

    #[test]
    fn oracle_stats_fields_and_accumulation() {
        let mut total = OracleStats::default();
        total += OracleStats {
            gate_sims: 2,
            local_hits: 5,
            shared_hits: 1,
            screen_hits: 7,
            screen_misses: 2,
            screen_fallbacks: 1,
            sta_full: 3,
        };
        total += OracleStats {
            gate_sims: 1,
            local_hits: 0,
            shared_hits: 4,
            screen_hits: 3,
            screen_misses: 0,
            screen_fallbacks: 2,
            sta_full: 1,
        };
        // Queries = answered lookups: sims + local + shared + screened.
        // Misses/fallbacks annotate *how* sims happened, not extra
        // queries; the STA counters meter the timing stack, not lookups.
        assert_eq!(total.queries(), 23);
        assert_eq!(
            total.fields(),
            [
                ("gate_sims", 3),
                ("local_hits", 5),
                ("shared_hits", 5),
                ("screen_hits", 10),
                ("screen_misses", 2),
                ("screen_fallbacks", 3),
                ("sta_full", 4),
                ("sta_incremental", 0),
                ("incr_gates_touched", 0),
            ]
        );
    }

    /// Build bound tables for an oracle's chip, optionally corrupted.
    fn screen_for(o: &TagDelayOracle) -> Arc<ScreenBounds> {
        let sta = ntc_timing::StaticTiming::analyze(o.netlist(), o.signature());
        Arc::new(ScreenBounds::build(o.netlist(), o.signature(), &sta))
    }

    /// A clock loose enough that most pairs screen safe on this chip.
    fn loose_clock(o: &TagDelayOracle) -> ClockSpec {
        let crit = o.static_critical_delay_ps();
        ClockSpec {
            period_ps: crit * 1.5,
            hold_ps: 0.0,
        }
    }

    #[test]
    fn screened_oracle_matches_exact_classification_and_promotes() {
        let mut exact = oracle();
        let mut screened = oracle();
        let bounds = screen_for(&screened);
        let clock = loose_clock(&screened);
        screened = screened.with_screen(bounds);
        screened.arm_screen(&clock);
        let pairs = [
            (Instruction::new(Opcode::Addu, 0, 0), Instruction::new(Opcode::Addu, u64::MAX, 1)),
            (Instruction::new(Opcode::Move, 7, 7), Instruction::new(Opcode::Move, 7, 7)),
            (Instruction::new(Opcode::Mult, 3, 9), Instruction::new(Opcode::Xor, 0xF0F0, 0x0F0F)),
        ];
        for (p, c) in &pairs {
            let e = exact.delays(p, c);
            let s = screened.delays(p, c);
            // The envelope classifies identically at the armed clock…
            assert_eq!(
                e.max_ps.is_some_and(|d| d > clock.period_ps),
                s.max_ps.is_some_and(|d| d > clock.period_ps)
            );
            assert_eq!(
                e.min_ps.is_some_and(|d| d < clock.hold_ps),
                s.min_ps.is_some_and(|d| d < clock.hold_ps)
            );
            // …and brackets the exact delays.
            if let (Some(se), Some(ss)) = (e.max_ps, s.max_ps) {
                assert!(se <= ss + 1e-6);
            }
        }
        assert!(
            screened.gate_sim_count() < exact.gate_sim_count(),
            "the loose clock must let the screen skip simulations"
        );
        // Disarming promotes screened buckets on access: numeric values
        // become exactly the unscreened oracle's.
        screened.disarm_screen();
        for (p, c) in &pairs {
            assert_eq!(screened.delays(p, c), exact.delays(p, c));
        }
        assert_eq!(screened.screened_len(), 0, "all buckets promoted");
    }

    #[test]
    fn screen_counters_are_monotone_and_consistent() {
        // Per-oracle counters, not the process-wide atomics: other tests
        // in this binary run concurrently and share the globals.
        let mut o = oracle();
        let bounds = screen_for(&o);
        let clock = loose_clock(&o);
        o = o.with_screen(bounds);
        o.arm_screen(&clock);
        let prev = Instruction::new(Opcode::Addu, 0, 0);
        let operands = [1u64, 0xFF, 0xFFFF, 0xFFFF_FFFF];
        let mut last = (0u64, 0u64, 0u64, 0u64);
        for a in operands {
            let cur = Instruction::new(Opcode::Addu, a, 1);
            let _ = o.delays(&prev, &cur);
            let _ = o.delays(&prev, &cur); // replay of the same bucket
            let now = (
                o.gate_sim_count(),
                o.screen_hit_count(),
                o.screen_miss_count(),
                o.screen_fallback_count(),
            );
            // Monotone: every counter only grows.
            assert!(now.0 >= last.0 && now.1 >= last.1);
            assert!(now.2 >= last.2 && now.3 >= last.3);
            last = now;
        }
        // While armed with no shared cache, the only way to reach the
        // kernel is an inconclusive screen: misses and simulations match
        // one-to-one, and the screen tier plus the caches account for
        // every query.
        assert_eq!(o.screen_miss_count(), o.gate_sim_count());
        assert!(
            o.screen_hit_count() + o.gate_sim_count() <= 2 * operands.len() as u64,
            "screen hits + sims cannot exceed total queries"
        );
        assert_eq!(o.screen_fallback_count(), 0, "armed run never falls back");
        assert!(o.screen_hit_count() > 0, "loose clock must screen something");
        // Disarming promotes each screened bucket on first access — one
        // fallback and one exact simulation apiece.
        let screened = o.screened_len() as u64;
        let sims_before = o.gate_sim_count();
        o.disarm_screen();
        for a in operands {
            let cur = Instruction::new(Opcode::Addu, a, 1);
            let _ = o.delays(&prev, &cur);
        }
        assert_eq!(o.screen_fallback_count(), screened);
        assert_eq!(o.gate_sim_count(), sims_before + screened);
        assert_eq!(o.screened_len(), 0);
    }

    #[test]
    fn rearming_tighter_promotes_instead_of_replaying_stale_envelopes() {
        let mut exact = oracle();
        let mut o = oracle();
        let bounds = screen_for(&o);
        let loose = loose_clock(&o);
        o = o.with_screen(bounds);
        o.arm_screen(&loose);
        let p = Instruction::new(Opcode::Addu, 1, 2);
        let c = Instruction::new(Opcode::Addu, 0xFFFF, 3);
        let _ = o.delays(&p, &c);
        assert_eq!(o.screen_hit_count(), 1, "loose clock screens the bucket");
        assert_eq!(o.screened_len(), 1);
        // Re-arm at a clock tighter than the stored envelope can be proven
        // safe at: the replay check must reject it and promote the bucket
        // to the exact delays of the same first pair.
        let tight = ClockSpec {
            period_ps: o.static_critical_delay_ps() * 0.5,
            hold_ps: 0.0,
        };
        o.arm_screen(&tight);
        let d = o.delays(&p, &c);
        assert_eq!(o.screen_fallback_count(), 1, "stale envelope rejected");
        assert_eq!(o.screened_len(), 0);
        assert_eq!(d, exact.delays(&p, &c), "promotion restores exact delays");
    }

    #[test]
    fn bucket_is_stable_and_bounded() {
        let p = Instruction::new(Opcode::Or, 3, 4);
        let c = Instruction::new(Opcode::And, 5, 6);
        let b1 = operand_bucket(&p, &c, 4);
        let b2 = operand_bucket(&p, &c, 4);
        assert_eq!(b1, b2);
        assert!(b1 < 4);
        assert_eq!(operand_bucket(&p, &c, 1), 0);
    }
}
