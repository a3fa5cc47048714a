//! One counter table for all run telemetry.
//!
//! Every layer of the flow counts its work in one enum-indexed table:
//! static timing, the tag-delay oracle, the workload trace source, the
//! sweep engine, the grid disk cache and the per-voltage cell count.
//! A [`Counter`]'s [`name`](Counter::name) is its key in the `repro`
//! manifest and the `ntc-serve` receipt, and its [`Family`] is the
//! object the key sits in.
//!
//! Every [`add`] lands in two places:
//!
//! * the process-wide **root** table. It always counts, and the
//!   per-family drains ([`take`]) read it;
//! * the calling thread's **current scope**, when one is installed
//!   ([`install`]). `runner::sweep` forwards its caller's scope into its
//!   worker threads, so a scope sees all the work done on behalf of the
//!   thread that installed it, at any thread count.
//!
//! An add is one relaxed atomic add on the root plus, with a scope
//! installed, one on the scope. There is no lock and no walk up nested
//! scopes: the oracle counts every lookup, 120 M times in one full-scale
//! grid. [`with_counter_scope`] instead folds a finished scope into the
//! scope it displaced, so nested scopes stay exact.

use crate::point::OperatingPoint;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The object a [`Counter`] is reported under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Sweep-engine busy and wall time, nanoseconds (top-level keys).
    Sweep,
    /// Delay-oracle queries and static timing analyses (`"oracle"`).
    Oracle,
    /// Grid disk-cache traffic (`"cache"`).
    Cache,
    /// Grid cells computed per operating point (`"voltages"`).
    Cells,
    /// Trace record/replay traffic (`"workload"`).
    Workload,
}

impl Family {
    /// This family's counters, in table order. Families are contiguous
    /// runs of [`Counter::ALL`].
    pub fn rows(self) -> &'static [Counter] {
        let start = Counter::ALL.iter().position(|c| c.family() == self);
        let start = start.expect("every family has a counter");
        let len = Counter::ALL[start..]
            .iter()
            .take_while(|c| c.family() == self)
            .count();
        &Counter::ALL[start..start + len]
    }
}

macro_rules! counter_table {
    ($($(#[$doc:meta])* $variant:ident => $family:ident $name:literal,)*) => {
        /// One row of the counter table.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Counter {
            $($(#[$doc])* $variant,)*
        }

        impl Counter {
            /// Every counter, in table order: the manifest's key order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The manifest and receipt key.
            pub const fn name(self) -> &'static str {
                match self {
                    $(Counter::$variant => $name,)*
                }
            }

            /// The object the key is reported under.
            pub const fn family(self) -> Family {
                match self {
                    $(Counter::$variant => Family::$family,)*
                }
            }
        }
    };
}

counter_table! {
    /// Worker-busy time summed over every sweep thread.
    SweepBusyNs => Sweep "sweep_busy_ns",
    /// Sweep wall-clock time.
    SweepWallNs => Sweep "sweep_wall_ns",
    /// Phase-A gate-level simulations (cache misses all the way through).
    GateSims => Oracle "gate_sims",
    /// Hits in per-oracle `(tag, bucket)` caches.
    LocalHits => Oracle "local_hits",
    /// Hits in the shared full-operand cache.
    SharedHits => Oracle "shared_hits",
    /// Queries the conservative screen answered without the exact kernel.
    ScreenHits => Oracle "screen_hits",
    /// Fresh screen consultations that forced the exact kernel to run.
    ScreenMisses => Oracle "screen_misses",
    /// Queries on a screen-equipped oracle that bypassed the screen.
    ScreenFallbacks => Oracle "screen_fallbacks",
    /// Full static timing analyses.
    StaFull => Oracle "sta_full",
    /// Retired incremental-STA counter, always 0; kept so the key set
    /// stays unchanged.
    StaIncremental => Oracle "sta_incremental",
    /// Retired incremental-STA counter, always 0; kept so the key set
    /// stays unchanged.
    IncrGatesTouched => Oracle "incr_gates_touched",
    /// Grid artifacts loaded and verified from disk.
    DiskHits => Cache "disk_hits",
    /// Disk lookups that found no valid artifact.
    DiskMisses => Cache "disk_misses",
    /// Corrupt artifacts quarantined (each also counts as a miss).
    CorruptEvictions => Cache "corrupt_evictions",
    /// Artifact bytes written to disk.
    BytesWritten => Cache "bytes_written",
    /// Grid cells computed at 0.45 V.
    CellsV045 => Cells "v0.45",
    /// Grid cells computed at 0.50 V.
    CellsV050 => Cells "v0.50",
    /// Grid cells computed at 0.55 V.
    CellsV055 => Cells "v0.55",
    /// Grid cells computed at 0.60 V.
    CellsV060 => Cells "v0.60",
    /// Grid cells computed at 0.65 V.
    CellsV065 => Cells "v0.65",
    /// Grid cells computed at 0.70 V.
    CellsV070 => Cells "v0.70",
    /// Grid cells computed at 0.75 V.
    CellsV075 => Cells "v0.75",
    /// Grid cells computed at 0.80 V.
    CellsV080 => Cells "v0.80",
    /// Binary trace files newly written by a record run.
    TracesRecorded => Workload "traces_recorded",
    /// Cells resolved by whole-trace replay.
    TraceReplays => Workload "trace_replays",
    /// Cells resolved by weighted-phase replay.
    PhaseReplays => Workload "phase_replays",
    /// Instructions fed to simulators from whole-trace replays.
    ReplayedInstructions => Workload "replayed_instructions",
    /// Instructions fed to simulators from phase replays (unweighted).
    PhaseInstructions => Workload "phase_instructions",
}

/// Number of counters in the table.
const COUNT: usize = Counter::ALL.len();

impl Counter {
    /// The computed-cell counter of one roster point.
    pub fn cells_at(point: OperatingPoint) -> Counter {
        Family::Cells.rows()[point.index()]
    }

    /// The counter of `family` keyed `name`, if there is one.
    pub fn lookup(family: Family, name: &str) -> Option<Counter> {
        family.rows().iter().copied().find(|c| c.name() == name)
    }
}

/// A table of counts, one per [`Counter`]: what a drain or a scope
/// snapshot returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts([u64; COUNT]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; COUNT])
    }
}

impl Counts {
    /// `(key, count)` for each counter of `family`, in table order.
    pub fn family(&self, family: Family) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        family.rows().iter().map(|&c| (c.name(), self[c]))
    }
}

impl std::ops::Index<Counter> for Counts {
    type Output = u64;

    fn index(&self, c: Counter) -> &u64 {
        &self.0[c as usize]
    }
}

impl std::ops::IndexMut<Counter> for Counts {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c as usize]
    }
}

impl std::ops::AddAssign for Counts {
    fn add_assign(&mut self, rhs: Counts) {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a += b;
        }
    }
}

/// A live counter table: the root, or one run's attribution scope.
#[derive(Debug)]
pub struct Scope([AtomicU64; COUNT]);

impl Default for Scope {
    fn default() -> Self {
        Scope::new()
    }
}

impl Scope {
    /// An all-zero table.
    pub const fn new() -> Scope {
        Scope([const { AtomicU64::new(0) }; COUNT])
    }

    /// The current value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize].load(Ordering::Relaxed)
    }

    /// Every counter's current value (non-draining).
    pub fn snapshot(&self) -> Counts {
        let mut out = Counts::default();
        for &c in Counter::ALL {
            out[c] = self.get(c);
        }
        out
    }

    #[inline]
    fn add(&self, c: Counter, n: u64) {
        self.0[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// The process-wide table every [`add`] lands in.
static ROOT: Scope = Scope::new();

thread_local! {
    static CURRENT: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

/// Count `n` units of `c`: on the root and in the calling thread's
/// current scope, if one is installed.
#[inline]
pub fn add(c: Counter, n: u64) {
    ROOT.add(c, n);
    CURRENT.with(|s| {
        if let Some(scope) = s.borrow().as_ref() {
            scope.add(c, n);
        }
    });
}

/// Drain `family`'s counters from the root table, resetting them to
/// zero. Every other counter of the result is zero.
pub fn take(family: Family) -> Counts {
    let mut out = Counts::default();
    for &c in family.rows() {
        out[c] = ROOT.0[c as usize].swap(0, Ordering::Relaxed);
    }
    out
}

/// Install (or, with `None`, clear) the calling thread's current scope,
/// returning the previous one so the caller can restore it.
pub fn install(scope: Option<Arc<Scope>>) -> Option<Arc<Scope>> {
    CURRENT.with(|s| s.replace(scope))
}

/// The calling thread's current scope, if any: what the sweep engine
/// hands to its workers.
pub fn current() -> Option<Arc<Scope>> {
    CURRENT.with(|s| s.borrow().clone())
}

/// Run `f` in a fresh scope and return its result with everything the
/// run counted, worker threads of its sweeps included. On exit (panic
/// included) the previous scope is restored and the run's counts are
/// added to it.
pub fn with_counter_scope<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    struct Restore {
        outer: Option<Arc<Scope>>,
        inner: Arc<Scope>,
    }
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(outer) = &self.outer {
                for &c in Counter::ALL {
                    outer.add(c, self.inner.get(c));
                }
            }
            install(self.outer.take());
        }
    }
    let inner = Arc::new(Scope::new());
    let guard = Restore {
        outer: install(Some(inner.clone())),
        inner,
    };
    let out = f();
    let counts = guard.inner.snapshot();
    drop(guard);
    (out, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_order_matches_discriminants_and_families_are_contiguous() {
        for (i, &c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?}");
        }
        let families = [
            Family::Sweep,
            Family::Oracle,
            Family::Cache,
            Family::Cells,
            Family::Workload,
        ];
        let total: usize = families.iter().map(|f| f.rows().len()).sum();
        assert_eq!(total, COUNT, "every counter sits in one contiguous family");
    }

    #[test]
    fn cell_counters_are_keyed_by_roster_name() {
        for point in OperatingPoint::roster() {
            assert_eq!(Counter::cells_at(point).name(), point.name());
            assert_eq!(
                Counter::lookup(Family::Cells, point.name()),
                Some(Counter::cells_at(point))
            );
        }
    }

    #[test]
    fn nested_scopes_fold_into_the_outer_one() {
        let ((inner, ()), outer) = with_counter_scope(|| {
            add(Counter::TraceReplays, 2);
            let ((), inner) = with_counter_scope(|| add(Counter::TraceReplays, 3));
            (inner, ())
        });
        assert_eq!(inner[Counter::TraceReplays], 3);
        assert_eq!(outer[Counter::TraceReplays], 5);
        assert!(
            current().is_none(),
            "the previous (empty) scope is restored"
        );
    }

    #[test]
    fn scope_is_restored_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_counter_scope(|| panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(current().is_none());
    }
}
