//! Conservative per-cycle screening in front of the exact dynamic kernel
//! — the cheap first tier of the two-tier timing oracle.
//!
//! The exact kernel ([`crate::dynamic`]) pays an event-driven simulation
//! on every `(initializing, sensitizing)` vector pair, yet on most cycles
//! no sensitized path comes anywhere near the clock period (the FATE
//! observation). [`ScreenBounds`] precomputes, per net, the longest and
//! shortest delay from a toggle at that net to *any* primary output; a
//! per-cycle screen then maxes/mins those precomputed bounds over the
//! toggled primary inputs only. When even the resulting conservative
//! delay envelope cannot violate the clock, the kernel is provably
//! redundant and the cycle is skipped.
//!
//! # Soundness
//!
//! Every output transition the kernel emits occurs at a time of the form
//! `sum of gate delays along a combinational path from a toggled primary
//! input to an output` (the kernel only seeds events at toggled PIs, only
//! propagates them along gate fanout adding that gate's delay, and its
//! event dedup/truncation only ever *drops* interior events, keeping the
//! extremes). [`ScreenBounds::build`] relaxes exactly those path sums in
//! reverse topological order, so for a toggled input `i` every real
//! transition time `t` caused by `i` satisfies
//! `to_out_min[i] <= t <= to_out_max[i]`. Taking the min/max over the
//! toggled inputs of a cycle therefore brackets every transition the
//! kernel could produce:
//!
//! * no toggled input reaches an output → the kernel produces no output
//!   transitions at all ([`ScreenVerdict::Quiet`], exact);
//! * `max bound + guard <= period` and `min bound - guard >= hold` → the
//!   cycle cannot violate either clock edge ([`ScreenVerdict::Safe`]);
//! * otherwise the screen abstains ([`ScreenVerdict::Inconclusive`]) and
//!   the exact kernel runs.
//!
//! The screen never claims a violation and never replaces an unsafe
//! cycle's delays — consumers that only *threshold* the delays against
//! the screened clock (every `ResilienceScheme` in `ntc-core`) observe
//! results identical to the exact kernel's. [`SCREEN_GUARD_PS`] absorbs
//! the ulp-level difference between the reverse-accumulated bound and the
//! kernel's forward-order path sums.

use crate::dynamic::{CycleTiming, DynamicSim, MinMaxDelays};
use crate::errors::ClockSpec;
use crate::sta::StaticTiming;
use ntc_netlist::Netlist;
use ntc_varmodel::ChipSignature;
use std::sync::Arc;

/// Safety margin (ps) added to the screen's comparisons against the clock
/// thresholds. The bound tables accumulate gate delays output-to-input
/// while the kernel sums them input-to-output; floating-point addition is
/// not associative, so the two can differ by a few ulps. One microsecond
/// of a picosecond dwarfs any such error yet is far below the ~0.1 ps
/// scale at which delays become behaviourally distinct.
pub const SCREEN_GUARD_PS: f64 = 1e-6;

/// Per-net toggle-to-output delay bounds for one fabricated chip,
/// precomputed once and shared (via [`Arc`]) by every screen user bound
/// to that chip.
#[derive(Debug, Clone)]
pub struct ScreenBounds {
    /// `to_out[n] = (min, max)`: shortest and longest delay from a toggle
    /// at net `n` to any primary output; `(+inf, -inf)` when no output is
    /// reachable from `n`. Min and max interleave so one fanout visit in
    /// [`fold_net`](Self::fold_net) touches one cache line, not two.
    to_out: Vec<(f64, f64)>,
    /// Whether net `n` is a primary output — the seed of its own fold
    /// (a toggle at an output is already *at* an output, delay `0.0`).
    is_output: Vec<bool>,
    /// Net index of each primary input, in port order (the order of the
    /// kernel's `initializing`/`sensitizing` vectors).
    inputs: Vec<u32>,
    /// The chip's static critical delay, kept for diagnostics.
    static_critical_ps: f64,
}

impl ScreenBounds {
    /// Build the bound tables for `nl` under delay signature `sig`.
    ///
    /// `sta` must be the [`StaticTiming`] analysis of the same
    /// `(nl, sig)` pair; the tables fold their cross-check against *its*
    /// critical delay rather than re-deriving arrivals of their own (the
    /// longest toggle-to-output delay over all primary inputs must equal
    /// the static critical delay).
    ///
    /// Each net's bounds come from one descending-order **gather** over
    /// the netlist's CSR fanout index. (The gather visits the identical
    /// candidate set the historical input-scatter formulation produced;
    /// `f64::max`/`min` select among identical sums, so the stored bits
    /// are unchanged.)
    ///
    /// # Panics
    ///
    /// Panics if the signature length does not match the netlist, or if
    /// the bound tables disagree with the static analysis.
    pub fn build(nl: &Netlist, sig: &ChipSignature, sta: &StaticTiming) -> Self {
        let delays = sig.delays_ps();
        assert_eq!(delays.len(), nl.len(), "signature/netlist mismatch");
        let n = nl.len();
        let mut bounds = ScreenBounds {
            to_out: vec![(f64::INFINITY, f64::NEG_INFINITY); n],
            is_output: vec![false; n],
            inputs: nl.inputs().iter().map(|s| s.index() as u32).collect(),
            static_critical_ps: sta.critical_delay_ps(nl),
        };
        for s in nl.outputs() {
            bounds.is_output[s.index()] = true;
        }
        // Nets are in topological order by ascending index, so one
        // descending pass folds every net after its entire fanout is final.
        for j in (0..n).rev() {
            bounds.to_out[j] = bounds.fold_net(nl, delays, j);
        }
        bounds.check_against_critical();
        bounds
    }

    /// Gather one net's toggle-to-output bounds from the table state of
    /// its fanout gates: a toggle at net `j` that propagates through
    /// fanout gate `g` reaches the outputs `g` reaches, delayed by `g`'s
    /// own delay — mirroring the forward convention of `sta.rs` (primary
    /// inputs are pseudo gates and contribute no delay; a path's delay
    /// includes the output gate's). Output nets seed at `0.0` (a toggle
    /// there *is* at an output).
    #[inline]
    fn fold_net(&self, nl: &Netlist, delays: &[f64], j: usize) -> (f64, f64) {
        let (mut lo, mut hi) = if self.is_output[j] {
            (0.0f64, 0.0f64)
        } else {
            (f64::INFINITY, f64::NEG_INFINITY)
        };
        for &g in nl.fanout_of_index(j) {
            let (gl, gh) = self.to_out[g as usize];
            if gh == f64::NEG_INFINITY {
                continue; // no output reachable through this fanout gate
            }
            let d = delays[g as usize];
            hi = hi.max(gh + d);
            lo = lo.min(gl + d);
        }
        (lo, hi)
    }

    /// Cross-check the tables against the recorded static critical delay:
    /// the longest toggle-to-output bound over the primary inputs must
    /// equal it.
    ///
    /// # Panics
    ///
    /// Panics when the tables and the static analysis disagree.
    fn check_against_critical(&self) {
        let table_critical = self
            .inputs
            .iter()
            .map(|&i| self.to_out[i as usize].1)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!(
            (table_critical - self.static_critical_ps).abs() <= SCREEN_GUARD_PS,
            "screen bound tables disagree with STA: {table_critical} vs {}",
            self.static_critical_ps
        );
    }

    /// Number of nets the tables were built for (= `netlist.len()`).
    pub fn len(&self) -> usize {
        self.to_out.len()
    }

    /// True for a degenerate netlist with no nets.
    pub fn is_empty(&self) -> bool {
        self.to_out.is_empty()
    }

    /// The chip's static critical delay the tables were checked against.
    pub fn static_critical_ps(&self) -> f64 {
        self.static_critical_ps
    }

    /// The conservative delay envelope of the cycle: `(min, max)` bounds
    /// over every transition the kernel could emit for this vector pair,
    /// or `None` when no toggled input reaches an output (the kernel
    /// would emit nothing).
    ///
    /// # Panics
    ///
    /// Panics if the vectors' length differs from the primary input count.
    pub fn cone_bounds(&self, init: &[bool], sens: &[bool]) -> Option<(f64, f64)> {
        assert_eq!(init.len(), self.inputs.len(), "initializing vector width");
        assert_eq!(sens.len(), self.inputs.len(), "sensitizing vector width");
        let mut hi = f64::NEG_INFINITY;
        let mut lo = f64::INFINITY;
        // Same toggle condition as the kernel's seeding loop: an input
        // participates iff its sensitizing value differs from its settled
        // (initializing) value.
        for (k, &net) in self.inputs.iter().enumerate() {
            if init[k] != sens[k] {
                let (l, h) = self.to_out[net as usize];
                hi = hi.max(h);
                lo = lo.min(l);
            }
        }
        (hi != f64::NEG_INFINITY).then_some((lo, hi))
    }

    /// Screen one cycle against `clock`.
    pub fn screen(&self, init: &[bool], sens: &[bool], clock: &ClockSpec) -> ScreenVerdict {
        match self.cone_bounds(init, sens) {
            None => ScreenVerdict::Quiet,
            Some((lo, hi)) => {
                if hi + SCREEN_GUARD_PS <= clock.period_ps && lo - SCREEN_GUARD_PS >= clock.hold_ps
                {
                    ScreenVerdict::Safe {
                        min_ps: lo,
                        max_ps: hi,
                    }
                } else {
                    ScreenVerdict::Inconclusive
                }
            }
        }
    }

    /// Deliberately corrupt the tables into an *optimistic* (unsound)
    /// bound: max bounds scaled down by `factor`, min bounds scaled up by
    /// `1/factor`. Exists solely so the conformance suite can prove it
    /// catches a buggy screen; never call outside tests.
    #[doc(hidden)]
    pub fn corrupted_for_tests(mut self, factor: f64) -> Self {
        assert!((0.0..1.0).contains(&factor));
        for (lo, hi) in &mut self.to_out {
            if hi.is_finite() {
                *hi *= factor;
            }
            if lo.is_finite() {
                *lo /= factor;
            }
        }
        self
    }
}

/// Outcome of screening one cycle against a clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScreenVerdict {
    /// No toggled primary input reaches any output: the kernel would emit
    /// no output transitions at all. Exact, not merely safe.
    Quiet,
    /// Every possible transition lies inside `[hold, period]` at both
    /// clock edges; the bracketing bounds are returned as stand-in
    /// delays. Conservative: the true extremes lie within `[min, max]`.
    Safe {
        /// Lower bound on the earliest possible output transition, ps.
        min_ps: f64,
        /// Upper bound on the latest possible output transition, ps.
        max_ps: f64,
    },
    /// The envelope crosses a threshold — only the exact kernel can tell.
    Inconclusive,
}

/// A screened dynamic simulator: [`DynamicSim`] behind a [`ScreenBounds`]
/// filter, skipping the exact kernel on cycles the screen proves safe for
/// the wrapped clock.
///
/// [`simulate_pair_minmax`](Self::simulate_pair_minmax) is the fast path:
/// a [`ScreenVerdict::Safe`] cycle returns the conservative envelope
/// without simulating — interchangeable with the exact result for any
/// consumer that only compares the delays against the screened clock's
/// thresholds. The full-activity entry points
/// ([`simulate_pair`](Self::simulate_pair) /
/// [`simulate_pair_into`](Self::simulate_pair_into)) must report exact
/// per-output waveforms and internal toggle counts, which a skipped
/// simulation cannot reconstruct, so they only short-circuit the
/// [`ScreenVerdict::Quiet`] case with *no toggled inputs at all* — there
/// the settled activity is fully determined by evaluation.
#[derive(Debug)]
pub struct ScreenedSim<'a> {
    inner: DynamicSim<'a>,
    bounds: Arc<ScreenBounds>,
    clock: ClockSpec,
    hits: u64,
    misses: u64,
}

impl<'a> ScreenedSim<'a> {
    /// Wrap a dynamic simulator for `(nl, sig)` behind `bounds`, screening
    /// against `clock`.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` was built for a different netlist (length
    /// mismatch).
    pub fn new(
        nl: &'a Netlist,
        sig: &'a ChipSignature,
        bounds: Arc<ScreenBounds>,
        clock: ClockSpec,
    ) -> Self {
        assert_eq!(bounds.len(), nl.len(), "screen bounds/netlist mismatch");
        ScreenedSim {
            inner: DynamicSim::new(nl, sig),
            bounds,
            clock,
            hits: 0,
            misses: 0,
        }
    }

    /// Screen the pair without simulating: the verdict the min/max fast
    /// path acts on.
    pub fn verdict(&self, initializing: &[bool], sensitizing: &[bool]) -> ScreenVerdict {
        self.bounds.screen(initializing, sensitizing, &self.clock)
    }

    /// Min/max sensitized delays, screened: safe cycles return the
    /// conservative envelope (quiet cycles `None`/`None`, exactly as the
    /// kernel would); inconclusive cycles fall back to the exact kernel.
    pub fn simulate_pair_minmax(
        &mut self,
        initializing: &[bool],
        sensitizing: &[bool],
    ) -> MinMaxDelays {
        match self.bounds.screen(initializing, sensitizing, &self.clock) {
            ScreenVerdict::Quiet => {
                self.hits += 1;
                MinMaxDelays {
                    min_ps: None,
                    max_ps: None,
                }
            }
            ScreenVerdict::Safe { min_ps, max_ps } => {
                self.hits += 1;
                MinMaxDelays {
                    min_ps: Some(min_ps),
                    max_ps: Some(max_ps),
                }
            }
            ScreenVerdict::Inconclusive => {
                self.misses += 1;
                self.inner.simulate_pair_minmax(initializing, sensitizing)
            }
        }
    }

    /// Full-activity simulation, screened (see the type docs for why only
    /// the no-toggled-inputs case is skipped).
    pub fn simulate_pair(&mut self, initializing: &[bool], sensitizing: &[bool]) -> CycleTiming {
        let mut out = CycleTiming::default();
        self.simulate_pair_into(initializing, sensitizing, &mut out);
        out
    }

    /// Buffer-reusing variant of [`simulate_pair`](Self::simulate_pair).
    pub fn simulate_pair_into(
        &mut self,
        initializing: &[bool],
        sensitizing: &[bool],
        out: &mut CycleTiming,
    ) {
        if initializing == sensitizing {
            self.hits += 1;
            // Settled cycle: every output holds its evaluated value, no
            // transitions anywhere — identical to what the kernel returns
            // for an identical vector pair.
            let vals = self.inner.netlist().eval(initializing);
            out.outputs.resize_with(vals.len(), Default::default);
            for (o, v) in out.outputs.iter_mut().zip(vals) {
                o.initial = v;
                o.final_value = v;
                o.transitions.clear();
            }
            out.min_delay_ps = None;
            out.max_delay_ps = None;
            out.total_output_transitions = 0;
            out.internal_toggles = 0;
            return;
        }
        self.misses += 1;
        self.inner
            .simulate_pair_into(initializing, sensitizing, out);
    }

    /// Cycles answered by the screen (kernel skipped).
    pub fn screen_hits(&self) -> u64 {
        self.hits
    }

    /// Cycles that fell back to the exact kernel.
    pub fn screen_misses(&self) -> u64 {
        self.misses
    }

    /// The clock the screen compares against.
    pub fn clock(&self) -> &ClockSpec {
        &self.clock
    }

    /// The bound tables in use.
    pub fn bounds(&self) -> &ScreenBounds {
        &self.bounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::errors::classify_cycle;
    use ntc_netlist::generators::alu::{Alu, AluFunc};
    use ntc_varmodel::{Corner, VariationParams};

    fn chip() -> (Alu, ChipSignature) {
        let alu = Alu::new(8);
        let sig =
            ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 7);
        (alu, sig)
    }

    fn bounds_of(alu: &Alu, sig: &ChipSignature) -> ScreenBounds {
        let sta = StaticTiming::analyze(alu.netlist(), sig);
        ScreenBounds::build(alu.netlist(), sig, &sta)
    }

    #[test]
    fn max_bound_over_inputs_equals_static_critical() {
        let (alu, sig) = chip();
        let b = bounds_of(&alu, &sig);
        let sta = StaticTiming::analyze(alu.netlist(), &sig);
        assert!((b.static_critical_ps() - sta.critical_delay_ps(alu.netlist())).abs() < 1e-9);
    }

    #[test]
    fn identical_vectors_screen_quiet() {
        let (alu, sig) = chip();
        let b = bounds_of(&alu, &sig);
        let v = alu.encode(AluFunc::Add, 0x5A, 0xC3);
        let clock = ClockSpec {
            period_ps: 1.0,
            hold_ps: 0.5,
        };
        assert_eq!(b.screen(&v, &v, &clock), ScreenVerdict::Quiet);
    }

    #[test]
    fn loose_clock_screens_safe_tight_clock_does_not() {
        let (alu, sig) = chip();
        let b = bounds_of(&alu, &sig);
        let init = alu.encode(AluFunc::Mult, 0, 0);
        let sens = alu.encode(AluFunc::Mult, 0xFF, 0xFF);
        let (lo, hi) = b.cone_bounds(&init, &sens).expect("mult toggles inputs");
        assert!(lo <= hi);
        let loose = ClockSpec {
            period_ps: hi * 2.0,
            hold_ps: lo * 0.5,
        };
        assert!(matches!(
            b.screen(&init, &sens, &loose),
            ScreenVerdict::Safe { .. }
        ));
        let tight = ClockSpec {
            period_ps: hi * 0.5,
            hold_ps: lo * 0.5,
        };
        assert_eq!(b.screen(&init, &sens, &tight), ScreenVerdict::Inconclusive);
    }

    #[test]
    fn bounds_bracket_the_exact_kernel() {
        let (alu, sig) = chip();
        let b = bounds_of(&alu, &sig);
        let mut sim = DynamicSim::new(alu.netlist(), &sig);
        for (f, a, x) in [
            (AluFunc::Add, 0xFFu64, 0x01u64),
            (AluFunc::Mult, 0xAB, 0xCD),
            (AluFunc::Xor, 0xF0, 0x0F),
            (AluFunc::Buffer, 0x00, 0x80),
        ] {
            let init = alu.encode(AluFunc::Buffer, 0, 0);
            let sens = alu.encode(f, a, x);
            let t = sim.simulate_pair_minmax(&init, &sens);
            let Some((lo, hi)) = b.cone_bounds(&init, &sens) else {
                assert_eq!(t.max_ps, None);
                continue;
            };
            if let Some(max) = t.max_ps {
                assert!(max <= hi + SCREEN_GUARD_PS, "{f:?}: {max} > bound {hi}");
            }
            if let Some(min) = t.min_ps {
                assert!(min >= lo - SCREEN_GUARD_PS, "{f:?}: {min} < bound {lo}");
            }
        }
    }

    #[test]
    fn screened_minmax_agrees_with_kernel_on_classification() {
        let (alu, sig) = chip();
        let b = Arc::new(bounds_of(&alu, &sig));
        // Period right at the envelope of one specific pair: the screen
        // accepts it as safe, and the kernel must agree that nothing
        // violates — the adversarial near-threshold case.
        let init = alu.encode(AluFunc::Add, 0x0F, 0x01);
        let sens = alu.encode(AluFunc::Add, 0xFF, 0x01);
        let (lo, hi) = b.cone_bounds(&init, &sens).expect("adder toggles");
        let clock = ClockSpec {
            period_ps: hi + SCREEN_GUARD_PS,
            hold_ps: lo - SCREEN_GUARD_PS,
        };
        let mut screened = ScreenedSim::new(alu.netlist(), &sig, b, clock);
        let s = screened.simulate_pair_minmax(&init, &sens);
        assert_eq!(screened.screen_hits(), 1, "cycle must be screened");
        let mut exact = DynamicSim::new(alu.netlist(), &sig);
        let e = exact.simulate_pair_minmax(&init, &sens);
        // Both sides must classify as clean at the screened clock.
        for d in [s, e] {
            assert!(!d.max_ps.is_some_and(|m| m > clock.period_ps));
            assert!(!d.min_ps.is_some_and(|m| m < clock.hold_ps));
        }
    }

    #[test]
    fn screened_full_timing_is_exact() {
        let (alu, sig) = chip();
        let b = Arc::new(bounds_of(&alu, &sig));
        let clock = ClockSpec {
            period_ps: 1e6,
            hold_ps: 0.0,
        };
        let mut screened = ScreenedSim::new(alu.netlist(), &sig, b, clock);
        let mut exact = DynamicSim::new(alu.netlist(), &sig);
        let v = alu.encode(AluFunc::Sub, 0x3C, 0xA5);
        let w = alu.encode(AluFunc::Sub, 0x3D, 0xA5);
        // Settled pair: skipped, yet byte-equal to the kernel.
        assert_eq!(screened.simulate_pair(&v, &v), exact.simulate_pair(&v, &v));
        assert_eq!(screened.screen_hits(), 1);
        // Toggling pair: never skipped regardless of clock slack, because
        // full activity must be exact.
        assert_eq!(screened.simulate_pair(&v, &w), exact.simulate_pair(&v, &w));
        assert_eq!(screened.screen_misses(), 1);
    }

    #[test]
    fn corrupted_bounds_admit_violations() {
        let (alu, sig) = chip();
        let honest = bounds_of(&alu, &sig);
        let init = alu.encode(AluFunc::Mult, 0, 0);
        let sens = alu.encode(AluFunc::Mult, 0xFF, 0xFF);
        let mut exact = DynamicSim::new(alu.netlist(), &sig);
        let t = exact.simulate_pair_minmax(&init, &sens);
        let max = t.max_ps.expect("mult toggles outputs");
        // A clock the real circuit violates…
        let clock = ClockSpec {
            period_ps: max * 0.8,
            hold_ps: 0.0,
        };
        let ct = CycleTiming {
            min_delay_ps: t.min_ps,
            max_delay_ps: t.max_ps,
            ..Default::default()
        };
        assert!(classify_cycle(&ct, &clock).max, "fixture must violate");
        // …the honest screen abstains on, but an optimistic screen
        // wrongly declares safe — the bug the conformance battery exists
        // to catch.
        assert_eq!(
            honest.screen(&init, &sens, &clock),
            ScreenVerdict::Inconclusive
        );
        let buggy = bounds_of(&alu, &sig).corrupted_for_tests(0.5);
        assert!(matches!(
            buggy.screen(&init, &sens, &clock),
            ScreenVerdict::Safe { .. }
        ));
    }
}
