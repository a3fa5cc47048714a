//! The control-cone index of an `op`-selected datapath: which gates a
//! decoded select line can cut off from every output.
//!
//! The ALU (and the EX stage around it) computes every unit in parallel
//! and picks the result through a one-hot AND–OR mux
//! ([`onehot_select`](crate::generators::logic::onehot_select)). An AND2
//! whose other pin is a decoded `op` line that holds 0 for a whole cycle
//! outputs 0 at every instant, so nothing on its data pin can reach an
//! output through it. A gate all of whose output paths cross such an AND
//! is *unobservable* for that cycle; the dynamic timing kernel skips it.
//!
//! The index is structural and built once per netlist in
//! [`Builder::finish`](crate::Builder::finish); clones of a netlist share
//! it, together with its memo of live-gate masks (one per set of
//! stable-0 gating nets).

use crate::cell::CellKind;
use crate::netlist::Netlist;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// The input port whose cone is control logic.
pub const CONTROL_PORT: &str = "op";

/// Per-topology index of the control cone and the AND2 pins it gates.
///
/// * **Control nets** are the nets whose whole fan-in lies inside the
///   [`CONTROL_PORT`] bits: the port's inputs, and every logic gate all of
///   whose inputs are control nets (the decoder, and any buffer a
///   hold-fixing pass put on a select line).
/// * A **gated AND** is a non-control AND2 with one control pin; that pin's
///   net is a **gating net**.
pub struct ControlIndex {
    /// Non-pseudo control gates, ascending (a topological order).
    control_gates: Vec<u32>,
    /// Distinct gating nets, ascending; a net's position is its *slot*.
    gating_nets: Vec<u32>,
    /// Every gated AND with the slot of its gating net.
    gated_ands: Vec<(u32, u32)>,
    /// Control-net membership, one bit per gate.
    control: Vec<u64>,
    /// Live-gate masks already derived, keyed by the stable-0 slot set.
    live_masks: Mutex<HashMap<Vec<u64>, Arc<[u64]>>>,
}

impl fmt::Debug for ControlIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ControlIndex")
            .field("control_gates", &self.control_gates.len())
            .field("gating_nets", &self.gating_nets.len())
            .field("gated_ands", &self.gated_ands.len())
            .finish_non_exhaustive()
    }
}

#[inline]
fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

impl ControlIndex {
    /// Index `nl`'s control cone, or `None` when it has no
    /// [`CONTROL_PORT`] or no gated AND (nothing could ever be cut).
    pub(crate) fn build(nl: &Netlist) -> Option<Self> {
        let port = nl.input_port(CONTROL_PORT)?;
        let n = nl.len();
        let mut control = vec![false; n];
        for s in &port.bits {
            control[s.index()] = true;
        }
        let mut control_gates = Vec::new();
        for (i, g) in nl.gates().iter().enumerate() {
            if !g.kind().is_pseudo() && g.inputs().iter().all(|s| control[s.index()]) {
                control[i] = true;
                control_gates.push(i as u32);
            }
        }
        // A non-control AND2 has at most one control pin.
        let gated: Vec<(u32, u32)> = nl
            .gates()
            .iter()
            .enumerate()
            .filter(|&(i, g)| g.kind() == CellKind::And2 && !control[i])
            .filter_map(|(i, g)| {
                let c = g.inputs().iter().find(|s| control[s.index()])?;
                Some((i as u32, c.index() as u32))
            })
            .collect();
        if gated.is_empty() {
            return None;
        }
        let mut gating_nets: Vec<u32> = gated.iter().map(|&(_, c)| c).collect();
        gating_nets.sort_unstable();
        gating_nets.dedup();
        let gated_ands = gated
            .iter()
            .map(|&(g, c)| {
                let slot = gating_nets.binary_search(&c).expect("gating net indexed");
                (g, slot as u32)
            })
            .collect();
        let mut bits = vec![0u64; n.div_ceil(64)];
        for (i, _) in control.iter().enumerate().filter(|(_, &c)| c) {
            bits[i / 64] |= 1 << (i % 64);
        }
        Some(ControlIndex {
            control_gates,
            gating_nets,
            gated_ands,
            control: bits,
            live_masks: Mutex::new(HashMap::new()),
        })
    }

    /// Non-pseudo control gates in ascending (topological) order. Their
    /// inputs are control nets only, so their waveforms can be settled
    /// before any datapath gate is looked at.
    #[inline]
    pub fn control_gates(&self) -> &[u32] {
        &self.control_gates
    }

    /// The gating nets, ascending. Slot `k` of a stable-0 set passed to
    /// [`Netlist::live_gates`] refers to `gating_nets()[k]`.
    #[inline]
    pub fn gating_nets(&self) -> &[u32] {
        &self.gating_nets
    }

    /// Whether gate `i` is a control net.
    #[inline]
    pub(crate) fn is_control(&self, i: usize) -> bool {
        bit(&self.control, i)
    }

    /// The live-gate mask for the stable-0 slot set `stable0`, derived on
    /// first request and shared afterwards.
    pub(crate) fn live_gates(&self, nl: &Netlist, stable0: &[u64]) -> Arc<[u64]> {
        // A panic under the lock happens before `insert`, leaving the memo
        // intact, so a poisoned guard is safe to reuse.
        let mut memo = self.live_masks.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mask) = memo.get(stable0) {
            return Arc::clone(mask);
        }
        let mask: Arc<[u64]> = self.derive_live(nl, stable0).into();
        memo.insert(stable0.to_vec(), Arc::clone(&mask));
        mask
    }

    /// One reverse topological pass: a gate is live if it is an output, a
    /// control net, or feeds a live gate other than a cut AND (a gated AND
    /// whose gating net is in `stable0`). A non-control gate reaches a cut
    /// AND only through its data pin, so that edge is the one removed.
    fn derive_live(&self, nl: &Netlist, stable0: &[u64]) -> Vec<u64> {
        let n = nl.len();
        let mut cut = vec![false; n];
        for &(g, slot) in &self.gated_ands {
            if bit(stable0, slot as usize) {
                cut[g as usize] = true;
            }
        }
        let mut live = vec![false; n];
        for s in nl.outputs() {
            live[s.index()] = true;
        }
        for i in (0..n).rev() {
            live[i] = live[i]
                || self.is_control(i)
                || nl
                    .fanout_of_index(i)
                    .iter()
                    .any(|&h| live[h as usize] && !cut[h as usize]);
        }
        let mut words = vec![0u64; n.div_ceil(64)];
        for (i, _) in live.iter().enumerate().filter(|(_, &l)| l) {
            words[i / 64] |= 1 << (i % 64);
        }
        words
    }
}

#[cfg(test)]
mod tests {
    use crate::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
    use crate::generators::ex_stage::ExStage;
    use crate::Builder;

    fn all_but(func: AluFunc, slots: usize) -> Vec<u64> {
        let mut set = vec![0u64; slots.div_ceil(64)];
        for k in 0..slots {
            set[k / 64] |= 1 << (k % 64);
        }
        let k = func.select_code() as usize;
        set[k / 64] &= !(1 << (k % 64));
        set
    }

    fn live_count(mask: &[u64]) -> usize {
        mask.iter().map(|w| w.count_ones() as usize).sum()
    }

    #[test]
    fn alu_gating_nets_are_the_decoder_lines() {
        let alu = Alu::new(8);
        let idx = alu.netlist().control_index().expect("ALU has an op port");
        // One gating net per decoded function; the decoder is 4 inverters
        // plus a 3-AND tree per line.
        assert_eq!(idx.gating_nets().len(), ALL_ALU_FUNCS.len());
        assert_eq!(idx.control_gates().len(), 4 + 3 * ALL_ALU_FUNCS.len());
        for &g in idx.control_gates() {
            assert!(idx.is_control(g as usize));
        }
    }

    #[test]
    fn selecting_buffer_cuts_the_multiplier_but_keeps_outputs() {
        let alu = Alu::new(16);
        let nl = alu.netlist();
        let slots = nl.control_index().expect("op port").gating_nets().len();
        let buffer = nl.live_gates(&all_but(AluFunc::Buffer, slots));
        let mult = nl.live_gates(&all_but(AluFunc::Mult, slots));
        // Only the result mux is shared: the buffer cone is under half the
        // multiplier's, and neither covers the whole netlist.
        assert!(live_count(&buffer) * 2 < live_count(&mult));
        assert!(live_count(&mult) < nl.len());
        for s in nl.outputs() {
            assert!((buffer[s.index() / 64] >> (s.index() % 64)) & 1 == 1);
        }
        // The memo hands back the same mask for the same set.
        let again = nl.live_gates(&all_but(AluFunc::Buffer, slots));
        assert!(std::sync::Arc::ptr_eq(&buffer, &again));
        // Clones share the index and its memo.
        let copy = nl.clone();
        assert!(std::sync::Arc::ptr_eq(
            &buffer,
            &copy.live_gates(&all_but(AluFunc::Buffer, slots))
        ));
    }

    #[test]
    fn empty_stable_set_keeps_every_gate_with_an_output_path() {
        let ex = ExStage::new(8);
        let nl = ex.netlist();
        let slots = nl.control_index().expect("op port").gating_nets().len();
        let mask = nl.live_gates(&vec![0u64; slots.div_ceil(64)]);
        let reaches: Vec<bool> = {
            let mut r = vec![false; nl.len()];
            for s in nl.outputs() {
                r[s.index()] = true;
            }
            for i in (0..nl.len()).rev() {
                r[i] = r[i] || nl.fanout_of_index(i).iter().any(|&h| r[h as usize]);
            }
            r
        };
        for (i, &r) in reaches.iter().enumerate() {
            assert_eq!((mask[i / 64] >> (i % 64)) & 1 == 1, r, "gate {i}");
        }
    }

    #[test]
    fn netlists_without_op_or_gated_ands_have_no_index() {
        let mut b = Builder::new();
        let a = b.input("a");
        let c = b.input("b");
        let y = b.and(a, c);
        b.output("y", y);
        assert!(b.finish().control_index().is_none());

        let mut b = Builder::new();
        let op = b.input("op");
        let a = b.input("a");
        let y = b.xor(op, a);
        b.output("y", y);
        assert!(b.finish().control_index().is_none());
    }
}
