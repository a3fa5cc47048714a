//! The netlist data structure: a combinational cloud between two pipeline
//! register boundaries.
//!
//! Every signal is the output of exactly one gate, identified by a
//! [`Signal`]. Gates can only reference signals created before them, so the
//! gate order *is* a topological order — an invariant every analysis in
//! `ntc-timing` relies on.

use crate::cell::CellKind;
use crate::control::ControlIndex;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A signal: the output net of one gate, identified by the gate's index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal(pub(crate) u32);

impl Signal {
    /// Index of the driving gate in [`Netlist::gates`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Signal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One gate instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    kind: CellKind,
    ins: [Signal; 3],
}

impl Gate {
    /// The cell kind of this gate.
    #[inline]
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// The input signals (exactly `kind().arity()` of them).
    #[inline]
    pub fn inputs(&self) -> &[Signal] {
        &self.ins[..self.kind.arity()]
    }
}

/// A named group of signals (a bus) exposed at the netlist boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    /// Port name, e.g. `"a"` or `"result"`.
    pub name: String,
    /// Bus bits, LSB first.
    pub bits: Vec<Signal>,
}

/// Errors raised while building or validating a netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// A gate referenced a signal with an index >= its own, violating the
    /// creation-order topological invariant.
    ForwardReference {
        /// Index of the offending gate.
        gate: usize,
        /// The forward-referencing input signal.
        input: Signal,
    },
    /// Two ports were registered under the same name.
    DuplicatePort(String),
    /// An output port referenced a signal outside the netlist.
    DanglingOutput(Signal),
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildNetlistError::ForwardReference { gate, input } => {
                write!(f, "gate {gate} references not-yet-created signal {input}")
            }
            BuildNetlistError::DuplicatePort(name) => {
                write!(f, "duplicate port name `{name}`")
            }
            BuildNetlistError::DanglingOutput(sig) => {
                write!(f, "output port references dangling signal {sig}")
            }
        }
    }
}

impl std::error::Error for BuildNetlistError {}

/// A combinational gate-level netlist.
///
/// Constructed through [`Builder`]; immutable afterwards (transformation
/// passes such as [buffer insertion](crate::buffer_insertion) produce a new
/// netlist).
///
/// # Examples
///
/// ```
/// use ntc_netlist::{Builder, CellKind};
///
/// let mut b = Builder::new();
/// let a = b.input("a");
/// let c = b.input("b");
/// let y = b.gate2(CellKind::Xor2, a, c);
/// b.output("y", y);
/// let nl = b.finish();
///
/// assert_eq!(nl.eval(&[true, false]), vec![true]);
/// assert_eq!(nl.eval(&[true, true]), vec![false]);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<Signal>,
    outputs: Vec<Signal>,
    input_ports: Vec<Port>,
    output_ports: Vec<Port>,
    /// CSR fanout index: gates fed by signal `i` live at
    /// `fanout_targets[fanout_offsets[i]..fanout_offsets[i + 1]]`, in
    /// ascending gate order. Built once in [`Builder::finish`]; the
    /// event-driven dynamic simulator walks it instead of scanning every
    /// gate.
    fanout_offsets: Vec<u32>,
    fanout_targets: Vec<u32>,
    /// The control-cone index (see [`crate::control`]), built once in
    /// [`Builder::finish`] and shared by every clone.
    control: Option<Arc<ControlIndex>>,
}

impl Netlist {
    /// All gates in topological (creation) order.
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate driving `sig`.
    #[inline]
    pub fn gate(&self, sig: Signal) -> &Gate {
        &self.gates[sig.index()]
    }

    /// Total number of gates, including pseudo-cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist contains no gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of *logic* gates (excluding inputs and constants) — the count
    /// used for CGL percentages and the overhead tables.
    pub fn logic_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.kind.is_pseudo()).count()
    }

    /// Primary input signals, in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[Signal] {
        &self.inputs
    }

    /// Primary output signals (capture-flop data pins), in declaration order.
    #[inline]
    pub fn outputs(&self) -> &[Signal] {
        &self.outputs
    }

    /// Named input ports.
    #[inline]
    pub fn input_ports(&self) -> &[Port] {
        &self.input_ports
    }

    /// Named output ports.
    #[inline]
    pub fn output_ports(&self) -> &[Port] {
        &self.output_ports
    }

    /// Look up an input port by name.
    pub fn input_port(&self, name: &str) -> Option<&Port> {
        self.input_ports.iter().find(|p| p.name == name)
    }

    /// Look up an output port by name.
    pub fn output_port(&self, name: &str) -> Option<&Port> {
        self.output_ports.iter().find(|p| p.name == name)
    }

    /// Iterate over `(Signal, &Gate)` pairs in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (Signal, &Gate)> {
        self.gates
            .iter()
            .enumerate()
            .map(|(i, g)| (Signal(i as u32), g))
    }

    /// Evaluate the netlist combinationally for one input assignment.
    ///
    /// `pi_values` are the primary input values in declaration order.
    /// Returns the output values in declaration order.
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the number of primary inputs.
    pub fn eval(&self, pi_values: &[bool]) -> Vec<bool> {
        let values = self.eval_all(pi_values);
        self.outputs.iter().map(|s| values[s.index()]).collect()
    }

    /// Evaluate the netlist and return the value of *every* signal, indexed
    /// by [`Signal::index`].
    ///
    /// # Panics
    ///
    /// Panics if `pi_values.len()` differs from the number of primary inputs.
    pub fn eval_all(&self, pi_values: &[bool]) -> Vec<bool> {
        assert_eq!(
            pi_values.len(),
            self.inputs.len(),
            "stimulus width mismatch: got {}, netlist has {} inputs",
            pi_values.len(),
            self.inputs.len()
        );
        let mut values = vec![false; self.gates.len()];
        for (s, &v) in self.inputs.iter().zip(pi_values) {
            values[s.index()] = v;
        }
        for i in 0..self.gates.len() {
            self.settle_gate(&mut values, i);
        }
        values
    }

    /// Settle gate `i` in `values` (indexed by [`Signal::index`]) from its
    /// fanins' entries, which must already hold settled values. Primary
    /// inputs have no logic function and are left as they are. The
    /// dynamic timing simulator settles only the gates a cycle can
    /// observe with it.
    #[inline]
    pub fn settle_gate(&self, values: &mut [bool], i: usize) {
        let g = &self.gates[i];
        if g.kind == CellKind::Input {
            return;
        }
        let arity = g.kind.arity();
        let mut scratch = [false; 3];
        for (j, s) in g.ins[..arity].iter().enumerate() {
            scratch[j] = values[s.index()];
        }
        values[i] = g.kind.eval(&scratch[..arity]);
    }

    /// Gate indices fed by `sig`'s net, in ascending (topological) order —
    /// the precomputed fanout index. A gate sampling the same signal on
    /// two pins appears once per pin.
    #[inline]
    pub fn fanout_of(&self, sig: Signal) -> &[u32] {
        self.fanout_of_index(sig.index())
    }

    /// [`fanout_of`](Self::fanout_of) addressed by raw signal index — the
    /// form the event-driven simulator's worklist uses.
    #[inline]
    pub fn fanout_of_index(&self, i: usize) -> &[u32] {
        let lo = self.fanout_offsets[i] as usize;
        let hi = self.fanout_offsets[i + 1] as usize;
        &self.fanout_targets[lo..hi]
    }

    /// The control-cone index: `None` unless the netlist has an `op`
    /// input port whose decoded lines gate at least one AND2.
    #[inline]
    pub fn control_index(&self) -> Option<&ControlIndex> {
        self.control.as_deref()
    }

    /// Live-gate mask, one bit per gate, for a cycle in which the gating
    /// nets in slot set `stable0` (bit `k` ↔
    /// [`ControlIndex::gating_nets`]`()[k]`) hold a stable 0: a gate is
    /// live iff it is a control net or has a path to an output that
    /// crosses no AND2 gated by one of those nets. Derived once per set
    /// and memoized in the shared index.
    ///
    /// # Panics
    ///
    /// Panics if the netlist has no [`control_index`](Self::control_index)
    /// or `stable0` is shorter than its slot count.
    pub fn live_gates(&self, stable0: &[u64]) -> Arc<[u64]> {
        self.control
            .as_ref()
            .expect("live_gates needs a control index")
            .live_gates(self, stable0)
    }

    /// Per-gate fanout counts (number of gate input pins each signal feeds,
    /// plus one for each primary-output use).
    pub fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.gates.len()];
        for g in &self.gates {
            for s in g.inputs() {
                counts[s.index()] += 1;
            }
        }
        for s in &self.outputs {
            counts[s.index()] += 1;
        }
        counts
    }

    /// Logic depth (in gates) of each signal: pseudo-cells have depth 0.
    pub fn depths(&self) -> Vec<u32> {
        let mut depth = vec![0u32; self.gates.len()];
        for (i, g) in self.gates.iter().enumerate() {
            if g.kind.is_pseudo() {
                continue;
            }
            let d = g
                .inputs()
                .iter()
                .map(|s| depth[s.index()])
                .max()
                .unwrap_or(0);
            depth[i] = d + 1;
        }
        depth
    }

    /// Maximum logic depth over all primary outputs.
    pub fn max_depth(&self) -> u32 {
        let depths = self.depths();
        self.outputs
            .iter()
            .map(|s| depths[s.index()])
            .max()
            .unwrap_or(0)
    }

    /// Validate the topological invariant and port consistency.
    ///
    /// The [`Builder`] maintains these invariants by construction; this is a
    /// defence-in-depth check used by transformation passes and tests.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), BuildNetlistError> {
        for (i, g) in self.gates.iter().enumerate() {
            for &s in g.inputs() {
                if s.index() >= i {
                    return Err(BuildNetlistError::ForwardReference { gate: i, input: s });
                }
            }
        }
        for s in self.outputs.iter().chain(self.inputs.iter()) {
            if s.index() >= self.gates.len() {
                return Err(BuildNetlistError::DanglingOutput(*s));
            }
        }
        Ok(())
    }

    /// Histogram of logic-cell usage, e.g. for library reports.
    pub fn cell_histogram(&self) -> HashMap<CellKind, usize> {
        let mut h = HashMap::new();
        for g in &self.gates {
            if !g.kind.is_pseudo() {
                *h.entry(g.kind).or_insert(0) += 1;
            }
        }
        h
    }

    /// Total standard-cell area in square micrometres.
    pub fn area_um2(&self) -> f64 {
        self.gates.iter().map(|g| g.kind.area_um2()).sum()
    }

    /// Total leakage power at the nominal corner, in nanowatts.
    pub fn leakage_nw(&self) -> f64 {
        self.gates.iter().map(|g| g.kind.leakage_nw()).sum()
    }

    /// Estimated total wirelength in micrometres, using a Rent's-rule style
    /// half-perimeter model: each net's length scales with the square root
    /// of the placement area times a fanout factor.
    ///
    /// This substitutes for the place-and-route wirelength the paper obtains
    /// from Cadence SoC Encounter; only *relative* wirelengths (overhead
    /// percentages) are consumed downstream.
    pub fn estimated_wirelength_um(&self) -> f64 {
        let area = self.area_um2().max(1e-9);
        let pitch = area.sqrt() / (self.logic_gate_count().max(1) as f64).sqrt();
        self.fanout_counts()
            .iter()
            .zip(self.gates.iter())
            .filter(|(_, g)| !g.kind.is_pseudo())
            .map(|(&fo, _)| pitch * (1.0 + (fo as f64).sqrt()))
            .sum()
    }
}

/// Build the CSR fanout adjacency (offsets + targets) for a gate list.
/// Filling in gate order keeps each signal's target list ascending.
fn build_fanout_index(gates: &[Gate]) -> (Vec<u32>, Vec<u32>) {
    let n = gates.len();
    let mut offsets = vec![0u32; n + 1];
    for g in gates {
        for s in g.inputs() {
            offsets[s.index() + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor: Vec<u32> = offsets[..n].to_vec();
    let total = offsets[n] as usize;
    let mut targets = vec![0u32; total];
    for (i, g) in gates.iter().enumerate() {
        for s in g.inputs() {
            let c = &mut cursor[s.index()];
            targets[*c as usize] = i as u32;
            *c += 1;
        }
    }
    (offsets, targets)
}

/// Incremental netlist builder.
///
/// Signals can only be used after they are created, which guarantees the
/// resulting [`Netlist`] is a DAG in topological order.
#[derive(Debug, Default)]
pub struct Builder {
    gates: Vec<Gate>,
    inputs: Vec<Signal>,
    outputs: Vec<Signal>,
    input_ports: Vec<Port>,
    output_ports: Vec<Port>,
    const0: Option<Signal>,
    const1: Option<Signal>,
}

impl Builder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, kind: CellKind, ins: [Signal; 3]) -> Signal {
        let arity = kind.arity();
        for &s in &ins[..arity] {
            assert!(
                s.index() < self.gates.len(),
                "input {s} does not exist yet (builder has {} gates)",
                self.gates.len()
            );
        }
        let id = Signal(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(Gate { kind, ins });
        id
    }

    /// Declare a single-bit primary input port.
    pub fn input(&mut self, name: &str) -> Signal {
        let bus = self.input_bus(name, 1);
        bus[0]
    }

    /// Declare an `n`-bit primary input bus (LSB first).
    pub fn input_bus(&mut self, name: &str, n: usize) -> Vec<Signal> {
        let dummy = Signal(0);
        let bits: Vec<Signal> = (0..n)
            .map(|_| {
                let s = self.push(CellKind::Input, [dummy; 3]);
                self.inputs.push(s);
                s
            })
            .collect();
        self.input_ports.push(Port {
            name: name.to_owned(),
            bits: bits.clone(),
        });
        bits
    }

    /// The shared constant-0 signal (created on first use).
    pub fn const0(&mut self) -> Signal {
        match self.const0 {
            Some(s) => s,
            None => {
                let s = self.push(CellKind::Const0, [Signal(0); 3]);
                self.const0 = Some(s);
                s
            }
        }
    }

    /// The shared constant-1 signal (created on first use).
    pub fn const1(&mut self) -> Signal {
        match self.const1 {
            Some(s) => s,
            None => {
                let s = self.push(CellKind::Const1, [Signal(0); 3]);
                self.const1 = Some(s);
                s
            }
        }
    }

    /// Add a 1-input gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind.arity() != 1` or an input does not exist yet.
    pub fn gate1(&mut self, kind: CellKind, a: Signal) -> Signal {
        assert_eq!(kind.arity(), 1, "{kind} is not a 1-input cell");
        self.push(kind, [a, a, a])
    }

    /// Add a 2-input gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind.arity() != 2` or an input does not exist yet.
    pub fn gate2(&mut self, kind: CellKind, a: Signal, b: Signal) -> Signal {
        assert_eq!(kind.arity(), 2, "{kind} is not a 2-input cell");
        self.push(kind, [a, b, b])
    }

    /// Add a 3-input gate (`Mux2` inputs are `[a, b, sel]`).
    ///
    /// # Panics
    ///
    /// Panics if `kind.arity() != 3` or an input does not exist yet.
    pub fn gate3(&mut self, kind: CellKind, a: Signal, b: Signal, c: Signal) -> Signal {
        assert_eq!(kind.arity(), 3, "{kind} is not a 3-input cell");
        self.push(kind, [a, b, c])
    }

    /// Convenience: inverter.
    pub fn not(&mut self, a: Signal) -> Signal {
        self.gate1(CellKind::Inv, a)
    }

    /// Convenience: buffer.
    pub fn buf(&mut self, a: Signal) -> Signal {
        self.gate1(CellKind::Buf, a)
    }

    /// Convenience: AND2.
    pub fn and(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate2(CellKind::And2, a, b)
    }

    /// Convenience: OR2.
    pub fn or(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate2(CellKind::Or2, a, b)
    }

    /// Convenience: XOR2.
    pub fn xor(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate2(CellKind::Xor2, a, b)
    }

    /// Convenience: NOR2.
    pub fn nor(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate2(CellKind::Nor2, a, b)
    }

    /// Convenience: NAND2.
    pub fn nand(&mut self, a: Signal, b: Signal) -> Signal {
        self.gate2(CellKind::Nand2, a, b)
    }

    /// Convenience: 2:1 mux (`sel == 0` → `a`, `sel == 1` → `b`).
    pub fn mux(&mut self, a: Signal, b: Signal, sel: Signal) -> Signal {
        self.gate3(CellKind::Mux2, a, b, sel)
    }

    /// Convenience: majority-of-3 (full-adder carry).
    pub fn maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        self.gate3(CellKind::Maj3, a, b, c)
    }

    /// Bitwise mux over two equal-width buses.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub fn mux_bus(&mut self, a: &[Signal], b: &[Signal], sel: Signal) -> Vec<Signal> {
        assert_eq!(a.len(), b.len(), "mux bus width mismatch");
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| self.mux(x, y, sel))
            .collect()
    }

    /// Register a single-bit output port.
    pub fn output(&mut self, name: &str, s: Signal) {
        self.output_bus(name, &[s]);
    }

    /// Register an output bus (LSB first).
    pub fn output_bus(&mut self, name: &str, bits: &[Signal]) {
        self.outputs.extend_from_slice(bits);
        self.output_ports.push(Port {
            name: name.to_owned(),
            bits: bits.to_vec(),
        });
    }

    /// Number of gates added so far.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether no gates have been added yet.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Finish building.
    ///
    /// # Panics
    ///
    /// Panics if a port name was registered twice (a programming error in
    /// the generator).
    pub fn finish(self) -> Netlist {
        let (fanout_offsets, fanout_targets) = build_fanout_index(&self.gates);
        let mut nl = Netlist {
            gates: self.gates,
            inputs: self.inputs,
            outputs: self.outputs,
            input_ports: self.input_ports,
            output_ports: self.output_ports,
            fanout_offsets,
            fanout_targets,
            control: None,
        };
        for ports in [&nl.input_ports, &nl.output_ports] {
            for (i, p) in ports.iter().enumerate() {
                assert!(
                    !ports[..i].iter().any(|q| q.name == p.name),
                    "duplicate port name `{}`",
                    p.name
                );
            }
        }
        debug_assert!(nl.validate().is_ok());
        nl.control = ControlIndex::build(&nl).map(Arc::new);
        nl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_adder_netlist() -> Netlist {
        let mut b = Builder::new();
        let a = b.input("a");
        let c = b.input("b");
        let cin = b.input("cin");
        let axb = b.xor(a, c);
        let sum = b.xor(axb, cin);
        let cout = b.maj(a, c, cin);
        b.output("sum", sum);
        b.output("cout", cout);
        b.finish()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder_netlist();
        for a in 0..2u8 {
            for c in 0..2u8 {
                for cin in 0..2u8 {
                    let out = nl.eval(&[a == 1, c == 1, cin == 1]);
                    let total = a + c + cin;
                    assert_eq!(out[0], total & 1 == 1, "sum for {a}+{c}+{cin}");
                    assert_eq!(out[1], total >= 2, "cout for {a}+{c}+{cin}");
                }
            }
        }
    }

    #[test]
    fn topo_invariant_holds_and_validates() {
        let nl = full_adder_netlist();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.logic_gate_count(), 3);
        assert_eq!(nl.max_depth(), 2);
    }

    #[test]
    fn constants_are_shared() {
        let mut b = Builder::new();
        let c0a = b.const0();
        let c0b = b.const0();
        let c1a = b.const1();
        let c1b = b.const1();
        assert_eq!(c0a, c0b);
        assert_eq!(c1a, c1b);
        assert_ne!(c0a, c1a);
    }

    #[test]
    fn ports_are_recorded() {
        let nl = full_adder_netlist();
        assert_eq!(nl.input_ports().len(), 3);
        assert_eq!(nl.output_port("sum").expect("sum port").bits.len(), 1);
        assert!(nl.output_port("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "does not exist yet")]
    fn forward_reference_panics() {
        let mut b = Builder::new();
        let a = b.input("a");
        // Signal index 5 does not exist.
        let bogus = Signal(5);
        let _ = b.and(a, bogus);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let nl = full_adder_netlist();
        let fo = nl.fanout_counts();
        // inputs a, b feed xor+maj each => fanout 2.
        assert_eq!(fo[nl.inputs()[0].index()], 2);
        // sum gate feeds only the output port.
        let sum = nl.output_port("sum").expect("sum").bits[0];
        assert_eq!(fo[sum.index()], 1);
    }

    #[test]
    fn area_and_wirelength_positive() {
        let nl = full_adder_netlist();
        assert!(nl.area_um2() > 0.0);
        assert!(nl.estimated_wirelength_um() > 0.0);
        assert!(nl.leakage_nw() > 0.0);
    }

    #[test]
    fn fanout_index_matches_gate_inputs() {
        let nl = full_adder_netlist();
        // Rebuild the adjacency the slow way and compare.
        for (sig, _) in nl.iter() {
            let expect: Vec<u32> = nl
                .gates()
                .iter()
                .enumerate()
                .flat_map(|(i, g)| {
                    g.inputs()
                        .iter()
                        .filter(|s| **s == sig)
                        .map(move |_| i as u32)
                        .collect::<Vec<_>>()
                })
                .collect();
            assert_eq!(nl.fanout_of(sig), expect.as_slice(), "fanout of {sig}");
        }
        // a feeds xor(axb) and maj(cout): two fanout pins.
        assert_eq!(nl.fanout_of(nl.inputs()[0]).len(), 2);
    }

    #[test]
    fn eval_all_exposes_internal_nets() {
        let nl = full_adder_netlist();
        let vals = nl.eval_all(&[true, true, false]);
        assert_eq!(vals.len(), nl.len());
        // sum = 0, cout = 1 for 1+1+0
        let sum = nl.output_port("sum").expect("sum").bits[0];
        let cout = nl.output_port("cout").expect("cout").bits[0];
        assert!(!vals[sum.index()]);
        assert!(vals[cout.index()]);
    }
}
