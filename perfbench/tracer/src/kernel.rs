//! The exact dynamic-timing kernel, measured on real oracle misses.
//!
//! Traced grid cells record every operand pair the oracle had to
//! simulate, per fabricated chip. The pairs are stored as `.ntt` traces
//! (`workload::trace_bin`; records `2k` and `2k+1` form pair `k`), read
//! back, and replayed on one thread through the public kernel entry point
//! `SimWorkspace::simulate_pair_minmax` against the chip they missed on.
//! The same chips' screen tables are rebuilt once each to time the
//! screen build, which the chip memo otherwise hides inside
//! `build_oracle`.

use ntc_core::tag_delay::TagDelayOracle;
use ntc_isa::Instruction;
use ntc_netlist::Netlist;
use ntc_timing::dynamic::SimWorkspace;
use ntc_timing::{ScreenBounds, StaticTiming};
use ntc_varmodel::ChipSignature;
use ntc_workload::trace_bin;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identity of one fabricated chip, as the chip memo keys it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ChipKey {
    pub regime: &'static str,
    pub point: &'static str,
    pub seed: u64,
    pub buffered: bool,
    pub top_k: usize,
}

impl ChipKey {
    fn file_name(&self) -> String {
        format!(
            "{}-{}-s{}-{}-k{}.ntt",
            self.regime,
            self.point,
            self.seed,
            if self.buffered { "buf" } else { "bare" },
            self.top_k
        )
    }
}

/// Every chip a traced cell built: its netlist and signature.
static CHIPS: Mutex<BTreeMap<ChipKey, (Netlist, ChipSignature)>> = Mutex::new(BTreeMap::new());
/// Captured miss pairs per chip, flattened.
static CAPTURED: Mutex<BTreeMap<ChipKey, Vec<Instruction>>> = Mutex::new(BTreeMap::new());

/// Remember `key`'s netlist and signature the first time it is built.
pub fn register_chip(key: &ChipKey, oracle: &TagDelayOracle) {
    let mut chips = CHIPS.lock().expect("chip registry poisoned");
    if !chips.contains_key(key) {
        chips.insert(
            key.clone(),
            (oracle.netlist().clone(), oracle.signature().clone()),
        );
    }
}

/// Distinct chips built by traced cells.
pub fn chips() -> usize {
    CHIPS.lock().expect("chip registry poisoned").len()
}

/// Append one cell's captured pairs for `key`.
pub fn add_capture(key: ChipKey, pairs: Vec<Instruction>) {
    if !pairs.is_empty() {
        CAPTURED
            .lock()
            .expect("capture table poisoned")
            .entry(key)
            .or_default()
            .extend(pairs);
    }
}

/// The ALU netlist's primary inputs for one instruction: the 4-bit
/// function select, then the `a` and `b` operand bits, LSB first.
fn encode(width: usize, instr: &Instruction, out: &mut Vec<bool>) {
    let code = instr.opcode.alu_func().select_code();
    out.clear();
    out.extend((0..4).map(|i| (code >> i) & 1 == 1));
    out.extend((0..width).map(|i| (instr.a >> i) & 1 == 1));
    out.extend((0..width).map(|i| (instr.b >> i) & 1 == 1));
}

/// What the replay measured.
#[derive(Debug, Default)]
pub struct Replay {
    /// Pairs replayed (equals the pairs captured).
    pub pairs: u64,
    /// Kernel time over all replayed pairs, one thread.
    pub ns: u64,
}

/// Write the captured pairs under `dir` as one `.ntt` per chip, read them
/// back, and time the kernel over every pair.
///
/// # Panics
///
/// Panics on I/O errors or a trace that does not read back.
pub fn store_and_replay(dir: &Path) -> Replay {
    std::fs::create_dir_all(dir).expect("create capture dir");
    let captured = std::mem::take(&mut *CAPTURED.lock().expect("capture table poisoned"));
    let chips = CHIPS.lock().expect("chip registry poisoned");
    let mut replay = Replay::default();
    let mut workspace = SimWorkspace::new();
    let (mut init, mut sens) = (Vec::new(), Vec::new());
    for (key, flat) in &captured {
        let path = dir.join(key.file_name());
        trace_bin::write_trace_file(&path, flat).expect("write capture trace");
        let pairs = trace_bin::read_trace_file(&path).expect("read capture trace");
        assert_eq!(&pairs, flat, "capture trace did not round-trip");
        let (netlist, signature) = chips.get(key).expect("captured chip was registered");
        let width = netlist.input_port("a").expect("ALU `a` port").bits.len();
        let start = Instant::now();
        for pair in pairs.chunks_exact(2) {
            encode(width, &pair[0], &mut init);
            encode(width, &pair[1], &mut sens);
            std::hint::black_box(workspace.simulate_pair_minmax(netlist, signature, &init, &sens));
        }
        replay.ns += start.elapsed().as_nanos() as u64;
        replay.pairs += (pairs.len() / 2) as u64;
    }
    replay
}

/// Rebuild each registered chip's screen tables once and return the
/// summed build time. Static analysis feeding the build is not timed.
pub fn screen_build_ns() -> u64 {
    let chips = CHIPS.lock().expect("chip registry poisoned");
    let mut total = 0;
    for (netlist, signature) in chips.values() {
        let sta = StaticTiming::analyze(netlist, signature);
        let start = Instant::now();
        let bounds = ScreenBounds::build(netlist, signature, &sta);
        total += start.elapsed().as_nanos() as u64;
        assert!(!bounds.is_empty());
    }
    total
}
