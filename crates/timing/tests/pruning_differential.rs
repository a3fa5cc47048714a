//! Differential suite for observability pruning: the pruned min/max entry
//! point (`SimWorkspace::simulate_pair_minmax`, and `DynamicSim`'s) must
//! return exactly the min/max of the full-activity path
//! (`simulate_pair_into`), compared with `to_bits`.
//!
//! Coverage: bare ALUs at widths 8, 32 and 64, the hold-buffered ALU, a
//! harden-choke chip, and the EX stage; nominal and fabricated chips at
//! both corners; same-op pairs (the decoder is quiet and twelve units are
//! cut) and every op transition (the decoder toggles, and on fabricated
//! chips its AND trees glitch, so a glitching line must not count as
//! stable). Stimuli come from fixed-seed SplitMix64 streams, so every
//! failure reproduces exactly.

use ntc_netlist::buffer_insertion::insert_hold_buffers;
use ntc_netlist::generators::alu::{Alu, AluFunc, ALL_ALU_FUNCS};
use ntc_netlist::generators::ex_stage::ExStage;
use ntc_netlist::Netlist;
use ntc_timing::{CycleTiming, DynamicSim, SimWorkspace, StaticTiming};
use ntc_varmodel::rng::SplitMix64;
use ntc_varmodel::{ChipSignature, Corner, VariationParams};

type Encoder<'a> = &'a dyn Fn(AluFunc, u64, u64) -> Vec<bool>;

fn operand(rng: &mut SplitMix64, width: usize) -> u64 {
    let v = rng.gen_u64();
    if width >= 64 {
        v
    } else {
        v & ((1u64 << width) - 1)
    }
}

/// The chips a netlist is checked on: nominal at both corners, and two
/// fabricated NTC dies plus one STC die.
fn chips(nl: &Netlist, seed: u64) -> Vec<(String, ChipSignature)> {
    vec![
        (
            "nominal NTC".into(),
            ChipSignature::nominal(nl, Corner::NTC),
        ),
        (
            "nominal STC".into(),
            ChipSignature::nominal(nl, Corner::STC),
        ),
        (
            format!("fab NTC {seed}"),
            ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), seed),
        ),
        (
            format!("fab NTC {}", seed + 1),
            ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), seed + 1),
        ),
        (
            format!("fab STC {seed}"),
            ChipSignature::fabricate(nl, Corner::STC, VariationParams::stc(), seed),
        ),
    ]
}

/// Check `same_op` random same-function pairs per function and every
/// ordered op transition once, on one chip. Returns the pairs checked.
fn check_chip(
    label: &str,
    nl: &Netlist,
    sig: &ChipSignature,
    encode: Encoder<'_>,
    width: usize,
    rng: &mut SplitMix64,
    same_op: usize,
) -> usize {
    let mut pruned = SimWorkspace::new();
    let mut full = SimWorkspace::new();
    let mut timing = CycleTiming::default();
    let mut pairs: Vec<(AluFunc, AluFunc)> = Vec::new();
    for &f in &ALL_ALU_FUNCS {
        pairs.extend(std::iter::repeat_n((f, f), same_op));
    }
    for &f1 in &ALL_ALU_FUNCS {
        for &f2 in &ALL_ALU_FUNCS {
            if f1 != f2 {
                pairs.push((f1, f2));
            }
        }
    }
    for &(f1, f2) in &pairs {
        let (a1, b1) = (operand(rng, width), operand(rng, width));
        let (a2, b2) = (operand(rng, width), operand(rng, width));
        let init = encode(f1, a1, b1);
        let sens = encode(f2, a2, b2);
        let lean = pruned.simulate_pair_minmax(nl, sig, &init, &sens);
        full.simulate_pair_into(nl, sig, &init, &sens, &mut timing);
        let what = format!("{label}: {f1}({a1:#x},{b1:#x}) -> {f2}({a2:#x},{b2:#x})");
        assert_eq!(
            lean.min_ps.map(f64::to_bits),
            timing.min_delay_ps.map(f64::to_bits),
            "{what}: min"
        );
        assert_eq!(
            lean.max_ps.map(f64::to_bits),
            timing.max_delay_ps.map(f64::to_bits),
            "{what}: max"
        );
    }
    pairs.len()
}

fn check_netlist(
    label: &str,
    nl: &Netlist,
    encode: Encoder<'_>,
    width: usize,
    seed: u64,
    same_op: usize,
) {
    assert!(
        nl.control_index().is_some(),
        "{label}: pruning must be possible"
    );
    let mut rng = SplitMix64::seed_from_u64(seed);
    for (chip, sig) in chips(nl, seed) {
        let n = check_chip(
            &format!("{label} [{chip}]"),
            nl,
            &sig,
            encode,
            width,
            &mut rng,
            same_op,
        );
        assert_eq!(n, ALL_ALU_FUNCS.len() * (ALL_ALU_FUNCS.len() - 1 + same_op));
    }
}

#[test]
fn bare_alu_8_pruned_matches_full() {
    let alu = Alu::new(8);
    check_netlist(
        "alu8",
        alu.netlist(),
        &|f, a, b| alu.encode(f, a, b),
        8,
        0x9A1E_0008,
        6,
    );
}

#[test]
fn bare_alu_32_pruned_matches_full() {
    let alu = Alu::new(32);
    check_netlist(
        "alu32",
        alu.netlist(),
        &|f, a, b| alu.encode(f, a, b),
        32,
        0x9A1E_0020,
        3,
    );
}

#[test]
fn bare_alu_64_pruned_matches_full() {
    let alu = Alu::new(64);
    let nl = alu.netlist();
    let mut rng = SplitMix64::seed_from_u64(0x9A1E_0040);
    // The widest netlist runs on one nominal and one fabricated chip.
    for sig in [
        ChipSignature::nominal(nl, Corner::NTC),
        ChipSignature::fabricate(nl, Corner::NTC, VariationParams::ntc(), 64),
    ] {
        check_chip(
            "alu64",
            nl,
            &sig,
            &|f, a, b| alu.encode(f, a, b),
            64,
            &mut rng,
            1,
        );
    }
}

/// The hold-fixed netlist the Razor-lineage schemes run on: buffer chains
/// pad the short edges, so a unit's cone gains gates the live mask must
/// classify like the rest of it.
fn hold_buffered(width: usize) -> (Alu, Netlist) {
    let alu = Alu::new(width);
    let nominal = ChipSignature::nominal(alu.netlist(), Corner::NTC);
    let critical = StaticTiming::analyze(alu.netlist(), &nominal).critical_delay_ps(alu.netlist());
    let (padded, inserted, _) = insert_hold_buffers(alu.netlist(), critical * 0.3, critical * 0.72);
    assert!(!inserted.0.is_empty(), "hold fixing inserted buffers");
    (alu, padded)
}

#[test]
fn hold_buffered_alu_pruned_matches_full() {
    let (alu, nl) = hold_buffered(16);
    check_netlist(
        "buffered alu16",
        &nl,
        &|f, a, b| alu.encode(f, a, b),
        16,
        0x9A1E_0B0F,
        3,
    );
}

#[test]
fn harden_choke_chip_pruned_matches_full() {
    // The harden-choke scheme's silicon: the top-k slowest choke gates of
    // a fabricated buffered die de-rated to their nominal delay.
    let (alu, nl) = hold_buffered(16);
    let mut rng = SplitMix64::seed_from_u64(0x9A1E_4A2D);
    for seed in [3u64, 11] {
        let mut sig = ChipSignature::fabricate(&nl, Corner::NTC, VariationParams::ntc(), seed);
        let mut slow = sig.slow_choke_gates();
        slow.sort_by(|&a, &b| sig.multiplier(b).total_cmp(&sig.multiplier(a)));
        slow.truncate(8);
        sig.inject_choke(&slow, 1.0);
        check_chip(
            &format!("harden-choke chip {seed}"),
            &nl,
            &sig,
            &|f, a, b| alu.encode(f, a, b),
            16,
            &mut rng,
            3,
        );
    }
}

#[test]
fn ex_stage_pruned_matches_full() {
    let ex = ExStage::new(16);
    check_netlist(
        "ex16",
        ex.netlist(),
        &|f, a, b| ex.encode(f, a, b),
        16,
        0x9A1E_E516,
        3,
    );
}

/// The bound simulator's lean path is the same pruned kernel: it agrees
/// with its own full path, interleaved on one workspace.
#[test]
fn dynamic_sim_minmax_matches_its_full_path() {
    let alu = Alu::new(32);
    let sig = ChipSignature::fabricate(alu.netlist(), Corner::NTC, VariationParams::ntc(), 5);
    let mut sim = DynamicSim::new(alu.netlist(), &sig);
    let mut rng = SplitMix64::seed_from_u64(0x9A1E_00D5);
    for case in 0..64 {
        let f1 = ALL_ALU_FUNCS[rng.gen_index(ALL_ALU_FUNCS.len())];
        let f2 = ALL_ALU_FUNCS[rng.gen_index(ALL_ALU_FUNCS.len())];
        let init = alu.encode(f1, operand(&mut rng, 32), operand(&mut rng, 32));
        let sens = alu.encode(f2, operand(&mut rng, 32), operand(&mut rng, 32));
        let lean = sim.simulate_pair_minmax(&init, &sens);
        let full = sim.simulate_pair(&init, &sens);
        assert_eq!(
            lean.min_ps.map(f64::to_bits),
            full.min_delay_ps.map(f64::to_bits),
            "case {case}"
        );
        assert_eq!(
            lean.max_ps.map(f64::to_bits),
            full.max_delay_ps.map(f64::to_bits),
            "case {case}"
        );
    }
}
