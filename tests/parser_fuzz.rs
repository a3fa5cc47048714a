//! Seeded mutation fuzzing of every parser that reads untrusted bytes:
//! `.ntt` traces (`decode_trace`), text traces (`trace_io::read_trace`),
//! `.ntp` phase sets (`decode_phases`), `.grid` cache artifacts
//! (`cache::load`), JSON documents (`report::parse_json`), `ntc-serve`
//! request lines (`parse_request`), `--vdd` lists (`parse_voltages`) and
//! scheme names (`SchemeSpec::parse`).
//!
//! Each valid input is mutated by a fixed-seed SplitMix64 stream: bit
//! flips, truncations, byte splices and length-field edits (an aligned
//! little-endian word overwritten with a boundary value). The contract:
//! a parser returns `Err` on bytes it cannot vouch for and never panics.
//! The binary formats carry a trailing FNV-1a checksum, so every mutation
//! is also replayed *re-sealed* (checksum recomputed) to reach the
//! structural checks behind it; a re-sealed mutant may legitimately
//! decode, but must not panic.

use ntc_choke::core::scenario::SchemeSpec;
use ntc_choke::experiments::cache;
use ntc_choke::experiments::config::parse_voltages;
use ntc_choke::experiments::report::parse_json;
use ntc_choke::experiments::scenario::{run_grid_uncached, GridSpec, Regime};
use ntc_choke::isa::{Instruction, ALL_OPCODES};
use ntc_choke::serve::protocol::parse_request;
use ntc_choke::varmodel::rng::SplitMix64;
use ntc_choke::varmodel::OperatingPoint;
use ntc_choke::workload::simpoint::{decode_phases, encode_phases, sample_phases};
use ntc_choke::workload::trace_bin::{decode_trace, encode_trace, fnv1a64};
use ntc_choke::workload::trace_io::{read_trace, write_trace};
use ntc_choke::workload::{Benchmark, TraceSource};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Mutants drawn per seed input and format.
const MUTANTS: usize = 400;

/// Boundary values a hostile length or count field takes.
const EDGES: [u64; 8] = [
    0,
    1,
    0x7F,
    0xFFFF_FFFF,
    u64::MAX / 64,
    u64::MAX / 17,
    i64::MAX as u64,
    u64::MAX,
];

/// One seeded mutation of `input`.
fn mutate(rng: &mut SplitMix64, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    match rng.gen_index(5) {
        0 => {
            // 1–4 bit flips.
            for _ in 0..=rng.gen_index(4) {
                if !out.is_empty() {
                    let at = rng.gen_index(out.len());
                    out[at] ^= 1 << rng.gen_index(8);
                }
            }
        }
        1 => out.truncate(rng.gen_index(input.len().max(1))),
        2 => {
            // Length-field edit: overwrite an aligned word.
            let words = out.len() / 8;
            if words > 0 {
                let at = rng.gen_index(words) * 8;
                let v = EDGES[rng.gen_index(EDGES.len())].wrapping_add(rng.gen_index(3) as u64);
                out[at..at + 8].copy_from_slice(&v.to_le_bytes());
            }
        }
        3 => {
            // Splice: delete or duplicate a short run.
            if !out.is_empty() {
                let at = rng.gen_index(out.len());
                let len = (1 + rng.gen_index(16)).min(out.len() - at);
                if rng.gen_bool() {
                    out.drain(at..at + len);
                } else {
                    let run: Vec<u8> = out[at..at + len].to_vec();
                    out.splice(at..at, run);
                }
            }
        }
        _ => {
            // Overwrite a byte with a random or structural one.
            if !out.is_empty() {
                let at = rng.gen_index(out.len());
                let pool = [0u8, 0xFF, b'"', b'\\', b'{', b'[', b':', b',', b'}', b']'];
                out[at] = if rng.gen_bool() {
                    rng.gen_u64() as u8
                } else {
                    pool[rng.gen_index(pool.len())]
                };
            }
        }
    }
    out
}

/// Recompute the trailing FNV-1a checksum over the rest of the bytes.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let n = bytes.len() - 8;
        let sum = fnv1a64(&bytes[..n]);
        bytes[n..].copy_from_slice(&sum.to_le_bytes());
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Run `parse` on every mutant of `input`; `must_err` says whether a
/// mutant may legitimately parse. Returns how many mutants were
/// rejected.
fn fuzz(
    label: &str,
    seed: u64,
    input: &[u8],
    resealed: bool,
    must_err: bool,
    mut parse: impl FnMut(&[u8]) -> bool,
) -> usize {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut rejected = 0;
    for k in 0..MUTANTS {
        let mut m = mutate(&mut rng, input);
        if m == input {
            continue;
        }
        if resealed {
            reseal(&mut m);
        }
        let ok = match catch_unwind(AssertUnwindSafe(|| parse(&m))) {
            Ok(ok) => ok,
            Err(_) => panic!("{label}: mutant {k} (seed {seed:#x}) panicked: {}", hex(&m)),
        };
        if must_err {
            assert!(
                !ok,
                "{label}: mutant {k} (seed {seed:#x}) was accepted: {}",
                hex(&m)
            );
        }
        rejected += usize::from(!ok);
    }
    rejected
}

fn sample_trace(n: usize) -> Vec<Instruction> {
    let mut rng = SplitMix64::seed_from_u64(0xF022_7ACE);
    (0..n)
        .map(|_| {
            let op = ALL_OPCODES[rng.gen_index(ALL_OPCODES.len())];
            Instruction::new(op, rng.gen_u64(), rng.gen_u64())
        })
        .collect()
}

#[test]
fn trace_decoder_rejects_mutants_without_panicking() {
    for (n, seed) in [(0usize, 0xA1u64), (1, 0xA2), (24, 0xA3)] {
        let bytes = encode_trace(&sample_trace(n));
        assert!(decode_trace(&bytes).is_ok());
        let label = format!(".ntt[{n}]");
        fuzz(&label, seed, &bytes, false, true, |m| {
            decode_trace(m).is_ok()
        });
        let rejected = fuzz(&label, seed ^ 0x5EA1, &bytes, true, false, |m| {
            decode_trace(m).is_ok()
        });
        assert!(
            rejected > 0,
            "{label}: re-sealed mutants reach the structural checks"
        );
    }
}

#[test]
fn text_trace_reader_never_panics() {
    for (n, seed) in [(1usize, 0xA5u64), (24, 0xA6)] {
        let mut text = Vec::new();
        write_trace(&sample_trace(n), &mut text).expect("in-memory write");
        assert!(read_trace(&text[..]).is_ok());
        let rejected = fuzz(
            &format!("trace text[{n}]"),
            seed,
            &text,
            false,
            false,
            |m| read_trace(m).is_ok(),
        );
        assert!(
            rejected > 0,
            "trace text[{n}]: mutants reach the line checks"
        );
    }
}

#[test]
fn voltage_list_and_scheme_name_parsers_never_panic() {
    for (i, list) in ["ntc,v0.55,0.65,stc", " v0.80 , ntc ,, 0.50"]
        .iter()
        .enumerate()
    {
        assert!(parse_voltages(list).is_ok(), "seed list {i} parses");
        fuzz(
            &format!("vdd[{i}]"),
            0xF0 + i as u64,
            list.as_bytes(),
            false,
            false,
            |m| parse_voltages(&String::from_utf8_lossy(m)).is_ok(),
        );
    }
    for (i, name) in [
        "dcs-acslt:32/16",
        "trident:512",
        "harden-choke:8",
        "razor-ch4",
    ]
    .iter()
    .enumerate()
    {
        assert!(SchemeSpec::parse(name).is_ok(), "seed name {i} parses");
        fuzz(
            &format!("scheme[{i}]"),
            0xF8 + i as u64,
            name.as_bytes(),
            false,
            false,
            |m| SchemeSpec::parse(&String::from_utf8_lossy(m)).is_ok(),
        );
    }
}

#[test]
fn phase_decoder_rejects_mutants_without_panicking() {
    let trace = sample_trace(240);
    let set = sample_phases(&trace, 20, 4, 7);
    let bytes = encode_phases(&set);
    assert!(decode_phases(&bytes).is_ok());
    fuzz(".ntp", 0xB1, &bytes, false, true, |m| {
        decode_phases(m).is_ok()
    });
    let rejected = fuzz(".ntp", 0xB2, &bytes, true, false, |m| {
        decode_phases(m).is_ok()
    });
    assert!(
        rejected > 0,
        ".ntp: re-sealed mutants reach the structural checks"
    );
}

#[test]
fn grid_artifact_loader_rejects_mutants_without_panicking() {
    let spec = GridSpec {
        benchmarks: vec![Benchmark::Gzip],
        chips: 1,
        schemes: vec![SchemeSpec::RazorCh3, SchemeSpec::DcsIcslt { entries: 32 }],
        voltages: vec![OperatingPoint::NTC],
        regime: Regime::Ch3,
        chip_seed_base: 220,
        trace_seed: 61,
        cycles: 1_000,
        source: TraceSource::Generator,
    };
    let result = run_grid_uncached(&spec);
    let bytes = cache::encode(&spec, &result);
    let dir = std::env::temp_dir().join(format!("ntc-parser-fuzz-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("fuzz cache dir");
    let path = cache::artifact_path(&dir, &spec);
    let mut load = |m: &[u8]| {
        std::fs::write(&path, m).expect("write mutant");
        cache::load(&dir, &spec).is_some()
    };
    assert!(load(&bytes), "the pristine artifact loads");
    fuzz(".grid", 0xC1, &bytes, false, true, &mut load);
    let rejected = fuzz(".grid", 0xC2, &bytes, true, false, &mut load);
    assert!(
        rejected > 0,
        ".grid: re-sealed mutants reach the structural checks"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Valid JSON documents covering every value kind, escapes and a
/// surrogate pair, plus the request lines a client sends.
const JSON_SEEDS: [&str; 3] = [
    r#"{"schema":"ntc-repro-manifest/6","failed":0,"records":[{"id":"fig3.4","ms":12.5e0,"ok":true,"note":null,"n":-7,"tag":"a\"b\\cé😀"}],"empty":{},"list":[]}"#,
    r#"[1,2.5,-3e-2,"x",[[],{}],{"k":[true,false,null]}]"#,
    r#"{"op":"grid","spec":{"benchmarks":["mcf","gzip"],"chips":2,"schemes":["razor","dcs-icslt:32"],"regime":"ch3","vdd":["ntc","0.60"],"chip_seed_base":940,"trace_seed":11,"cycles":2000,"trace_dir":"/tmp/t","phases":true}}"#,
];

#[test]
fn json_parser_never_panics() {
    for (i, doc) in JSON_SEEDS.iter().enumerate() {
        assert!(parse_json(doc).is_ok(), "seed document {i} parses");
        fuzz(
            &format!("json[{i}]"),
            0xD0 + i as u64,
            doc.as_bytes(),
            false,
            false,
            |m| parse_json(&String::from_utf8_lossy(m)).is_ok(),
        );
        // Every strict prefix of a document is incomplete.
        for cut in 0..doc.len() {
            if doc.is_char_boundary(cut) {
                assert!(
                    parse_json(&doc[..cut]).is_err(),
                    "json[{i}] prefix {cut} accepted"
                );
            }
        }
    }
}

#[test]
fn json_parser_bounds_nesting_depth() {
    // A wire line of brackets must be an error, not a stack overflow.
    for open in ["[", "{\"k\":"] {
        let deep = open.repeat(200_000);
        assert!(parse_json(&deep).is_err());
    }
    // Reasonable nesting still parses.
    let nested = format!("{}1{}", "[".repeat(64), "]".repeat(64));
    assert!(parse_json(&nested).is_ok());
}

#[test]
fn long_json_strings_parse_in_linear_time() {
    // A 200 kB string must not re-validate the rest of the line per
    // character (quadratic: ~10^10 byte checks).
    let doc = format!("\"{}\"", "é".repeat(100_000));
    let start = std::time::Instant::now();
    assert!(parse_json(&doc).is_ok());
    assert!(start.elapsed().as_secs_f64() < 1.0, "took {:?}", start.elapsed());
}

#[test]
fn request_parser_never_panics() {
    let lines = [
        r#"{"op":"ping"}"#,
        r#"{"op":"experiment","id":"fig3.8","scale":"full"}"#,
        JSON_SEEDS[2],
    ];
    for (i, line) in lines.iter().enumerate() {
        assert!(parse_request(line).is_ok(), "seed request {i} parses");
        fuzz(
            &format!("request[{i}]"),
            0xE0 + i as u64,
            line.as_bytes(),
            false,
            false,
            |m| parse_request(&String::from_utf8_lossy(m)).is_ok(),
        );
    }
}
