//! Batch-level spans: one timer per layer call (`build_oracle`,
//! `run_scheme`, a trace-source resolve, a cache load/store, a figure, a
//! request), never one per oracle lookup.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated `(nanoseconds, calls)` per span name, across threads.
static SPANS: Mutex<BTreeMap<&'static str, (u64, u64)>> = Mutex::new(BTreeMap::new());

/// Run `f` inside the span `name` and return its result.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    let ns = start.elapsed().as_nanos() as u64;
    let mut spans = SPANS.lock().expect("span table poisoned");
    let slot = spans.entry(name).or_insert((0, 0));
    slot.0 += ns;
    slot.1 += 1;
    out
}

/// The span table as a JSON object `{name: {"ns": .., "calls": ..}}`.
pub fn to_json() -> String {
    let spans = SPANS.lock().expect("span table poisoned");
    let body: Vec<String> = spans
        .iter()
        .map(|(name, (ns, calls))| format!("\"{name}\":{{\"ns\":{ns},\"calls\":{calls}}}"))
        .collect();
    format!("{{{}}}", body.join(","))
}
