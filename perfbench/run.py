#!/usr/bin/env python3
"""Benchmark runner for ntc-choke (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --capture-digests

Run from the repository root. Builds the simulator binaries and the layer
tracer into $CARGO_TARGET_DIR (default .bench_build), runs one workload in
fresh processes under .perfbench/, checks every output against
perfbench/digests.json, and prints one JSON object as the last line of
stdout: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Progress goes to stderr. --capture-digests rewrites the digest
file from the current build; run it only on a commit whose outputs are
known good.
"""

import argparse
import hashlib
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("fast-suite", "full-grid", "serve-mix")
JOBS = 2

# Every experiment of `repro --list`, in paper order.
EXPERIMENTS = [
    "fig3.2a", "fig3.2b", "fig3.3", "fig3.4", "fig3.8", "fig3.9", "fig3.10",
    "fig3.11", "fig3.12", "tab3.overheads", "fig4.2", "fig4.3", "fig4.4",
    "fig4.8", "fig4.9", "fig4.10", "fig4.11", "fig4.12", "tab4.overheads",
    "ext.vdd", "ext.aging", "ext.stall2", "ext.binning", "abl.tags",
    "abl.replacement", "abl.window", "abl.adder",
]
# Experiments that chart a `run_grid` comparison grid.
GRID_EXPERIMENTS = {
    "fig3.8", "fig3.9", "fig3.10", "fig3.11", "fig3.12",
    "fig4.9", "fig4.10", "fig4.11", "fig4.12",
}
# Pinned reference CSVs in the repository.
GOLDEN = {"fig3.4": "tests/golden/fig3_4.csv", "fig4.3": "tests/golden/fig4_3.csv"}
# Scheme-instructions of the grids each repro workload computes. fast-suite:
# 6 benchmarks x 2 chips x 60 k instructions over fig3.8 (4 schemes),
# fig3.9 (4), the Ch. 3 comparison (4), fig4.9 (5) and the Ch. 4
# comparison (3). full-grid: 6 benchmarks x 5 chips x 4 schemes x 1 M.
FAST_GRID_INSTR = 6 * 2 * (4 + 4 + 4 + 5 + 3) * 60_000
FULL_GRID_INSTR = 6 * 5 * 4 * 1_000_000
# Set-ups per repetition; setup_s is their median.
SETUPS = 3

# serve-mix request pool: a fixed, enumerated set of grid specs (their CSV
# digests are pinned); the run seed picks the sequence drawn from it.
BENCHES = ["bzip", "gap", "gzip", "mcf", "parser", "vortex"]
SINGLE_SCHEMES = ["hfg", "razor", "trident", "dcs-icslt:32"]
FULL_ROSTER = ["razor", "hfg", "dcs-icslt:32", "trident"]
CHIP_BASES = [220, 221]
POOL_SEED = 2017
POOL_SIZE = 300
TRACE_SEED = 7
TRACE_CYCLES = 20000


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot produce a result (build or setup failed)."""


def sha256_file(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def sha256_text(text):
    return hashlib.sha256(text.encode()).hexdigest()


def median(values):
    return statistics.median(values)


# ---------------------------------------------------------------------------
# Build and process helpers
# ---------------------------------------------------------------------------

def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(ROOT, "Cargo.toml"), "-p", "ntc-choke", "-p", "ntc-experiments",
         "-p", "ntc-workload", "--bins"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise Failure("build failed: " + " ".join(cmd))


def run_measured(cmd, log_path):
    """Run `cmd` to completion; return (wall_s, cpu_s, peak_rss_mb, exit code)."""
    with open(log_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# repro workloads: fast-suite and full-grid
# ---------------------------------------------------------------------------

def repro_plan(workload):
    """(repro arguments, experiment ids, scale) of one run. repro runs its
    suite in registry order and the figures pin their own seeds, so the
    run seed has nothing to vary here."""
    if workload == "fast-suite":
        return ["--jobs", str(JOBS)], list(EXPERIMENTS), "fast"
    return ["--full", "--jobs", "1"], ["fig3.10"], "full"


def repro_setup(work):
    """Fresh output directory plus a start-up probe of the binary."""
    start = time.perf_counter()
    out = fresh_dir(os.path.join(work, "out"))
    listed = subprocess.run([binary("repro"), "--list"], capture_output=True, text=True)
    if listed.returncode or listed.stdout.split()[: len(EXPERIMENTS)] != EXPERIMENTS:
        raise Failure("repro --list does not list the expected experiments")
    return out, time.perf_counter() - start


def check_repro(out, ids, scale, digests):
    """Per-experiment pass/fail: manifest status and CSV bytes."""
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    records = {r["id"]: r for r in manifest["records"]}
    failed = []
    for exp in ids:
        rec = records.get(exp)
        csv = os.path.join(out, exp.replace(".", "_") + ".csv")
        ok = rec is not None and rec["status"] == "pass" and os.path.isfile(csv)
        ok = ok and sha256_file(csv) == digests["repro"][scale].get(exp)
        if ok and scale == "fast" and exp in GOLDEN:
            ok = sha256_file(csv) == sha256_file(os.path.join(ROOT, GOLDEN[exp]))
        if not ok:
            failed.append(exp)
    return failed, records


def repro_rep(workload, work, digests):
    flags, ids, scale = repro_plan(workload)
    setups = []
    for _ in range(SETUPS):
        out, s = repro_setup(work)
        setups.append(s)
    wall, cpu, rss, code = run_measured(
        [binary("repro"), *flags, "--out", out, *ids], os.path.join(work, "repro.log"))
    failed, records = check_repro(out, ids, scale, digests) if code in (0, 1) else (list(ids), {})
    exp_walls = [records[i]["wall_s"] for i in ids if i in records]
    grid_instr = FULL_GRID_INSTR if workload == "full-grid" else FAST_GRID_INSTR
    # One repro invocation is one request: its latency is the wall time.
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": median(setups),
        "attempted": len(ids), "failed": len(failed), "failures": failed,
        "latencies_ms": [wall * 1000.0],
        "sim_instr": grid_instr,
        "frontend_ms": (wall - sum(exp_walls)) * 1000.0,
        "ids": ids, "records": records, "out": out, "scale": scale,
    }


# ---------------------------------------------------------------------------
# serve-mix workload
# ---------------------------------------------------------------------------

def serve_pool():
    """The fixed request pool: (spec without trace dir, source) pairs.

    Full-roster specs are every 3-benchmark x 2-chip grid over both chip
    bases and both whole-trace sources (80 specs): the costliest class,
    sized so p90 falls well inside it. Single-scheme specs fill the rest
    of the pool from a constant seed."""
    def spec(benches, chips, schemes, base):
        return {"benchmarks": list(benches), "chips": chips, "schemes": schemes,
                "regime": "ch3", "chip_seed_base": base, "trace_seed": TRACE_SEED,
                "cycles": TRACE_CYCLES}
    pool = [(spec(benches, 2, FULL_ROSTER, base), source)
            for benches in itertools.combinations(BENCHES, 3)
            for base in CHIP_BASES
            for source in ("generator", "replay")]
    rng = random.Random(POOL_SEED)
    seen = {json.dumps(entry, sort_keys=True) for entry in pool}
    while len(pool) < POOL_SIZE:
        benches = sorted(rng.sample(BENCHES, rng.choice([1, 2, 3])), key=BENCHES.index)
        entry = (spec(benches, rng.choice([1, 2]), [rng.choice(SINGLE_SCHEMES)],
                      rng.choice(CHIP_BASES)),
                 rng.choices(["generator", "replay", "phases"], weights=[3, 1, 1])[0])
        key = json.dumps(entry, sort_keys=True)
        if key not in seen:
            seen.add(key)
            pool.append(entry)
    return pool


def pool_fingerprint(pool):
    return sha256_text(json.dumps(pool, sort_keys=True))


def request_line(entry, trace_dir):
    spec, source = entry
    spec = dict(spec)
    if source != "generator":
        spec["trace_dir"] = trace_dir
    if source == "phases":
        spec["phases"] = True
    return json.dumps({"op": "grid", "spec": spec}, separators=(",", ":"))


def serve_sequence(seed):
    """Pool indices of one run: every pool spec once, plus a second
    request for a fixed half of them, in a seeded order. A spec's first
    request computes it. A fifth of the repeats follow their spec at
    once and hit the in-process memo; the rest land anywhere later and
    mostly hit the disk cache. Every run does the same work; the seed
    changes its order."""
    repeated = random.Random(POOL_SEED).sample(range(POOL_SIZE), POOL_SIZE // 2)
    at_once = set(repeated[: len(repeated) // 5])
    order = list(range(POOL_SIZE)) + repeated[len(repeated) // 5:]
    random.Random(seed).shuffle(order)
    seq = []
    for i in order:
        if i in at_once and i not in seq:
            seq.append(i)
        seq.append(i)
    return seq


class Daemon:
    """An `ntc-serve` process on a Unix socket, with one client connection."""

    def __init__(self, work, cache_dir):
        self.sock_path = os.path.relpath(os.path.join(work, "serve.sock"), ROOT)
        self.log = open(os.path.join(work, "serve.log"), "wb")
        self.proc = subprocess.Popen(
            [binary("ntc-serve"), "serve", "--socket", self.sock_path, "--jobs", str(JOBS),
             "--cache-dir", cache_dir],
            cwd=ROOT, stdout=self.log, stderr=subprocess.STDOUT)
        self.conn = None
        deadline = time.monotonic() + 30
        while self.conn is None:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise Failure("ntc-serve did not come up")
            try:
                conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                conn.connect(self.sock_path)
                self.conn = conn
            except OSError:
                conn.close()
                time.sleep(0.005)
        self.reader = self.conn.makefile("rb")
        if not self.call('{"op":"ping"}')[0].get("ok"):
            raise Failure("ntc-serve did not answer ping")

    def call(self, line):
        """Send one request; return (reply object, latency in ms). The
        latency runs from the send to the last byte of the reply line."""
        start = time.perf_counter()
        self.conn.sendall(line.encode() + b"\n")
        reply = self.reader.readline()
        latency_ms = (time.perf_counter() - start) * 1000.0
        if not reply:
            raise Failure("ntc-serve closed the connection")
        return json.loads(reply), latency_ms

    def stop(self):
        """Shut down; return (cpu_s, peak_rss_mb) of the daemon."""
        try:
            self.call('{"op":"shutdown"}')
        except (OSError, Failure):
            self.proc.send_signal(signal.SIGTERM)
        self.reader.close()
        self.conn.close()
        deadline = time.monotonic() + 60
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                self.proc.kill()
                _, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.01)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.log.close()
        return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def serve_setup(work):
    """Record traces sequentially, sample phases, start a ready daemon."""
    start = time.perf_counter()
    fresh_dir(work)
    traces = os.path.join(work, "traces")
    for sub in ("record", "sample"):
        cmd = [binary("ntc-workload"), sub, "--dir", traces, "--seed", str(TRACE_SEED),
               "--cycles", str(TRACE_CYCLES)]
        if subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode:
            raise Failure("ntc-workload " + sub + " failed")
    daemon = Daemon(work, os.path.join(work, "cache"))
    return daemon, traces, time.perf_counter() - start


def serve_rep(seed, work, digests):
    pool = serve_pool()
    if digests["serve"]["pool"] != pool_fingerprint(pool):
        raise Failure("the serve request pool no longer matches perfbench/digests.json")
    setup_times = []
    for k in range(SETUPS):
        daemon, traces, s = serve_setup(os.path.join(work, "setup%d" % k))
        setup_times.append(s)
        if k + 1 < SETUPS:
            daemon.stop()
    sequence = serve_sequence(seed)
    lines = [request_line(pool[i], os.path.relpath(traces, ROOT)) for i in sequence]
    replies, latencies = [], []
    start = time.perf_counter()
    try:
        for line in lines:
            reply, latency_ms = daemon.call(line)
            replies.append(reply)
            latencies.append(latency_ms)
    except (OSError, ValueError, Failure) as e:
        log("serve-mix: request %d failed: %s" % (len(replies), e))
    wall = time.perf_counter() - start
    cpu, rss = daemon.stop()
    failed, sim_instr, overheads, receipts = [], 0, [], []
    for n, (i, reply) in enumerate(zip(sequence, replies)):
        receipt = reply.get("receipt", {})
        receipts.append(receipt)
        if not reply.get("ok") or sha256_text(reply["csv"]) != digests["serve"]["csv"][i]:
            failed.append(n)
            continue
        if receipt["tier"] == "computed":
            spec, _ = pool[i]
            sim_instr += len(spec["benchmarks"]) * spec["chips"] * len(spec["schemes"]) * spec["cycles"]
        overheads.append(latencies[n] - receipt["sweep_wall_us"] / 1000.0
                         - receipt["queue_wait_us"] / 1000.0)
    failed += [n for n in range(len(replies), len(lines))]
    return {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "setup_s": median(setup_times),
        "attempted": len(lines), "failed": len(failed), "failures": failed,
        "latencies_ms": latencies, "sim_instr": sim_instr,
        "overheads_ms": overheads, "receipts": receipts, "lines": lines,
        "sequence": sequence,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1])."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(reps):
    """Medians over the run's repetitions; latency quantiles over every
    request (or experiment) of every repetition."""
    latencies = [ms for r in reps for ms in r["latencies_ms"]]

    def med(key):
        return median([r[key] for r in reps])
    return {
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "setup_s": (med("setup_s"), "s"),
        "ok_frac": (1.0 - sum(r["failed"] for r in reps) / sum(r["attempted"] for r in reps), "ratio"),
        "sim_minstr_per_s": (median([r["sim_instr"] / r["wall_s"] / 1e6 for r in reps]), "Minstr/s"),
        "req_p50_ms": (quantile(latencies, 0.5), "ms"),
        "req_p90_ms": (quantile(latencies, 0.9), "ms"),
    }


def run_tracer(workload, work, inputs):
    path = os.path.join(work, "tracer-inputs.txt")
    with open(path, "w") as f:
        f.write("\n".join(inputs) + "\n")
    tracer_work = fresh_dir(os.path.join(work, "traced"))
    flag = "--requests" if workload == "serve-mix" else "--ids"
    jobs = 1 if workload == "full-grid" else JOBS
    cmd = [binary("perfbench-tracer"), "--workload", workload, flag, path,
           "--work", os.path.relpath(tracer_work, ROOT), "--jobs", str(jobs)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr)
        raise Failure("the layer tracer failed")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# Counters the traced run must reproduce exactly. At --jobs >1 two cells on
# one chip may both simulate a pair before either publishes it to the
# chip's shared table, so only the sum of simulations and shared hits is
# scheduling-independent there.
EXACT_ORACLE = ["local_hits", "screen_hits", "screen_fallbacks", "sta_full",
                "sta_incremental", "incr_gates_touched"]


def oracle_mismatch(untraced, traced, jobs):
    keys = list(EXACT_ORACLE) + (["gate_sims", "shared_hits"] if jobs == 1 else [])
    bad = [k for k in keys if untraced[k] != traced[k]]
    if untraced["gate_sims"] + untraced["shared_hits"] != traced["gate_sims"] + traced["shared_hits"]:
        bad.append("gate_sims+shared_hits")
    return bad


def per_layer(workload, rep, traced):
    """Per-layer metrics from the traced run; returns (metrics, problems)."""
    problems = []
    recs = traced["records"]
    spans = traced["spans"]
    jobs = 1 if workload == "full-grid" else JOBS

    def span_s(name):
        return spans.get(name, {}).get("ns", 0) / 1e9

    def total(family, key):
        return sum(r[family][key] for r in recs)

    # Same work: counters and CSV bytes against the untraced run.
    if workload == "serve-mix":
        for n, (r, receipt) in enumerate(zip(recs, rep["receipts"])):
            if r["tier"] != receipt.get("tier"):
                problems.append("request %d: tier %s vs %s" % (n, r["tier"], receipt.get("tier")))
            elif oracle_mismatch(receipt["oracle"], r["oracle"], jobs):
                problems.append("request %d: oracle counters %s" % (
                    n, oracle_mismatch(receipt["oracle"], r["oracle"], jobs)))
        written = sum(receipt["cache"]["bytes_written"] for receipt in rep["receipts"])
        if written != sum(r["artifact_bytes"] for r in recs):
            problems.append("traced grid artifacts differ in size from the daemon's")
        digests = load_digests()["serve"]["csv"]
        for n, r in enumerate(recs):
            if sha256_file(os.path.join(ROOT, r["csv"])) != digests[rep["sequence"][n]]:
                problems.append("request %d: traced CSV differs" % n)
    else:
        for r in recs:
            u = rep["records"].get(r["id"])
            if u is None:
                problems.append(r["id"] + ": missing from the untraced manifest")
                continue
            bad = oracle_mismatch(u["oracle"], r["oracle"], jobs)
            if bad:
                problems.append("%s: oracle counters %s" % (r["id"], bad))
            if u["workload"] != r["workload"]:
                problems.append(r["id"] + ": workload counters differ")
            if r["cache"]["disk_misses"]:
                problems.append(r["id"] + ": a grid ran untraced (spec mirror drifted)")
            csv = os.path.join(rep["out"], r["id"].replace(".", "_") + ".csv")
            if sha256_file(os.path.join(ROOT, r["csv"])) != sha256_file(csv):
                problems.append(r["id"] + ": traced CSV differs")
        if traced["grid"]["instr"] != rep["sim_instr"]:
            problems.append("traced grids ran %d scheme-instructions, not %d"
                            % (traced["grid"]["instr"], rep["sim_instr"]))
    kernel = traced["kernel"]
    grid = traced["grid"]
    if kernel["pairs"] != grid["cell_sims"]:
        problems.append("captured %d miss pairs but the grid cells ran %d simulations"
                        % (kernel["pairs"], grid["cell_sims"]))

    sims = total("oracle", "gate_sims")
    local = total("oracle", "local_hits")
    shared = total("oracle", "shared_hits")
    screen = total("oracle", "screen_hits")
    lookups = sims + local + shared + screen
    ns_per_sim = kernel["ns"] / kernel["pairs"] if kernel["pairs"] else 0.0
    sim_self_s = span_s("core.sim") - grid["cell_sims"] * ns_per_sim / 1e9
    sweep_busy = sum(r["sweep_busy_ns"] for r in recs) / 1e9
    sweep_wall = sum(r["sweep_wall_ns"] for r in recs) / 1e9
    grid_busy = grid["busy_ns"] / 1e9
    cell_spans = span_s("core.sim") + span_s("experiments.config") + span_s("workload")
    cell_share = cell_spans / grid_busy if grid_busy else 1.0
    main_spans = (span_s("experiments.figure") + span_s("experiments.cache.load")
                  + span_s("experiments.cache.store") + span_s("experiments.cache.memo")
                  + span_s("serve.render"))
    run_wall = traced["wall_ns"] / 1e9
    unattributed = (run_wall - main_spans - grid["wall_ns"] / 1e9 * cell_share) / run_wall
    if workload == "serve-mix":
        tiers = [r["tier"] for r in recs]
        hfg = [r for r, line in zip(recs, rep["lines"]) if json.loads(line)["spec"]["schemes"] == ["hfg"]]
        memo_hits = tiers.count("memo")
        computed_frac = tiers.count("computed") / len(tiers)
        overhead_ms = median(rep["overheads_ms"])
        queue_wait_us = sum(r.get("queue_wait_us", 0) for r in rep["receipts"])
    else:
        hfg = []
        grid_ids = [r for r in recs if r["id"] in GRID_EXPERIMENTS]
        memo_hits = sum(1 for r in grid_ids if r["artifact_bytes"] == 0)
        computed_frac = (len(grid_ids) - memo_hits) / len(grid_ids)
        overhead_ms = rep["frontend_ms"]
        queue_wait_us = 0
    metrics = {
        "timing.dynamic.sims": (sims, "count"),
        "timing.dynamic.busy_s": (kernel["ns"] / 1e9, "s"),
        "timing.dynamic.us_per_sim": (ns_per_sim / 1e3, "us"),
        "timing.dynamic.hfg_only_sims": (sum(r["oracle"]["gate_sims"] for r in hfg), "count"),
        "core.tag_delay.lookups": (lookups, "count"),
        "core.tag_delay.local_hits": (local, "count"),
        "core.tag_delay.shared_hits": (shared, "count"),
        "core.tag_delay.hit_ratio": (1.0 - sims / lookups if lookups else 0.0, "ratio"),
        "core.sim.busy_s": (sim_self_s, "s"),
        "core.sim.ns_per_instr": (sim_self_s * 1e9 / grid["instr"] if grid["instr"] else 0.0, "ns"),
        "timing.screen.hits": (screen, "count"),
        "timing.screen.fallbacks": (total("oracle", "screen_fallbacks"), "count"),
        "timing.screen.build_s": (traced["screen_build_ns"] / 1e9, "s"),
        "timing.screen.hfg_only_hits": (sum(r["oracle"]["screen_hits"] for r in hfg), "count"),
        "experiments.config.chips": (traced["chips"], "count"),
        "experiments.config.build_s": (span_s("experiments.config"), "s"),
        "timing.sta.full": (total("oracle", "sta_full"), "count"),
        "timing.sta.incremental": (total("oracle", "sta_incremental"), "count"),
        "timing.incr.gates_touched": (total("oracle", "incr_gates_touched"), "count"),
        "workload.busy_s": (span_s("workload"), "s"),
        "workload.instr": (grid["source_instr"], "count"),
        "workload.replayed_instr": (total("workload", "replayed_instructions"), "count"),
        "workload.phase_instr": (total("workload", "phase_instructions"), "count"),
        "experiments.runner.busy_s": (sweep_busy, "s"),
        "experiments.runner.occupancy": (sweep_busy / (sweep_wall * jobs) if sweep_wall else 0.0, "ratio"),
        "experiments.cache.memo_hits": (memo_hits, "count"),
        "experiments.cache.disk_hits": (total("cache", "disk_hits"), "count"),
        "experiments.cache.disk_misses": (total("cache", "disk_misses"), "count"),
        "experiments.cache.bytes_written": (sum(r["artifact_bytes"] for r in recs), "B"),
        "experiments.cache.load_ms": (span_s("experiments.cache.load") * 1e3, "ms"),
        "experiments.cache.store_ms": (span_s("experiments.cache.store") * 1e3, "ms"),
        "serve.overhead_ms": (overhead_ms, "ms"),
        "serve.queue_wait_us": (queue_wait_us, "us"),
        "serve.computed_frac": (computed_frac, "ratio"),
        "trace.overhead_frac": (run_wall / rep["wall_s"] - 1.0, "ratio"),
        "trace.unattributed_frac": (unattributed, "ratio"),
    }
    return metrics, problems


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args):
    digests = load_digests()
    work = fresh_dir(os.path.join(ROOT, ".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid())))
    try:
        reps = []
        start = time.perf_counter()
        while True:
            rep_start = time.perf_counter()
            rep_work = fresh_dir(os.path.join(work, "rep%d" % len(reps)))
            if args.workload == "serve-mix":
                rep = serve_rep(args.seed, rep_work, digests)
            else:
                rep = repro_rep(args.workload, rep_work, digests)
            reps.append(rep)
            log("%s rep %d: wall %.3fs, %d/%d failed %s" % (
                args.workload, len(reps), rep["wall_s"], rep["failed"], rep["attempted"],
                rep["failures"][:5]))
            last = time.perf_counter() - rep_start
            if args.trace or time.perf_counter() - start + last > args.seconds:
                break
        failed = sum(r["failed"] for r in reps)
        attempted = sum(r["attempted"] for r in reps)
        if args.trace:
            rep = reps[0]
            inputs = rep["lines"] if args.workload == "serve-mix" else rep["ids"]
            traced = run_tracer(args.workload, rep_work, inputs)
            metrics, problems = per_layer(args.workload, rep, traced)
            for p in problems:
                log("trace check: " + p)
            correct = failed == 0 and not problems
        else:
            metrics = end_to_end(reps)
            correct = failed == 0
        return {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)


def capture_digests():
    """Pin the CSV digests of every output the benchmark checks."""
    work = fresh_dir(os.path.join(ROOT, ".perfbench", "capture-%d" % os.getpid()))
    try:
        digests = {"repro": {}, "serve": {}}
        for scale, flags, ids in (("fast", ["--jobs", str(JOBS)], EXPERIMENTS),
                                  ("full", ["--full", "--jobs", "1"], ["fig3.10"])):
            out = os.path.join(work, scale)
            code = subprocess.run([binary("repro"), *flags, "--out", out, *ids], cwd=ROOT,
                                  stdout=subprocess.DEVNULL).returncode
            if code:
                raise Failure("repro failed while capturing digests")
            digests["repro"][scale] = {
                i: sha256_file(os.path.join(out, i.replace(".", "_") + ".csv")) for i in ids}
        pool = serve_pool()
        daemon, traces, _ = serve_setup(os.path.join(work, "serve"))
        try:
            csvs = []
            for entry in pool:
                reply, _ = daemon.call(request_line(entry, os.path.relpath(traces, ROOT)))
                if not reply.get("ok"):
                    raise Failure("serve request failed while capturing digests: %s" % reply)
                csvs.append(sha256_text(reply["csv"]))
        finally:
            daemon.stop()
        digests["serve"] = {"pool": pool_fingerprint(pool), "csv": csvs}
        with open(DIGESTS, "w") as f:
            json.dump(digests, f, indent=1, sort_keys=True)
            f.write("\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-digests", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        build()
        if args.capture_digests:
            capture_digests()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        result = run_workload(args)
    except Failure as e:
        log("perfbench: " + str(e))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
