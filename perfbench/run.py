#!/usr/bin/env python3
"""Repository benchmark of the MRAM coupling simulator.

Builds the library and the benchmark driver (perfbench/src) from the sources
of the tree it runs in, runs one workload, checks the program's outputs and
prints every metric of BENCHMARK.json by name with its unit. Run it from the
repository root:

    python3 perfbench/run.py --workload llg_disturb --seed 1 --seconds 30 --trace 0

--trace 0 times untraced passes and prints the end-to-end metrics; --trace 1
adds one instrumented pass per workload and thread count plus the layer
probes, and prints the per-layer metrics. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line before
it ("host {...}") records the host, the build, the seed, the commit, the pass
counts and the share of CPU time the hypervisor stole during the run. The
exit code is 0 only when every output check passed.

    python3 perfbench/run.py --write-reference

regenerates perfbench/reference_seed2020.json from the current tree (do this
only when a change to the program's results is intended).
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.dont_write_bytecode = True

import checks  # noqa: E402

REFERENCE_FILE = BENCH_DIR / "reference_seed2020.json"

# The three workloads partition the 33 registered scenarios, so together they
# are `mram_scenarios run --all`. Each runs at the default trial scale: a
# larger scale would change the runner's chunk size and hide the 4-lane
# chunk geometry of read_disturb_vs_pulse; runs are made longer by repeating
# passes instead.
WORKLOADS = {
    # Nearly all time in the batched stochastic-LLG kernel and its thermal
    # noise; few, heavy runner calls.
    "llg_disturb": ["read_disturb_vs_pulse", "abl_llg_vs_sun"],
    # The paper's stray-field physics (device, array and yield sampling);
    # almost no LLG and little noise: the control for LLG or noise changes.
    "coupling_yield": [
        "yield_vs_pitch", "fig2a_rh_loop", "fig2b_intra_vs_ecd",
        "fig3c_field_map", "fig3d_fl_profile", "fig4a_np8", "fig4b_psi",
        "fig4c_ic", "fig5_tw", "fig6a_delta_temp", "fig6b_delta_worst",
        "abl_array_size", "abl_dipole", "abl_inplane", "abl_psi_definition",
        "abl_segments", "ext_temperature", "drive_1t1r", "march_cminus",
    ],
    # Rare-event estimators and the read path: many small adaptive runner
    # calls of tiny chunks and tilted draws.
    "rare_readout": [
        "wer_deep", "rer_deep", "retention_deep", "rare_event_overlap",
        "rer_vs_read_voltage", "rer_vs_tmr", "sense_margin_ir_drop",
        "read_retention_word", "march_read_path", "wer_pulse_width",
        "wvw_compare", "retention_faults",
    ],
}

# Source files whose digest identifies the measured program when the tree
# is not a git checkout.
SOURCE_GLOBS = ["CMakeLists.txt", "src/**/*", "tools/**/*", "data/**/*"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root(root):
    return root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build_driver(root):
    """Configures (once) and builds the driver; returns its path."""
    out = build_root(root)
    bdir = out / "perfbench"
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench_driver"])
    with open(out / "build.log", "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (log: {out / 'build.log'})")
    return bdir / "perfbench_driver"


def run_driver(driver, root, workload, seed, seconds, mode, work):
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(driver)]
    for name, scenarios in WORKLOADS.items():
        cmd += ["--workload", f"{name}={','.join(scenarios)}"]
    cmd += ["--select", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--mode", mode, "--work", str(work), "--data",
            str(root / "data"), "--out", str(work / "driver.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=165)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        fail(f"driver exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(work / "driver.json") as f:
        return json.load(f)


def check_outputs(raw, work, root):
    """Every output check; returns (problems, failed_runs)."""
    problems, failed = [], 0
    for f in raw["failures"]:
        where = f"{f['scenario']} (pass {f['pass']}, {f['threads']} threads)"
        if f["kind"] == "thread_identity":
            diff = checks.first_difference(Path(f["expected_file"]).read_text(),
                                           Path(f["got_file"]).read_text())
            problems.append(f"thread identity: {where}: {diff}")
        else:
            problems.append(f"run failed: {where}: {f['detail'].strip()}")
        failed += 1
    with open(work / "reference_pass.json") as f:
        got = json.load(f)
    with open(REFERENCE_FILE) as f:
        reference = json.load(f)
    mismatches = checks.compare_reference(reference, got, sorted(got))
    goldens = checks.check_goldens(got, root / "data")
    problems += [f"reference (seed 2020): {m}" for m in mismatches]
    problems += [f"golden: {m}" for m in goldens]
    # One failed run per scenario whose reference-pass tables failed a check.
    failed += len({checks.scenario_of(m) for m in mismatches + goldens})
    return problems, min(failed, raw["attempted"])


def passes_of(raw, workload, threads, traced):
    return [p for p in raw["passes"] if p["workload"] == workload
            and p["threads"] == threads and p["traced"] == traced]


def timed_metrics(raw, workload, failed):
    t1 = [p["seconds"] for p in passes_of(raw, workload, 1, False)]
    t4 = [p["seconds"] for p in passes_of(raw, workload, 4, False)]
    return {
        "pass_s.t1": statistics.median(t1),
        "pass_s.t4": statistics.median(t4),
        "setup_s": statistics.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "ok_frac": 1.0 - failed / raw["attempted"],
    }


def ratio(num, den):
    return num / den if den else 0.0


def traced_metrics(raw, workload, failed):
    """Per-layer metrics from the traced passes, the probes and the
    untraced base passes of this run. Every ratio is printed beside its
    base."""
    fold = raw["layers"][workload]
    c1, c4 = fold["t1"]["counters"], fold["t4"]["counters"]
    hist1, hist4 = fold["t1"]["histograms"], fold["t4"]["histograms"]
    traced = {t: passes_of(raw, workload, t, True)[0]["seconds"] for t in (1, 4)}
    base = {t: statistics.median(p["seconds"] for p in
                                 passes_of(raw, workload, t, False))
            for t in (1, 4)}
    m = dict(raw["probes"])

    lane_steps = c1.get("llg.lane_steps", 0)
    capacity = c1.get("llg.lane_step_capacity", 0)
    specialized = c1.get("llg.blocks_w8", 0) + c1.get("llg.blocks_w16", 0)
    blocks = specialized + c1.get("llg.blocks_generic", 0)
    m["dynamics.llg_busy_s"] = fold["t1"]["llg_busy_ns"] / 1e9
    m["dynamics.ns_per_lane_step"] = ratio(fold["t1"]["llg_busy_ns"], lane_steps)
    m["dynamics.lane_steps"] = lane_steps
    m["dynamics.lane_step_capacity"] = capacity
    m["dynamics.lane_occupancy"] = ratio(lane_steps, capacity)
    m["dynamics.blocks"] = blocks
    m["dynamics.specialized_block_frac"] = ratio(specialized, blocks)

    trials = c1.get("engine.trials", 0)
    wall1 = c1.get("engine.wall_ns", 0) / 1e9
    wall4 = c4.get("engine.wall_ns", 0) / 1e9
    busy4 = c4.get("engine.busy_ns", 0) / 1e9
    chunk = hist4.get("engine.chunk_ns", {})
    m["engine.calls"] = c1.get("engine.calls", 0)
    m["engine.chunks"] = c1.get("engine.chunks", 0)
    m["engine.trials"] = trials
    m["engine.chunk_ms.p50"] = chunk.get("p50", 0.0) / 1e6
    m["engine.chunk_ms.p99"] = chunk.get("p99", 0.0) / 1e6
    m["engine.wall_s.t1"] = wall1
    m["engine.wall_s.t4"] = wall4
    m["engine.busy_s.t4"] = busy4
    m["engine.pool_utilization.t4"] = ratio(busy4, wall4 * 4)
    m["engine.trials_per_wall_s.t1"] = ratio(trials, wall1)
    m["engine.trials_per_wall_s.t4"] = ratio(trials, wall4)
    m["engine.scaling_x"] = ratio(traced[1], traced[4])

    proposals = c1.get("rare.mcmc.proposals", 0)
    m["rare.is_rounds"] = c1.get("rare.is.rounds", 0)
    m["rare.split_levels"] = c1.get("rare.split.levels", 0)
    m["rare.mcmc_proposals"] = proposals
    m["rare.mcmc_accept_frac"] = ratio(c1.get("rare.mcmc.accepts", 0), proposals)

    for name in WORKLOADS:
        for t in (1, 4):
            for scenario, secs in passes_of(raw, name, t, True)[0]["scenarios"].items():
                m[f"scenario.{scenario}.s.t{t}"] = secs
    sweep = hist1.get("sweep.point_ns", {})
    m["scenario.sweep_point_ms.p50"] = sweep.get("p50", 0.0) / 1e6
    m["scenario.sweep_point_ms.p90"] = sweep.get("p90", 0.0) / 1e6

    m["obs.traced_pass_s.t1"] = traced[1]
    m["obs.traced_pass_s.t4"] = traced[4]
    m["obs.untraced_pass_s.t1"] = base[1]
    m["obs.untraced_pass_s.t4"] = base[4]
    m["obs.overhead_frac"] = ratio(traced[1] + traced[4] - base[1] - base[4],
                                   base[1] + base[4])
    m["obs.spans_dropped"] = sum(
        by_t[t]["counters"].get("trace.spans_dropped", 0)
        for by_t in raw["layers"].values() for t in ("t1", "t4"))
    m["failed_frac"] = failed / raw["attempted"]
    return m


def source_digest(root):
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in root.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def git_commit(root):
    if not (root / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def cpu_ticks():
    """Host-wide CPU time counters (user ... steal) from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def steal_frac(before, after):
    """Share of all CPU time the hypervisor took from this VM between two
    cpu_ticks() readings: on an overcommitted host it slows every pass,
    the 4-thread ones most."""
    if not before or not after or len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else None


def host_record(root, raw, args, steal):
    counts = {}
    for p in raw["passes"]:
        key = f"{p['workload']}.t{p['threads']}{'.traced' if p['traced'] else ''}"
        counts[key] = counts.get(key, 0) + 1
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        **raw["build"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(root),
        "source_digest": source_digest(root),
        "passes": counts,
        "setup_reps": len(raw.get("setup_s", [])),
        "steal_frac": steal,
    }


def declared_metrics(root, trace):
    with open(root / "BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def write_reference(root, driver):
    tables = {}
    for name in WORKLOADS:
        work = build_root(root) / "work" / f"reference-{name}"
        run_driver(driver, root, name, 2020, 0, "reference", work)
        with open(work / "reference_pass.json") as f:
            tables.update(json.load(f))
    with open(REFERENCE_FILE, "w") as f:
        json.dump(tables, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")
    print(f"wrote {REFERENCE_FILE} ({len(tables)} scenarios)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()

    root = Path.cwd()
    if not args.write_reference and args.workload is None:
        fail("--workload is required", code=2)
    if args.seed < 0:
        fail("--seed must be non-negative", code=2)
    needed = [root / "CMakeLists.txt", root / "src", root / "BENCHMARK.json"]
    needed += [root / "data" / f for f in checks.GOLDEN_TABLES.values()]
    if not args.write_reference:
        needed.append(REFERENCE_FILE)
    missing = [str(p) for p in needed if not p.exists()]
    if missing:
        fail("not a complete source tree (run from the repository root); "
             f"missing: {', '.join(missing)}", code=2)
    driver = build_driver(root)
    if args.write_reference:
        write_reference(root, driver)
        return 0

    work = build_root(root) / "work" / f"{args.workload}-trace{args.trace}"
    ticks = cpu_ticks()
    raw = run_driver(driver, root, args.workload, args.seed, args.seconds,
                     "traced" if args.trace else "timed", work)
    steal = steal_frac(ticks, cpu_ticks())
    problems, failed = check_outputs(raw, work, root)
    values = (traced_metrics if args.trace else timed_metrics)(
        raw, args.workload, failed)
    units = declared_metrics(root, args.trace)
    if set(values) != set(units):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(values) ^ set(units))}")
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": raw["attempted"],
              "failed": failed, "metrics": metrics}
    host = host_record(root, raw, args, steal)
    with open(work / "result.json", "w") as f:
        json.dump({"host": host, **result}, f, indent=1)
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
