"""Benchmark runner for ``schubert``: a closed loop with one client.

Each pass of a workload runs in a fresh interpreter (perfbench/passrun.py),
so every lru cache starts cold, as it does for a CLI user.  The runner
starts passes until ``--seconds`` of wall time have gone by, then prints a
human-readable summary (lines starting with ``#``) and, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics,
including the tracing overhead.  Run it from the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tr  # noqa: E402
from workloads import (DEFECT, REFERENCE_S, SETUP_REFERENCES, SIZES, WORKLOADS,  # noqa: E402
                       reference_times)

PROBES = 8          # extra set-up-only processes per run, for the set-up median
DEADLINE_S = 170    # one workload's run never outlives this, whatever --seconds says


class BenchError(RuntimeError):
    pass


def declared(root: str) -> tuple:
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_sha(root: str):
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


NPROC = len(os.sched_getaffinity(0))


def pin_to_one_cpu():
    """Run the client and every process it starts on one CPU, so that the
    reference samples are taken on the CPU that runs the ops."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError:  # not allowed here: run unpinned
        pass


def spawn(cmd: list, deadline: float) -> tuple:
    """Run ``cmd`` in a new process group; returns (spawn time, last stdout
    line), the latter with the reference times taken just before the spawn.
    On timeout the whole process group is killed and reaped."""
    spawn_ref = reference_times(SETUP_REFERENCES)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"pass timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise BenchError(f"pass failed ({proc.returncode}): {' '.join(cmd)}\n{err.strip()}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["spawn_ref_s"] = spawn_ref
    return t_spawn, rec


def run_workload(name: str, args, deadline: float) -> dict:
    base = [sys.executable, os.path.join(HERE, "passrun.py"), "--workload", name,
            "--seed", str(args.seed), "--size", args.size]
    # untimed warm-up: compiles bytecode the first run in a checkout would
    spawn(base + ["--probe", "--pass-index", "-1"], deadline)
    setups = []
    for i in range(PROBES):
        t_spawn, rec = spawn(base + ["--probe", "--pass-index", str(1000 + i)], deadline)
        setups.append((rec["ready"] - t_spawn, rec))
    passes = []
    start = time.monotonic()
    min_passes = 2 if args.trace else 1
    while len(passes) < min_passes or time.monotonic() - start < args.seconds:
        traced = bool(args.trace) and len(passes) % 2 == 1
        cmd = base + ["--pass-index", str(len(passes)), "--trace", str(int(traced))]
        t_spawn, rec = spawn(cmd, deadline)
        rec["setup_s"] = rec["ready"] - t_spawn
        rec["traced"] = traced
        passes.append(rec)
    untraced = [p for p in passes if not p["traced"]]
    setups += [(p["setup_s"], p) for p in untraced]
    return {"passes": passes, "untraced": untraced,
            "traced": [p for p in passes if p["traced"]], "setups": setups}


def speed(rec: dict) -> float:
    """How much faster than the reference machine the pass ran, over the
    whole pass (see workloads.REFERENCE_S)."""
    return REFERENCE_S / statistics.median(rec["ref_s"])


def op_times(rec: dict, scaled: bool = True) -> list:
    """A pass's op times, each scaled to the reference machine's speed by
    the mean of the two reference samples taken around it."""
    if not scaled:
        return list(rec["times"])
    ref, at = rec["ref_s"], rec["ref_at"]
    factors = []
    for j in range(len(ref) - 1):
        factors += [2 * REFERENCE_S / (ref[j] + ref[j + 1])] * (at[j + 1] - at[j])
    if len(factors) != len(rec["times"]):
        raise BenchError("reference samples do not cover the pass's ops")
    return [t * f for t, f in zip(rec["times"], factors)]


def setup_time(setup_s: float, rec: dict) -> float:
    """A set-up time scaled by the reference samples taken just before its
    spawn and, in its process, right after its set-up."""
    around = statistics.median(rec["spawn_ref_s"]) + statistics.median(rec["setup_ref_s"])
    return setup_s * 2 * REFERENCE_S / around


def ops_per_s(passes: list, scaled: bool = True) -> float:
    good = sum(len(p["times"]) - sum(v is not None for v in p["verdicts"]) for p in passes)
    return good / sum(sum(op_times(p, scaled)) for p in passes)


def percentile(values: list, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: dict) -> dict:
    times = [t for p in run["untraced"] for t in op_times(p)]
    setups = [setup_time(s, rec) for s, rec in run["setups"]]
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "ops_per_s": (ops_per_s(run["untraced"]), len(times)),
        "op_ms.p50": (1000 * statistics.median(times), len(times)),
        "op_ms.p90": (1000 * percentile(times, 90), len(times)),
        "peak_rss_mb": (max(p["rss_kb"] for p in run["untraced"]) / 1024, len(run["untraced"])),
    }


STAT_KEYS = {"calls": "calls", "terms_in": "n_in", "terms_out": "n_out",
             "raw_terms": "n_in", "monomials": "n_in", "peak_terms": "peak"}


def layer_value(metric: str, rec: dict):
    """One per-layer metric of one traced pass, parsed from its declared
    name.  Seconds are scaled to the reference machine like op times."""
    trace = rec["trace"]
    caches = trace["caches"]
    head, _, stat = metric.rpartition(".")
    if metric.startswith("cache."):
        fn = metric[len("cache."):-len(".currsize")]
        return caches.get(fn, (0, 0, 0))[2]
    if metric.startswith("cli."):
        if "main_s" not in trace:
            return 0
        value = statistics.median(trace[metric[4:]])
        return value if stat == "startup_share" else value * speed(rec)
    if metric == "trace.layer_share":
        return trace["layer_self_s"] / trace["op_s"]
    if metric == "trace.spans":
        return trace["spans"]
    if stat == "hit_ratio":
        hits, misses, _ = caches.get(tr.HIT_RATIO_CACHES[head], (0, 0, 0))
        return hits / (hits + misses) if hits + misses else 0
    agg = trace["layers"].get(head)
    if not agg:
        return 0
    return agg["self_s"] * speed(rec) if stat == "self_s" else agg[STAT_KEYS[stat]]


def per_layer(run: dict, names: list) -> dict:
    traced, untraced = run["traced"], run["untraced"]
    out = {}
    speeds = {"trace.ops_per_s.untraced": ops_per_s(untraced),
              "trace.ops_per_s.traced": ops_per_s(traced)}
    speeds["trace.overhead_ratio"] = speeds["trace.ops_per_s.untraced"] / speeds["trace.ops_per_s.traced"]
    for name in names:
        if name in speeds:
            out[name] = (speeds[name], len(traced))
        else:
            out[name] = (statistics.median(layer_value(name, p) for p in traced), len(traced))
    return out


def summarize(name: str, run: dict, metrics: dict, units: dict) -> tuple:
    attempted = sum(len(p["times"]) for p in run["passes"])
    reasons = [v for p in run["passes"] for v in p["verdicts"] if v is not None]
    print(f"# workload {name}: passes {len(run['untraced'])} untraced, "
          f"{len(run['traced'])} traced; set-up probes {PROBES}")
    for metric, (value, n) in metrics.items():
        print(f"#   {metric:<48} {value:>14.6g} {units[metric]:<6} (n={n})")
    raw = [t for p in run["untraced"] for t in p["times"]]
    print(f"#   unscaled wall clock: setup_s {statistics.median(s for s, _ in run['setups']):.6g}, "
          f"ops_per_s {ops_per_s(run['untraced'], scaled=False):.6g}, "
          f"op_ms.p50 {1000 * statistics.median(raw):.6g}, op_ms.p90 {1000 * percentile(raw, 90):.6g}")
    print("#   untraced passes: machine speed "
          + " ".join(f"{speed(p):.3f}" for p in run["untraced"])
          + "; scaled ops_per_s " + " ".join(f"{ops_per_s([p]):.4g}" for p in run["untraced"]))
    print(f"#   failed {len(reasons)} of {attempted} attempted ops "
          f"(failed_ratio {len(reasons) / attempted:.4f})")
    caches = run["passes"][-1].get("caches")
    if caches:
        print("#   caches at the end of the last pass (hits/misses/size): "
              + ", ".join(f"{fn} {h}/{m}/{n}" for fn, (h, m, n) in sorted(caches.items())))
    for reason in sorted(set(reasons))[:5]:
        print(f"#   FAILED: {reason} (x{reasons.count(reason)})", file=sys.stderr)
    if "known_defect" in run["passes"][-1]:
        defects = [p["known_defect"] for p in run["passes"] if p["known_defect"]]
        line = (f"#   known defect (ROADMAP item 5), checked untimed and outside the op count: "
                + (f"{defects[0]} (in {len(defects)} of {len(run['passes'])} passes)" if defects
                   else "fixed: `" + " ".join(DEFECT) + "` exits 2 in every pass"))
        print(line)
        if defects:
            print(line, file=sys.stderr)
    return attempted, len(reasons)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--size", default="full", choices=sorted(SIZES),
                    help="tiny inputs are for the self-tests")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "schubert", "__init__.py")):
        print("error: run from a checkout of the repository: src/schubert is missing",
              file=sys.stderr)
        return 2
    e2e_units, layer_units = declared(root)
    units = layer_units if args.trace else e2e_units
    pin_to_one_cpu()
    load_start = os.getloadavg()[0]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args, time.monotonic() + DEADLINE_S)
            metrics = per_layer(run, list(units)) if args.trace else end_to_end(run)
            missing = set(units) - set(metrics)
            if missing:
                raise BenchError(f"declared metrics not measured: {sorted(missing)}")
            metrics = {m: metrics[m] for m in units}
            results[name] = (run, metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    load_end = os.getloadavg()[0]
    record = {"python": platform.python_version(), "nproc": NPROC, "git_sha": git_sha(root),
              "seed": args.seed, "workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "load1_start": load_start, "load1_end": load_end,
              "overloaded": max(load_start, load_end) > NPROC}
    print("# run " + json.dumps(record))
    if record["overloaded"]:
        print(f"# WARNING: 1-minute load average exceeded nproc={NPROC}; "
              "timings are suspect", file=sys.stderr)
    attempted = failed = 0
    out_metrics = {}
    for name, (run, metrics) in results.items():
        a, f = summarize(name, run, metrics, units)
        attempted, failed = attempted + a, failed + f
        prefix = "" if len(results) == 1 else name + "."
        for metric, (value, _) in metrics.items():
            out_metrics[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
