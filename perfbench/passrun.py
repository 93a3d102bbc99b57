"""One pass of one workload, in a fresh interpreter started by run.py.

Imports ``schubert`` from ``src/``, builds the pass's inputs, checks that
every lru cache of the package is empty, times each op, records the caches
and peak RSS, then checks every op's output (untimed) and prints one JSON
record on stdout.  With ``--trace 1`` the ops run under the outside-in
tracer and the record carries the per-layer summary.

    python3 perfbench/passrun.py --workload oracle --seed 3 --pass-index 0
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import schubert  # noqa: E402

import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402

TMP = ".perfbench_tmp"


def require_cold():
    warm = {name: s for name, s in tr.cache_stats().items() if s[2] != 0}
    if warm:
        raise SystemExit(f"lru caches not empty at pass start: {warm}")


class Reference:
    """Times workloads.reference() before the first op, about every
    REFERENCE_EVERY_S of op time, and after the last op.  A sample is the
    median of ``repeat`` timings.  ``at[j]`` is the index of the op that
    sample ``j`` precedes."""

    def __init__(self, repeat: int = 1):
        self.times, self.at = [], []
        self.repeat = repeat
        self._since = 0.0

    def sample(self, index: int):
        self.times.append(statistics.median(wl.reference_times(self.repeat)))
        self.at.append(index)

    def due(self, index: int, elapsed: float):
        self._since += elapsed
        if self._since >= wl.REFERENCE_EVERY_S:
            self.sample(index)
            self._since = 0.0


def make_tmpdir() -> str:
    """A scratch directory for generated matrix files, inside the checkout."""
    os.makedirs(TMP, exist_ok=True)
    return os.path.abspath(tempfile.mkdtemp(prefix="cli", dir=TMP))


def remove_tmpdir(tmpdir: str):
    shutil.rmtree(tmpdir, ignore_errors=True)
    try:
        os.rmdir(TMP)
    except OSError:  # not empty: another pass's directory is still there
        pass


def run_cli(args, rng, cfg) -> dict:
    tmpdir = make_tmpdir()
    try:
        reqs = wl.cli_requests(rng, cfg["cli_requests"], tmpdir)
        ready = time.monotonic()
        setup_ref = wl.reference_times(wl.SETUP_REFERENCES)
        require_cold()
        env = dict(os.environ, PYTHONPATH="src")
        times, outcomes, traces = [], [], []
        # a request runs in another process, so only the samples around it
        # can tell its speed: take three timings per sample
        ref = Reference(repeat=3)
        ref.sample(0)
        for i, req in enumerate(reqs):
            if times:
                ref.due(i, times[-1])
            if args.trace:
                out_path = os.path.join(tmpdir, f"trace{i}.json")
                cmd = [sys.executable, os.path.join("perfbench", "cli_child.py")] + req["argv"]
                env["PERFBENCH_TRACE_OUT"] = out_path
            else:
                cmd = [sys.executable, "-m", "schubert.cli"] + req["argv"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
            times.append(time.perf_counter() - t0)
            outcomes.append((proc.returncode, proc.stdout))
            if args.trace:
                with open(out_path) as f:
                    traces.append(json.load(f))
        ref.sample(len(times))
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        verdicts = wl.check_cli(reqs, outcomes, schubert)
        # untimed, after the peak RSS is read, and outside the op count
        defect = wl.known_defect_request()
        proc = subprocess.run([sys.executable, "-m", "schubert.cli"] + defect["argv"], env=env,
                              capture_output=True, text=True, timeout=60)
        known_defect = wl.check_cli([defect], [(proc.returncode, proc.stdout)], schubert)[0]
    finally:
        remove_tmpdir(tmpdir)
    record = {"ready": ready, "setup_ref_s": setup_ref, "times": times, "ref_s": ref.times,
              "ref_at": ref.at, "rss_kb": rss_kb, "verdicts": verdicts,
              "known_defect": known_defect}
    if args.trace:
        record["trace"] = merge_cli_traces(traces, times)
    return record


def merge_cli_traces(traces, walls) -> dict:
    layers = {}
    for t in traces:
        for name, agg in t["layers"].items():
            into = layers.setdefault(name, {key: 0 for key in agg})
            for key, value in agg.items():
                into[key] = max(into[key], value) if key == "peak" else into[key] + value
    caches = {}
    for t in traces:
        for name, stats in t["caches"].items():
            caches[name] = [max(a, b) for a, b in zip(caches.get(name, stats), stats)]
    layer_self = sum(t["import_s"] + t["layer_self_s"] for t in traces)
    return {
        "layers": layers,
        "spans": sum(t["spans"] for t in traces),
        "op_s": sum(walls),
        "layer_self_s": layer_self,
        "caches": caches,
        "import_s": [t["import_s"] for t in traces],
        "main_s": [t["main_s"] for t in traces],
        "startup_share": [(w - t["main_s"]) / w for t, w in zip(traces, walls)],
    }


def run_library(args, rng, cfg) -> dict:
    ops = wl.build(args.workload, args.size, rng, schubert)
    ready = time.monotonic()
    setup_ref = wl.reference_times(wl.SETUP_REFERENCES)
    require_cold()
    tracer = tr.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    times, results = [], []
    clock = time.perf_counter
    ref = Reference()
    ref.sample(0)
    try:
        for i, op in enumerate(ops):
            if times:
                ref.due(i, times[-1])
            if tracer:
                tracer.op_id = i
                t0 = clock()
                res = tracer.span(tr.OP, wl.run_op, op, schubert)
            else:
                t0 = clock()
                res = wl.run_op(op, schubert)
            times.append(clock() - t0)
            results.append(res)
    finally:
        if tracer:
            tracer.uninstall()
    ref.sample(len(times))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    caches = tr.cache_stats()
    record = {"ready": ready, "setup_ref_s": setup_ref, "times": times, "ref_s": ref.times,
              "ref_at": ref.at, "rss_kb": rss_kb, "caches": caches}
    if tracer:
        summary = tr.summarize(tracer.spans)
        summary["caches"] = caches
        record["trace"] = summary
    record["verdicts"] = wl.check(args.workload, args.size, ops, results, schubert)
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, default=0)
    ap.add_argument("--size", default="full", choices=sorted(wl.SIZES))
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--probe", action="store_true",
                    help="build the inputs, report set-up time and run no op")
    args = ap.parse_args(argv)
    rng = random.Random(f"{args.workload}:{args.seed}:{args.pass_index}")
    cfg = wl.SIZES[args.size]
    if args.probe:
        if args.workload == "cli":
            tmpdir = make_tmpdir()
            try:
                wl.cli_requests(rng, cfg["cli_requests"], tmpdir)
            finally:
                remove_tmpdir(tmpdir)
        else:
            wl.build(args.workload, args.size, rng, schubert)
        ready = time.monotonic()
        record = {"ready": ready, "setup_ref_s": wl.reference_times(wl.SETUP_REFERENCES)}
    elif args.workload == "cli":
        record = run_cli(args, rng, cfg)
    else:
        record = run_library(args, rng, cfg)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
