"""Traced stand-in for ``python -m schubert.cli``: times ``import schubert.cli``
and ``cli.main(argv)`` under the outside-in tracer, writes the summary to
the file named by ``PERFBENCH_TRACE_OUT`` and exits with main's code.

    PYTHONPATH=src PERFBENCH_TRACE_OUT=t.json python3 perfbench/cli_child.py mult 1 1 --k 2 --n 4
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
import schubert.cli as cli  # noqa: E402

import_s = time.perf_counter() - t0

import tracer as tr  # noqa: E402


def main() -> int:
    tracer = tr.Tracer()
    tracer.install()
    t1 = time.perf_counter()
    try:
        code = tracer.span("cli.main", cli.main, sys.argv[1:])
    finally:
        main_s = time.perf_counter() - t1
        tracer.uninstall()
    summary = tr.summarize(tracer.spans)
    summary["caches"] = tr.cache_stats()
    summary["import_s"] = import_s
    summary["main_s"] = main_s
    sys.stdout.flush()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as f:
        json.dump(summary, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
