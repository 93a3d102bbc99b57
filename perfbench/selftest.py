"""Self-tests of the benchmark.  Run from the repository root:

    python3 perfbench/selftest.py            # or: python3 -m pytest perfbench/selftest.py

They smoke-run every workload at tiny size (traced and untraced), check the
tracer's self-time arithmetic, check that a corrupted expected value is
counted as a failed op, check that every emitted metric is declared in
BENCHMARK.json, and certify the recorded output digests.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import schubert  # noqa: E402

import run as runner  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


def bench(*args) -> tuple:
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None


class SmokeTest(unittest.TestCase):
    """A tiny run of every workload emits exactly the declared metrics."""

    def test_every_workload(self):
        e2e, layers = runner.declared(ROOT)
        for workload in wl.WORKLOADS:
            for trace, units in ((0, e2e), (1, layers)):
                with self.subTest(workload=workload, trace=trace):
                    proc, result = bench("--workload", workload, "--seed", "5", "--seconds", "0.5",
                                         "--trace", str(trace), "--size", "tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertEqual(set(result["metrics"]), set(units))
                    for name, m in result["metrics"].items():
                        self.assertEqual(m["unit"], units[name])
                        self.assertIsInstance(m["value"], (int, float))
                    if trace == 0:
                        self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0, proc.stderr)
                    self.assertTrue(result["correct"])
                    if workload == "cli":
                        # the `table --max-weight -1` probe is reported, not counted
                        self.assertIn("known defect (ROADMAP item 5)", proc.stdout)

    def test_refuses_without_program(self):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "cli",
                               "--seed", "1", "--seconds", "1"],
                              cwd=HERE, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


class TracerTest(unittest.TestCase):
    def test_self_time_of_a_nest(self):
        spans = [
            ["op", 0.0, 10.0, -1, 0, 0, 0],
            ["a", 1.0, 4.0, 0, 0, 0, 0],
            ["a", 2.0, 3.0, 1, 0, 0, 0],
            ["b", 5.0, 9.5, 0, 0, 0, 0],
            ["c", 6.0, 7.0, 3, 0, 0, 0],
            ["c", 6.5, 8.0, 3, 0, 0, 0],  # overlaps its sibling: covered once
        ]
        self.assertEqual(tr.self_times(spans), [2.5, 2.0, 1.0, 2.5, 1.0, 1.5])
        summary = tr.summarize(spans)
        self.assertEqual(summary["op_s"], 10.0)
        self.assertEqual(summary["layers"]["a"]["calls"], 2)
        self.assertEqual(summary["layers"]["a"]["self_s"], 3.0)
        self.assertEqual(summary["layer_self_s"], 8.0)

    def test_rebinds_every_namespace(self):
        from schubert import cli, derivations, grassmann_contexts

        original = derivations.pieri_d
        tracer = tr.Tracer()
        tracer.install()
        try:
            for mod in (schubert, cli, derivations, grassmann_contexts):
                self.assertIsNot(mod.pieri_d, original)
            v = schubert.KVector.basis((2, 4))
            schubert.KVector.basis((1, 2)) + derivations.apply_operator(
                schubert.giambelli_det(schubert.Partition((1,)), 2), v)
        finally:
            tracer.uninstall()
        for mod in (schubert, cli, derivations, grassmann_contexts):
            self.assertIs(mod.pieri_d, original)
        names = [s[0] for s in tracer.spans]
        self.assertIn("derivations.pieri_d", names)
        self.assertIn("exterior_core.kvector_add", names)
        pieri = next(s for s in tracer.spans if s[0] == "derivations.pieri_d")
        self.assertEqual(tracer.spans[pieri[3]][0], "derivations.apply_operator")


class ScalingTest(unittest.TestCase):
    def test_slow_machine_scales_times_down(self):
        rec = {"times": [0.2, 0.4], "verdicts": [None, None],
               "ref_s": [wl.REFERENCE_S * 2, wl.REFERENCE_S * 2, wl.REFERENCE_S * 2],
               "ref_at": [0, 1, 2]}
        self.assertEqual(runner.speed(rec), 0.5)
        self.assertEqual(runner.op_times(rec), [0.1, 0.2])
        self.assertAlmostEqual(runner.ops_per_s([rec]), 2 / 0.3)
        self.assertAlmostEqual(runner.ops_per_s([rec], scaled=False), 2 / 0.6)

    def test_each_op_scales_by_the_samples_around_it(self):
        # samples before op 0, before op 2 and after op 2: ops 0 and 1 ran
        # at half speed, op 2 between a half-speed and a full-speed sample
        rec = {"times": [0.2, 0.4, 0.3], "verdicts": [None] * 3,
               "ref_s": [wl.REFERENCE_S * 2, wl.REFERENCE_S * 2, wl.REFERENCE_S],
               "ref_at": [0, 2, 3]}
        for got, want in zip(runner.op_times(rec), [0.1, 0.2, 0.2]):
            self.assertAlmostEqual(got, want)
        rec = {"spawn_ref_s": [wl.REFERENCE_S] * 3, "setup_ref_s": [wl.REFERENCE_S * 3] * 3}
        self.assertAlmostEqual(runner.setup_time(0.4, rec), 0.2)


class CorruptionTest(unittest.TestCase):
    """A wrong expected value must show up as failed ops."""

    def run_pass(self, workload):
        ops = wl.build(workload, "tiny", random.Random(1), schubert)
        return ops, [wl.run_op(op, schubert) for op in ops]

    def test_corrupted_digest(self):
        for workload, key in (("tables_quantum", ("tables_quantum", "tiny")), ("oracle", ("lr", "tiny"))):
            ops, results = self.run_pass(workload)
            self.assertEqual(wl.check(workload, "tiny", ops, results, schubert), [None] * len(ops))
            bad = dict(wl.DIGESTS)
            bad[key] = "0" * 64
            verdicts = wl.check(workload, "tiny", ops, results, schubert, digests=bad)
            lr_or_all = [op for op in ops if workload != "oracle" or op.kind == "lr"]
            self.assertEqual(sum(v is not None for v in verdicts), len(lr_or_all))

    def test_corrupted_result_counts_once(self):
        ops, results = self.run_pass("operators")
        i = next(i for i, op in enumerate(ops) if op.key == ((2, 1), 2))
        results[i] = schubert.KVector.basis((1, 3))  # the right answer for lambda = (1)
        verdicts = wl.check("operators", "tiny", ops, results, schubert)
        self.assertEqual([j for j, v in enumerate(verdicts) if v is not None], [i])
        record = {"times": [1.0] * len(ops), "verdicts": verdicts,
                  "ref_s": [wl.REFERENCE_S] * 2, "ref_at": [0, len(ops)]}
        self.assertEqual(runner.ops_per_s([record]), (len(ops) - 1) / len(ops))

    def test_cli_wrong_exit_code_fails(self):
        req = {"kind": "giambelli", "json": False, "k": 2, "lam": (2, 1),
               "argv": ["giambelli", "2,1", "--k", "2"]}
        self.assertEqual(wl.check_cli([req], [(0, "D1*D2 - D3\n")], schubert), [None])
        self.assertIsNotNone(wl.check_cli([req], [(2, "")], schubert)[0])
        self.assertIsNotNone(wl.check_cli([req], [(0, "D1*D2\n")], schubert)[0])

    def test_known_defect_is_checked(self):
        req = wl.known_defect_request()
        self.assertNotIn("defect", wl.CLI_MIX)
        self.assertEqual(wl.check_cli([req], [(2, "")], schubert), [None])
        self.assertIsNotNone(wl.check_cli([req], [(0, "{}\n")], schubert)[0])


class DigestCertificationTest(unittest.TestCase):
    """The recorded digests describe outputs that pass the benchmark's
    checks: for the quantum table, commutativity, quantum Pieri, the grading
    and a q^0 part equal to the tableau oracle's classical product; for the
    LR expansions, the hook-content dimension count."""

    def test_quantum_tables(self):
        for size in ("tiny", "full"):
            ops = wl.build("tables_quantum", size, random.Random(2), schubert)
            results = [wl.run_op(op, schubert) for op in ops]
            self.assertEqual(wl.check("tables_quantum", size, ops, results, schubert),
                             [None] * len(ops))
            k, n = wl.SIZES[size]["tables"]
            parts = wl.box(k, n - k)
            for op, res in zip(ops, results):
                lam, mu = op.key
                # deg q = n, and the q^0 part is the classical product
                self.assertTrue(all(sum(nu) + n * d == sum(lam) + sum(mu) for (nu, d) in res))
                classical = {tuple(nu): c for (nu, d), c in res.items() if d == 0}
                lr = {nu: schubert.lr_coefficient(lam, mu, nu, k) for nu in parts}
                self.assertEqual(classical, {nu: c for nu, c in lr.items() if c})

    def test_lr_expansions(self):
        for size in ("tiny", "full"):
            ops = [op for op in wl.build("oracle", size, random.Random(2), schubert) if op.kind == "lr"]
            results = [wl.run_op(op, schubert) for op in ops]
            self.assertEqual(wl.check("oracle", size, ops, results, schubert), [None] * len(ops))

    def test_generators(self):
        self.assertEqual(len(wl.box(3, 4)), 35)                       # C(7, 3)
        self.assertEqual(sum(len(wl.box(k, 5)) for k in range(1, 6)), 461)
        for lam in wl.box(3, 4):
            self.assertEqual(wl.parts_of(wl.symbol_of(lam, 3)), lam)
            self.assertEqual(wl.symbol_of(lam, 3),
                             schubert.partition_to_symbol(schubert.Partition(lam), 3).indices)


if __name__ == "__main__":
    unittest.main()
