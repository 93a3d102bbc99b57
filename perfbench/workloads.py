"""The benchmark's workloads: seeded input generators, the ops each pass
times, and the untimed checks of every op's output.

Inputs come from the generators here, never from the program's own
enumerators (``box_partitions``), so a bug there cannot shape what is
measured.  Ops reach the program through module attributes looked up at
call time, so the tracer's rebinding applies to them.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import time
from collections import namedtuple
from fractions import Fraction

WORKLOADS = ("tables_classical", "tables_quantum", "operators", "oracle", "cli")

# Sizes.  ``full`` is what run.py measures; ``tiny`` is for self-tests.
SIZES = {
    "full": {
        "tables": (3, 7),            # G(k, n): every pair of classes, both orders
        "operators": (5, 5),         # every lambda in the w x w box, k <= kmax
        "lr": (4, 4, 12),            # k, box width, |lambda| + |mu| cap
        "jt": (4, 4),                # kmax, box width
        "pieri_cases": 1000,
        "cli_requests": 24,
    },
    "tiny": {
        "tables": (2, 4),
        "operators": (3, 2),
        "lr": (2, 3, 4),
        "jt": (2, 2),
        "pieri_cases": 40,
        "cli_requests": 24,
    },
}

# Digests of whole outputs, recorded with the program as it stood when the
# benchmark was added and certified by selftest.py.
DIGESTS = {
    ("tables_quantum", "full"): "ed030cedf5cebb39d8456477c8b67d49e2f44ea3e67cde4958909429a388de5d",
    ("tables_quantum", "tiny"): "8a215f301075142db0644595f0cbcb034b35c28b29e7de33f293e5e71d792aef",
    ("lr", "full"): "7891a907ec91f29866c462f04c274c0a5755c2cb3feff92cdc7f4c393ff9cfab",
    ("lr", "tiny"): "b89161dc93483442e208305061c29f9fb5928b8ee9ecdac1eb62c4c4b0796e93",
}


# ------------------------------------------------------- machine reference

# The shared machines this runs on change speed by up to 2x, from one tenth
# of a second to the next, and a pass's CPU time tracks its wall time, so the
# slowdown is in the CPU itself.  Each pass therefore also times reference(),
# a fixed pure-Python job, before its first op, about every REFERENCE_EVERY_S
# of op time, and after its last op; run.py scales each op's time by
# REFERENCE_S / (mean of the two reference times around it).  A set-up is
# scaled likewise, by reference() timed SETUP_REFERENCES times in run.py just
# before the spawn and in the new process once its inputs are built.
# REFERENCE_S is the median time of
# reference() on a shared 2-vCPU 2.1 GHz VM with Python 3.11, so scaled times
# read as seconds on that machine at its usual speed.
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.05
SETUP_REFERENCES = 3


def reference_times(count: int) -> list:
    """``count`` timings of reference(), in seconds."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return times


def _compositions(n, k):
    if k == 0:
        yield ()
        return
    for first in range(n):
        for rest in _compositions(n - first, k - 1):
            yield (first,) + rest


def reference() -> int:
    """Tuple building, sorting, dict updates and a recursive generator: the
    kind of work the program's ops do, in code the program cannot change."""
    acc = {}
    for t in _compositions(14, 4):
        key = tuple(sorted(t))
        acc[key] = acc.get(key, 0) + sum(t)
    return len(acc)


# ---------------------------------------------------------------- generators

def box(k: int, width: int, cap=None) -> list:
    """Partitions with at most k parts, each at most ``width`` and weight at
    most ``cap``, as tuples in lexicographic order."""
    out = []

    def rec(prefix, prev, room):
        out.append(prefix)
        if len(prefix) == k:
            return
        for part in range(1, min(prev, room) + 1):
            rec(prefix + (part,), part, room - part)

    rec((), width, k * width if cap is None else cap)
    return sorted(out)


def symbol_of(parts: tuple, k: int) -> tuple:
    """The wedge index tuple I(lambda): i_j = lambda_{k+1-j} + j."""
    padded = tuple(parts) + (0,) * (k - len(parts))
    return tuple(padded[k - j] + j for j in range(1, k + 1))


def parts_of(indices: tuple) -> tuple:
    """Inverse of symbol_of."""
    k = len(indices)
    return tuple(p for p in (indices[j] - j - 1 for j in range(k - 1, -1, -1)) if p)


def random_symbol(rng: random.Random, k: int, top: int) -> tuple:
    return tuple(sorted(rng.sample(range(1, top + 1), k)))


def random_matrix(rng: random.Random, k: int, n: int) -> list:
    """A k x n integer matrix in a random Schubert cell: row r is zero left of
    a pivot column, pivots increase, other entries are small integers."""
    pivots = sorted(rng.sample(range(n), k))
    rows = []
    for p in pivots:
        row = [0] * n
        row[p] = rng.choice((1, 2, -1, 3))
        for c in range(p + 1, n):
            row[c] = rng.randint(-3, 3)
        rows.append(row)
    # add each row to the next: the row span, and so the cell, is unchanged
    for r in range(1, k):
        f = rng.randint(-2, 2)
        rows[r] = [a + f * b for a, b in zip(rows[r], rows[r - 1])]
    return rows


# ---------------------------------------------------------- canonical forms

def plain_kvector(v) -> dict:
    """A k-vector as ``{indices: {q-degree: coeff}}``, through the public API."""
    return {sym.indices: dict(c.items()) for sym, c in v.items()}


def plain_product(product: dict) -> dict:
    return {(tuple(nu), d): c for (nu, d), c in product.items()}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def table_digest(results: dict) -> str:
    """Digest of ``{(lam, mu): plain product}`` independent of op order."""
    rows = sorted(
        [list(lam), list(mu), sorted([list(nu), d, c] for (nu, d), c in prod.items())]
        for (lam, mu), prod in results.items()
    )
    return digest(rows)


def lr_digest(results: dict) -> str:
    rows = sorted([list(lam), list(mu), [[list(nu), c] for nu, c in exp]]
                  for (lam, mu), exp in results.items())
    return digest(rows)


def dim_schur(parts: tuple, k: int) -> int:
    """s_lambda(1, ..., 1) in k variables by the hook-content formula."""
    if len(parts) > k:
        return 0
    conj = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    value = Fraction(1)
    for i, row in enumerate(parts):
        for j in range(row):
            hook = (row - j - 1) + (conj[j] - i - 1) + 1
            value *= Fraction(k + j - i, hook)
    return int(value)


# ---------------------------------------------------------------- workloads

# One timed call: ``kind`` groups ops for checks, ``key`` names the inputs
# in the benchmark's own terms, ``args`` are the program objects passed.
Op = namedtuple("Op", "kind key args")


def build(workload: str, size: str, rng: random.Random, sch) -> list:
    """The ops of one pass.  ``sch`` is the imported ``schubert`` package."""
    cfg = SIZES[size]
    P = sch.Partition
    if workload.startswith("tables"):
        k, n = cfg["tables"]
        mode = "classical" if workload == "tables_classical" else "quantum"
        ctx = sch.GrassmannContext(k, n, mode)
        parts = box(k, n - k)
        ops = [Op("mult", (lam, mu), (P(lam), P(mu), ctx)) for lam in parts for mu in parts]
    elif workload == "operators":
        width, kmax = cfg["operators"]
        ops = [Op("giambelli", (lam, k), (P(lam), k))
               for k in range(1, kmax + 1) for lam in box(k, width)]
    elif workload == "oracle":
        k, width, cap = cfg["lr"]
        parts = box(k, width)
        ops = [Op("lr", (lam, mu), (P(lam), P(mu), k))
               for lam in parts for mu in parts if sum(lam) + sum(mu) <= cap]
        kmax, width = cfg["jt"]
        ops += [Op("jt", (lam, k), (P(lam), k)) for k in range(1, kmax + 1) for lam in box(k, width)]
        for i in range(cfg["pieri_cases"]):
            k = rng.randint(1, 4)
            indices = random_symbol(rng, k, 12)
            h = rng.randint(0, 8)
            ops.append(Op("pieri", (i, h, indices), (h, sch.KVector.basis(indices))))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def run_op(op: Op, sch):
    """Perform one op through the program's module attributes."""
    a = op.args
    if op.kind == "mult":
        return sch.grassmann_contexts.multiply(*a)
    if op.kind == "giambelli":
        lam, k = a
        det = sch.giambelli_ring.giambelli_det(lam, k)
        return sch.derivations.apply_operator(det, sch.exterior_core.fundamental(k))
    if op.kind == "lr":
        return sch.schur_oracle.lr_expansion(*a)
    if op.kind == "jt":
        return sch.schur_oracle.verify_jacobi_trudi(*a)
    if op.kind == "pieri":
        h, v = a
        return sch.derivations.pieri_d(h, v), sch.derivations.leibniz_d(h, v)
    raise ValueError(op.kind)


def check(workload: str, size: str, ops: list, results: list, sch, digests=DIGESTS) -> list:
    """Per-op correctness, computed after the timed loop.  Returns one
    ``None`` (correct) or a short reason per op."""
    verdicts = [None] * len(ops)
    if workload == "tables_classical":
        k, n = SIZES[size]["tables"]
        parts = box(k, n - k)
        for i, (op, res) in enumerate(zip(ops, results)):
            lam, mu = op.key
            got = plain_product(res)
            want = {}
            for nu in parts:
                c = sch.schur_oracle.lr_coefficient(lam, mu, nu, k)
                if c:
                    want[(nu, 0)] = c
            if got != want:
                verdicts[i] = f"mult{lam}x{mu} != lr_coefficient"
    elif workload == "tables_quantum":
        k, n = SIZES[size]["tables"]
        ctx = sch.GrassmannContext(k, n, "quantum")
        table = {op.key: plain_product(res) for op, res in zip(ops, results)}
        whole_ok = table_digest(table) == digests[(workload, size)]
        for i, op in enumerate(ops):
            lam, mu = op.key
            if not whole_ok:
                verdicts[i] = "quantum table digest mismatch"
            elif table[(lam, mu)] != table[(mu, lam)]:
                verdicts[i] = f"mult{lam}x{mu} not commutative"
            elif len(lam) == 1:
                v = sch.KVector.basis(symbol_of(mu, k))
                qp = plain_kvector(sch.grassmann_contexts.quantum_pieri(lam[0], v, ctx))
                want = {(parts_of(s), d): c for s, qc in qp.items() for d, c in qc.items()}
                if table[(lam, mu)] != want:
                    verdicts[i] = f"mult{lam}x{mu} != quantum_pieri"
    elif workload == "operators":
        for i, (op, res) in enumerate(zip(ops, results)):
            lam, k = op.key
            if plain_kvector(res) != {symbol_of(lam, k): {0: 1}}:
                verdicts[i] = f"det{lam},k={k} applied to e[1..k] != e[I(lambda)]"
    elif workload == "oracle":
        k = SIZES[size]["lr"][0]
        lr = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if op.kind == "lr":
                lam, mu = op.key
                exp = [(tuple(nu), c) for nu, c in res]
                lr[(lam, mu)] = exp
                total = sum(c * dim_schur(nu, k) for nu, c in exp)
                if (total != dim_schur(lam, k) * dim_schur(mu, k)
                        or any(sum(nu) != sum(lam) + sum(mu) or c <= 0 for nu, c in exp)):
                    verdicts[i] = f"lr{lam}x{mu} fails the dimension count"
            elif op.kind == "jt":
                if res is not True:
                    verdicts[i] = f"jacobi-trudi {op.key} does not hold"
            elif plain_kvector(res[0]) != plain_kvector(res[1]):
                verdicts[i] = f"pieri != leibniz for {op.key}"
        if lr_digest(lr) != digests[("lr", size)]:
            verdicts = [v or ("lr digest mismatch" if op.kind == "lr" else None)
                        for op, v in zip(ops, verdicts)]
    return verdicts


# ---------------------------------------------------------------------- cli

MALFORMED = [
    ["mult", "2,3", "1", "--k", "2", "--n", "4"],      # parts not decreasing
    ["mult", "1", "9", "--k", "2", "--n", "4"],        # outside the box
    ["mult", "1", "1"],                                # missing --k/--n
    ["pieri", "1", "3,2"],                             # symbol not increasing
    ["pieri", "1", "2,x"],                             # not an integer
    ["giambelli", "1,1,1", "--k", "2"],                # longer than k
    ["present", "--k", "2"],                           # missing --n
    ["table", "--k", "2", "--n", "4", "--quantum", "--max-weight", "x"],
    ["frobnicate"],                                    # unknown subcommand
]
# ROADMAP item 5: accepted today (exit 0) although it should exit 2.  It is
# not an op of the mix, because a workload's ops must all succeed; each cli
# pass runs it untimed after its ops and reports the outcome (see
# known_defect_request).
DEFECT = ["table", "--k", "2", "--n", "4", "--max-weight", "-1"]

CLI_MIX = (["pieri"] * 3 + ["mult"] * 4 + ["giambelli"] * 3 + ["present"] * 2
           + ["table"] * 2 + ["check"] * 2 + ["pluecker"] * 3 + ["malformed"] * 5)


def _ctx_flags(k, n, quantum):
    flags = ["--k", str(k), "--n", str(n)]
    return flags + ["--quantum"] if quantum else flags


def cli_requests(rng: random.Random, count: int, tmpdir: str) -> list:
    """``count`` requests drawn from a fixed mix, shuffled; each is a dict
    with ``kind``, ``argv`` and the parameters its expected output needs."""
    kinds = [CLI_MIX[i % len(CLI_MIX)] for i in range(count)]
    rng.shuffle(kinds)
    reqs = []
    for i, kind in enumerate(kinds):
        js = rng.random() < 0.5
        quantum = rng.random() < 0.5
        req = {"kind": kind, "json": js}
        if kind == "pieri":
            k = rng.randint(1, 3)
            indices = random_symbol(rng, k, 7)
            h = rng.randint(0, 4)
            argv = ["pieri", str(h), ",".join(map(str, indices))]
            ctx = rng.choice((None, "classical", "quantum"))
            n = rng.randint(max(indices), 8)
            if ctx:
                argv += _ctx_flags(k, n, ctx == "quantum")
            req.update(h=h, indices=indices, k=k, n=n, mode=ctx)
        elif kind == "mult":
            k, n = rng.choice(((2, 4), (2, 5), (3, 6)))
            parts = box(k, n - k)
            lam, mu = rng.choice(parts), rng.choice(parts)
            argv = ["mult", ",".join(map(str, lam)), ",".join(map(str, mu))] + _ctx_flags(k, n, quantum)
            req.update(k=k, n=n, lam=lam, mu=mu, quantum=quantum)
        elif kind == "giambelli":
            k = rng.randint(1, 4)
            lam = rng.choice(box(k, 4))
            argv = ["giambelli", ",".join(map(str, lam)), "--k", str(k)]
            req.update(k=k, lam=lam)
        elif kind == "present":
            k, n = rng.choice(((1, 4), (2, 4), (2, 5), (3, 5), (3, 6)))
            argv = ["present"] + _ctx_flags(k, n, quantum)
            req.update(k=k, n=n, quantum=quantum)
        elif kind == "table":
            k, n = rng.choice(((1, 4), (2, 4), (2, 5)))
            mw = rng.choice((None, rng.randint(0, k * (n - k))))
            argv = ["table"] + _ctx_flags(k, n, quantum)
            if mw is not None:
                argv += ["--max-weight", str(mw)]
            req.update(k=k, n=n, quantum=quantum, max_weight=mw)
        elif kind == "check":
            k, n = rng.choice(((1, 3), (1, 4), (2, 4), (2, 5)))
            argv = ["check", "--k", str(k), "--n", str(n)]
            req.update(k=k, n=n)
        elif kind == "pluecker":
            k = rng.randint(2, 3)
            n = rng.randint(k + 2, 6)
            matrix = random_matrix(rng, k, n)
            path = os.path.join(tmpdir, f"matrix{i}.txt")
            with open(path, "w") as f:
                f.write("\n".join(" ".join(map(str, row)) for row in matrix) + "\n")
            argv = ["pluecker", path]
            req.update(matrix=matrix)
        else:
            argv = list(rng.choice(MALFORMED))
            js = False
        if js:
            argv.append("--json")
        req["argv"] = argv
        reqs.append(req)
    return reqs


def known_defect_request() -> dict:
    """The ROADMAP item 5 request, checked like an op but never counted as one."""
    return {"kind": "defect", "json": False, "argv": list(DEFECT)}


def _sigma_json(product: dict) -> dict:
    return {"terms": [{"nu": list(nu), "d": d, "coeff": c}
                      for (nu, d), c in sorted(product.items(), key=lambda t: (t[0][0].parts, t[0][1]))]}


def cli_expected(req: dict, sch) -> tuple:
    """(exit code, stdout) that the request must produce: the library's
    result for the same input, rendered in this process."""
    from schubert import cli, pluecker

    kind, js = req["kind"], req["json"]
    if kind in ("malformed", "defect"):
        return 2, ""
    if kind == "pieri":
        k, mode = req["k"], req["mode"]
        v = sch.KVector.basis(req["indices"])
        if mode is None:
            ctx = sch.GrassmannContext(k, k, "infinite")
        else:
            ctx = sch.GrassmannContext(k, req["n"], mode)
        res = sch.reduce_kvector(sch.pieri_d(req["h"], v), ctx)
        if js:
            terms = [{"indices": list(s), "d": d, "coeff": c}
                     for s, qc in sorted(plain_kvector(res).items()) for d, c in sorted(qc.items())]
            return 0, json.dumps({"degree": k, "terms": terms})
        return 0, sch.render_kvector(res)
    if kind == "mult":
        ctx = sch.GrassmannContext(req["k"], req["n"], "quantum" if req["quantum"] else "classical")
        product = sch.multiply(sch.Partition(req["lam"]), sch.Partition(req["mu"]), ctx)
        return 0, json.dumps(_sigma_json(product)) if js else cli.render_sigma(product)
    if kind == "giambelli":
        det = sch.giambelli_det(sch.Partition(req["lam"]), req["k"])
        if js:
            return 0, json.dumps({"terms": [{"parts": list(m), "coeff": c} for m, c in det.items()]})
        return 0, sch.render_dpolynomial(det)
    if kind == "present":
        rep = sch.verify_presentation(req["k"], req["n"], "quantum" if req["quantum"] else "classical")
        if js:
            out = json.dumps({"k": rep.k, "n": rep.n, "mode": rep.mode, "ok": rep.ok,
                              "relations": [{"name": nm, "holds": ok} for nm, ok, _ in rep.checked_relations]})
        else:
            out = sch.render_presentation(rep)
        return (0 if rep.ok else 1), out
    if kind == "table":
        ctx = sch.GrassmannContext(req["k"], req["n"], "quantum" if req["quantum"] else "classical")
        return 0, sch.structure_table(ctx, req["max_weight"]).to_json(indent=None if js else 2)
    if kind == "check":
        results = cli.run_checks(req["k"], req["n"])
        ok = all(r for _, r in results)
        if js:
            out = json.dumps({"ok": ok, "checks": [{"name": nm, "ok": r} for nm, r in results]})
        else:
            out = "\n".join(f"{'OK  ' if r else 'FAIL'} {nm}" for nm, r in results)
        return (0 if ok else 1), out
    if kind == "pluecker":
        matrix = req["matrix"]
        k, n = len(matrix), len(matrix[0])
        try:
            sym = pluecker.schubert_symbol(matrix)
        except pluecker.RankDeficientError:
            return 3, ""
        minors = pluecker.all_minors(matrix)
        cert_ok = all(m == 0 for _, m in pluecker.minimality_certificate(matrix, sym))
        if js:
            out = json.dumps({"k": k, "n": n,
                              "minors": [{"indices": list(s.indices), "value": m} for s, m in minors],
                              "symbol": list(sym.indices), "minimality_certificate": cert_ok})
        else:
            lines = [f"p[{','.join(map(str, s.indices))}] = {m}" for s, m in minors]
            lines.append(f"symbol: ({','.join(map(str, sym.indices))})")
            lines.append("minimality certificate: "
                         + ("all smaller minors vanish" if cert_ok else "FAILED"))
            out = "\n".join(lines)
        return (0 if cert_ok else 1), out
    raise ValueError(kind)


def check_cli(reqs: list, outcomes: list, sch) -> list:
    """Verdict per request: ``None`` or why its exit code or stdout is wrong."""
    verdicts = []
    for req, (code, stdout) in zip(reqs, outcomes):
        want_code, want_out = cli_expected(req, sch)
        want_out = want_out + "\n" if want_out else ""
        if code != want_code:
            verdicts.append(f"{' '.join(req['argv'])}: exit {code}, expected {want_code}")
        elif stdout != want_out:
            verdicts.append(f"{' '.join(req['argv'])}: stdout differs from the library result")
        else:
            verdicts.append(None)
    return verdicts
