"""Command-line surface: Pieri derivatives, Schubert-class products,
Giambelli expansions, ring presentations, structure tables, oracle checks,
and Pluecker coordinates of explicit matrices.

Exit codes: 0 success, 1 oracle disagreement or failed check, 2 parse or
validation error, 3 mathematical precondition failure, 141 stdout closed
by its reader (128 + SIGPIPE)."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .derivations import leibniz_d, pieri_d, render_dpolynomial
from .exterior_core import (
    InvalidInputError,
    KVector,
    Partition,
    partition_to_symbol,
    q_factors,
    render_kvector,
    render_signed_terms,
)
from .giambelli_ring import giambelli_det, render_presentation, verify_presentation
from .grassmann_contexts import (
    CLASSICAL,
    INFINITE,
    QUANTUM,
    GrassmannContext,
    box_partitions,
    expansion_json_terms,
    multiply,
    quantum_pieri,
    reduce_kvector,
    structure_table,
)
from .pluecker import (
    RankDeficientError,
    all_minors,
    minimality_certificate,
    read_matrix,
    schubert_symbol,
)
from .schur_oracle import lr_expansion, rim_hook_product, verify_jacobi_trudi

EXIT_OK = 0
EXIT_ORACLE = 1
EXIT_PARSE = 2
EXIT_MATH = 3
EXIT_BROKEN_PIPE = 141


def parse_partition(text: str) -> Partition:
    """Comma-separated descending parts; the empty string is empty."""
    text = text.strip()
    if not text:
        return Partition()
    try:
        return Partition(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse partition {text!r}: {exc}")


def parse_symbol(text: str) -> tuple:
    text = text.strip()
    if not text:
        raise InvalidInputError("empty symbol")
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse symbol {text!r}: {exc}")


def render_sigma(expansion: dict) -> str:
    """Sigma-basis text like 's[2,2] + q*s[]'; terms sorted by q-degree
    then partition."""
    entries = sorted(expansion.items(), key=lambda t: (t[0][1], t[0][0]))
    return render_signed_terms(
        (c, q_factors(d) + ["s[" + ",".join(str(p) for p in nu) + "]"])
        for (nu, d), c in entries
    )


def _kvector_json(v: KVector) -> dict:
    terms = [
        {"indices": list(indices), "d": d, "coeff": c}
        for (indices, d), c in sorted(v.terms.items())
    ]
    return {"degree": v.degree, "terms": terms}


def _context(args, k: int) -> GrassmannContext:
    if args.quantum:
        if args.n is None:
            raise InvalidInputError("--quantum requires --n")
        return GrassmannContext(k, args.n, QUANTUM)
    if args.n is not None:
        return GrassmannContext(k, args.n, CLASSICAL)
    return GrassmannContext(k, k, INFINITE)


def cmd_pieri(args) -> int:
    indices = parse_symbol(args.symbol)
    k = args.k if args.k is not None else len(indices)
    if k != len(indices):
        raise InvalidInputError(f"symbol length {len(indices)} does not match --k {k}")
    if args.h < 0:
        raise InvalidInputError("h must be nonnegative")
    v = KVector.basis(indices)
    ctx = _context(args, k)
    result = reduce_kvector(pieri_d(args.h, v), ctx)
    if ctx.mode == QUANTUM and 1 <= args.h <= ctx.n - ctx.k and indices[-1] <= ctx.n:
        direct = quantum_pieri(args.h, v, ctx)
        if direct != result:
            print("oracle disagreement: quantum Pieri vs reduced derivative", file=sys.stderr)
            return EXIT_ORACLE
    print(json.dumps(_kvector_json(result)) if args.json else render_kvector(result))
    return EXIT_OK


def cmd_mult(args) -> int:
    if args.k is None or args.n is None:
        raise InvalidInputError("mult requires --k and --n")
    lam = parse_partition(args.lam)
    mu = parse_partition(args.mu)
    ctx = _context(args, args.k)
    product = multiply(lam, mu, ctx)
    if args.json:
        print(json.dumps({"terms": expansion_json_terms(product)}))
    else:
        print(render_sigma(product))
    return EXIT_OK


def cmd_giambelli(args) -> int:
    if args.k is None:
        raise InvalidInputError("giambelli requires --k")
    lam = parse_partition(args.lam)
    det = giambelli_det(lam, args.k)
    if args.json:
        terms = [{"parts": list(mono), "coeff": c} for mono, c in det.items()]
        print(json.dumps({"terms": terms}))
    else:
        print(render_dpolynomial(det))
    return EXIT_OK


def cmd_present(args) -> int:
    if args.k is None or args.n is None:
        raise InvalidInputError("present requires --k and --n")
    mode = QUANTUM if args.quantum else CLASSICAL
    report = verify_presentation(args.k, args.n, mode)
    if args.json:
        payload = {
            "k": report.k,
            "n": report.n,
            "mode": report.mode,
            "ok": report.ok,
            "relations": [
                {"name": name, "holds": holds} for name, holds, _ in report.checked_relations
            ],
        }
        print(json.dumps(payload))
    else:
        print(render_presentation(report))
    return EXIT_OK if report.ok else EXIT_ORACLE


def cmd_table(args) -> int:
    if args.k is None or args.n is None:
        raise InvalidInputError("table requires --k and --n")
    table = structure_table(_context(args, args.k), args.max_weight)
    print(table.to_json(indent=None if args.json else 2))
    return EXIT_OK


def run_checks(k: int, n: int) -> list:
    """The aggregated oracle suite for one (k, n): returns (name, ok) pairs.

    Each oracle expansion is computed once per unordered pair {lam, mu} and
    compared whole with multiply in both orders, which differ when the two
    determinants tie in size; each D_h of a box symbol is computed once and
    checked against both Leibniz and quantum Pieri."""
    cctx = GrassmannContext(k, n, CLASSICAL)
    qctx = GrassmannContext(k, n, QUANTUM)
    parts = box_partitions(k, n)

    leibniz_ok = pieri_ok = True
    for p in parts:
        v = KVector.basis(partition_to_symbol(p, k))
        for h in range(n - k + 2):
            derivative = pieri_d(h, v)
            leibniz_ok &= derivative == leibniz_d(h, v)
            if 1 <= h <= n - k:
                pieri_ok &= quantum_pieri(h, v, qctx) == reduce_kvector(derivative, qctx)
    results = [("pieri vs leibniz on box symbols", leibniz_ok),
               ("quantum pieri vs reduced derivative", pieri_ok),
               ("classical presentation", verify_presentation(k, n, CLASSICAL).ok),
               ("quantum presentation", verify_presentation(k, n, QUANTUM).ok)]

    classical_ok = quantum_ok = True
    for i, lam in enumerate(parts):
        for mu in parts[i:]:  # lam <= mu: lr_expansion's cache key for the pair
            lr = {(nu, 0): c for nu, c in lr_expansion(lam, mu, k) if nu.fits_box(k, n)}
            rim = rim_hook_product(lam, mu, k, n)
            for a, b in {(lam, mu), (mu, lam)}:  # the diagonal once
                classical_ok &= multiply(a, b, cctx) == lr
                quantum_ok &= multiply(a, b, qctx) == rim
    results.append(("classical products vs tableau oracle", classical_ok))
    results.append(("quantum products vs rim-hook oracle", quantum_ok))

    ok = all(verify_jacobi_trudi(lam, k) for lam in parts)
    results.append(("determinant formula vs tableau expansion", ok))
    return results


def cmd_check(args) -> int:
    if args.k is None or args.n is None:
        raise InvalidInputError("check requires --k and --n")
    results = run_checks(args.k, args.n)
    if args.json:
        print(json.dumps({"ok": all(ok for _, ok in results),
                          "checks": [{"name": n_, "ok": ok} for n_, ok in results]}))
    else:
        for name, ok in results:
            print(f"{'OK  ' if ok else 'FAIL'} {name}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_ORACLE


def cmd_pluecker(args) -> int:
    matrix = read_matrix(args.matrix_file)
    k = len(matrix)
    n = len(matrix[0])
    if args.k is not None and args.k != k:
        raise InvalidInputError(f"matrix has {k} rows, --k says {args.k}")
    if args.n is not None and args.n != n:
        raise InvalidInputError(f"matrix has {n} columns, --n says {args.n}")
    sym = schubert_symbol(matrix)  # raises RankDeficientError on rank < k
    minors = all_minors(matrix)
    cert = minimality_certificate(matrix, sym)
    cert_ok = all(m == 0 for _, m in cert)
    if args.json:
        payload = {
            "k": k,
            "n": n,
            "minors": [{"indices": list(s), "value": m} for s, m in minors],
            "symbol": list(sym),
            "minimality_certificate": cert_ok,
        }
        print(json.dumps(payload))
    else:
        for s, m in minors:
            print(f"p[{','.join(map(str, s))}] = {m}")
        print(f"symbol: ({','.join(map(str, sym))})")
        print(f"minimality certificate: {'all smaller minors vanish' if cert_ok else 'FAILED'}")
    return EXIT_OK if cert_ok else EXIT_ORACLE


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--k", type=int, default=None)
    common.add_argument("--n", type=int, default=None)
    common.add_argument("--quantum", action="store_true")
    common.add_argument("--json", action="store_true")

    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Exact Schubert calculus on Grassmannians via exterior-algebra derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pieri", parents=[common], help="apply the h-th derivation to a basis k-vector")
    p.add_argument("h", type=int)
    p.add_argument("symbol")
    p.set_defaults(func=cmd_pieri)

    p = sub.add_parser("mult", parents=[common], help="product of two Schubert classes")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("giambelli", parents=[common], help="determinantal operator of a partition")
    p.add_argument("lam")
    p.set_defaults(func=cmd_giambelli)

    p = sub.add_parser("present", parents=[common], help="ring presentation with verified relations")
    p.set_defaults(func=cmd_present)

    p = sub.add_parser("table", parents=[common], help="full structure-constant table as JSON")
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("check", parents=[common], help="run the oracle cross-validation suite")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("pluecker", parents=[common], help="minors and Schubert symbol of a matrix")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_pluecker)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit; send that flush to devnull
        # so that it cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except RankDeficientError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
