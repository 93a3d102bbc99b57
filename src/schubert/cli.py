"""Command-line surface: Pieri derivatives, Schubert-class products,
Giambelli expansions, ring presentations, structure tables, oracle checks,
and Pluecker coordinates of explicit matrices.

Exit codes: 0 success, 1 oracle disagreement or failed check, 2 parse or
validation error, 3 mathematical precondition failure, 141 stdout closed
by its reader (128 + SIGPIPE).

Each subcommand returns one reply, (exit code, JSON payload, text
callable), and main alone prints it and every stderr line."""

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


def _context(args, k: int) -> GrassmannContext:
    if args.quantum:
        if args.n is None:
            raise InvalidInputError("--quantum requires --n")
        return GrassmannContext(k, args.n, QUANTUM)
    if args.n is not None:
        return GrassmannContext(k, args.n, CLASSICAL)
    return GrassmannContext(k, k, INFINITE)


class _Disagreement(Exception):
    """The reduced derivative and quantum Pieri differ; main reports it."""


def cmd_pieri(args):
    indices = parse_symbol(args.symbol)
    k = args.k if args.k is not None else len(indices)
    if k != len(indices):
        raise InvalidInputError(f"symbol length {len(indices)} does not match --k {k}")
    v = KVector.basis(indices)
    ctx = _context(args, k)
    result = reduce_kvector(pieri_d(args.h, v), ctx)
    if ctx.mode == QUANTUM and 1 <= args.h <= ctx.n - ctx.k and indices[-1] <= ctx.n:
        if quantum_pieri(args.h, v, ctx) != result:
            raise _Disagreement
    terms = [{"indices": list(i), "d": d, "coeff": c} for (i, d), c in sorted(result.terms.items())]
    return EXIT_OK, {"degree": result.degree, "terms": terms}, lambda: render_kvector(result)


def cmd_mult(args):
    product = multiply(parse_partition(args.lam), parse_partition(args.mu), _context(args, args.k))
    return EXIT_OK, {"terms": expansion_json_terms(product)}, lambda: render_sigma(product)


def cmd_giambelli(args):
    det = giambelli_det(parse_partition(args.lam), args.k)
    terms = [{"parts": list(mono), "coeff": c} for mono, c in det.items()]
    return EXIT_OK, {"terms": terms}, lambda: render_dpolynomial(det)


def cmd_present(args):
    report = verify_presentation(*_context(args, args.k))
    relations = [{"name": name, "holds": holds} for name, holds, _ in report.checked_relations]
    payload = {"k": report.k, "n": report.n, "mode": report.mode, "ok": report.ok,
               "relations": relations}
    return EXIT_OK if report.ok else EXIT_ORACLE, payload, lambda: render_presentation(report)


def cmd_table(args):
    payload = structure_table(_context(args, args.k), args.max_weight).to_json_dict()
    return EXIT_OK, payload, lambda: json.dumps(payload, indent=2)


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


def cmd_check(args):
    results = run_checks(args.k, args.n)
    passed = all(ok for _, ok in results)
    payload = {"ok": passed, "checks": [{"name": name, "ok": ok} for name, ok in results]}
    return (EXIT_OK if passed else EXIT_ORACLE, payload,
            lambda: "\n".join(f"{'OK  ' if ok else 'FAIL'} {name}" for name, ok in results))


def cmd_pluecker(args):
    matrix = read_matrix(args.matrix_file)
    k = len(matrix)
    n = len(matrix[0])
    if args.k is not None and args.k != k:
        raise InvalidInputError(f"matrix has {k} rows, --k says {args.k}")
    if args.n is not None and args.n != n:
        raise InvalidInputError(f"matrix has {n} columns, --n says {args.n}")
    sym = schubert_symbol(matrix)  # raises RankDeficientError on rank < k
    minors = all_minors(matrix)
    cert_ok = all(m == 0 for _, m in minimality_certificate(matrix, sym))
    payload = {"k": k, "n": n, "minors": [{"indices": list(s), "value": m} for s, m in minors],
               "symbol": list(sym), "minimality_certificate": cert_ok}

    def text():
        lines = [f"p[{','.join(map(str, s))}] = {m}" for s, m in minors]
        lines.append(f"symbol: ({','.join(map(str, sym))})")
        lines.append(f"minimality certificate: {'all smaller minors vanish' if cert_ok else 'FAILED'}")
        return "\n".join(lines)

    return EXIT_OK if cert_ok else EXIT_ORACLE, payload, text


class _Subcommand(argparse.ArgumentParser):
    """A subcommand's parser: it refuses an argument it does not read under
    its own usage line, not the top-level one."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the flags it reads: giambelli --k and
    # --json, check and pluecker --n too, and the rest --quantum as well
    k_flags = argparse.ArgumentParser(add_help=False)
    k_flags.add_argument("--k", type=int, default=None)
    k_flags.add_argument("--json", action="store_true")
    n_flags = argparse.ArgumentParser(add_help=False, parents=[k_flags])
    n_flags.add_argument("--n", type=int, default=None)
    common = argparse.ArgumentParser(add_help=False, parents=[n_flags])
    common.add_argument("--quantum", action="store_true")

    parser = argparse.ArgumentParser(
        prog="schubert",
        description="Exact Schubert calculus on Grassmannians via exterior-algebra derivations.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)

    p = sub.add_parser("pieri", parents=[common], help="apply the h-th derivation to a basis k-vector")
    p.add_argument("h", type=int)
    p.add_argument("symbol")
    p.set_defaults(func=cmd_pieri, needs=())

    p = sub.add_parser("mult", parents=[common], help="product of two Schubert classes")
    p.add_argument("lam")
    p.add_argument("mu")
    p.set_defaults(func=cmd_mult, needs=("k", "n"))

    p = sub.add_parser("giambelli", parents=[k_flags], help="determinantal operator of a partition")
    p.add_argument("lam")
    p.set_defaults(func=cmd_giambelli, needs=("k",))

    p = sub.add_parser("present", parents=[common], help="ring presentation with verified relations")
    p.set_defaults(func=cmd_present, needs=("k", "n"))

    p = sub.add_parser("table", parents=[common], help="full structure-constant table as JSON")
    p.add_argument("--max-weight", type=int, default=None)
    p.set_defaults(func=cmd_table, needs=("k", "n"))

    p = sub.add_parser("check", parents=[n_flags], help="run the oracle cross-validation suite")
    p.set_defaults(func=cmd_check, needs=("k", "n"))

    p = sub.add_parser("pluecker", parents=[n_flags], help="minors and Schubert symbol of a matrix")
    p.add_argument("matrix_file")
    p.set_defaults(func=cmd_pluecker, needs=())

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        if any(getattr(args, flag) is None for flag in args.needs):
            raise InvalidInputError(
                f"{args.command} requires " + " and ".join(f"--{flag}" for flag in args.needs))
        code, payload, text = args.func(args)
        print(json.dumps(payload) if args.json else text())
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except _Disagreement:
        print("oracle disagreement: quantum Pieri vs reduced derivative", file=sys.stderr)
        return EXIT_ORACLE
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
