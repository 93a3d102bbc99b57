import ast
import hashlib
import json
import os
import subprocess
import sys
from itertools import combinations, product

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import schubert
import schubert.cli as cli
from schubert.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_MATH,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    build_parser,
    main,
    parse_partition,
    render_sigma,
    run_checks,
)
from schubert.exterior_core import KVector, Partition, QInt, parse_kvector
from schubert.grassmann_contexts import CLASSICAL, box_partitions, multiply
from schubert.schur_oracle import lr_expansion, rim_hook_product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


def parse_signed_terms(text):
    """Read 'x - 2*y*z + ...' back as (coefficient, factor strings) pairs,
    the layout render_signed_terms writes; '0' has none."""
    if text == "0":
        return []
    words = text.split(" ")
    signs = [-1 if words[0].startswith("-") else 1]
    signs += [{"+": 1, "-": -1}[op] for op in words[1::2]]
    out = []
    for sign, term in zip(signs, [words[0].removeprefix("-"), *words[2::2]]):
        factors = term.split("*")
        c = int(factors.pop(0)) if factors[0].isdigit() else 1
        out.append((sign * c, factors))
    return out


class TestPieri:
    def test_infinite(self, capsys):
        code, out, _ = run(capsys, "pieri", "1", "2,4")
        assert code == EXIT_OK
        assert out == "e[2,5] + e[3,4]"

    def test_h_zero(self, capsys):
        code, out, _ = run(capsys, "pieri", "0", "2,4")
        assert (code, out) == (EXIT_OK, "e[2,4]")

    def test_quantum(self, capsys):
        code, out, _ = run(capsys, "pieri", "1", "2,4", "--k", "2", "--n", "4", "--quantum")
        assert code == EXIT_OK
        assert out == "q*e[1,2] + e[3,4]"

    def test_quantum_index_above_n(self, capsys):
        # the direct quantum Pieri cross-check needs every index <= n; the
        # reduced derivative is still printed
        code, out, _ = run(capsys, "pieri", "1", "2,5", "--k", "2", "--n", "4", "--quantum")
        assert (code, out) == (EXIT_OK, "q*e[1,3]")

    def test_classical(self, capsys):
        code, out, _ = run(capsys, "pieri", "1", "2,4", "--n", "4")
        assert (code, out) == (EXIT_OK, "e[3,4]")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "pieri", "1", "2,4", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["degree"] == 2
        assert {"indices": [3, 4], "d": 0, "coeff": 1} in payload["terms"]

    def test_malformed_symbol(self, capsys):
        code, _, err = run(capsys, "pieri", "1", "2,x")
        assert code == EXIT_PARSE
        assert "error" in err

    def test_negative_h(self, capsys):
        code, out, err = run(capsys, "pieri", "-1", "1,2")
        assert (code, out, err) == (EXIT_PARSE, "", "error: h must be nonnegative")

    def test_empty_symbol(self, capsys):
        assert run(capsys, "pieri", "1", "") == (EXIT_PARSE, "", "error: empty symbol")

    def test_symbol_length_disagrees_with_k(self, capsys):
        code, out, err = run(capsys, "pieri", "1", "2,4", "--k", "3")
        assert (code, out, err) == (EXIT_PARSE, "", "error: symbol length 2 does not match --k 3")

    def test_oracle_disagreement(self, capsys, monkeypatch):
        # the quantum Pieri rule is the reduced derivative's oracle; when
        # the two differ nothing is printed and the exit code says so
        monkeypatch.setattr("schubert.cli.quantum_pieri", lambda h, v, ctx: KVector.zero(v.degree))
        code, out, err = run(capsys, "pieri", "1", "2,4", "--n", "4", "--quantum")
        assert (code, out) == (EXIT_ORACLE, "")
        assert err == "oracle disagreement: quantum Pieri vs reduced derivative"

    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_parses_to_the_json_vector(self, capsys, data):
        # the text and --json forms of one request agree
        k = data.draw(st.integers(1, 3))
        symbol = data.draw(st.lists(st.integers(1, 8), min_size=k, max_size=k, unique=True))
        h = data.draw(st.integers(0, 5))
        mode = data.draw(st.sampled_from(["infinite", "classical", "quantum"]))
        argv = ["pieri", str(h), ",".join(map(str, sorted(symbol)))]
        if mode != "infinite":
            argv += ["--k", str(k), "--n", str(data.draw(st.integers(k, 8)))]
        if mode == "quantum":
            argv.append("--quantum")
        code, text, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        listed = KVector(payload["degree"], [
            (t["indices"], QInt.q_power(t["d"], t["coeff"])) for t in payload["terms"]
        ])
        assert parse_kvector(text, payload["degree"]) == listed


class TestMult:
    def test_quantum_golden(self, capsys):
        code, out, _ = run(capsys, "mult", "1", "2,1", "--k", "2", "--n", "4", "--quantum")
        assert (code, out) == (EXIT_OK, "s[2,2] + q*s[]")

    def test_unit(self, capsys):
        code, out, _ = run(capsys, "mult", "1", "", "--k", "2", "--n", "4")
        assert (code, out) == (EXIT_OK, "s[1]")

    def test_classical(self, capsys):
        code, out, _ = run(capsys, "mult", "2", "2", "--k", "2", "--n", "4")
        assert (code, out) == (EXIT_OK, "s[2,2]")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "mult", "1", "1", "--k", "2", "--n", "4", "--json")
        assert code == EXIT_OK
        terms = json.loads(out)["terms"]
        assert {"nu": [1, 1], "d": 0, "coeff": 1} in terms
        assert {"nu": [2], "d": 0, "coeff": 1} in terms

    def test_out_of_box(self, capsys):
        code, _, err = run(capsys, "mult", "5", "1", "--k", "2", "--n", "4")
        assert code == EXIT_PARSE
        assert "box" in err

    def test_missing_flags(self, capsys):
        code, _, _ = run(capsys, "mult", "1", "1")
        assert code == EXIT_PARSE

    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_parses_to_the_json_expansion(self, capsys, data):
        # the text and --json forms of one request agree
        k = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(k, 7))
        parts = box_partitions(k, n)
        lam, mu = data.draw(st.sampled_from(parts)), data.draw(st.sampled_from(parts))
        argv = ["mult", ",".join(map(str, lam)), ",".join(map(str, mu))]
        argv += ["--k", str(k), "--n", str(n)]
        if data.draw(st.booleans()):
            argv.append("--quantum")
        code, text, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        listed = {(tuple(t["nu"]), t["d"]): t["coeff"] for t in json.loads(out)["terms"]}
        parsed = {}
        for c, factors in parse_signed_terms(text):
            *qs, sigma = factors
            d = int(qs[0].removeprefix("q").removeprefix("^") or 1) if qs else 0
            nu = tuple(int(p) for p in sigma.removeprefix("s[").removesuffix("]").split(",") if p)
            assert (nu, d) not in parsed
            parsed[(nu, d)] = c
        assert parsed == listed


class TestGiambelli:
    def test_hook(self, capsys):
        code, out, _ = run(capsys, "giambelli", "2,1", "--k", "2")
        assert (code, out) == (EXIT_OK, "D1*D2 - D3")

    def test_empty(self, capsys):
        code, out, _ = run(capsys, "giambelli", "", "--k", "3")
        assert (code, out) == (EXIT_OK, "1")

    def test_column(self, capsys):
        code, out, _ = run(capsys, "giambelli", "1,1", "--k", "2")
        assert (code, out) == (EXIT_OK, "D1^2 - D2")

    def test_requires_k(self, capsys):
        code, out, err = run(capsys, "giambelli", "1")
        assert (code, out, err) == (EXIT_PARSE, "", "error: giambelli requires --k")

    def test_negative_k(self, capsys):
        code, _, err = run(capsys, "giambelli", "", "--k", "-1")
        assert code == EXIT_PARSE
        assert "k must be nonnegative" in err

    def test_longer_than_k(self, capsys):
        code, out, err = run(capsys, "giambelli", "1,1,1", "--k", "2")
        assert (code, out, err) == (EXIT_PARSE, "", "error: partition (1, 1, 1) longer than k=2")

    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_parses_to_the_json_determinant(self, capsys, data):
        # the text and --json forms of one request agree
        k = data.draw(st.integers(0, 4))
        lam = sorted(data.draw(st.lists(st.integers(1, 5), max_size=k)), reverse=True)
        argv = ["giambelli", ",".join(map(str, lam)), "--k", str(k)]
        code, text, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, out, _ = run(capsys, *argv, "--json")
        assert code == EXIT_OK
        listed = {tuple(sorted(t["parts"])): t["coeff"] for t in json.loads(out)["terms"]}
        parsed = {}
        for c, factors in parse_signed_terms(text):
            parts = []
            for f in factors:
                part, _, e = f.removeprefix("D").partition("^")
                parts += [int(part)] * int(e or 1)
            assert tuple(sorted(parts)) not in parsed
            parsed[tuple(sorted(parts))] = c
        assert parsed == listed


class TestPresent:
    def test_classical(self, capsys):
        code, out, _ = run(capsys, "present", "--k", "2", "--n", "4")
        assert code == EXIT_OK
        assert "Y-form" in out

    def test_quantum_line(self, capsys):
        code, out, _ = run(capsys, "present", "--k", "1", "--n", "4", "--quantum")
        assert code == EXIT_OK
        assert "D1^4 = q" in out

    @pytest.mark.parametrize("n,d_form,y_form,modulus", [
        (4, "(D3, D4 + q)", "(Y3(D), Y4(D) + q)", "mod (D3): OK"),
        (5, "(D4, D5 + q)", "(Y3(D), Y4(D), Y5(D) - q)", "mod (D4): OK"),
    ], ids=["G(2,4)", "G(2,5)"])
    def test_quantum_text(self, capsys, n, d_form, y_form, modulus):
        code, out, _ = run(capsys, "present", "--k", "2", "--n", str(n), "--quantum")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[1] == f"D-form: Z[q][D1, D2] / {d_form}"
        assert next(line for line in lines if line.startswith("Y-form")).endswith(y_form)
        assert lines[-1].endswith(modulus)
        assert "- -q" not in out and "..D" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "present", "--k", "2", "--n", "4", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] is True
        assert all(rel["holds"] for rel in payload["relations"])

    def test_every_small_presentation_unchanged(self, capsys):
        # sha256 over the exit code and stdout of present, text and --json,
        # for 1 <= k <= n <= 10 in both modes, recorded before the report
        # carried the series it was checked with
        digest = hashlib.sha256()
        for n in range(1, 11):
            for k in range(1, n + 1):
                for mode in ([], ["--quantum"]):
                    for fmt in ([], ["--json"]):
                        code = main(["present", "--k", str(k), "--n", str(n), *mode, *fmt])
                        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == "533bda934d92fec1150ea4df8c9c47be5fe91f3fe383bd209de6108c120f7139"


class TestTable:
    def test_schema(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--n", "4", "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["context"] == {"k": 2, "n": 4, "mode": "classical"}
        assert all(
            term["d"] == 0
            for entry in payload["entries"]
            for term in entry["terms"]
        )

    def test_quantum(self, capsys):
        code, out, _ = run(capsys, "table", "--k", "2", "--n", "4", "--quantum", "--json")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["context"]["mode"] == "quantum"
        assert any(
            term["d"] > 0
            for entry in payload["entries"]
            for term in entry["terms"]
        )

    @pytest.mark.parametrize("mode", [[], ["--quantum"]], ids=["classical", "quantum"])
    def test_requires_n(self, capsys, mode):
        code, out, err = run(capsys, "table", "--k", "2", *mode)
        assert (code, out) == (EXIT_PARSE, "")
        assert "--n" in err

    def test_negative_max_weight(self, capsys):
        code, out, err = run(capsys, "table", "--k", "2", "--n", "4", "--max-weight", "-1")
        assert (code, out) == (EXIT_PARSE, "")
        assert "max weight" in err


# Which defects each subcommand can be given; giambelli takes no --n (its
# determinant does not depend on one) and no h.  "unread-flag" passes a flag
# the subcommand does not read: --n or --quantum to giambelli, --quantum to
# check and pluecker.  pluecker reads its k and n off the matrix file, so
# its defects are in the file or in a --k or --n that disagrees with it.
DEFECTS = {
    "pieri": ["order", "token", "negative-h", "k-above-n", "no-n"],
    "mult": ["order", "token", "k-above-n", "no-n"],
    "giambelli": ["order", "token", "unread-flag"],
    "present": ["token", "k-above-n", "no-n"],
    "table": ["token", "k-above-n", "no-n"],
    "check": ["token", "k-above-n", "no-n", "unread-flag"],
    "pluecker": ["unread-flag", "k-n-mismatch", "missing-file", "empty-file", "ragged", "non-integer"],
}
NOT_INTEGERS = ["x", "1.5", "2a", "1e3", "+", "0x1", "\u00bd"]
MATRIX = "<matrix file>"  # the test writes the drawn matrix text here
GOOD_MATRIX = "1 0 0\n0 0 1\n"  # rank 2, so k = 2 and n = 3


@st.composite
def malformed_requests(draw):
    """(argv, the text of its matrix file or None for no file) for one
    request that is well formed but for one drawn defect."""
    command = draw(st.sampled_from(sorted(DEFECTS)))
    defect = draw(st.sampled_from(DEFECTS[command]))
    lo = 2 if defect == "order" else 1
    n = draw(st.integers(lo, 6))
    k = draw(st.integers(n + 1, n + 3) if defect == "k-above-n" else st.integers(lo, n))
    if command == "pieri":
        symbol = sorted(draw(st.lists(st.integers(1, 10), min_size=k, max_size=k, unique=True)))
        if defect == "order":
            symbol[-1] = draw(st.integers(1, symbol[-2]))  # repeated or falling
        h = draw(st.integers(-20, -1) if defect == "negative-h" else st.integers(0, 4))
        argv = [command, str(h), ",".join(map(str, symbol))]
    elif command in ("mult", "giambelli"):
        in_box = st.lists(st.integers(1, max(n - k, 1)), max_size=k if n > k else 0)
        lams = [sorted(draw(in_box), reverse=True) for _ in range(2 if command == "mult" else 1)]
        if defect == "order":
            a = draw(st.integers(1, 3))
            lams[0] = [a, a + draw(st.integers(1, 3))]  # rising
        argv = [command] + [",".join(map(str, lam)) for lam in lams]
    elif command == "pluecker":
        argv = [command, MATRIX]
        if defect == "k-n-mismatch":
            flag, size = draw(st.sampled_from([("--k", 2), ("--n", 3)]))
            argv += [flag, str(draw(st.integers(1, 8).filter(lambda x: x != size)))]
    else:
        argv = [command]
    if command != "pluecker":
        argv += ["--k", str(k)]
    if command not in ("giambelli", "pluecker") and defect != "no-n":
        argv += ["--n", str(n)]
    if command == "table":
        argv += ["--max-weight", str(draw(st.integers(0, 4)))]
    if command == "pieri" and defect == "no-n":
        argv.append("--quantum")  # without --n, pieri works in the infinite context
    elif defect == "unread-flag":
        argv += draw(st.sampled_from([["--n", str(n)], ["--quantum"]])) if command == "giambelli" else ["--quantum"]
    elif command not in ("giambelli", "check", "pluecker") and draw(st.booleans()):
        argv.append("--quantum")
    if draw(st.booleans()):
        argv.append("--json")
    if defect == "token":
        # one integer slot: a part, a positional h or a flag's value
        slots = [i for i, a in enumerate(argv) if i and not a.startswith("--")]
        i = draw(st.sampled_from(slots))
        pieces = argv[i].split(",")
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(st.sampled_from(NOT_INTEGERS))
        argv[i] = ",".join(pieces)
    matrix = {
        "missing-file": None,
        "empty-file": "",
        "ragged": "1 0 0\n0 1\n",
        "non-integer": f"1 0 {draw(st.sampled_from(NOT_INTEGERS))}\n0 0 1\n",
    }.get(defect, GOOD_MATRIX)
    return argv, matrix


@given(malformed_requests())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_request_fails_fast(capsys, tmp_path, case):
    argv, text = case
    matrix = tmp_path / "m.txt"
    if text is None:
        matrix.unlink(missing_ok=True)
    else:
        matrix.write_text(text)
    argv = [str(matrix) if a == MATRIX else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, ""), argv
    assert err.startswith(("error:", "usage:")), (argv, err)
    assert "Traceback" not in err


# the matrix files the golden's pluecker requests name, in the working
# directory; missing.txt is left unwritten
GOLDEN_MATRICES = {
    "echelon.txt": GOOD_MATRIX,
    "shifted.txt": "0 1 2 0\n0 0 0 1\n",
    "square.txt": "2 1\n1 1\n",
    "deficient.txt": "1 2 3\n2 4 6\n",
    "ragged.txt": "1 0 0\n0 1\n",
    "empty.txt": "",
    "token.txt": "1 0 x\n0 0 1\n",
}


def golden_requests():
    """The argv of every request in the CLI golden: all seven subcommands
    in text and --json, in and out of the box, missing a required flag and
    malformed."""

    def box(k, width):
        # partitions in the k x width box as CLI text, largest first
        return [",".join(str(p) for p in parts if p)
                for parts in product(range(width, -1, -1), repeat=k)
                if list(parts) == sorted(parts, reverse=True)]

    fmts = ([], ["--json"])
    for k, n in [(1, 3), (2, 4), (3, 6)]:
        # symbols up to n + 1: one index past the classical and quantum range
        for sym in combinations(range(1, n + 2), k):
            for h in (1, 2):
                for mode in ([], ["--n", str(n)], ["--n", str(n), "--quantum"]):
                    fmt = fmts[(h + sum(sym)) % 2]
                    yield ["pieri", str(h), ",".join(map(str, sym)), "--k", str(k), *mode, *fmt]
    for h in (0, 3, 5):
        for fmt in fmts:
            yield ["pieri", str(h), "2,4", "--n", "4", "--quantum", *fmt]
    for k, n in [(1, 3), (2, 4)]:
        parts = box(k, n - k) + [str(n - k + 1)]  # one outside the box
        for i, (lam, mu) in enumerate(product(parts, repeat=2)):
            for mode in ([], ["--quantum"]):
                yield ["mult", lam, mu, "--k", str(k), "--n", str(n), *mode, *fmts[i % 2]]
    for lam in box(3, 3):
        for k in (1, 2, 3):
            for fmt in fmts:
                yield ["giambelli", lam, "--k", str(k), *fmt]
    for n in range(1, 5):
        for k in range(1, n + 1):
            for mode in ([], ["--quantum"]):
                for fmt in fmts:
                    yield ["present", "--k", str(k), "--n", str(n), *mode, *fmt]
    for k, n in [(1, 3), (2, 4), (2, 5)]:
        for mode in ([], ["--quantum"]):
            for weight in ([], ["--max-weight", "0"], ["--max-weight", "2"], ["--max-weight", "-1"]):
                for fmt in fmts:
                    yield ["table", "--k", str(k), "--n", str(n), *mode, *weight, *fmt]
    for k, n in [(1, 1), (1, 3), (2, 4), (2, 5), (3, 5)]:
        for fmt in fmts:
            yield ["check", "--k", str(k), "--n", str(n), *fmt]
    for name in [*GOLDEN_MATRICES, "missing.txt"]:
        for fmt in fmts:
            yield ["pluecker", name, *fmt]
    for flags in (["--k", "3"], ["--n", "2"], ["--k", "2", "--n", "3"]):
        for fmt in fmts:
            yield ["pluecker", "echelon.txt", *flags, *fmt]
    # required flags left out
    for command, positional in [("mult", ["1", "1"]), ("present", []), ("table", []), ("check", [])]:
        for flags in ([], ["--k", "2"], ["--n", "4"]):
            for fmt in fmts:
                yield [command, *positional, *flags, *fmt]
            if command != "check":
                yield [command, *positional, *flags, "--quantum"]
    for fmt in fmts:
        yield ["giambelli", "1", *fmt]
        yield ["pieri", "1", "1,3", "--quantum", *fmt]
    malformed = [
        ["pieri", "x", "1,3"], ["pieri", "1", ""], ["pieri", "1", "1,,3"],
        ["pieri", "1", "3,1"], ["pieri", "1", "1,1"], ["pieri", "-1", "1,3"],
        ["pieri", "1", "0,2"], ["pieri", "1", "2,4", "--k", "3"],
        ["pieri", "1", "1,3", "--k", "2", "--n", "1"], ["pieri", "1", "1,3", "--n", "x"],
        ["mult", "1,2", "1", "--k", "2", "--n", "4"], ["mult", "x", "1", "--k", "2", "--n", "4"],
        ["mult", "1", "1", "--k", "3", "--n", "2"], ["mult", "1", "1", "--k", "0", "--n", "4"],
        ["mult", "1", "1", "--k", "-1", "--n", "4"],
        ["giambelli", "1,2", "--k", "2"], ["giambelli", "1", "--k", "-1"],
        ["giambelli", "1.5", "--k", "2"], ["giambelli", "1", "--k", "2", "--n", "4"],
        ["present", "--k", "3", "--n", "2"], ["present", "--k", "0", "--n", "2"],
        ["table", "--k", "2", "--n", "4", "--max-weight", "x"], ["table", "--k", "3", "--n", "2"],
        ["check", "--k", "2", "--n", "4", "--quantum"], ["check", "--k", "3", "--n", "2"],
        ["frobnicate"], [],
    ]
    for argv in malformed:
        for fmt in fmts:
            yield [*argv, *fmt]


def test_every_request_kind_unchanged(capsys, monkeypatch, tmp_path):
    # sha256 over argv, the exit code, stdout and the stderr lines the
    # program writes itself; argparse's usage text differs between Python
    # versions and is left out.  Recorded before the required flags moved
    # to the parser.
    for name, text in GOLDEN_MATRICES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    requests = list(golden_requests())
    for argv in requests:
        code = main(argv)
        captured = capsys.readouterr()
        err = [line for line in captured.err.splitlines()
               if line.startswith(("error: ", "oracle disagreement"))]
        digest.update(f"{argv}\n{code}\n{captured.out}\n{err}\n".encode())
    assert len(requests) == 761
    assert digest.hexdigest() == "d70752a66bbbd74756ec7ef4b63cd228ba39dafc7c4ed9647a208f2a69cba849"


# one request per subcommand; each is run in text and in --json
REPLY_REQUESTS = [
    ["pieri", "1", "2,4", "--k", "2", "--n", "4", "--quantum"],
    ["mult", "1", "2,1", "--k", "2", "--n", "4", "--quantum"],
    ["giambelli", "2,1", "--k", "2"],
    ["present", "--k", "2", "--n", "4", "--quantum"],
    ["table", "--k", "2", "--n", "4", "--quantum", "--max-weight", "2"],
    ["check", "--k", "2", "--n", "4"],
    ["pluecker", MATRIX],
]


@pytest.mark.parametrize("argv", REPLY_REQUESTS, ids=[argv[0] for argv in REPLY_REQUESTS])
def test_reply_is_what_main_prints(capsys, tmp_path, argv):
    # a subcommand returns (exit code, payload, text); main prints the
    # payload under --json and the text otherwise, and nothing else
    (tmp_path / "m.txt").write_text(GOOD_MATRIX)
    argv = [str(tmp_path / "m.txt") if a == MATRIX else a for a in argv]
    args = build_parser().parse_args(argv)
    code, payload, text = args.func(args)
    assert (main(argv), capsys.readouterr()) == (code, (text() + "\n", ""))
    assert (main([*argv, "--json"]), capsys.readouterr()) == (code, (json.dumps(payload) + "\n", ""))


def test_table_json_never_builds_the_text(capsys, monkeypatch):
    built = []
    cmd_table = cli.cmd_table

    def spied(args):
        code, payload, text = cmd_table(args)
        return code, payload, lambda: built.append(args.json) or text()

    monkeypatch.setattr("schubert.cli.cmd_table", spied)
    assert main(["table", "--k", "2", "--n", "4", "--json"]) == EXIT_OK
    assert built == []
    assert main(["table", "--k", "2", "--n", "4"]) == EXIT_OK
    assert built == [False]  # the spy sits where main calls it
    capsys.readouterr()


def test_only_main_reads_the_json_flag_and_prints():
    with open(cli.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    outside = [
        node.lineno
        for top in tree.body if getattr(top, "name", None) != "main"
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "json"
        and isinstance(node.value, ast.Name) and node.value.id == "args"
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
    ]
    assert outside == []


def test_closed_stdout_pipe():
    # the table is far larger than a pipe buffer, so writing it must hit
    # the closed read end
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "schubert.cli", "table", "--k", "3", "--n", "7", "--quantum"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert (code, err) == (EXIT_BROKEN_PIPE, b"")


def test_import_loads_no_dataclasses_or_inspect():
    # the three value classes are named tuples, so start-up never pays for
    # dataclasses and the inspect module it imports; -S keeps the
    # environment's site imports out of the module set
    src = os.path.dirname(os.path.dirname(os.path.abspath(schubert.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import schubert.cli, sys; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


# k = 1 and k = n for every n <= 5: the one-row and the zero-width boxes
EDGE_CONTEXTS = [(k, n) for n in range(1, 6) for k in sorted({1, n})]


@pytest.mark.parametrize("mode", ["classical", "quantum"])
@pytest.mark.parametrize("k,n", EDGE_CONTEXTS, ids=[f"G({k},{n})" for k, n in EDGE_CONTEXTS])
@pytest.mark.parametrize("command", ["mult", "pieri", "present", "table", "check"])
def test_edge_contexts(capsys, command, k, n, mode):
    width = n - k
    # check runs the quantum checks in either mode and takes no --quantum
    quantum = mode == "quantum" and command != "check"
    argv = {
        "mult": ["mult", str(width) if width else "", "1" if width else ""],
        "pieri": ["pieri", "1", ",".join(str(i) for i in range(1, k + 1))],
        "present": ["present"],
        "table": ["table"],
        "check": ["check"],
    }[command] + ["--k", str(k), "--n", str(n)] + (["--quantum"] if quantum else [])
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "") and out
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (EXIT_OK, "")
    payload = json.loads(out)
    if command == "pieri":
        assert payload["degree"] == k
    elif command == "present":
        assert (payload["k"], payload["n"], payload["mode"], payload["ok"]) == (k, n, mode, True)
    elif command == "table":
        assert payload["context"] == {"k": k, "n": n, "mode": mode}
        assert len(payload["entries"]) == (n if k == 1 else 1) ** 2
    elif command == "check":
        assert payload["ok"] is True
        if mode == "quantum":
            assert run(capsys, *argv, "--quantum")[:2] == (EXIT_PARSE, "")
    else:
        assert all(set(term) == {"nu", "d", "coeff"} for term in payload["terms"])


class TestCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--k", "2", "--n", "4")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "--k", "1", "--n", "3", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True

    def test_one_tableau_product_per_unordered_pair(self):
        lr_expansion.cache_clear()
        assert all(ok for _, ok in run_checks(2, 4))
        # the 2 x 2 box holds 6 partitions: 21 unordered pairs
        assert lr_expansion.cache_info().misses == 21

    def test_quantum_products_checked_against_rim_hook_oracle(self, monkeypatch):
        name = "quantum products vs rim-hook oracle"
        assert dict(run_checks(2, 4))[name] is True
        # a wrong oracle answer must show as a failed line
        monkeypatch.setattr("schubert.cli.rim_hook_product", lambda lam, mu, k, n: {})
        assert dict(run_checks(2, 4))[name] is False

    def test_one_rim_hook_product_per_unordered_pair(self, monkeypatch):
        calls = []

        def counted(lam, mu, k, n):
            calls.append((lam, mu))
            return rim_hook_product(lam, mu, k, n)

        monkeypatch.setattr("schubert.cli.rim_hook_product", counted)
        assert all(ok for _, ok in run_checks(2, 4))
        assert len(calls) == len(set(calls)) == 21

    def test_classical_oracle_missing_a_term_fails(self, monkeypatch):
        monkeypatch.setattr("schubert.cli.lr_expansion",
                            lambda lam, mu, k: lr_expansion(lam, mu, k)[1:])
        results = dict(run_checks(2, 4))
        assert results["classical products vs tableau oracle"] is False
        assert results["quantum products vs rim-hook oracle"] is True

    def test_classical_product_with_a_q_term_fails(self, monkeypatch):
        def with_q_term(lam, mu, ctx):
            product = multiply(lam, mu, ctx)
            return {**product, (Partition(), 1): 1} if ctx.mode == CLASSICAL else product

        monkeypatch.setattr("schubert.cli.multiply", with_q_term)
        results = dict(run_checks(2, 4))
        assert results["classical products vs tableau oracle"] is False
        assert results["quantum products vs rim-hook oracle"] is True

    def test_both_orders_of_each_pair_compared(self, monkeypatch):
        # wrong only when the larger partition comes first; no product on
        # G(2,4) has a q^5 term
        def wrong_when_swapped(lam, mu, ctx):
            product = multiply(lam, mu, ctx)
            return {**product, (Partition(), 5): 1} if mu < lam else product

        monkeypatch.setattr("schubert.cli.multiply", wrong_when_swapped)
        results = dict(run_checks(2, 4))
        assert results["classical products vs tableau oracle"] is False
        assert results["quantum products vs rim-hook oracle"] is False


class TestPluecker:
    def test_echelon(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 0 0 0\n0 1 0 0\n")
        code, out, _ = run(capsys, "pluecker", str(f))
        assert code == EXIT_OK
        assert "symbol: (1,2)" in out

    def test_shifted_pivots_json(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("0 1 0 0\n0 0 0 1\n")
        code, out, _ = run(capsys, "pluecker", str(f), "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["symbol"] == [2, 4]
        assert payload["minimality_certificate"] is True

    def test_rank_deficient(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("1 2 3 4\n2 4 6 8\n")
        code, _, err = run(capsys, "pluecker", str(f))
        assert code == EXIT_MATH
        assert "rank" in err

    @pytest.mark.parametrize("flag, value, error", [
        ("--k", "3", "error: matrix has 2 rows, --k says 3"),
        ("--n", "2", "error: matrix has 3 columns, --n says 2"),
    ])
    def test_flag_disagrees_with_the_matrix(self, capsys, tmp_path, flag, value, error):
        f = tmp_path / "m.txt"
        f.write_text(GOOD_MATRIX)
        assert run(capsys, "pluecker", str(f), flag, value) == (EXIT_PARSE, "", error)

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "pluecker", str(tmp_path / "nope.txt"))
        assert code == EXIT_PARSE

    def test_undecodable_file(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_bytes(b"\xff\xfe1\x00 \x000\x00\n\x00")
        code, out, err = run(capsys, "pluecker", str(f))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith("error:")


class TestParsing:
    def test_parse_partition(self):
        assert parse_partition("") == Partition()
        assert parse_partition("2,1") == Partition((2, 1))

    def test_render_sigma_empty(self):
        assert render_sigma({}) == "0"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE

    @pytest.mark.parametrize("argv", [
        ["giambelli", "1", "--k", "3", "--n", "2"],
        ["giambelli", "1", "--k", "2", "--quantum"],
        ["check", "--k", "2", "--n", "4", "--quantum"],
        ["pluecker", "m.txt", "--quantum"],
    ], ids=["giambelli-n", "giambelli-quantum", "check-quantum", "pluecker-quantum"])
    def test_unread_flag_refused(self, capsys, tmp_path, argv):
        # each subcommand takes only the flags it reads, and refuses the
        # rest under its own usage line
        (tmp_path / "m.txt").write_text(GOOD_MATRIX)
        argv = [str(tmp_path / a) if a == "m.txt" else a for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.startswith(f"usage: schubert {argv[0]} "), err
        unread = [a for a in argv if a.startswith("--")][-1]
        assert f"schubert {argv[0]}: error: unrecognized arguments: {unread}" in err

    def test_oracle_exit_code_exists(self):
        assert EXIT_ORACLE == 1
