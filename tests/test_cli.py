import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import schubert
from schubert.cli import (
    EXIT_BROKEN_PIPE,
    EXIT_MATH,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    main,
    parse_partition,
    render_sigma,
    run_checks,
)
from schubert.exterior_core import KVector, Partition, QInt, parse_kvector
from schubert.schur_oracle import lr_expansion


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.strip(), captured.err.strip()


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

    @given(st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_text_parses_to_the_json_vector(self, capsys, data):
        # ROADMAP item 5: the text and --json forms of one request agree
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

    def test_negative_k(self, capsys):
        code, _, err = run(capsys, "giambelli", "", "--k", "-1")
        assert code == EXIT_PARSE
        assert "k must be nonnegative" in err


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


    def test_negative_max_weight(self, capsys):
        code, out, err = run(capsys, "table", "--k", "2", "--n", "4", "--max-weight", "-1")
        assert (code, out) == (EXIT_PARSE, "")
        assert "max weight" in err


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
@pytest.mark.parametrize("command", ["mult", "pieri", "present", "table"])
def test_edge_contexts(capsys, command, k, n, mode):
    width = n - k
    argv = {
        "mult": ["mult", str(width) if width else "", "1" if width else ""],
        "pieri": ["pieri", "1", ",".join(str(i) for i in range(1, k + 1))],
        "present": ["present"],
        "table": ["table"],
    }[command] + ["--k", str(k), "--n", str(n)] + (["--quantum"] if mode == "quantum" else [])
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

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "pluecker", str(tmp_path / "nope.txt"))
        assert code == EXIT_PARSE


class TestParsing:
    def test_parse_partition(self):
        assert parse_partition("") == Partition()
        assert parse_partition("2,1") == Partition((2, 1))

    def test_render_sigma_empty(self):
        assert render_sigma({}) == "0"

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == EXIT_PARSE

    def test_oracle_exit_code_exists(self):
        assert EXIT_ORACLE == 1
