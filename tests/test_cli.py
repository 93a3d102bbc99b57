import json
import os
import subprocess
import sys

import pytest

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
)
from schubert.exterior_core import Partition


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


class TestCheck:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--k", "2", "--n", "4")
        assert code == EXIT_OK
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "check", "--k", "1", "--n", "3", "--json")
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True


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
