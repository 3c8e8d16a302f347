"""Command-line surface: parsing, output formats, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fraccalc
from fraccalc import ParseError, ValidationError
from fraccalc.cli import emit_problem, main, parse_problem

CLASSICAL_DOC = """{
  "alpha": 1,
  "operator": {"coefficients": [6, -5, 1]},
  "initial_conditions": [2, 5],
  "grid": {"t_end": 1, "points": 51}
}"""

FACTORED_DOC = """{
  "alpha": 0.5,
  "operator": {"factors": [[1, 0], [-2, 0]]},
  "initial_conditions": [1, 0]
}"""

REPEATED_DOC = """{
  "alpha": 0.5,
  "operator": {"coefficients": [1, -2, 1]},
  "initial_conditions": [1, 1]
}"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------
# parsing

def test_parse_classical_document():
    prob = parse_problem(CLASSICAL_DOC)
    assert prob.alpha == 1.0
    assert prob.char_coeffs == (6 + 0j, -5 + 0j, 1 + 0j)
    assert prob.ics == (2 + 0j, 5 + 0j)
    assert prob.grid == (1.0, 51)


def test_parse_expands_factors():
    prob = parse_problem(FACTORED_DOC)
    # (lambda - 1)(lambda + 2) = lambda^2 + lambda - 2
    assert prob.char_coeffs == (-2 + 0j, 1 + 0j, 1 + 0j)


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError) as err:
        parse_problem("{ not json")
    assert "line" in str(err.value)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("alpha"),
    lambda d: d.pop("initial_conditions"),
    lambda d: d.__setitem__("alpha", 1.5),
    lambda d: d.__setitem__("alpha", "half"),
    lambda d: d.__setitem__("initial_conditions", [2]),
    lambda d: d.__setitem__("operator", {"coefficients": [6, -5, 1],
                                         "factors": [[2, 0]]}),
    lambda d: d.__setitem__("operator", {}),
    lambda d: d.__setitem__("operator", {"coefficients": [6]}),
    lambda d: d.__setitem__("grid", {"t_end": 1}),
    lambda d: d.__setitem__("tolerances", {"bogus": 1}),
    lambda d: d.__setitem__("extra_key", 1),
])
def test_parse_validation_failures(mutate):
    doc = json.loads(CLASSICAL_DOC)
    mutate(doc)
    with pytest.raises(ValidationError):
        parse_problem(json.dumps(doc))


def test_round_trip():
    for text in (CLASSICAL_DOC, FACTORED_DOC):
        prob = parse_problem(text)
        assert parse_problem(emit_problem(prob)) == prob
    complex_doc = json.dumps({
        "alpha": 0.5,
        "operator": {"coefficients": [[1.69, 0.0], [-1.0, 0.25], [1.0, 0.0]]},
        "initial_conditions": [[1.0, 0.0], [0.0, -0.125]],
    })
    prob = parse_problem(complex_doc)
    assert parse_problem(emit_problem(prob)) == prob


# ----------------------------------------------------------------------
# commands

def test_solve_output(tmp_path, capsys):
    code = main(["solve", _write(tmp_path, "p.json", CLASSICAL_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "E_1(2*t^1)" in out and "E_1(3*t^1)" in out
    machine = json.loads(out.split("machine:\n", 1)[1])
    assert machine["degrees"] == [0, 0]
    amps = [complex(re, im) for re, im in machine["amplitudes"]]
    assert all(abs(a - 1.0) <= 1e-12 for a in amps)


def test_solve_repeated_root_flags_construction(tmp_path, capsys):
    code = main(["solve", _write(tmp_path, "p.json", REPEATED_DOC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "note: degree >= 1 modes" in out
    machine = json.loads(out.split("machine:\n", 1)[1])
    assert machine["degrees"] == [0, 1]
    assert machine["notes"]


def test_solve_complex_problem_has_no_real_form(tmp_path, capsys):
    doc = json.dumps({"alpha": 0.5,
                      "operator": {"coefficients": [[0, 1], [1, 0]]},
                      "initial_conditions": [[1, 0]]})
    assert main(["solve", _write(tmp_path, "p.json", doc)]) == 0
    out = capsys.readouterr().out
    assert "real form" not in out
    machine = json.loads(out.split("machine:\n", 1)[1])
    assert "real_form" not in machine


def test_eval_csv(tmp_path, capsys):
    path = _write(tmp_path, "p.json", CLASSICAL_DOC)
    assert main(["eval", path]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0] == "t,re(y),im(y)"
    assert len(lines) == 52
    t, re_y, im_y = (float(v) for v in lines[-1].split(","))
    assert t == 1.0
    assert abs(re_y - (math.exp(2) + math.exp(3))) <= 1e-8
    assert im_y == 0.0
    # deterministic output
    assert main(["eval", path]) == 0
    assert capsys.readouterr().out == out


def test_verify_passes_classical(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, "p.json", CLASSICAL_DOC)]) == 0
    out = capsys.readouterr().out
    assert "check residual: PASS" in out
    assert "check classical_conjugation: PASS" in out
    assert "verification: PASS" in out


def test_verify_fractional_pair(tmp_path, capsys):
    doc = json.dumps({"alpha": 0.5,
                      "operator": {"coefficients": [1.69, -1, 1]},
                      "initial_conditions": [1, 0]})
    assert main(["verify", _write(tmp_path, "p.json", doc)]) == 0
    out = capsys.readouterr().out
    assert "check real_form_equivalence: PASS" in out


def test_verify_repeated_root_notes_unenforced_residual(tmp_path, capsys):
    assert main(["verify", _write(tmp_path, "p.json", REPEATED_DOC)]) == 0
    out = capsys.readouterr().out
    assert "not enforced" in out
    assert "verification: PASS" in out


def test_verify_fails_on_tightened_tolerance(tmp_path, capsys):
    doc = json.loads(CLASSICAL_DOC)
    doc["tolerances"] = {"residual": 1e-30}
    assert main(["verify", _write(tmp_path, "p.json", json.dumps(doc))]) == 5
    out = capsys.readouterr().out
    assert "check residual: FAIL" in out
    assert "verification: FAIL" in out


def test_report_csv(capsys):
    assert main(["report", "--alphas", "0.5,1.0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "identity,alpha,t,deviation,exact_at_alpha1"
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    alpha_one = [r for r in rows if float(r[1]) == 1.0]
    assert len(alpha_one) == 3
    assert all(r[4] == "true" and float(r[3]) <= 1e-12 for r in alpha_one)
    product_half = next(r for r in rows
                        if r[0] == "product_law" and float(r[1]) == 0.5)
    assert abs(float(product_half[3]) - 83.851022940504641) <= 1e-8


def test_report_pair_and_t_flags(capsys):
    assert main(["report", "--alphas", "1.0", "--t", "0.5",
                 "--pair", "2,-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(float(line.split(",")[3]) <= 1e-12
               for line in lines[1:])


# ----------------------------------------------------------------------
# exit codes and stdin

def test_exit_code_parse_error(tmp_path, capsys):
    assert main(["solve", _write(tmp_path, "p.json", "{ nope")]) == 2
    assert "parse error" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert main(["solve", "/nonexistent/problem.json"]) == 2


def test_exit_code_validation(tmp_path, capsys):
    doc = json.loads(CLASSICAL_DOC)
    doc["initial_conditions"] = [2]
    assert main(["solve", _write(tmp_path, "p.json", json.dumps(doc))]) == 3
    assert "validation error" in capsys.readouterr().err


def test_exit_code_numeric_failure(tmp_path, capsys):
    # E_0.3(30 t^0.3) exceeds the plain-series range at t=1
    doc = json.dumps({"alpha": 0.3,
                      "operator": {"coefficients": [-30, 1]},
                      "initial_conditions": [1]})
    assert main(["eval", _write(tmp_path, "p.json", doc)]) == 4
    assert "numeric failure" in capsys.readouterr().err


def test_exit_code_bad_report_flags(capsys):
    assert main(["report", "--alphas", "0.5,zebra"]) == 2
    assert main(["report", "--alphas", "0.5", "--pair", "1"]) == 2
    capsys.readouterr()


def test_stdin_input(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(CLASSICAL_DOC))
    assert main(["eval", "-"]) == 0
    assert capsys.readouterr().out.startswith("t,re(y),im(y)")


def test_module_entry_point(tmp_path):
    path = _write(tmp_path, "p.json", CLASSICAL_DOC)
    # the child imports the same fraccalc as this process, installed or not
    src = str(Path(fraccalc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "fraccalc.cli", "verify", path],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "verification: PASS" in proc.stdout
