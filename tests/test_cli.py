"""CLI: exit codes, file formats, byte stability, env overrides."""

import json
import math
import os
import subprocess
import sys

import pytest

from synge_riemann import cli

SOD = {
    "gas": "monatomic",
    "left": {"rho": 1.0, "v": 0.0, "p": 1.0},
    "right": {"rho": 0.125, "v": 0.0, "p": 0.1},
}


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(args, capsys=None):
    return cli.run(args)


class TestSolve:
    def test_equal_states_exit_zero(self, tmp_path):
        doc = dict(SOD, right=SOD["left"])
        out = tmp_path / "sol.json"
        code = run_cli(["solve", "--in", write_problem(tmp_path, doc), "--out", str(out)])
        assert code == 0
        sol = json.loads(out.read_text())
        assert sol["waves"] == []
        assert sol["vacuum"] is False

    def test_sod_solution_document(self, tmp_path):
        out = tmp_path / "sol.json"
        code = run_cli(["solve", "--in", write_problem(tmp_path, SOD), "--out", str(out)])
        assert code == 0
        sol = json.loads(out.read_text())
        assert abs(sol["p_m"] - 0.31244502886190321) < 1e-8
        assert [w["kind"] for w in sol["waves"]] == ["rarefaction", "contact", "shock"]

    def test_vacuum_exit_two_still_writes(self, tmp_path):
        doc = {
            "gas": "diatomic",
            "left": {"rho": 1.0, "v": -0.9999, "p": 1.0},
            "right": {"rho": 1.0, "v": 0.9999, "p": 1.0},
        }
        out = tmp_path / "sol.json"
        code = run_cli(["solve", "--in", write_problem(tmp_path, doc), "--out", str(out)])
        assert code == cli.EXIT_VACUUM
        sol = json.loads(out.read_text())
        assert sol["vacuum"] is True

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli(["solve", "--in", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_BAD_INPUT
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "malformed-input"

    def test_missing_key(self, tmp_path, capsys):
        code = run_cli([
            "solve",
            "--in", write_problem(tmp_path, {"gas": "monatomic", "left": SOD["left"]}),
            "--out", str(tmp_path / "o.json"),
        ])
        assert code == cli.EXIT_BAD_INPUT

    def test_superluminal_domain_error(self, tmp_path, capsys):
        doc = dict(SOD, left={"rho": 1.0, "v": 1.5, "p": 1.0})
        code = run_cli(["solve", "--in", write_problem(tmp_path, doc),
                        "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_DOMAIN
        assert json.loads(capsys.readouterr().err)["error"]["code"] == cli.EXIT_DOMAIN

    def test_window_violation(self, tmp_path, capsys):
        doc = dict(SOD, left={"rho": 1.0, "v": 0.0, "p": 1e9})  # gamma = 1e-9
        code = run_cli(["solve", "--in", write_problem(tmp_path, doc),
                        "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_WINDOW


class TestSample:
    def test_csv_schema_and_stability(self, tmp_path):
        prob = write_problem(tmp_path, SOD)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sample", "--solution", prob, "--xi-min", "-0.9", "--xi-max", "0.9",
                "--n", "41", "--out"]
        assert run_cli(args + [str(out1)]) == 0
        assert run_cli(args + [str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().split("\n")
        assert lines[0] == "xi,rho,v,p,gamma,shat,region"
        assert len(lines) == 42


class TestCurves:
    def test_curve_csv(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli([
            "curves", "--gas", "monatomic", "--rho", "1", "--v", "0", "--p", "1",
            "--family", "1", "--p-min", "0.1", "--p-max", "10", "--n", "21",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "p,v,shat,gamma,kind,speed_lo,speed_hi"
        assert len(lines) == 22
        vs = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(a > b for a, b in zip(vs, vs[1:]))


class TestLambda:
    def test_both_gases_ur_limit(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = run_cli(["lambda", "--gas", "both", "--gamma-min", "1e-4",
                        "--gamma-max", "1e3", "--n", "51", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "gamma,lambda3_monatomic,lambda3_diatomic"
        first = [float(x) for x in lines[1].split(",")]
        assert abs(first[1] - 0.57735) < 1e-3
        assert abs(first[2] - 0.57735) < 1e-3

    def test_single_gas(self, tmp_path):
        out = tmp_path / "lam.csv"
        code = run_cli(["lambda", "--gas", "monatomic", "--gamma-min", "0.1",
                        "--gamma-max", "10", "--n", "11", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("gamma,lambda3\n")


class TestEntropyProduction:
    def test_monotone_positive(self, tmp_path):
        out = tmp_path / "eta.csv"
        code = run_cli([
            "entropy-production", "--gas", "monatomic", "--rho", "1", "--v", "0",
            "--p", "1", "--p-min", "1.05", "--p-max", "20", "--n", "25",
            "--out", str(out),
        ])
        assert code == 0
        rows = [l.split(",") for l in out.read_text().strip().split("\n")[1:]]
        etas = [float(r[1]) for r in rows]
        assert all(e > 0 for e in etas)
        assert all(a < b for a, b in zip(etas, etas[1:]))
        assert out.read_text().startswith("sbar,eta_hat\n")


class TestVerifyCommand:
    def test_pass_and_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run_cli(["verify", "--points", "200", "--out", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "0 failed" in table
        doc = json.loads(out.read_text())
        assert doc["all_passed"] is True


class TestEnvWindow:
    def test_widened_window_verify_names_the_verification_grid(self, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_WINDOW, "1e-8,1e4")
        code = run_cli(["verify", "--gamma-min", "1e-8", "--points", "20"])
        assert code == cli.EXIT_WINDOW
        err = json.loads(capsys.readouterr().err)["error"]
        assert err["kind"] == "window"
        assert "(verification grid)" in err["message"]

    def test_expanded_window_allows_state(self, tmp_path, monkeypatch):
        doc = dict(SOD, left={"rho": 1.0, "v": 0.0, "p": 1e9},
                   right={"rho": 1.0, "v": 0.0, "p": 1e9})  # gamma 1e-9
        monkeypatch.setenv(cli.ENV_WINDOW, "1e-12,1e4")
        out = tmp_path / "sol.json"
        code = run_cli(["solve", "--in", write_problem(tmp_path, doc), "--out", str(out)])
        assert code == 0

    def test_malformed_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.ENV_WINDOW, "banana")
        code = run_cli(["solve", "--in", write_problem(tmp_path, SOD),
                        "--out", str(tmp_path / "o.json")])
        assert code == cli.EXIT_DOMAIN


def test_console_script_help():
    proc = subprocess.run(
        [sys.executable, "-m", "synge_riemann.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "verify" in proc.stdout
