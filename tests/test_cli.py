"""Command-line surface: flags, JSON/CSV shapes, manifests, exit codes."""

import csv
import json
import os
import subprocess
import sys

import pytest

from gnormal import norm_cdf, norm_quantile


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gnormal", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def json_out(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestCapacityCommand:
    def test_two_sided_headline_point(self):
        out = json_out(
            run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                    "--alpha", "0.05", "--sided", "two")
        )
        assert round(out["p2_approx"], 3) == 0.056
        assert out["rel_error_bound"] < 4e-4
        assert out["manifest"]["subcommand"] == "capacity"
        assert len(out["manifest"]["output_sha256"]) == 64

    def test_classical_point(self):
        out = json_out(
            run_cli("capacity", "--sigma-lo", "1", "--sigma-hi", "1", "--c", "1.96")
        )
        assert out["p1"] == pytest.approx(norm_cdf(-1.96), rel=1e-12)

    def test_one_sided_alpha(self):
        out = json_out(
            run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                    "--alpha", "0.05", "--sided", "one")
        )
        assert out["p1"] == pytest.approx(0.1 / 1.8, rel=1e-10)
        assert out["c"] == pytest.approx(norm_quantile(0.95), rel=1e-12)

    def test_pde_cross_check(self):
        out = json_out(
            run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                    "--alpha", "0.05", "--sided", "two", "--pde", "--nx", "1201")
        )
        assert out["p2_numeric"] == pytest.approx(out["p2_approx"], abs=5e-3)
        assert out["pde_grid"]["nx"] == 1201
        assert out["pde_grid"]["snapped_c"] == pytest.approx(out["c"], abs=0.02)

    def test_bounds_unavailable_exit_2(self):
        proc = run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                       "--c", "0.3", "--bounds")
        assert proc.returncode == 2
        assert "error" in proc.stderr.lower()

    def test_invalid_band_exit_2(self):
        proc = run_cli("capacity", "--sigma-lo", "2", "--sigma-hi", "1", "--c", "1")
        assert proc.returncode == 2

    def test_usage_error_exit_2(self):
        proc = run_cli("capacity", "--sigma-lo", "0.8")
        assert proc.returncode == 2

    def test_ignores_bad_workers_env(self):
        # capacity has no --workers, so GNORMAL_WORKERS is not its input
        proc = run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", "--c", "2",
                       env_extra={"GNORMAL_WORKERS": "abc"})
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr


class TestSolveCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out_path = str(tmp_path / "u.csv")
        proc = run_cli(
            "solve", "--ic", "one-sided", "--c", "0.5",
            "--sigma-lo", "0.8", "--sigma-hi", "1",
            "--x-min", "-6", "--x-max", "6", "--nx", "241",
            "--t-end", "0.5", "--out", out_path,
        )
        assert proc.returncode == 0, proc.stderr
        with open(out_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "x", "u"]
        manifest = json.loads((tmp_path / "u.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "solve"
        assert out_path in manifest["output_sha256"]
        assert manifest["solution"]["snapped_c"] == pytest.approx(0.5, abs=0.05)

    def test_classical_heat_solution(self, tmp_path):
        out_path = str(tmp_path / "h.csv")
        proc = run_cli(
            "solve", "--ic", "one-sided", "--c", "0", "--sigma-lo", "1",
            "--sigma-hi", "1", "--x-min", "-8", "--x-max", "8", "--nx", "401",
            "--t-end", "1", "--out", out_path, "--levels", "3",
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        c_snap = manifest["solution"]["snapped_c"]
        with open(out_path) as fh:
            rows = [r for r in csv.reader(fh)][1:]
        final = [(float(x), float(u)) for t, x, u in rows if float(t) == 1.0]
        worst = max(abs(u - norm_cdf(x - c_snap)) for x, u in final)
        assert worst <= 1e-3

    def test_table_ic(self, tmp_path):
        table = tmp_path / "ic.csv"
        table.write_text("x,phi\n-2,0\n-1,0.25\n0,0.5\n1,0.75\n2,1\n")
        out_path = str(tmp_path / "t.csv")
        proc = run_cli(
            "solve", "--ic", f"table:{table}", "--sigma-lo", "0.8",
            "--sigma-hi", "1", "--nx", "81", "--t-end", "0.1", "--out", out_path,
        )
        assert proc.returncode == 0, proc.stderr

    def test_two_sided_solve_agrees_with_capacity_pde(self, tmp_path):
        # same grid defaults: the dumped w(1, 0) must equal the --pde value
        out_path = str(tmp_path / "w.csv")
        proc = run_cli(
            "solve", "--ic", "two-sided", "--c", "1.5", "--sigma-lo", "0.8",
            "--sigma-hi", "1", "--nx", "801", "--t-end", "1", "--out", out_path,
            "--levels", "2",
        )
        assert proc.returncode == 0, proc.stderr
        with open(out_path) as fh:
            rows = [r for r in csv.reader(fh)][1:]
        at_origin = [float(u) for t, x, u in rows if float(t) == 1.0 and float(x) == 0.0]
        cap = json_out(
            run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                    "--c", "1.5", "--pde", "--nx", "801")
        )
        assert len(at_origin) == 1
        assert cap["p2_numeric"] == pytest.approx(at_origin[0], abs=1e-12)

    def test_cfl_violation_exit_2(self, tmp_path):
        proc = run_cli(
            "solve", "--ic", "one-sided", "--c", "0", "--sigma-lo", "1",
            "--sigma-hi", "1", "--nx", "101", "--safety", "1.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2


class TestThresholdCommand:
    def test_rows(self):
        proc = run_cli("threshold", "--alpha", "0.05", "--sigma-lo", "0.8",
                       "--sigma-hi", "1", "--levels", "5", "--nx", "601")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "time_remaining,threshold,flag"
        assert len(lines) == 6
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1.0)
        assert abs(float(last[1]) - norm_quantile(0.975)) <= 0.05
        manifest = json.loads(proc.stderr.strip().splitlines()[-1])
        assert manifest["subcommand"] == "threshold"

    def test_constant_band_flag(self):
        proc = run_cli("threshold", "--alpha", "0.05", "--sigma-lo", "1",
                       "--sigma-hi", "1", "--levels", "3", "--nx", "601")
        assert proc.returncode == 0
        for line in proc.stdout.strip().splitlines()[1:]:
            assert "constant-band" in line.split(",")[2]


def strip_runtime(payload):
    payload = dict(payload)
    payload.pop("runtime_seconds", None)
    return json.dumps(payload, sort_keys=True)


class TestSimulateCommand:
    def test_deterministic_across_workers(self):
        args = (
            "simulate", "--n", "30", "--reps", "2000", "--policy", "heuristic-t",
            "--sigma-lo", "0.8", "--sigma-hi", "1", "--alpha", "0.05",
            "--sided", "two", "--stat", "t", "--seed", "17",
        )
        outs = [json_out(run_cli(*args, "--workers", w)) for w in ("1", "4")]
        assert strip_runtime(outs[0]) == strip_runtime(outs[1])
        assert outs[0]["manifest"]["output_sha256"] == outs[1]["manifest"]["output_sha256"]

    def test_null_rate_near_alpha(self):
        out = json_out(
            run_cli("simulate", "--n", "20", "--reps", "20000", "--policy",
                    "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                    "--alpha", "0.05", "--sided", "one", "--stat", "z", "--seed", "2")
        )
        assert out["rate"] == pytest.approx(0.05, abs=0.006)

    def test_histogram_file(self, tmp_path):
        hist_path = str(tmp_path / "hist.csv")
        out = json_out(
            run_cli("simulate", "--n", "25", "--reps", "500", "--policy",
                    "heuristic-t", "--sigma-lo", "0.8", "--sigma-hi", "1",
                    "--alpha", "0.05", "--sided", "two", "--stat", "t",
                    "--seed", "3", "--hist", hist_path)
        )
        lines = open(hist_path).read().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        total = sum(int(l.split(",")[2]) for l in lines[1:])
        hist = out["histogram"]
        assert total == sum(hist["bins"])
        assert hist_path in out["manifest"]["file_sha256"]

    def test_invalid_combo_exit_2(self):
        proc = run_cli("simulate", "--n", "1", "--reps", "10", "--policy",
                       "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                       "--alpha", "0.05", "--sided", "two", "--stat", "t",
                       "--seed", "0")
        assert proc.returncode == 2

    def test_workers_env_default(self):
        proc = run_cli("simulate", "--n", "10", "--reps", "64", "--policy",
                       "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                       "--alpha", "0.05", "--sided", "one", "--stat", "z",
                       "--seed", "1", env_extra={"GNORMAL_WORKERS": "2"})
        assert proc.returncode == 0
        assert "workers: 2" in proc.stderr

    def test_bad_workers_env_is_usage_error(self):
        simulate = ("simulate", "--n", "10", "--reps", "64", "--policy", "constant",
                    "--sigma-lo", "1", "--sigma-hi", "1", "--sided", "one", "--stat", "z")
        for argv in (simulate, ("repro", "--fast")):
            proc = run_cli(*argv, env_extra={"GNORMAL_WORKERS": "abc"})
            assert proc.returncode == 2
            assert "argument --workers: invalid int value: 'abc'" in proc.stderr
            assert "Traceback" not in proc.stderr


class TestTopLevel:
    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "gnormal" in proc.stdout

    def test_repro_help(self):
        proc = run_cli("repro", "--help")
        assert proc.returncode == 0
        assert "--fast" in proc.stdout

    def test_rerunning_manifest_parameters_reproduces_output(self):
        args = (
            "capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
            "--alpha", "0.01", "--sided", "two",
        )
        first, second = run_cli(*args), run_cli(*args)
        assert first.stdout == second.stdout
