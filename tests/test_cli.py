"""Command-line surface: flags, JSON/CSV shapes, manifests, exit codes."""

import csv
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy
import pytest

from gnormal import VolatilityBand, cli, gheat, norm_cdf, norm_quantile
from gnormal.gheat import default_two_sided_grid
from gnormal.simulate import RNG_SCHEME


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


def strict_json(text):
    """``json.loads`` that refuses NaN and Infinity, as RFC 8259 does."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def json_out(proc):
    assert proc.returncode == 0, proc.stderr
    return strict_json(proc.stdout)


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

    @pytest.mark.parametrize("bounds", [(), ("--bounds",)])
    @pytest.mark.parametrize("t", ["-1", "nan"])
    def test_bad_time_exit_2(self, t, bounds):
        proc = run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1",
                       "--c", "1", "--t", t, *bounds)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: time horizon must be >= 0, got {float(t)!r}"
        ]

    def test_outside_bound_regime_prints_null_bounds(self):
        out = json_out(
            run_cli("capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", "--c", "0.3")
        )
        assert out["p1"] > 0.0
        for key in ("p2_approx", "abs_error_bound", "rel_error_bound"):
            assert out[key] is None

    def test_invalid_band_exit_2(self):
        proc = run_cli("capacity", "--sigma-lo", "2", "--sigma-hi", "1", "--c", "1")
        assert proc.returncode == 2

    def test_usage_error_exit_2(self):
        proc = run_cli("capacity", "--sigma-lo", "0.8")
        assert proc.returncode == 2

    @pytest.mark.parametrize("unread, reader", [
        (["--c", "1.5", "--alpha", "0.05"], "no --c"),
        (["--c", "1.5", "--sided", "two"], "no --c"),
        (["--alpha", "0.05", "--nx", "801"], "--pde"),
    ])
    def test_unread_option_is_usage_error(self, unread, reader, capsys):
        # --alpha and --sided are read only without --c, --nx only with --pde,
        # so each would enter the manifest without changing a byte.
        argv = ["capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", *unread]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {unread[2]} is read only with {reader}"]

    @pytest.mark.parametrize("alpha", ["1", "1.5", "0", "-0.1"])
    def test_alpha_outside_unit_interval_is_usage_error(self, alpha, capsys):
        argv = ["capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", "--alpha", alpha]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: alpha must lie in (0, 1), got {float(alpha)!r}"]

    @pytest.mark.parametrize("argv, message", [
        (["--c", "nan"], "--c must be finite, got nan"),
        (["--c", "inf"], "--c must be finite, got inf"),
        (["--c", "1", "--t", "inf"], "time horizon must be finite, got inf"),
    ], ids=["c-nan", "c-inf", "t-inf"])
    def test_non_finite_input_is_usage_error(self, argv, message, capsys):
        # each would print NaN or Infinity, which no JSON parser need accept
        assert cli.main(["capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]

    def test_non_finite_result_is_numerical_failure(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "p1", lambda c, band: float("nan"))
        argv = ["capacity", "--sigma-lo", "0.8", "--sigma-hi", "1", "--c", "1.5"]
        assert cli.main(argv) == cli.NUMERICAL_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: non-finite value in JSON output")
        assert len(err.splitlines()) == 1


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

    @pytest.mark.parametrize("text, bad", [
        ("x,y\nfoo,bar\nnote,here\n-1,0\n1,1\n", "foo,bar"),
        ("x,y\nO.5,1\n-1,0\n1,1\n", "O.5,1"),
    ], ids=["second-header", "mistyped-row"])
    def test_only_the_first_table_line_may_be_a_header(self, text, bad, tmp_path, capsys):
        table = tmp_path / "ic.csv"
        table.write_text(text)
        out_path = tmp_path / "t.csv"
        argv = ["solve", "--ic", f"table:{table}", "--sigma-lo", "0.8", "--sigma-hi", "1",
                "--nx", "21", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [f"error: bad table row {bad!r}"]
        assert not out_path.exists()

    def test_non_finite_table_exit_2(self, tmp_path):
        table = tmp_path / "nan.csv"
        table.write_text("0 0\n1 nan\n2 1\n")
        proc = run_cli(
            "solve", "--ic", f"table:{table}", "--sigma-lo", "0.8",
            "--sigma-hi", "1", "--nx", "21", "--out", str(tmp_path / "n.csv"),
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == ["error: lipschitz table values must be finite"]

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

    def test_prints_march_diagnostics(self, tmp_path):
        proc = run_cli(
            "solve", "--ic", "two-sided", "--c", "1", "--sigma-lo", "0.8",
            "--sigma-hi", "1", "--nx", "201", "--safety", "0.5",
            "--out", str(tmp_path / "d.csv"),
        )
        assert proc.returncode == 0, proc.stderr
        line = [l for l in proc.stderr.splitlines() if l.startswith("diagnostics: ")]
        diag = json.loads(line[0].split(": ", 1)[1])
        assert set(diag) == {
            "march_s", "setup_s", "steps_per_s", "cfl", "nodes_per_step",
            "active_nodes_per_step",
        }
        assert diag["nodes_per_step"] == 201 - 100 - 1  # the half march ran
        assert 0.0 < diag["active_nodes_per_step"] <= diag["nodes_per_step"]
        assert 0.0 < diag["cfl"] <= 0.5
        assert 0.0 <= diag["setup_s"] <= diag["march_s"]
        manifest = (tmp_path / "d.csv.manifest.json").read_text()
        assert not any(key in manifest for key in ("march_s", "setup_s", "cfl"))

    def test_overflow_is_one_numerical_failure_line(self, tmp_path):
        table = tmp_path / "huge.csv"
        table.write_text("0 0\n1 1.7e308\n2 -1.7e308\n3 1.7e308\n4 0\n")
        proc = run_cli(
            "solve", "--ic", f"table:{table}", "--sigma-lo", "0.8",
            "--sigma-hi", "1", "--nx", "5", "--out", str(tmp_path / "h.csv"),
        )
        assert proc.returncode == 3
        assert proc.stderr.splitlines() == [
            "numerical failure: non-finite values detected at step 1"
        ]

    def test_c_with_table_data_is_usage_error(self, tmp_path, capsys):
        # table data reads no threshold, so a --c would only enter the manifest
        table = tmp_path / "ic.csv"
        table.write_text("x,phi\n-2,0\n2,1\n")
        out_path = tmp_path / "t.csv"
        argv = ["solve", "--ic", f"table:{table}", "--c", "1", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "21", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: --c is read only with --ic one-sided or two-sided"]
        assert not out_path.exists()

    def test_indicator_ends_default_to_the_two_sided_grid(self, tmp_path, capsys):
        # One rule for both ends: each unset end comes from the default grid.
        default = default_two_sided_grid(0.4, VolatilityBand(0.8, 1.0))
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "0.4", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--t-end", "0.1", "--levels", "2",
                "--x-min", "-5", "--out", str(out_path)]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "u.csv.manifest.json").read_text())
        assert manifest["parameters"]["x_min"] == -5.0
        assert manifest["parameters"]["x_max"] == default.x_max
        # The default ends are built even when both are set, so a NaN
        # threshold fails there, still as a usage error.
        argv[argv.index("0.4")] = "nan"
        assert cli.main([*argv, "--x-max", "5"]) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines()[-1] == "error: grid endpoints must be finite"

    def test_unbounded_march_is_usage_error(self, tmp_path, capsys):
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "1", "--sigma-lo", "0.8", "--sigma-hi", "1",
                "--t-end", "1e300", "--nx", "5", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: t_end = 1e+300 on nx = 5 needs 4.132e+298 steps, more than 1000000"
        ]
        assert not out_path.exists()

    def test_too_many_kept_values_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gheat, "MAX_VALUES", 100)
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "0.5", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--levels", "3", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: 3 levels of nx = 41 are 123 values, more than 100"
        ]
        assert not out_path.exists()

    def test_missing_table_is_usage_error(self, tmp_path, capsys):
        table, out_path = tmp_path / "missing.csv", tmp_path / "u.csv"
        argv = ["solve", "--ic", f"table:{table}", "--sigma-lo", "0.8", "--sigma-hi", "1",
                "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: cannot read table {str(table)!r}: No such file or directory"
        ]
        assert not out_path.exists()

    def test_missing_out_directory_is_usage_error_before_the_march(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("marched"))
        out_path = tmp_path / "missing" / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "0.5", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(out_path)!r}: no directory {str(out_path.parent)!r}"
        ]

    def test_unwritable_out_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # the directory exists, but the path names a directory, not a file
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("marched"))
        argv = ["solve", "--ic", "one-sided", "--c", "0.5", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(tmp_path)!r}: is a directory"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_directory_manifest_is_usage_error_before_the_march(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "solve", lambda *args, **kwargs: pytest.fail("marched"))
        out_path = tmp_path / "u.csv"
        manifest_path = tmp_path / "u.csv.manifest.json"
        manifest_path.mkdir()
        argv = ["solve", "--ic", "one-sided", "--c", "0.5", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(manifest_path)!r}: is a directory"
        ]
        assert list(tmp_path.iterdir()) == [manifest_path]

    def test_cfl_violation_exit_2(self, tmp_path):
        proc = run_cli(
            "solve", "--ic", "one-sided", "--c", "0", "--sigma-lo", "1",
            "--sigma-hi", "1", "--nx", "101", "--safety", "1.5",
            "--out", str(tmp_path / "x.csv"),
        )
        assert proc.returncode == 2

    def test_infinite_horizon_exit_2(self, tmp_path, capsys):
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "1", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--t-end", "inf", "--out", str(out_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        assert capsys.readouterr().err.splitlines() == [
            "error: grid requires a finite t_end > 0, got inf"
        ]
        assert not out_path.exists()

    def test_non_finite_manifest_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_file_sha256", lambda path: float("inf"))
        out_path = tmp_path / "u.csv"
        argv = ["solve", "--ic", "one-sided", "--c", "0.5", "--sigma-lo", "0.8",
                "--sigma-hi", "1", "--nx", "41", "--out", str(out_path)]
        assert cli.main(argv) == cli.NUMERICAL_ERROR
        assert capsys.readouterr().err.startswith("numerical failure: non-finite value")
        assert not (tmp_path / "u.csv.manifest.json").exists()


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

    def test_too_many_levels_is_usage_error(self, capsys):
        band = ["--alpha", "0.05", "--sigma-lo", "0.8", "--sigma-hi", "1"]
        for argv in (["threshold", *band, "--levels", "1000001"],
                     ["simulate", *band, "--n", "10", "--reps", "100", "--sided", "two",
                      "--stat", "z", "--policy", "two-sided-thresh",
                      "--table-levels", "1000001"]):
            assert cli.main(argv) == cli.USAGE_ERROR
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "error: levels must lie in [1, 1000000], got 1000001"
            ]

    def test_constant_band_flag(self):
        proc = run_cli("threshold", "--alpha", "0.05", "--sigma-lo", "1",
                       "--sigma-hi", "1", "--levels", "3", "--nx", "601")
        assert proc.returncode == 0
        for line in proc.stdout.strip().splitlines()[1:]:
            assert "constant-band" in line.split(",")[2]


class TestSimulateCommand:
    def test_provenance_and_phase_seconds(self):
        proc = run_cli("simulate", "--n", "10", "--reps", "300", "--policy",
                       "constant", "--sigma", "0.9", "--sigma-lo", "0.8",
                       "--sigma-hi", "1", "--sided", "one", "--stat", "z",
                       "--seed", "1")
        out = json_out(proc)
        assert out["manifest"]["numpy"] == numpy.__version__
        assert out["config_echo"]["noise"] == RNG_SCHEME
        assert "diagnostics" not in out and "runtime_seconds" not in out
        line = [l for l in proc.stderr.splitlines() if l.startswith("diagnostics: ")]
        phases = json.loads(line[0].split(": ", 1)[1])
        assert set(phases) == {
            "run_s", "noise_s", "step_s", "tally_s", "fork_s", "merge_s", "processes"
        }
        assert phases["run_s"] > 0.0
        assert not any(l.startswith("workers: ") for l in proc.stderr.splitlines())

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
        lines = Path(hist_path).read_text().strip().splitlines()
        assert lines[0] == "bin_lo,bin_hi,count"
        total = sum(int(l.split(",")[2]) for l in lines[1:])
        hist = out["histogram"]
        assert total == sum(hist["bins"])
        assert hist_path in out["manifest"]["file_sha256"]

    def test_missing_hist_directory_is_usage_error_before_the_run(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        hist_path = tmp_path / "missing" / "h.csv"
        argv = ["simulate", "--sigma-lo", "1", "--sigma-hi", "1", "--n", "10", "--reps", "64",
                "--policy", "constant", "--sided", "one", "--stat", "z", "--hist", str(hist_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: --hist {str(hist_path)!r}: no directory {str(hist_path.parent)!r}"
        ]

    def test_directory_hist_is_usage_error_before_the_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("ran"))
        argv = ["simulate", "--sigma-lo", "1", "--sigma-hi", "1", "--n", "10", "--reps", "64",
                "--policy", "constant", "--sided", "one", "--stat", "z", "--hist", str(tmp_path)]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: --hist {str(tmp_path)!r}: is a directory"]
        assert list(tmp_path.iterdir()) == []

    def test_invalid_combo_exit_2(self):
        proc = run_cli("simulate", "--n", "1", "--reps", "10", "--policy",
                       "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                       "--alpha", "0.05", "--sided", "two", "--stat", "t",
                       "--seed", "0")
        assert proc.returncode == 2

    @pytest.mark.parametrize("policy, stat, unread", [
        ("heuristic-t", "t", ["--sigma", "0.9", "--table-levels", "7"]),
        ("constant", "z", ["--table-levels", "7"]),
        ("one-sided-opt", "z", ["--table-levels", "50"]),
        ("two-sided-thresh", "t", ["--sigma-ref", "1.0"]),
    ])
    def test_unread_option_is_usage_error(self, policy, stat, unread, capsys):
        # An option the run does not read changes no output byte but would
        # enter the manifest; it is refused even at its default value.
        argv = ["simulate", "--sigma-lo", "0.8", "--sigma-hi", "1", "--n", "10",
                "--reps", "64", "--policy", policy, "--sided", "two", "--stat", stat, *unread]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {unread[0]} is read only with --")

    def test_workers_sets_the_minimum_process_count(self):
        # three tiles on three workers run as three processes on any machine
        # with three CPUs or fewer
        proc = run_cli("simulate", "--n", "10", "--reps", "3072", "--policy",
                       "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                       "--alpha", "0.05", "--sided", "one", "--stat", "z",
                       "--seed", "1", "--workers", "3")
        assert proc.returncode == 0
        line = [l for l in proc.stderr.splitlines() if l.startswith("diagnostics: ")]
        assert json.loads(line[0].split(": ", 1)[1])["processes"] == 3

    def test_workers_are_bounded(self, capsys):
        # one tile: without the bound this runs as one process and exits 0
        argv = ["simulate", "--sigma-lo", "1", "--sigma-hi", "1", "--n", "10", "--reps", "1024",
                "--policy", "constant", "--sided", "one", "--stat", "z", "--workers", "100000"]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: workers must lie in [1, 256], got 100000"]

    def test_workers_default(self, capsys):
        # simulate's --workers is the one worker setting; repro has none
        parser = cli._build_parser()
        simulate = ["simulate", "--sigma-lo", "1", "--sigma-hi", "1", "--n", "10",
                    "--reps", "64", "--policy", "constant", "--sided", "one", "--stat", "z"]
        assert parser.parse_args(simulate).workers == 1
        with pytest.raises(SystemExit) as exit_:
            parser.parse_args(["repro", "--workers", "2"])
        assert exit_.value.code == cli.USAGE_ERROR
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    @pytest.mark.parametrize("policy", ["constant", "one-sided-opt", "two-sided-thresh",
                                        "heuristic-t"])
    def test_horizon_above_cap_is_usage_error(self, policy, monkeypatch, capsys):
        # rejected while the policy is built, before any per-step array or run
        def never(config):
            raise AssertionError("simulate ran")
        monkeypatch.setattr(cli, "run", never)
        argv = ["simulate", "--sigma-lo", "0.8", "--sigma-hi", "1", "--n", "1000001",
                "--reps", "10", "--policy", policy, "--sided", "two", "--stat", "t",
                "--alpha", "0.05"]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: horizon n must lie in [1, 1000000], got 1000001"]

    def test_infinite_sigma_ref_is_usage_error(self, capsys):
        argv = ["simulate", "--sigma-lo", "0.8", "--sigma-hi", "1", "--n", "10",
                "--reps", "10", "--policy", "constant", "--sided", "one", "--stat", "z",
                "--sigma-ref", "inf"]
        assert cli.main(argv) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: z statistic needs a finite sigma_ref > 0"]

    def test_undefined_rate_is_null(self, capsys):
        # sigma = 0 makes every replication degenerate, so no rate exists
        argv = ["simulate", "--sigma-lo", "0", "--sigma-hi", "1", "--n", "10",
                "--reps", "10", "--policy", "constant", "--sigma", "0", "--sided", "two",
                "--stat", "t"]
        assert cli.main(argv) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["degenerate"] == 10
        assert out["rate"] is None


# Every option of each command at a non-default value (--c and --alpha are
# alternatives, so capacity takes --alpha alone).  --sigma and
# --table-levels are each read by one policy only, and any other policy
# refuses them, hence a simulate run with each, and one with heuristic-t,
# which reads neither.
BAND = ["--sigma-lo", "0.7", "--sigma-hi", "1.1"]
SIMULATE = [*BAND, "--n", "12", "--reps", "600", "--alpha", "0.1", "--sided", "one",
            "--stat", "z", "--sigma-ref", "0.95", "--seed", "5", "--hist", "{tmp}/h.csv"]
POLICY_OPTIONS = {
    "heuristic-t": [],
    "constant": ["--sigma", "0.9"],
    "two-sided-thresh": ["--table-levels", "7"],
}
RERUN = {
    "capacity": ["capacity", *BAND, "--alpha", "0.01", "--sided", "one", "--t", "0.5",
                 "--bounds", "--pde", "--nx", "401"],
    "threshold": ["threshold", *BAND, "--alpha", "0.02", "--levels", "4", "--nx", "301"],
    "threshold-default-nx": ["threshold", *BAND, "--alpha", "0.02", "--levels", "4"],
    **{
        f"simulate-{policy}": ["simulate", *SIMULATE, "--policy", policy, *options]
        for policy, options in POLICY_OPTIONS.items()
    },
    "solve": ["solve", *BAND, "--ic", "one-sided", "--c", "0.4", "--x-min", "-5",
              "--x-max", "6", "--nx", "121", "--t-end", "0.5", "--safety", "0.6",
              "--levels", "4", "--out", "{tmp}/u.csv"],
}


def read_manifest(command, captured, argv):
    if command in ("capacity", "simulate"):
        return json.loads(captured.out)["manifest"]
    if command == "solve":
        with open(argv[-1] + ".manifest.json", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(captured.err.strip().splitlines()[-1])


def rerun_argv(command, manifest):
    """Each manifest parameter passed back: a true flag bare, a null or
    false one left out."""
    argv = [command]
    for key, value in manifest["parameters"].items():
        if value is not None and value is not False:
            argv.append("--" + key.replace("_", "-"))
            if value is not True:
                argv.append(str(value))
    return argv


class TestTopLevel:
    def test_every_export_resolves(self):
        # Import does not read __all__; a stale name only breaks `import *`.
        import gnormal

        modules = [gnormal] + [
            importlib.import_module(f"gnormal.{info.name}")
            for info in pkgutil.iter_modules(gnormal.__path__)
            if info.name != "__main__"  # importing it runs the CLI
        ]
        exporting = [m for m in modules if hasattr(m, "__all__")]
        assert len(exporting) >= 6
        for module in exporting:
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert not missing, (module.__name__, missing)

    def test_version(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "gnormal" in proc.stdout

    def test_repro_help(self):
        proc = run_cli("repro", "--help")
        assert proc.returncode == 0
        assert "--fast" in proc.stdout

    @pytest.mark.parametrize("case", RERUN)
    def test_rerunning_manifest_parameters_reproduces_output(self, case, tmp_path, capsys):
        argv = [arg.format(tmp=tmp_path) for arg in RERUN[case]]
        command = argv[0]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        manifest = read_manifest(command, first, argv)
        assert cli.main(rerun_argv(command, manifest)) == 0
        second = capsys.readouterr()
        again = read_manifest(command, second, argv)
        # output_sha256 and parameters, and the rest too: simulate's
        # histogram checksum, solve's step plan
        assert again == manifest
        assert second.out == first.out
        if case == "threshold-default-nx":
            # the march's node count, not a null
            assert manifest["parameters"]["nx"] == 1201


class TestReproCommand:
    def test_non_finite_manifest_prints_nothing(self, capsys):
        with pytest.raises(cli.NumericalError):
            cli._emit_text("body\n", {"alpha": float("nan")})
        assert capsys.readouterr() == ("", "")

    def test_manifest_hashes_stdout_for_every_worker_count(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LIMIT_N", 50)
        monkeypatch.setattr(cli, "LIMIT_REPS", 3000)
        monkeypatch.setattr(cli, "HETERO_TARGETS", ((20, 0.0565),))
        run = cli.run
        processes = []

        def counting(config):
            report = run(config)
            processes.append(report.diagnostics["processes"])
            return report

        monkeypatch.setattr(cli, "run", counting)
        monkeypatch.setattr(cli, "HETERO_FULL", (3000, cli.HETERO_FULL[1]))
        codes, runs = [], []
        for cpus in (1, 2):
            monkeypatch.setattr(
                os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False
            )
            # at these sizes a check may fail (exit 4); the manifest must not
            codes.append(cli.main(["repro", "--seed", "3"]))
            assert codes[-1] in (0, cli.PROPERTY_FAILURE)
            out, err = capsys.readouterr()
            runs.append((out, json.loads(err.strip().splitlines()[-1])))
        assert processes == [1, 1, 2, 2]  # the limit run and the n = 20 run
        out, manifest = runs[0]
        assert out.splitlines()[-1] in ("all checks passed", "SOME CHECKS FAILED")
        assert manifest["subcommand"] == "repro"
        assert manifest["parameters"] == {"fast": False, "seed": 3}
        assert manifest["seed"] == 3
        assert manifest["output_sha256"] == hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert runs[1] == runs[0]
        assert cli.main(rerun_argv("repro", manifest)) == codes[0]
        again = capsys.readouterr()
        assert (again.out, json.loads(again.err.strip().splitlines()[-1])) == runs[0]

    def test_fast_manifest_reruns(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LIMIT_N", 50)
        monkeypatch.setattr(cli, "LIMIT_REPS", 3000)
        monkeypatch.setattr(cli, "HETERO_TARGETS", ((20, 0.0565),))
        code = cli.main(["repro", "--fast", "--seed", "3"])
        assert code in (0, cli.PROPERTY_FAILURE)
        first = capsys.readouterr()
        manifest = json.loads(first.err.strip().splitlines()[-1])
        assert manifest["parameters"] == {"fast": True, "seed": 3}
        assert cli.main(rerun_argv("repro", manifest)) == code
        second = capsys.readouterr()
        assert second.out == first.out
        assert json.loads(second.err.strip().splitlines()[-1]) == manifest

    def test_reps_is_not_an_option(self, capsys):
        # the scale is full or --fast, each with its own reps and tolerance
        with pytest.raises(SystemExit) as exit_:
            cli._build_parser().parse_args(["repro", "--reps", "5"])
        assert exit_.value.code == cli.USAGE_ERROR
        assert "unrecognized arguments: --reps 5" in capsys.readouterr().err
