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

from gnormal import VolatilityBand, cli, norm_cdf, norm_quantile
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
            "march_s", "steps_per_s", "cfl", "nodes_per_step", "active_nodes_per_step"
        }
        assert diag["nodes_per_step"] == 201 - 100 - 1  # the half march ran
        assert 0.0 < diag["active_nodes_per_step"] <= diag["nodes_per_step"]
        assert 0.0 < diag["cfl"] <= 0.5
        manifest = (tmp_path / "d.csv.manifest.json").read_text()
        assert "march_s" not in manifest and "cfl" not in manifest

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

    def test_provenance_and_phase_seconds(self):
        proc = run_cli("simulate", "--n", "10", "--reps", "300", "--policy",
                       "constant", "--sigma", "0.9", "--sigma-lo", "0.8",
                       "--sigma-hi", "1", "--sided", "one", "--stat", "z",
                       "--seed", "1")
        out = json_out(proc)
        assert out["manifest"]["numpy"] == numpy.__version__
        assert out["config_echo"]["noise"] == RNG_SCHEME
        assert "diagnostics" not in out
        line = [l for l in proc.stderr.splitlines() if l.startswith("diagnostics: ")]
        phases = json.loads(line[0].split(": ", 1)[1])
        assert set(phases) == {
            "noise_s", "step_s", "tally_s", "fork_s", "merge_s"
        }

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

    def test_workers_env_default(self):
        proc = run_cli("simulate", "--n", "10", "--reps", "64", "--policy",
                       "constant", "--sigma-lo", "1", "--sigma-hi", "1",
                       "--alpha", "0.05", "--sided", "one", "--stat", "z",
                       "--seed", "1", env_extra={"GNORMAL_WORKERS": "2"})
        assert proc.returncode == 0
        assert "workers: 2" in proc.stderr

    def test_workers_default(self, monkeypatch):
        # repro's long runs take up to two workers, simulate's small ones one;
        # GNORMAL_WORKERS overrides both.
        monkeypatch.delenv("GNORMAL_WORKERS", raising=False)
        parser = cli._build_parser()
        simulate = ["simulate", "--sigma-lo", "1", "--sigma-hi", "1", "--n", "10",
                    "--reps", "64", "--policy", "constant", "--sided", "one", "--stat", "z"]
        assert parser.parse_args(simulate).workers == 1
        assert parser.parse_args(["repro"]).workers == min(2, os.cpu_count() or 1)
        monkeypatch.setenv("GNORMAL_WORKERS", "3")
        parser = cli._build_parser()
        assert parser.parse_args(simulate).workers == 3
        assert parser.parse_args(["repro"]).workers == 3

    def test_bad_workers_env_is_usage_error(self):
        simulate = ("simulate", "--n", "10", "--reps", "64", "--policy", "constant",
                    "--sigma-lo", "1", "--sigma-hi", "1", "--sided", "one", "--stat", "z")
        for argv in (simulate, ("repro", "--fast")):
            proc = run_cli(*argv, env_extra={"GNORMAL_WORKERS": "abc"})
            assert proc.returncode == 2
            assert "argument --workers: invalid int value: 'abc'" in proc.stderr
            assert "Traceback" not in proc.stderr


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
        if command == "capacity":
            assert second.out == first.out


class TestReproCommand:
    def test_manifest_hashes_stdout_for_every_worker_count(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "LIMIT_N", 50)
        monkeypatch.setattr(cli, "LIMIT_REPS", 3000)
        monkeypatch.setattr(cli, "HETERO_TARGETS", ((20, 0.0565),))
        runs = []
        for workers in ("1", "2"):
            argv = ["repro", "--reps", "3000", "--seed", "3", "--workers", workers]
            # at these sizes a check may fail (exit 4); the manifest must not
            assert cli.main(argv) in (0, cli.PROPERTY_FAILURE)
            out, err = capsys.readouterr()
            runs.append((out, json.loads(err.strip().splitlines()[-1])))
        out, manifest = runs[0]
        assert out.splitlines()[-1] in ("all checks passed", "SOME CHECKS FAILED")
        assert manifest["subcommand"] == "repro"
        assert manifest["parameters"] == {"reps": 3000, "fast": False, "seed": 3}
        assert manifest["seed"] == 3
        assert manifest["output_sha256"] == hashlib.sha256(out.encode("utf-8")).hexdigest()
        assert runs[1] == runs[0]

    def test_fast_manifest_reruns(self, monkeypatch, capsys):
        # --fast reads no --reps, so the manifest records none to pass back
        monkeypatch.setattr(cli, "LIMIT_N", 50)
        monkeypatch.setattr(cli, "LIMIT_REPS", 3000)
        monkeypatch.setattr(cli, "HETERO_TARGETS", ((20, 0.0565),))
        code = cli.main(["repro", "--fast", "--seed", "3", "--workers", "1"])
        assert code in (0, cli.PROPERTY_FAILURE)
        first = capsys.readouterr()
        manifest = json.loads(first.err.strip().splitlines()[-1])
        assert manifest["parameters"] == {"reps": None, "fast": True, "seed": 3}
        assert cli.main(rerun_argv("repro", manifest)) == code
        second = capsys.readouterr()
        assert second.out == first.out
        assert json.loads(second.err.strip().splitlines()[-1]) == manifest

    def test_reps_with_fast_is_usage_error(self, monkeypatch, capsys):
        # --fast runs 1e5 replications whatever --reps says
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a simulation started"))
        assert cli.main(["repro", "--fast", "--reps", "5"]) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: --reps is read only with no --fast"]

    def test_reps_below_one_is_usage_error_before_any_simulation(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run", lambda config: pytest.fail("a simulation started"))
        assert cli.main(["repro", "--reps", "0"]) == cli.USAGE_ERROR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == ["error: reps must be >= 1, got 0"]
