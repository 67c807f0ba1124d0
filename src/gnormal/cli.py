"""Command-line surface: every capability with machine-readable output.

JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
2 usage/domain error, 3 numerical failure, 4 property-check failure.

Every subcommand echoes a run manifest holding its parameters, tool and
numpy versions, seed and a SHA-256 checksum of the deterministic output
content.  ``parameters`` is every parsed option except ``simulate``'s
``--workers`` (which changes no output byte), with the values a command
resolves from defaults filled in.  Setting an option the run does not
read (``capacity``'s ``--alpha`` and ``--sided`` with ``--c`` and ``--nx``
without ``--pde``, ``simulate``'s ``--sigma`` and ``--table-levels``
outside their policy, ``--sigma-ref`` without ``--stat z``, ``solve``'s
``--c`` with table data) is a usage error, so no manifest records a value
that changed nothing.
``capacity`` and ``simulate`` put the manifest inside their JSON payload,
``solve`` writes it next to its CSV, and ``threshold`` and ``repro`` print
it on stderr as one JSON line after their text on stdout.  No JSON they
print holds NaN or Infinity: a non-finite value that reaches one is a
numerical failure.
Stdout, and every file a command writes, is a function of the manifest
parameters: a rerun with them reproduces it byte for byte.  Timings go to
stderr: ``simulate`` prints its run and per-phase seconds and process
count, and ``solve`` its march seconds, steps/s, CFL fraction and node counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys

import numpy

from . import __version__
from .capacity import (
    VolatilityBand,
    p1,
    p2_approx,
    relative_error_bound,
    tail_threshold,
    two_sided_error_bound,
)
from .errors import ConfigurationError, DomainError, GNormalError, NumericalError
from .gheat import (
    GridSpec,
    IndicatorAbove,
    IndicatorAbsAbove,
    LipschitzTable,
    default_two_sided_grid,
    solve,
    two_sided_threshold,
)
from .policy import (
    constant_policy,
    heuristic_t_policy,
    one_sided_optimal_policy,
    two_sided_threshold_policy,
)
from .simulate import SimulationConfig, TestSpec, run, wilson_interval
from .special import norm_quantile

USAGE_ERROR = 2
NUMERICAL_ERROR = 3
PROPERTY_FAILURE = 4


def _json(value, **kwargs) -> str:
    """``json.dumps`` that refuses NaN and Infinity, which RFC 8259 lacks."""
    try:
        return json.dumps(value, allow_nan=False, **kwargs)
    except ValueError as exc:
        raise NumericalError(f"non-finite value in JSON output ({exc})") from None


def _canonical_checksum(payload: dict) -> str:
    """SHA-256 over the canonical JSON of the payload."""
    return hashlib.sha256(_json(payload, sort_keys=True).encode("utf-8")).hexdigest()


def _manifest(args, **resolved) -> dict:
    """The run manifest: every parsed option but the worker count, with
    ``resolved`` replacing the options a command resolved from defaults."""
    parameters = {
        k: v for k, v in vars(args).items() if k not in ("command", "func", "workers")
    }
    return {
        "subcommand": args.command,
        "parameters": {**parameters, **resolved},
        "version": __version__,
        "numpy": numpy.__version__,
        "seed": getattr(args, "seed", None),
        "output_sha256": None,
    }


def _emit_json(payload: dict, manifest: dict) -> None:
    manifest["output_sha256"] = _canonical_checksum(payload)
    print(_json({**payload, "manifest": manifest}, indent=2))


def _emit_text(body: str, manifest: dict) -> None:
    """Body on stdout; the manifest, with the body's SHA-256, on stderr."""
    manifest["output_sha256"] = hashlib.sha256(body.encode("utf-8")).hexdigest()
    line = _json(manifest)  # before the body, so that a failure prints nothing
    sys.stdout.write(body)
    print(line, file=sys.stderr)


def _file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@contextlib.contextmanager
def _file_errors(what: str):
    """A failed open, read or write in the block is a usage error naming
    ``what``, not a traceback."""
    try:
        yield
    except OSError as exc:
        raise ConfigurationError(f"{what}: {exc.strerror or exc}") from None


def _require_writable(flag: str, path: str) -> None:
    """Refuse a directory, or a path in a missing or unwritable directory,
    before any run.  Nothing is opened, so a failed run truncates no file."""
    directory = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise ConfigurationError(f"{flag} {path!r}: is a directory")
    if not os.path.isdir(directory):
        raise ConfigurationError(f"{flag} {path!r}: no directory {directory!r}")
    if not os.access(directory, os.W_OK):
        raise ConfigurationError(f"{flag} {path!r}: directory {directory!r} is not writable")


def _band(args) -> VolatilityBand:
    return VolatilityBand(sigma_lo=args.sigma_lo, sigma_hi=args.sigma_hi)


def _read_options(args, readers: dict) -> dict:
    """Resolve the options a run reads and reject the others that are set.

    ``readers`` maps an option's dest to (reader, read, default): a run
    reads it when ``read`` holds, and an unset one takes ``default``.  An
    unread option would change no output byte yet enter the manifest.
    """
    resolved = {}
    for name, (reader, read, default) in readers.items():
        value = getattr(args, name)
        if read:
            resolved[name] = default if value is None else value
        elif value is not None:
            flag = "--" + name.replace("_", "-")
            raise ConfigurationError(f"{flag} is read only with {reader}")
    return resolved


# --------------------------------------------------------------------------
# capacity


def cmd_capacity(args) -> int:
    band = _band(args)
    opts = _read_options(args, {
        "alpha": ("no --c", args.c is None, None),
        "sided": ("no --c", args.c is None, "two"),
        "nx": ("--pde", args.pde, 2401),
    })
    if args.c is not None:
        c = args.c
        if not math.isfinite(c):
            raise DomainError(f"--c must be finite, got {c!r}")
    elif opts["alpha"] is None:
        raise DomainError("provide --c, or --alpha with --sided")
    else:
        c = tail_threshold(opts["alpha"], band, opts["sided"])
    t = args.t
    if not t >= 0.0:
        raise DomainError(f"time horizon must be >= 0, got {t!r}")
    if t == math.inf:
        raise DomainError("time horizon must be finite, got inf")
    payload: dict = {
        "sigma_lo": band.sigma_lo,
        "sigma_hi": band.sigma_hi,
        "c": c,
        "t": t,
        "p1": p1(c, band),
    }
    try:
        payload["p2_approx"] = p2_approx(c, band).value
        payload["abs_error_bound"] = two_sided_error_bound(c, t, band)
        payload["rel_error_bound"] = relative_error_bound(c, t, band)
    except DomainError:
        # Outside the regime where the bounds hold: null fields unless required.
        if args.bounds:
            raise
        payload.update(p2_approx=None, abs_error_bound=None, rel_error_bound=None)

    if args.pde:
        grid = default_two_sided_grid(c, band, nx=opts["nx"])
        sol = solve(IndicatorAbsAbove(c), band, grid, max_levels=2)
        payload["p2_numeric"] = sol.value_at_final(0.0)
        payload["pde_grid"] = {
            "nx": grid.nx,
            "dx": grid.dx,
            "x_min": grid.x_min,
            "x_max": grid.x_max,
            "t_end": grid.t_end,
            "safety": grid.safety,
            "n_steps": sol.n_steps,
            "dt": sol.dt,
            "snapped_c": sol.snapped_c,
        }

    _emit_json(payload, _manifest(args, **opts))
    return 0


# --------------------------------------------------------------------------
# solve


def _load_table(path: str):
    with _file_errors(f"cannot read table {path!r}"), open(path, encoding="utf-8") as fh:
        lines = [line.strip() for line in fh]
    rows = [line for line in lines if line and not line.startswith("#")]
    xs, ys = [], []
    for k, line in enumerate(rows):
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ConfigurationError(f"table row needs two columns: {line!r}")
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            if k == 0:
                continue  # the first line may be a header
            raise ConfigurationError(f"bad table row {line!r}") from exc
        xs.append(x)
        ys.append(y)
    return LipschitzTable(xs, ys)


def cmd_solve(args) -> int:
    band = _band(args)
    indicator = not args.ic.startswith("table:")
    _read_options(args, {"c": ("--ic one-sided or two-sided", indicator, None)})
    _require_writable("--out", args.out)
    _require_writable("--out", args.out + ".manifest.json")
    if args.ic in ("one-sided", "two-sided"):
        if args.c is None:
            raise DomainError(f"--ic {args.ic} requires --c")
        ic = IndicatorAbove(args.c) if args.ic == "one-sided" else IndicatorAbsAbove(args.c)
        default = default_two_sided_grid(args.c, band, nx=args.nx, t_end=args.t_end)
        ends = default.x_min, default.x_max
    elif args.ic.startswith("table:"):
        ic = _load_table(args.ic[len("table:"):])
        ends = ic.x[0], ic.x[-1]
    else:
        raise DomainError(f"--ic must be one-sided, two-sided or table:<path>, got {args.ic!r}")
    x_min = ends[0] if args.x_min is None else args.x_min
    x_max = ends[1] if args.x_max is None else args.x_max

    grid = GridSpec(
        x_min=x_min, x_max=x_max, nx=args.nx, t_end=args.t_end, safety=args.safety
    )
    sol = solve(ic, band, grid, max_levels=args.levels)
    manifest = _manifest(args, x_min=x_min, x_max=x_max)
    manifest["solution"] = {
        "n_steps": sol.n_steps,
        "dt": sol.dt,
        "snapped_c": sol.snapped_c,
        "levels_kept": int(sol.times.size),
    }
    manifest_path = args.out + ".manifest.json"
    with _file_errors(f"cannot write {args.out!r}"):
        sol.write_csv(args.out)
        manifest["output_sha256"] = {args.out: _file_sha256(args.out)}
        text = _json(manifest, indent=2)
        with open(manifest_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(f"wrote {args.out} and {manifest_path}", file=sys.stderr)
    print(f"diagnostics: {json.dumps(sol.diagnostics)}", file=sys.stderr)
    return 0


# --------------------------------------------------------------------------
# threshold


def cmd_threshold(args) -> int:
    band = _band(args)
    rows = two_sided_threshold(band, args.alpha, args.levels, nx=args.nx)
    constant_band = band.is_classical
    lines = ["time_remaining,threshold,flag"]
    for row in rows:
        flags = [row.flag] if row.flag else []
        if constant_band:
            flags.append("constant-band")
        lines.append(f"{row.time_remaining!r},{row.threshold!r},{'+'.join(flags)}")
    _emit_text("\n".join(lines) + "\n", _manifest(args))
    return 0


# --------------------------------------------------------------------------
# simulate


def _build_policy(args, band: VolatilityBand, opts: dict):
    if args.policy == "constant":
        return constant_policy(band, args.n, opts["sigma"])
    if args.policy == "one-sided-opt":
        return one_sided_optimal_policy(band, args.n, args.alpha)
    if args.policy == "two-sided-thresh":
        rows = two_sided_threshold(band, args.alpha, opts["table_levels"])
        return two_sided_threshold_policy(band, args.n, rows)
    if args.policy == "heuristic-t":
        return heuristic_t_policy(band, args.n, args.alpha)
    raise DomainError(f"unknown policy {args.policy!r}")


def cmd_simulate(args) -> int:
    band = _band(args)
    opts = _read_options(args, {
        "sigma": ("--policy constant", args.policy == "constant", band.sigma_hi),
        "table_levels": ("--policy two-sided-thresh", args.policy == "two-sided-thresh", 50),
        "sigma_ref": ("--stat z", args.stat == "z", band.sigma_hi),
    })
    if args.hist is not None:
        _require_writable("--hist", args.hist)
    test = TestSpec(
        sided=args.sided,
        alpha=args.alpha,
        statistic=args.stat,
        sigma_ref=opts.get("sigma_ref"),
    )
    config = SimulationConfig(
        n=args.n, reps=args.reps, policy=_build_policy(args, band, opts), test=test,
        seed=args.seed, workers=args.workers,
    )
    report = run(config)
    payload = report.to_json_dict()

    print(f"diagnostics: {json.dumps(report.diagnostics)}", file=sys.stderr)
    manifest = _manifest(args, **opts)
    if args.hist is not None:
        with _file_errors(f"cannot write {args.hist!r}"):
            report.histogram.write_csv(args.hist)
            manifest["file_sha256"] = {args.hist: _file_sha256(args.hist)}
    _emit_json(payload, manifest)
    return 0


# --------------------------------------------------------------------------
# repro


# Targets, tolerances and sizes of the headline checks, shared with the
# acceptance tests (criteria 1, 4 and 5).
REPRO_BAND = VolatilityBand(sigma_lo=0.8, sigma_hi=1.0)
REPRO_ALPHA = 0.05
CAPACITY_POINTS = (  # (level, digits, rounded, rel_cap)
    (0.95, 2, 0.11, 2e-3),
    (0.975, 3, 0.056, 4e-4),
    (0.995, 3, 0.011, 5e-6),
)
LIMIT_N, LIMIT_REPS, LIMIT_TOL = 10_000, 100_000, 0.004
LIMIT_TARGET = 2 * REPRO_ALPHA / (1.0 + REPRO_BAND.sigma_lo / REPRO_BAND.sigma_hi)
HETERO_TARGETS = ((20, 0.0565), (200, 0.0589))  # (n, rate)
# (reps, tolerance) of the t rates at full scale and under --fast.  0.20pp
# at 1e6 reps covers reference MC noise, the independent seed and the open
# critical-value convention; 1e5 reps widen it.
HETERO_FULL = (1_000_000, 0.0020)
HETERO_FAST = (100_000, 0.0045)
WILSON_Z = 3.0


def capacity_point_met(approx, digits: int, rounded: float, rel_cap: float) -> bool:
    return round(approx.value, digits) == rounded and approx.rel_error_bound < rel_cap


def above_nominal(report) -> bool:
    """The Wilson WILSON_Z lower bound of the rejection rate exceeds alpha."""
    lo, _ = wilson_interval(report.rejections, report.reps - report.degenerate, WILSON_Z)
    return lo > REPRO_ALPHA


def cmd_repro(args) -> int:
    band = REPRO_BAND
    reps, sim_tol = HETERO_FAST if args.fast else HETERO_FULL
    checks = []

    for level, digits, rounded, rel_cap in CAPACITY_POINTS:
        approx = p2_approx(norm_quantile(level), band)
        checks.append(
            (
                f"p2(Phi^-1({level}))",
                f"{approx.value:.6f} (RE bound {approx.rel_error_bound:.2e})",
                f"rounds to {rounded}, RE < {rel_cap:.0e}",
                capacity_point_met(approx, digits, rounded, rel_cap),
            )
        )

    cfg = SimulationConfig(
        n=LIMIT_N,
        reps=LIMIT_REPS,
        policy=one_sided_optimal_policy(band, LIMIT_N, REPRO_ALPHA),
        test=TestSpec(sided="one", alpha=REPRO_ALPHA, statistic="z", sigma_ref=band.sigma_hi),
        seed=args.seed,
    )
    rate = run(cfg).rate
    checks.append(
        (
            "one-sided limit n=1e4",
            f"{rate:.5f}",
            f"|rate - {LIMIT_TARGET:.5f}| <= {LIMIT_TOL}",
            abs(rate - LIMIT_TARGET) <= LIMIT_TOL,
        )
    )

    for n, expected in HETERO_TARGETS:
        cfg = SimulationConfig(
            n=n,
            reps=reps,
            policy=heuristic_t_policy(band, n, REPRO_ALPHA),
            test=TestSpec(sided="two", alpha=REPRO_ALPHA, statistic="t"),
            seed=args.seed,
        )
        report = run(cfg)
        checks.append(
            (
                f"two-sided t rate n={n}",
                f"{report.rate:.5f}",
                f"|rate - {expected}| <= {sim_tol} and > {REPRO_ALPHA} by {WILSON_Z:g} Wilson SDs",
                abs(report.rate - expected) <= sim_tol and above_nominal(report),
            )
        )

    width = max(len(c[0]) for c in checks)
    all_ok = all(ok for *_, ok in checks)
    lines = [
        f"{'PASS' if ok else 'FAIL'}  {name:<{width}}  {got}  [{want}]"
        for name, got, want, ok in checks
    ]
    lines.append("all checks passed" if all_ok else "SOME CHECKS FAILED")
    _emit_text("\n".join(lines) + "\n", _manifest(args))
    return 0 if all_ok else PROPERTY_FAILURE


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnormal",
        description="Tail capacities of the G-normal distribution: closed forms, "
        "PDE oracle, and adversarial variance-control simulations.",
    )
    parser.add_argument("--version", action="version", version=f"gnormal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_band(p):
        p.add_argument("--sigma-lo", type=float, required=True)
        p.add_argument("--sigma-hi", type=float, required=True)

    p = sub.add_parser("capacity", help="closed-form capacities and error bounds")
    add_band(p)
    p.add_argument("--c", type=float, default=None, help="threshold")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--sided", choices=("one", "two"), default=None,
                   help="tail of --alpha (default two); without --c only")
    p.add_argument("--t", type=float, default=1.0, help="time horizon for the bounds")
    p.add_argument("--bounds", action="store_true", help="require the error bounds")
    p.add_argument("--pde", action="store_true", help="also solve p2 numerically")
    p.add_argument("--nx", type=int, default=None, help="space points for --pde (default 2401)")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("solve", help="solve the nonlinear heat equation to CSV")
    add_band(p)
    p.add_argument("--ic", required=True, help="one-sided | two-sided | table:<path>")
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--nx", type=int, default=2001)
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--safety", type=float, default=0.8)
    p.add_argument("--levels", type=int, default=201, help="retained time levels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("threshold", help="two-sided policy thresholds from w_xx = 0")
    add_band(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--levels", type=int, default=20)
    p.add_argument("--nx", type=int, default=1201)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("simulate", help="Monte Carlo rejection-rate experiment")
    add_band(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--reps", type=int, required=True)
    p.add_argument(
        "--policy",
        choices=("constant", "one-sided-opt", "two-sided-thresh", "heuristic-t"),
        required=True,
    )
    p.add_argument("--sigma", type=float, default=None,
                   help="constant policy value (default sigma-hi)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--sided", choices=("one", "two"), required=True)
    p.add_argument("--stat", choices=("z", "t"), required=True)
    p.add_argument("--sigma-ref", type=float, default=None,
                   help="z scale (default sigma-hi); --stat z only")
    p.add_argument("--table-levels", type=int, default=None,
                   help="threshold table rows for two-sided-thresh (default 50)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1, help="at least this many processes")
    p.add_argument("--hist", default=None, help="write histogram CSV here")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("repro", help="re-run the headline numbers and report PASS/FAIL")
    p.add_argument("--fast", action="store_true", help="desk scale: reps=1e5, wider tolerances")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR
    except GNormalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
