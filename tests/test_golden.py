"""Golden checksums of small CLI runs.

The pinned ``output_sha256`` values were taken with numpy 2.4.6.  They are
the tripwire for any change to the numbers: the simulate checksums cover
the noise streams of ``simulate.RNG_SCHEME`` (per-tile SFC64 generators
seeded from ``SeedSequence`` spawn keys), which the config echo names
(numpy keeps ``SeedSequence`` and the raw SFC64 bits stable across
versions, but gives no such guarantee for ``Generator.standard_normal``),
and every policy kind; ``threshold`` and ``solve`` cover the PDE solver and
both boundary rules (closed-form values for indicator data with
sigma_lo > 0, held end values otherwise).  A change meant to alter the
Monte Carlo streams must update the simulate values, and one meant to
alter the PDE step's rounding the threshold and solve values, and say so;
any other change must leave all of them alone.
"""

import json

import pytest

from gnormal.cli import main

BAND = ["--sigma-lo", "0.8", "--sigma-hi", "1"]

SIMULATE = {
    "constant": (
        ["--n", "30", "--reps", "3000", "--policy", "constant", "--sigma", "0.9",
         "--sided", "one", "--stat", "z"],
        "7aee2dd191ec4e6195ebe9408182ff8dbfd68d97f7d85851b95d49b36582d85d",
    ),
    "one-sided-opt": (
        ["--n", "50", "--reps", "2000", "--policy", "one-sided-opt",
         "--sided", "one", "--stat", "z"],
        "6ed61fa01bd0b7fc2a648a8adf4d872d7d9fc53dbf87f5199f70f85d8e3dfff0",
    ),
    "two-sided-thresh": (
        ["--n", "40", "--reps", "2000", "--policy", "two-sided-thresh",
         "--table-levels", "20", "--sided", "two", "--stat", "z"],
        "c84b62ff41ae35ca2f825e13c1ec9f7d5bf1c999b895614903c23531aa72d5ac",
    ),
    "heuristic-t normal": (
        ["--n", "40", "--reps", "4000", "--policy", "heuristic-t",
         "--sided", "two", "--stat", "t"],
        "354e1b8396c3b70a6f176b14146c107bc937190829cf1031bd6f80f24f4eebcf",
    ),
}

SOLVE = {
    "one-sided": (
        [*BAND, "--ic", "one-sided", "--c", "1"],
        "ed4838672673b4d1928b53e4fb0b8b161d318678ddf435d2d9991facb71e46bd",
    ),
    "two-sided": (
        [*BAND, "--ic", "two-sided", "--c", "1"],
        "4a11ca283566b8a1974608b18abc3c9e4a2751bf1a8381ebde431d88202a484a",
    ),
    "two-sided sigma_lo=0": (
        ["--sigma-lo", "0", "--sigma-hi", "1", "--ic", "two-sided", "--c", "1"],
        "fcfa1e62020788c38144da0d983fb2c6d1290119b6be76e96de8577ce38ada21",
    ),
    "table": (
        [*BAND, "--ic", "table:{table}"],
        "28ce204bd93bf22508cb30868c371961f5611aae86f61a37d15647d9c3614e9b",
    ),
}

# Lipschitz datum with non-zero end values, so the held boundary shows.
TABLE = "x,y\n-3,0.25\n-1,0.5\n0,0\n0.5,1.5\n2,1\n3,0.75\n"


@pytest.mark.parametrize("policy", SIMULATE)
def test_simulate(policy, capsys):
    argv, expected = SIMULATE[policy]
    assert main(["simulate", *BAND, *argv, "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["manifest"]["output_sha256"] == expected


def test_threshold(capsys):
    assert main(["threshold", *BAND, "--alpha", "0.05", "--levels", "20"]) == 0
    manifest = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert manifest["output_sha256"] == (
        "c5c96c2a6aa0e6ca493b55b2ecced4b30e98dcc52fd9afb70c66628d73a30195"
    )


@pytest.mark.parametrize("case", SOLVE)
def test_solve_csv(case, tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(TABLE, encoding="utf-8")
    argv, expected = SOLVE[case]
    argv = [arg.format(table=table) for arg in argv]
    out = str(tmp_path / "u.csv")
    assert main(["solve", *argv, "--nx", "201", "--levels", "5", "--out", out]) == 0
    with open(out + ".manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["output_sha256"][out] == expected
