"""The README's library example runs as printed and prints what it says."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, str(README), "exec"), names)
    assert float(capsys.readouterr().out) == pytest.approx(0.059, abs=1e-3)
    assert names["exact_enough"] == pytest.approx(names["approx"].value, abs=5e-3)
