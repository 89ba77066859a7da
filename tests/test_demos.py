"""Smoke tests: every demo script and the README's example run to completion and print."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_example_runs(capsys):
    readme = ROOT / "README.md"
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.S | re.M)
    exec(compile(block, str(readme), "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
