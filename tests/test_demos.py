"""Every demo script runs to the end against the current public API."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("[0-9][0-9]_*.py"))


def test_all_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # demos 02 and 03 write their files to the working directory
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out
