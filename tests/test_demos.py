"""Every demo runs to completion, from a scratch working directory so
that the files a demo writes stay out of the checkout."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(demo), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (0, None), exc.code
    assert capsys.readouterr().out
