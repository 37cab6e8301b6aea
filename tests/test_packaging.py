"""Packaging: the version is written once, in ``pciclone.__version__``,
and the package runs on numpy alone; scipy is a test dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pciclone

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def read_pyproject():
    tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)


def test_pyproject_reads_the_version_from_the_package():
    doc = read_pyproject()
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "pciclone.__version__"
    }


def test_runtime_depends_on_numpy_alone():
    doc = read_pyproject()
    assert [d.split(">")[0] for d in doc["project"]["dependencies"]] == ["numpy"]
    test_extra = doc["project"]["optional-dependencies"]["test"]
    assert "scipy" in [d.split(">")[0] for d in test_extra]


def test_amplifier_search_loads_no_scipy():
    src = str(Path(pciclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, pciclone; pciclone.solve_amplifier(0.5, 1.0, 1.5); "
            "assert not [m for m in sys.modules if m == 'scipy' "
            "or m.startswith('scipy.')], sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
