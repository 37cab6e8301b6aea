"""The package version is written once, in ``pciclone.__version__``."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_pyproject_reads_the_version_from_the_package():
    with PYPROJECT.open("rb") as fh:
        doc = tomllib.load(fh)
    assert "version" not in doc["project"]
    assert doc["project"]["dynamic"] == ["version"]
    assert doc["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "pciclone.__version__"
    }
