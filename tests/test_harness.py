"""What the benchmark harness in ``perfbench/`` needs of the package.

The tracer rebinds names of ``pciclone`` without a guard for its entry
points, and the worker's ``--corrupt-expected`` mode relies on a wrong
closed form failing ``verify``.  A package change that broke either
would otherwise break every benchmark run without failing a test.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pciclone
from pciclone import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_resolves():
    tracer = load_tracer()
    for attr, (module, _) in tracer.ENTRY.items():
        assert callable(getattr(getattr(pciclone, module), attr)), (module, attr)


def test_corrupt_expected_fails_verify(monkeypatch, capsys):
    # The worker's patch: a clone variance 1 too large.
    original = cli.noise_report
    monkeypatch.setattr(cli, "noise_report", lambda config: dataclasses.replace(
        original(config), var_clone=original(config).var_clone + 1.0))
    args = cli.build_parser().parse_args(["verify", "2", "2", "6", "4096", "1"])
    assert cli.cmd_verify(args) == 1
    capsys.readouterr()
    monkeypatch.undo()
    assert cli.cmd_verify(args) == 0
