"""What the benchmark harness in ``perfbench/`` needs of the package.

The tracer rebinds names of ``pciclone`` without a guard for its entry
points, the worker's ``--corrupt-expected`` mode relies on a wrong
closed form failing ``verify``, the worker's check reads fields of
``verify``'s JSON document, its design_scan op calls ``solve_amplifier``
with a seed and counts the search's iterations, and its provenance reads
``montecarlo``'s constants.  A package change that broke any of them
would otherwise break every benchmark run without failing a test.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pciclone
from pciclone import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load("perfbench_tracer", PERFBENCH / "tracer.py")


def load_worker(monkeypatch):
    # The worker imports the tracer as a top-level module.
    monkeypatch.setitem(sys.modules, "tracer", load_tracer())
    return load("perfbench_worker", PERFBENCH / "worker.py")


def corrupt_noise_report(monkeypatch):
    # The worker's patch: a clone variance 1 too large.
    original = cli.noise_report
    monkeypatch.setattr(cli, "noise_report", lambda config: dataclasses.replace(
        original(config), var_clone=original(config).var_clone + 1.0))


def test_every_entry_point_resolves():
    tracer = load_tracer()
    for attr, (module, _) in tracer.ENTRY.items():
        assert callable(getattr(getattr(pciclone, module), attr)), (module, attr)


def test_corrupt_expected_fails_verify(monkeypatch, capsys):
    corrupt_noise_report(monkeypatch)
    args = cli.build_parser().parse_args(["verify", "2", "2", "6", "4096", "1"])
    assert cli.cmd_verify(args) == 1
    capsys.readouterr()
    monkeypatch.undo()
    assert cli.cmd_verify(args) == 0


def test_worker_check_reads_verify_json(monkeypatch, capsys):
    # The worker's check of a verify op passes a real document and fails
    # one printed under its --corrupt-expected patch.
    worker = load_worker(monkeypatch)
    workload = worker.WORKLOADS["verify_deep"]
    args = cli.build_parser().parse_args(["verify", "2", "2", "6", "4096", "1"])
    api = {"cmd_verify": cli.cmd_verify}
    ok, note = workload.check(args, workload.op(api, args), False)
    assert ok and note["z5_flagged"] is False
    corrupt_noise_report(monkeypatch)
    ok, note = workload.check(args, workload.op(api, args), True)
    assert not ok and note["z5_flagged"] is True


def test_design_scan_op_and_trace_counts(monkeypatch):
    # The op passes solve_amplifier a seed and its trace counts read the
    # search's iterations; its check passes the real results and fails
    # them against the corrupted expectation.
    worker = load_worker(monkeypatch)
    workload = worker.WORKLOADS["design_scan"]
    api = worker.plain_api(pciclone)
    (point,) = workload.inputs(0, 1)
    result = workload.op(api, point)
    ok, note = workload.check(point, result, False)
    assert ok and note["gain_rel_err"] < worker.GAIN_RTOL
    assert not workload.check(point, result, True)[0]
    counts = workload.trace_counts(result)
    assert list(counts) == ["optimize.solve_amplifier.iterations"]
    assert counts["optimize.solve_amplifier.iterations"] == result[1].iterations >= 0


def test_worker_provenance(monkeypatch):
    worker = load_worker(monkeypatch)
    got = worker.provenance(0)
    assert got["stream_version"] == pciclone.montecarlo.STREAM_VERSION == 8
    assert got["block_size"] == pciclone.montecarlo.BLOCK_SIZE
    assert got["seed"] == 0
