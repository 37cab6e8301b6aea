import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pciclone
import pciclone.cli
from pciclone import gain_from_amplitudes, machine, montecarlo
from pciclone.cli import SWEEP_HEADER, build_parser, main
from pciclone.errors import ConvergenceError

import oracles

Z_COLUMNS = ["z_mean_x", "z_mean_p", "z_var_x", "z_var_p", "z_fidelity"]


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    return code, capsys.readouterr().out


def csv_table(text):
    """The roles and the (K, 5) z table of verify's CSV, whose rows are
    modes 0 to K - 1 in order."""
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [list(row) for row in rows] == [["mode", "role", *Z_COLUMNS]] * len(rows)
    assert [int(row["mode"]) for row in rows] == list(range(len(rows)))
    return [row["role"] for row in rows], np.array(
        [[float(row[c]) for c in Z_COLUMNS] for row in rows]).reshape(-1, 5)


def assert_summary_of(comparison, roles, z):
    """The JSON summary ``comparison`` is that of the table (``roles``,
    ``z``), mode by mode: counts, modes and flagged rows exactly, means
    and spreads to 1e-12 relative."""
    want = oracles.comparison_summary(roles, z, comparison["threshold"])
    assert comparison["flagged"] == want["flagged"]
    assert list(comparison["by_role"]) == list(want["by_role"])
    for role, entry in comparison["by_role"].items():
        expected = want["by_role"][role]
        for key in ("modes", "above", "worst_mode", "worst_z"):
            assert entry[key] == expected[key], (role, key)
        for key in ("mean", "spread"):
            np.testing.assert_allclose(entry[key], expected[key], rtol=1e-12, atol=0)


class TestReport:
    def test_json_keys_and_values(self, capsys):
        code, out = run_cli(capsys, "report", 1, 1, 3)
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "gain",
            "n_th_clone",
            "n_th_anticlone",
            "var_clone",
            "var_anticlone",
            "f_clone",
            "f_anticlone",
            "baseline_var",
            "baseline_f",
            "baseline_f_anticlone",
            "measurement_limit_noise",
        ]
        assert doc["f_clone"] == pytest.approx(9 / 10, rel=1e-12)
        assert doc["baseline_f"] == pytest.approx(6 / 7, rel=1e-12)
        assert doc["measurement_limit_noise"] == pytest.approx(0.25, rel=1e-12)

    def test_headline_numbers(self, capsys):
        code, out = run_cli(capsys, "report", 1, 1, 2)
        doc = json.loads(out)
        assert doc["var_clone"] == pytest.approx(0.5625, abs=1e-15)
        assert doc["f_clone"] == pytest.approx(16 / 17, rel=1e-14)

    def test_no_anticlone_fields_serialize_empty(self, capsys):
        code, out = run_cli(capsys, "report", 2, 0, 2, "--format", "csv")
        assert code == 0
        header, values = out.strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert row["n_th_anticlone"] == ""
        assert float(row["gain"]) == pytest.approx(1.0)  # M=N, no added noise
        assert float(row["n_th_clone"]) == pytest.approx(0.0, abs=1e-15)

    def test_attenuation_exit_code(self, capsys):
        code, out = run_cli(capsys, "report", 2, 1, 1)
        assert code == 2

    def test_split_matches_counts(self, capsys):
        _, split_out = run_cli(capsys, "report", 8, 0.25, 16, "--split")
        _, count_out = run_cli(capsys, "report", 6, 2, 16)
        assert json.loads(split_out) == json.loads(count_out)

    def test_split_requires_integral_counts(self, capsys):
        code, _ = run_cli(capsys, "report", 8, 0.3, 16, "--split")
        assert code == 2

    @pytest.mark.parametrize(
        "n, a, n_conj",
        [(10**8, 0.29, 29_000_000), (10**10, 0.07, 700_000_000),
         (10**10, 0.41, 4_100_000_000)],
    )
    def test_split_count_within_one_rounded_product(self, capsys, n, a, n_conj):
        # 0.29 * 1e8 reads 28999999.999999996: a and the product each
        # round once, which no absolute count tolerance follows as n grows.
        code, split_out = run_cli(capsys, "report", f"{n:.0e}", a, n, "--split")
        assert code == 0
        _, count_out = run_cli(capsys, "report", n - n_conj, n_conj, n)
        assert json.loads(split_out) == json.loads(count_out)

    @pytest.mark.parametrize(
        "argv", [("nan", 1, 2), (1, "inf", 2), (1, 1, "inf"), ("nan", 0.5, 4, "--split")]
    )
    def test_non_finite_count_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, "report", *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("env", [None, "0.45"])
    @pytest.mark.parametrize("count", ["1.4", "1.0000000001"])
    def test_counts_must_be_exact_integers(self, capsys, monkeypatch, count, env):
        # PCICLONE_TOL is the certificate tolerance of solve and verify;
        # report reads no tolerance at all.
        if env is not None:
            monkeypatch.setenv("PCICLONE_TOL", env)
        code, out = run_cli(capsys, "report", count, 1, 2)
        assert code == 2
        assert out == ""


class TestSweep:
    def test_header_and_feasible_rows(self, capsys):
        code, out = run_cli(capsys, "sweep", 8, 8, "--a-steps", 5)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        rows = [dict(zip(SWEEP_HEADER.split(","), ln.split(","))) for ln in lines[1:]]
        assert [float(r["a"]) for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert float(rows[0]["n_th"]) == pytest.approx(0.0, abs=1e-15)
        assert float(rows[-1]["n_th"]) == pytest.approx(0.125, rel=1e-12)
        assert float(rows[-1]["sqrt_n_th"]) == pytest.approx(
            math.sqrt(0.125), rel=1e-12
        )

    def test_conjugate_end_independent_of_m(self, capsys):
        code, out = run_cli(capsys, "sweep", 8, 16, 32, 64, "--a-steps", 3)
        lines = out.strip().splitlines()[1:]
        ends = [ln for ln in lines if ln.split(",")[2] == "1"]
        assert len(ends) == 3
        for ln in ends:
            row = dict(zip(SWEEP_HEADER.split(","), ln.split(",")))
            assert float(row["n_th"]) == pytest.approx(0.125, rel=1e-12)

    def test_rows_ordered_by_m_then_a(self, capsys):
        _, out = run_cli(capsys, "sweep", 4, 8, 4, "--a-steps", 3)
        keys = [
            (float(ln.split(",")[1]), float(ln.split(",")[2]))
            for ln in out.strip().splitlines()[1:]
        ]
        assert keys == sorted(keys)

    def test_infeasible_corner_skipped(self, capsys):
        # M=4 < n=8: the standard end a=0 implies more inputs than clones.
        _, out = run_cli(capsys, "sweep", 8, 4, "--a-steps", 5)
        a_values = [float(ln.split(",")[2]) for ln in out.strip().splitlines()[1:]]
        assert 0.0 not in a_values
        assert 0.25 not in a_values  # (1-a)n = 6 still exceeds M
        assert 0.5 in a_values

    def test_csv_round_trip(self, capsys):
        _, out = run_cli(capsys, "sweep", 8, 16, "--a-steps", 9)
        reader = csv.DictReader(io.StringIO(out))
        for row in reader:
            a = float(row["a"])
            g = float(row["G"])
            assert float(row["n_th"]) == pytest.approx((g - 1) / 16, rel=1e-12)
            assert float(row["N"]) == pytest.approx((1 - a) * 8, abs=1e-12)
            assert float(row["Nc"]) == pytest.approx(a * 8, abs=1e-12)

    @pytest.mark.parametrize(
        "argv",
        [
            ("nan", 8),
            ("inf", 8),
            (0, 8, "--a-steps", 3),
            (-2, 8),
            (4, "nan"),
            (4, 8, "inf"),
            (4, 0),
            (4, 8, -1),
            (4, 8, "--a-steps", 0),
        ],
    )
    def test_invalid_input_exit_code(self, capsys, argv):
        code, out = run_cli(capsys, "sweep", *argv)
        assert code == 2
        assert out == ""

    def test_single_a_step(self, capsys):
        code, out = run_cli(capsys, "sweep", 4, 8, "--a-steps", 1)
        assert code == 0
        assert [ln.split(",")[2] for ln in out.strip().splitlines()[1:]] == ["0"]

    @pytest.mark.parametrize("fmt,want", [("csv", SWEEP_HEADER), ("json", "[]")])
    def test_all_points_in_corner_prints_header_alone(self, capsys, fmt, want):
        code, out = run_cli(capsys, "sweep", 8, 4, "--a-steps", 1, "--format", fmt)
        assert code == 0
        assert out == want + "\n"

    def test_noise_without_cancellation(self, capsys):
        code, out = run_cli(capsys, "sweep", 1, 1e-17, "--a-steps", 2, "--format", "json")
        assert code == 0
        (row,) = json.loads(out)  # a = 0 lies in the attenuation corner
        assert (row["a"], row["n_th"], row["sqrt_n_th"]) == (1.0, 1.0, 1.0)

    def test_one_closed_form_evaluation_per_row(self, capsys, monkeypatch):
        calls = []
        real = machine._gain_and_excess

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(machine, "_gain_and_excess", spy)
        _, out = run_cli(capsys, "sweep", 8, 4, 16, "--a-steps", 5)
        assert len(calls) == len(out.strip().splitlines()) - 1 == 8

    def test_json_format(self, capsys):
        _, out = run_cli(capsys, "sweep", 2, 2, "--a-steps", 3, "--format", "json")
        rows = json.loads(out)
        assert [r["a"] for r in rows] == [0.0, 0.5, 1.0]
        assert rows[1]["G"] == pytest.approx(9 / 8, rel=1e-12)


class TestOptimize:
    def test_standard_is_best_when_m_equals_n(self, capsys):
        code, out = run_cli(capsys, "optimize", 8, 8)
        assert code == 0
        doc = json.loads(out)
        assert doc["a_star"] == 0.0
        assert doc["n_th"] == pytest.approx(0.0, abs=1e-12)

    def test_interior_optimum(self, capsys):
        _, out = run_cli(capsys, "optimize", 8, 16)
        doc = json.loads(out)
        assert 0.0 < doc["a_star"] < 0.5
        assert doc["a_star"] == pytest.approx(0.25, abs=1e-6)

    def test_convergence_failure_exit_code(self, capsys, monkeypatch):
        def boom(*a, **k):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(pciclone.cli, "minimize_asymmetry", boom)
        code, _ = run_cli(capsys, "optimize", 8, 16)
        assert code == 3

    def test_noise_without_cancellation(self, capsys):
        code, out = run_cli(capsys, "optimize", 1, 1e-17)
        assert code == 0
        assert json.loads(out)["n_th"] == 1.0

    def test_non_finite_exit_code(self, capsys):
        code, out = run_cli(capsys, "optimize", "inf", 4)
        assert code == 2
        assert out == ""


class TestSolve:
    def test_conjugate_only_amplifier(self, capsys):
        code, out = run_cli(capsys, "solve", 0, 1, 1)
        assert code == 0
        doc = json.loads(out)
        assert doc["gain"] == pytest.approx(2.0, rel=1e-8)
        assert doc["converged"] is True

    def test_domain_error_exit_code(self, capsys):
        code, _ = run_cli(capsys, "solve", 2, 1, 1)
        assert code == 2

    def test_csv_format(self, capsys):
        _, out = run_cli(capsys, "solve", 0, 1, 1, "--format", "csv")
        header, values = out.strip().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        assert float(row["gain"]) == pytest.approx(2.0, rel=1e-8)
        assert row["converged"] == "true"

    def test_certificate_fields(self, capsys):
        _, out = run_cli(capsys, "solve", 0.5, 1, 1.5)
        doc = json.loads(out)
        assert -0.5 < doc["multiplier"] < 0.5
        assert doc["min_curvature"] >= 0.0

    def test_large_alpha_over_beta_is_certified(self, capsys):
        # The secular search refused this point with constraint residual
        # 19 and min curvature -2e9, and exited 3.
        code, out = run_cli(capsys, "solve", 0.001, 1e-12, 100)
        assert code == 0
        doc = json.loads(out)
        assert doc["gain"] == pytest.approx(
            gain_from_amplitudes(0.001, 1e-12, 100), rel=1e-12
        )
        assert doc["iterations"] == 0

    def test_non_finite_exit_code(self, capsys):
        code, out = run_cli(capsys, "solve", 0, 1, "nan")
        assert code == 2
        assert out == ""

    def test_restarts_flag_removed(self, capsys):
        with pytest.raises(SystemExit):
            main(["solve", "0", "1", "1", "--restarts", "3"])


class TestVerify:
    def test_passing_run(self, capsys):
        code, out = run_cli(capsys, "verify", 1, 0, 1, 100, 7)
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["structural_pass"] is True
        assert doc["samples"] == 100
        assert doc["seed"] == 7

    def test_two_clone_machine(self, capsys):
        code, out = run_cli(capsys, "verify", 1, 1, 2, 50000, 42)
        assert code == 0
        doc = json.loads(out)
        assert doc["Mc"] == 2
        assert doc["comparison"]["passed"] is True

    def test_certificates_take_one_product(self, capsys, monkeypatch):
        # Both residuals and simulate's gate read one probe pass through
        # the machine's stages, its only transposed push; no other map is
        # certified.
        calls, pushes = [], []
        real = machine._Network._push
        real_bound = machine._probe_bound

        def spy(k, push):
            calls.append(k)
            return real_bound(k, push)

        def push_spy(self, a, transpose=False, first=0, stop=None):
            pushes.append((a.shape, transpose))
            return real(self, a, transpose, first, stop)

        monkeypatch.setattr(pciclone.canonical, "_probe_bound", spy)
        monkeypatch.setattr(pciclone.gaussian, "_probe_bound", spy)
        monkeypatch.setattr(machine, "_probe_bound", spy)
        monkeypatch.setattr(machine._Network, "_push", push_spy)
        code, out = run_cli(capsys, "verify", 2, 1, 5, 1000, 3)
        assert code == 0
        assert calls == [10]
        probes = machine._PROBES
        # K = 10: the probes back and forth, then one panel of F's 20
        # columns after the sample mean.
        assert pushes == [((10, probes), True), ((10, probes), False),
                          ((10, 21), False)]
        doc = json.loads(out)
        assert doc["commutation_residual"] == doc["symplectic_residual"]
        assert 0.0 < doc["commutation_residual"] <= 1e-13

    def test_large_machine_certifies_at_the_default_tol(self):
        # K = 99,999 modes: a bound on the whole of E grows with sqrt(2K)
        # (it read 3.2e-10), the per-mode bound does not (1.3e-12).  The
        # certificate is asserted, not the exit code: 500k z-scores at
        # n = 100 cross 5 now and then by chance.
        network, _ = machine._network(machine.CloningConfig(1, 0, 50000))
        assert network.mode_count == 99_999
        assert pciclone.canonical.commutation_residual(network) <= 1e-10

    def test_certificates_repeat_whatever_the_seed(self, capsys):
        # The probes come from a generator of their own, not the sampling
        # stream: two runs, and runs of other seeds, certify alike.
        docs = [json.loads(run_cli(capsys, "verify", 2, 2, 9, 500, seed)[1])
                for seed in (1, 1, 2)]
        fields = [(d["commutation_residual"], d["symplectic_residual"],
                   d["meta"]["certificate"]) for d in docs]
        assert fields[0] == fields[1] == fields[2]
        assert docs[0]["comparison"] == docs[1]["comparison"]
        assert docs[0]["comparison"] != docs[2]["comparison"]

    def test_perturbed_amplifier_fails_the_certificate(self, capsys, monkeypatch):
        # sqrt(G - 1) off by 1e-6 relative: no longer canonical.
        real = machine.pcia_transform

        def perturbed(gain):
            amp = real(gain)
            return pciclone.canonical.CanonicalTransform(
                amp.m_matrix, amp.l_matrix * (1 + 1e-6))

        monkeypatch.setattr(machine, "pcia_transform", perturbed)
        code, out = run_cli(capsys, "verify", 2, 2, 6, 1000, 3)
        assert code == 1
        doc = json.loads(out)
        assert doc["structural_pass"] is False
        assert doc["passed"] is False
        assert doc["commutation_residual"] > 1e-7
        # Failed before sampling: no z table, in JSON or CSV.
        assert doc["comparison"] is None
        code, out = run_cli(capsys, "verify", 2, 2, 6, 1000, 3, "--format", "csv")
        assert code == 1
        assert out == "mode,role,z_mean_x,z_mean_p,z_var_x,z_var_p,z_fidelity\n"

    @pytest.mark.parametrize("counts, k", [((1, 1, 2), 4), ((2, 2, 6), 14),
                                           ((4, 4, 300), 606)])
    def test_verify_peak_within_plan(self, capsys, counts, k):
        # A warmed run traces its K-sized arrays and the parser and output
        # document, _VERIFY_BYTES whatever K: within the plan at small K
        # as at large.
        argv = ("verify", *counts, 100_000, 3)
        config = machine.CloningConfig(*counts)
        assert machine._block_starts(config)[3] == k
        run_cli(capsys, *argv)
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= machine._working_set(config, 100_000)

    def test_verify_holds_only_the_factor(self, capsys, monkeypatch):
        # At K = 606 and n - 1 >= 2K, F is 2K x 2K, 11.8 MB.  Only the
        # stages are built, no (M, L), and F is drawn one panel at a time
        # as it is pushed: a run holds the layout and one panel, or the
        # probes, within its planned working set and far below F.  Holding
        # F traced just above F; the (M, L) pair alone would be another F.
        def unreachable(config):
            raise AssertionError("build_machine called on the verify path")

        monkeypatch.setattr(machine, "build_machine", unreachable)
        run_cli(capsys, "verify", 2, 2, 130, 600, 1)  # first-use imports
        k, samples = 606, 4096
        f_nbytes = 16 * k * min(2 * k, samples - 1)
        tracemalloc.start()
        try:
            code, _ = run_cli(capsys, "verify", 4, 4, 300, samples, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 0.25 * f_nbytes
        assert peak <= machine._working_set(machine.CloningConfig(4, 4, 300), samples)

    def test_working_set_beyond_memory_exits_2(self, capsys, monkeypatch):
        # Refused before the layout is built; the sampling and
        # certificate working set is one panel of F plus the probes.
        monkeypatch.setattr(machine, "_physical_memory", lambda: 10**5)

        def unreachable(config):
            raise AssertionError("layout built past the memory guard")

        monkeypatch.setattr(machine, "_machine_layout", unreachable)
        code = main(["verify", "1", "1", "30", "100", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1

    def test_attenuation_exit_code(self, capsys):
        code, _ = run_cli(capsys, "verify", 3, 1, 2)
        assert code == 2

    def test_env_tolerance_fails_structural_check(self, capsys, monkeypatch):
        monkeypatch.setenv("PCICLONE_TOL", "1e-30")
        code, out = run_cli(capsys, "verify", 1, 1, 2, 1000, 1)
        assert code == 1
        assert json.loads(out)["structural_pass"] is False

    def test_explicit_tol_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PCICLONE_TOL", "1e-30")
        code, _ = run_cli(capsys, "verify", 1, 1, 2, 1000, 1, "--tol", "1e-10")
        assert code == 0

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
    def test_bad_tol_flag_exit_code(self, capsys, tol):
        code, out = run_cli(capsys, "verify", 1, 1, 2, 1000, 1, f"--tol={tol}")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("psi", ["nan+0j", "1+infj"])
    def test_non_finite_psi_rejected_before_building(self, capsys, monkeypatch, psi):
        def unreachable(config):
            raise AssertionError("machine built before the sampling check")

        monkeypatch.setattr(pciclone.cli, "_network", unreachable)
        code, out = run_cli(capsys, "verify", 1, 1, 2, 1000, f"--psi={psi}")
        assert code == 2
        assert out == ""

    def test_meta_and_timings(self, capsys):
        samples = 2 * montecarlo.BLOCK_SIZE + 1
        code, out = run_cli(capsys, "verify", 1, 0, 1, samples, 5)
        assert code == 0
        doc = json.loads(out)
        assert list(doc)[-2:] == ["meta", "timings"]
        # (1, 0, 1) has K = 2 modes; the probe bound misses a mode's
        # residual with probability (eps sqrt(2/pi))^32, a run's K times that.
        # Output version 2 summarizes the z table; stream version 1's
        # block size is no longer printed.
        assert doc["meta"] == {
            "version": pciclone.__version__,
            "output_version": 2,
            "stream_version": 8,
            "seed": 5,
            "certificate": {
                "method": "gaussian_probes",
                "probes": 32,
                "epsilon": 0.1,
                "modes": 2,
                "miss_probability": 2 * (0.1 * math.sqrt(2 / math.pi)) ** 32,
            },
        }
        assert doc["meta"]["certificate"]["miss_probability"] < 1e-34
        timings = doc["timings"]
        assert list(timings) == ["build_s", "certificates_s", "sampling_s", "scoring_s"]
        assert all(0.0 <= t < 60.0 for t in timings.values())

    def test_memory_error_in_a_block_exits_2(self, capsys, monkeypatch):
        # The allocation fails in the draw of a panel of F.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(montecarlo, "_factor_panel", exhausted)
        samples = 3 * montecarlo.BLOCK_SIZE
        code = main(["verify", "1", "0", "1", str(samples), "1"])
        assert code == 2
        assert capsys.readouterr() == ("", "error: out of memory\n")

    def test_sample_count_beyond_2_53_exit_code(self, capsys):
        code = main(["verify", "1", "1", "2", "9007199254740993"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_csv_z_table(self, capsys):
        _, out = run_cli(capsys, "verify", 1, 1, 2, 1000, 1, "--format", "csv")
        lines = out.strip().splitlines()
        assert lines[0] == "mode,role,z_mean_x,z_mean_p,z_var_x,z_var_p,z_fidelity"
        assert len(lines) == 5  # four modes

    def test_comparison_keys_and_csv_rows(self, capsys):
        # The JSON summarizes the z table that the CSV prints one row per
        # mode under mode, role and the JSON's columns.  The CSV's
        # 17-digit floats round-trip exactly, so its table gives the
        # JSON's summary mode by mode.
        argv = ("verify", 2, 1, 3, 5000, 4)
        _, out = run_cli(capsys, *argv)
        comparison = json.loads(out)["comparison"]
        assert list(comparison) == ["columns", "by_role", "flagged", "threshold",
                                    "max_abs_z", "worst", "passed"]
        assert comparison["columns"] == Z_COLUMNS
        _, out = run_cli(capsys, *argv, "--format", "csv")
        roles, z = csv_table(out)
        assert len(roles) == 6
        assert_summary_of(comparison, roles, z)
        assert comparison["max_abs_z"] == np.max(np.abs(z))
        worst = comparison["worst"]
        assert z[worst["mode"], Z_COLUMNS.index(worst["column"])] == worst["z"]
        assert roles[worst["mode"]] == worst["role"]

    def test_json_does_not_grow_with_k(self, capsys):
        # K = 31 and K = 8191: apart from their flagged rows, the two
        # documents hold the same keys and lists of the same lengths, one
        # scalar a leaf, so their sizes differ by the flagged rows and
        # the digits of their numbers.
        docs = []
        for m in (16, 4096):
            _, out = run_cli(capsys, "verify", 1, 0, m, 200, 3)
            doc = json.loads(out)
            del doc["timings"]
            docs.append(doc)

        def skeleton(node):
            if isinstance(node, dict):
                return {key: skeleton(value) for key, value in node.items()}
            if isinstance(node, list):
                return [skeleton(value) for value in node]
            return 0

        flagged = [doc["comparison"].pop("flagged") for doc in docs]
        assert skeleton(docs[0]) == skeleton(docs[1])
        clones = [doc["comparison"]["by_role"]["clone"]["modes"] for doc in docs]
        assert clones == [16, 4096]
        for doc, rows in zip(docs, flagged):
            assert len(json.dumps(doc)) < 4096
            assert len(rows) <= sum(sum(entry["above"])
                                    for entry in doc["comparison"]["by_role"].values())


GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda g: " ".join(g["argv"][1:]))
def test_verify_golden(capsys, golden):
    # Every field but the timings, as stream version 8 prints it
    # (tests/data/make_verify_golden.py writes the file): counts, flags,
    # verdicts, meta and the summary's columns, roles, counts and modes
    # exactly, residuals to 1e-14, and the z-scores, read from the CSV's
    # per-mode table, and the summary's means, spreads and scores to
    # 1e-9.  The z-scores hold on numpy's AVX2 and AVX-512 (X86_V3 and
    # X86_V4) dispatch only: its X86_V2 baseline and non-x86 platforms
    # round stream version 8's float32 cosine and sine otherwise and draw
    # other samples.
    code, out = run_cli(capsys, *golden["argv"])
    assert code == golden["exit_code"]
    doc = json.loads(out)
    assert list(doc.pop("timings")) == ["build_s", "certificates_s", "sampling_s",
                                        "scoring_s"]
    want = dict(golden["doc"])
    comparison, want_comparison = doc.pop("comparison"), want.pop("comparison")
    for key in ("commutation_residual", "symplectic_residual"):
        assert doc.pop(key) == pytest.approx(want.pop(key), rel=0, abs=1e-14)
    assert doc == want
    assert list(comparison) == list(want_comparison)
    for key in ("columns", "threshold", "passed"):
        assert comparison[key] == want_comparison[key]
    assert list(comparison["by_role"]) == list(want_comparison["by_role"])
    for role, entry in comparison["by_role"].items():
        want_entry = want_comparison["by_role"][role]
        assert list(entry) == list(want_entry)
        for key in ("modes", "above", "worst_mode"):
            assert entry[key] == want_entry[key], (role, key)
        for key in ("mean", "spread", "worst_z"):
            np.testing.assert_allclose(entry[key], want_entry[key], rtol=0, atol=1e-9)
    assert [(row["mode"], row["role"]) for row in comparison["flagged"]] == [
        (row["mode"], row["role"]) for row in want_comparison["flagged"]]
    assert comparison["max_abs_z"] == pytest.approx(want_comparison["max_abs_z"],
                                                    rel=0, abs=1e-9)
    worst = comparison["worst"]
    assert {k: worst[k] for k in ("mode", "role", "column")} == {
        k: want_comparison["worst"][k] for k in ("mode", "role", "column")}
    assert abs(worst["z"]) == comparison["max_abs_z"]
    # The per-mode route: the CSV's modes and roles exactly, its z table
    # to 1e-9, and the JSON summary is that table's, mode by mode.
    code, out = run_cli(capsys, *golden["argv"], "--format", "csv")
    assert code == golden["exit_code"]
    roles, z = csv_table(out)
    want_roles, want_z = csv_table("\n".join(golden["csv"]))
    assert roles == want_roles
    np.testing.assert_allclose(z, want_z, rtol=0, atol=1e-9)
    assert_summary_of(comparison, roles, z)
    assert z[worst["mode"], Z_COLUMNS.index(worst["column"])] == worst["z"]


@pytest.mark.parametrize("env", ["abc", "nan", "inf", "-1"])
def test_bad_tol_env_exit_code(capsys, monkeypatch, env):
    monkeypatch.setenv("PCICLONE_TOL", env)
    code, out = run_cli(capsys, "solve", 0, 1, 1)
    assert code == 2
    assert out == ""


def assert_cli_import_leaves_unloaded(module):
    src = str(Path(pciclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = f"import sys, pciclone.cli; assert {module!r} not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize(
    "argv",
    [("verify", 1, 1, 10**8), ("verify", 1, 0, 10**399),
     ("sweep", 8, 9, "--a-steps", 10**12)],
)
def test_out_of_memory_exit_code(argv):
    # Each needs hundreds of GiB: verify plans about 500 GiB for its
    # K = 2e8 modes, and 5e393 GiB, beyond the float range, for a
    # 400-digit M, and is refused before it allocates, and the sweep asks
    # numpy for its grid; the child's address space is capped at 1.5 GB
    # so that allocation fails at once.
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = str(Path(pciclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "pciclone", *map(str, argv)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, stdout, stderr, want",
    [
        (("report", 3, 0, 2), os.devnull, "/dev/full", 2),
        (("solve", 1, 1e-6, 3, "--tol", 0), os.devnull, "/dev/full", 3),
        (("report", 1, 1, 2), "/dev/full", "/dev/full", 4),
        (("report", 1, 1, 2), "/dev/full", os.devnull, 4),
    ],
)
def test_exit_code_survives_an_unwritable_stream(argv, stdout, stderr, want):
    # Every write to /dev/full fails: a failed write of the error message
    # must not turn the handler's code into a traceback's 1.
    src = str(Path(pciclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    with open(stdout, "w") as out, open(stderr, "w") as err:
        proc = subprocess.run(
            [sys.executable, "-m", "pciclone", *map(str, argv)],
            env=env, stdout=out, stderr=err, timeout=120,
        )
    assert proc.returncode == want


def test_verify_bytes_do_not_depend_on_blas_threads():
    # The verify path's one BLAS product is the 2 x 2 amplifier: the
    # DFTs are FFTs and the reductions numpy loops.  The JSON summary and
    # the CSV's per-mode table, every z bit, are compared.  Only 1 and 2
    # threads were tried, on a 2-CPU machine.
    src = str(Path(pciclone.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        argv = [sys.executable, "-m", "pciclone", "verify", "4", "4", "64", "4096", "3"]
        doc = json.loads(subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=120, check=True,
        ).stdout)
        del doc["timings"]
        table = subprocess.run(
            [*argv, "--format", "csv"], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        ).stdout
        outputs.append((json.dumps(doc), table))
    assert outputs[0] == outputs[1]


def test_verify_z_table_does_not_depend_on_avx512():
    # Stream version 8's normals take numpy's SIMD float64 log and float32
    # cosine and sine.  Their AVX2 (X86_V3) and AVX-512 (X86_V4) paths
    # give the same cosines and sines and logs that differ at most in the
    # last bit, so the z table, read from the CSV, agrees to 1e-9 with
    # the AVX-512 paths switched off.  On a machine without X86_V4 both
    # runs take the same path.  numpy's X86_V2 baseline and non-x86
    # platforms round the float32 cosine and sine differently and do not
    # repeat stream version 8's bits.
    src = str(Path(pciclone.__file__).resolve().parents[1])
    tables = []
    for disabled in (None, "X86_V4 AVX512_ICL AVX512_SPR"):
        env = {**os.environ, "PYTHONPATH": src}
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        env.pop("NPY_ENABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        proc = subprocess.run(
            [sys.executable, "-m", "pciclone", "verify", "2", "2", "6", "4096", "3",
             "--format", "csv"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        tables.append(csv_table(proc.stdout))
    assert tables[1][0] == tables[0][0]
    np.testing.assert_allclose(tables[1][1], tables[0][1], rtol=0, atol=1e-9)


def test_fresh_verify_samples_within_its_certificate_peak():
    # K = 99,999 at n = 100: the certificate's probe pass sets a fresh
    # verify's peak, about 119.3 MB on a 2-CPU Xeon with numpy 2.4, and
    # the whole run's 119.7 MB.  Sampling, run after it as verify runs
    # it, holds one panel buffer, one draw chunk and the normal kernel's
    # scratch of at most 2^12 pairs, and must not raise the process's
    # peak by more than 1 MB; a kernel whose scratch grew with the panel
    # part it turned fails this.
    src = str(Path(pciclone.__file__).resolve().parents[1])
    code = (
        "import resource\n"
        "from pciclone import machine, montecarlo\n"
        "from pciclone.canonical import commutation_residual\n"
        "def peak():\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "network, layout = machine._network(machine.CloningConfig(1, 0, 50000))\n"
        "commutation_residual(network)\n"
        "certificate = peak()\n"
        "montecarlo.simulate(network, layout, montecarlo.SampleConfig(100, 1))\n"
        "print(certificate, peak())\n"
    )
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    certificate_kb, sampled_kb = map(int, proc.stdout.split())
    assert sampled_kb - certificate_kb <= 1024


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert_cli_import_leaves_unloaded("scipy.optimize")


def test_cli_import_leaves_concurrent_futures_unloaded():
    # Sampling starts no threads; the pool's import cost about 1.8 ms.
    assert_cli_import_leaves_unloaded("concurrent.futures")


def test_cli_import_loads_no_scipy_and_no_fft():
    # The package needs no scipy, and numpy.fft loads only at the first
    # FFT, so neither adds to a verify run's start-up.
    src = str(Path(pciclone.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = ("import sys, pciclone.cli; "
            "assert not [m for m in sys.modules if m == 'scipy' "
            "or m.startswith(('scipy.', 'numpy.fft'))], sys.modules")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_cli_import_leaves_scipy_linalg_unloaded():
    # The residual certificates use numpy alone: importing scipy.linalg
    # after pciclone.cli raises peak resident memory by about 27 MB.
    assert_cli_import_leaves_unloaded("scipy.linalg")


class TestOutputFile:
    def test_out_writes_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_cli(capsys, "report", 1, 1, 2, "--out", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["f_clone"] == pytest.approx(16 / 17)

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        code = main(["report", "1", "1", "2", "--out", str(target)])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ("report", 1, 1, 2, "--seed", 3),
        ("sweep", 8, 16, "--seed", 3),
        ("optimize", 8, 16, "--seed", 3),
        ("solve", 0, 1, 1, "--seed", 3),
        ("verify", 1, 0, 1, 100, "--seed", 3),
        ("sweep", 8, 16, "--tol", "1e-9"),
        ("optimize", 8, 16, "--tol", "1e-9"),
        ("report", 1, 1, 2, "--tol", "0.45"),
    ],
)
def test_unread_flag_rejected(capsys, argv):
    with pytest.raises(SystemExit):
        main([str(a) for a in argv])


def test_option_count():
    # argparse destinations summed over the subcommands: the CLI takes
    # only values that some command reads.
    subs = next(
        action for action in build_parser()._actions
        if action.dest == "command"
    )
    dests = {
        name: [a.dest for a in sub._actions if a.dest != "help"]
        for name, sub in subs.choices.items()
    }
    assert sum(map(len, dests.values())) == 30
    assert "seed" not in dests["solve"] and "tol" not in dests["sweep"]
    assert "tol" not in dests["report"]


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "1e-310", 8),
        ("sweep", "1e-310", 8),
        ("optimize", "1e-200", "1e-200"),
        ("sweep", "1e-200", "1e-200"),
        ("report", "1e200", 1, "1e200"),
        ("optimize", "1e300", "1e-300"),
    ],
)
def test_closed_form_out_of_float_range_exit_code(capsys, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""


def run_isolated(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _refuse_constant(name):
    raise AssertionError(f"JSON output contains {name}")


def assert_clean_exit(argv, fmt):
    code, out, err = run_isolated([str(a) for a in argv])
    assert code in (0, 1, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    if fmt == "json" and code in (0, 1):
        json.loads(out, parse_constant=_refuse_constant)


# Every float: subnormal, huge, NaN, infinite, plus magnitudes that
# overflow or underflow the closed forms' intermediate products.
ANY_FLOAT = st.floats() | st.sampled_from(
    [5e-324, 1e-310, 1e-200, -1e-300, 1e200, 1e300, -1e300, 1e308]
)
ARITY = {"report": 3, "sweep": 3, "optimize": 2, "solve": 3}


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(sorted(ARITY)),
    values=st.lists(ANY_FLOAT, min_size=3, max_size=3),
    fmt=st.sampled_from(["json", "csv"]),
    split=st.booleans(),
    a_steps=st.integers(-1, 12),
    tol=ANY_FLOAT,
)
@example("optimize", [1e-310, 8.0, 0.0], "json", False, 3, 1e-9)
@example("sweep", [1e-200, 1e-200, 1.0], "json", False, 3, 1e-9)
@example("report", [1e200, 1.0, 1e200], "json", False, 3, 1e-9)
@example("optimize", [1e300, 1e-300, 0.0], "json", False, 3, 1e-9)
@example("optimize", [1e-310, 1e308, 0.0], "json", False, 3, 1e-9)
@example("solve", [1.0, 1.0, 2e13], "json", False, 3, 1e-9)
def test_fuzz_closed_form_commands(command, values, fmt, split, a_steps, tol):
    argv = [command, "--format", fmt]
    if command == "report":
        argv += ["--split"] * split
    if command == "sweep":
        argv += ["--a-steps", a_steps]
    if command == "solve":
        argv += [f"--tol={tol!r}"]
    assert_clean_exit(argv + ["--", *map(repr, values[: ARITY[command]])], fmt)


@settings(max_examples=40, deadline=None)
@given(
    counts=st.tuples(st.integers(-1, 3), st.integers(-1, 3), st.integers(-1, 4)),
    samples=st.integers(-1, 64),
    seed=st.integers(-1, 2**64),
    psi=st.complex_numbers(),
    tol=ANY_FLOAT,
    fmt=st.sampled_from(["json", "csv"]),
)
@example((0, 1, 1), 2, 0, 1592262918131445j, 0.0, "json")
@example((0, 1, 1), 22, 0, 4.338994632913419e92j, 0.0, "json")
# sqrt(2) psi overflows: refused, not a RuntimeWarning.
@example((0, 1, 1), 2, 0, 1.2711610061536462e308j, 0.0, "json")
def test_fuzz_verify_tiny(counts, samples, seed, psi, tol, fmt):
    argv = ["verify", "--format", fmt, f"--psi={psi!r}", f"--tol={tol!r}"]
    assert_clean_exit(argv + ["--", *counts, samples, seed], fmt)
