import dataclasses
import json
import logging
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from pciclone import canonical, gaussian, montecarlo
from pciclone.canonical import (
    CanonicalTransform,
    commutation_residual,
    to_symplectic,
)
from pciclone.errors import DomainError
from pciclone.gaussian import apply_map
from pciclone.machine import CloningConfig, build_machine, noise_report
from pciclone.montecarlo import (
    BLOCK_SIZE,
    ComparisonSummary,
    EmpiricalMoments,
    SampleConfig,
    block_normals,
    compare_to_analytic,
    simulate,
)

import oracles


def run(cfg, samples, seed, psi):
    transform, layout = build_machine(cfg)
    emp = simulate(transform, layout, SampleConfig(samples, seed, psi))
    return transform, layout, emp


class TestSampleConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            SampleConfig(1, 0)
        with pytest.raises(DomainError):
            SampleConfig(100, -1)
        with pytest.raises(DomainError):
            SampleConfig(100, 2**64)

    @pytest.mark.parametrize("count", [2**53 + 1, 2**70])
    def test_sample_count_capped_at_2_53(self, count):
        assert SampleConfig(2**53, 0).sample_count == 2**53
        with pytest.raises(DomainError, match="2\\^53"):
            SampleConfig(count, 0)

    @pytest.mark.parametrize(
        "args",
        [(2.5, 0), (100.0, 0), (True, 0), (100, 1.5), (100, "7"), (100, 0.0)],
    )
    def test_non_integral_counts_rejected(self, args):
        with pytest.raises(DomainError):
            SampleConfig(*args)

    @pytest.mark.parametrize(
        "psi", [complex("nan"), complex("inf"), complex(0, float("-inf")), float("nan")]
    )
    def test_non_finite_psi_rejected(self, psi):
        with pytest.raises(DomainError):
            SampleConfig(100, 0, psi)

    def test_defaults(self):
        cfg = SampleConfig(100, 0)
        assert cfg.psi == 0j


class TestBlockNormals:
    def test_shape_and_determinism(self):
        a = block_normals(9, 2, 64, 3)
        b = block_normals(9, 2, 64, 3)
        assert a.shape == (64, 3)
        np.testing.assert_array_equal(a, b)

    def test_stream_version_1_definition(self):
        # Block b of seed s is Philox keyed (s, b), rows of standard
        # normals; the pinned values hold the stream to every platform.
        key = np.array([2**64 - 1, 3], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key)).standard_normal((2, 2))
        got = block_normals(2**64 - 1, 3, 2, 2)
        np.testing.assert_array_equal(got, want)
        assert got.tolist() == [
            [-0.33479247164565784, 1.3845258026488851],
            [0.6203783740566545, 0.5130087603357995],
        ]

    def test_blocks_differ(self):
        a = block_normals(9, 0, 64, 3)
        b = block_normals(9, 1, 64, 3)
        assert np.max(np.abs(a - b)) > 0.1

class TestSimulate:
    def test_identity_vacuum(self):
        transform, layout, emp = run(CloningConfig(1, 0, 1), 10**5, 7, 0j)
        se = emp.var_se[0]
        for q in range(2):
            assert abs(emp.covariances[0][q, q] - 0.5) < 4 * se[q]
            assert abs(emp.means[0][q]) < 4 * emp.mean_se[0][q]

    def test_headline_machine_within_four_se(self):
        cfg = CloningConfig(1, 1, 2)
        psi = 1 + 0.5j
        transform, layout, emp = run(cfg, 2 * 10**5, 11, psi)
        rep = noise_report(cfg)
        smap = to_symplectic(transform)
        exact = apply_map(layout.input_state(psi), smap)
        for mode in layout.clone_slots:
            for q in range(2):
                assert abs(
                    emp.covariances[mode][q, q] - rep.var_clone
                ) < 4 * emp.var_se[mode][q]
                assert abs(
                    emp.means[mode][q] - exact.mean[2 * mode + q]
                ) < 4 * emp.mean_se[mode][q]

    def test_bit_identical_reruns(self):
        _, _, a = run(CloningConfig(1, 1, 2), 3 * 10**4, 123, 0.4j)
        _, _, b = run(CloningConfig(1, 1, 2), 3 * 10**4, 123, 0.4j)
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)

    def test_seed_changes_output(self):
        _, _, a = run(CloningConfig(1, 1, 2), 10**4, 1, 0j)
        _, _, b = run(CloningConfig(1, 1, 2), 10**4, 2, 0j)
        assert np.max(np.abs(a.means - b.means)) > 0

    def test_blockwise_merge_matches_single_pass(self):
        # Reconstruct the exact sample set of stream version 1 via the
        # public block generator and compare the oracle's merged block
        # moments against numpy on the full array.
        cfg = CloningConfig(1, 1, 2)
        psi = 0.3 - 0.8j
        samples = BLOCK_SIZE + BLOCK_SIZE // 3  # forces an unequal final block
        transform, layout = build_machine(cfg)
        emp = oracles.serial_simulate(transform, layout, SampleConfig(samples, 77, psi))
        s = to_symplectic(transform).matrix
        mu_in = layout.input_amplitudes(psi)
        mean_in = np.empty(2 * layout.total_modes)
        mean_in[0::2] = np.sqrt(2.0) * mu_in.real
        mean_in[1::2] = np.sqrt(2.0) * mu_in.imag
        chunks = []
        offset = 0
        block = 0
        while offset < samples:
            rows = min(BLOCK_SIZE, samples - offset)
            z = block_normals(77, block, rows, 2 * layout.total_modes)
            chunks.append((np.sqrt(0.5) * z + mean_in) @ s.T)
            offset += rows
            block += 1
        y = np.concatenate(chunks)
        assert y.shape[0] == samples
        mean = y.mean(axis=0)
        centered = y - mean
        var = (centered**2).sum(axis=0) / (samples - 1)
        for mode in range(layout.total_modes):
            np.testing.assert_allclose(
                emp.means[mode], mean[2 * mode : 2 * mode + 2], atol=1e-12
            )
            np.testing.assert_allclose(
                np.diagonal(emp.covariances[mode]),
                var[2 * mode : 2 * mode + 2],
                atol=1e-12,
            )

    def test_single_block_equals_reference_expression(self):
        # One block merged into the empty accumulator is returned as is,
        # so the stream-version-1 oracle must reproduce the moments of
        # (sigma z + mu) S^T bit for bit.
        cfg = CloningConfig(2, 1, 3)
        psi = -0.6 + 1.1j
        transform, layout = build_machine(cfg)
        emp = oracles.serial_simulate(transform, layout, SampleConfig(5000, 13, psi))
        k = layout.total_modes
        amps = layout.input_amplitudes(psi)
        mu_in = np.empty(2 * k)
        mu_in[0::2] = np.sqrt(2.0) * amps.real
        mu_in[1::2] = np.sqrt(2.0) * amps.imag
        z = block_normals(13, 0, 5000, 2 * k)
        y = (np.sqrt(0.5) * z + mu_in) @ to_symplectic(transform).matrix.T
        mean = y.mean(axis=0)
        y -= mean
        var = np.einsum("ij,ij->j", y, y) / 4999.0
        np.testing.assert_array_equal(emp.means.ravel(), mean)
        np.testing.assert_array_equal(
            np.diagonal(emp.covariances, axis1=1, axis2=2).ravel(), var
        )

    @pytest.mark.parametrize(
        "counts, samples",
        [
            # d = 8 quadratures: the Bartlett factor.
            ((1, 1, 2), 64),
            # d = 28: n - 1 < d (the trapezoidal Bartlett factor), n - 1 = d
            # and n - 1 > d (the square one).
            ((2, 2, 6), 8),
            ((2, 2, 6), 28),
            ((2, 2, 6), 29),
        ],
    )
    def test_matches_stream_1_in_law(self, counts, samples):
        # One clone's x variance, x-p covariance and x mean over 2000 runs
        # of each stream, on disjoint seeds, must pass a two-sample KS
        # test, and the variance must fit v chi^2(n - 1)/(n - 1).
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        mode = layout.clone_slots[0]
        runs = 2000

        def statistics(route, seeds):
            out = []
            for seed in seeds:
                emp = route(transform, layout, SampleConfig(samples, seed, 0.5 - 0.25j))
                out.append(
                    (emp.covariances[mode, 0, 0], emp.covariances[mode, 0, 1],
                     emp.means[mode, 0])
                )
            return np.array(out).T

        v2 = statistics(simulate, range(runs))
        v1 = statistics(oracles.serial_simulate, range(runs, 2 * runs))
        for got, want in zip(v2, v1):
            assert stats.ks_2samp(got, want).pvalue > 1e-3
        dof = samples - 1
        scaled = v2[0] * dof / noise_report(cfg).var_clone
        assert stats.kstest(scaled, stats.chi2(dof).cdf).pvalue > 1e-3

    @pytest.mark.parametrize(
        "counts, samples",
        [
            ((2, 2, 6), 28),
            ((2, 2, 6), 29),
            ((2, 2, 6), 5000),
            ((4, 4, 40), 200),
            # n - 1 < d = 28: the trapezoidal factor, down to one column.
            ((2, 2, 6), 8),
            ((2, 2, 6), 2),
            # d = 812: four column panels of the square factor, and two of
            # the trapezoidal one, the last 243 columns wide.
            ((4, 4, 200), 2000),
            ((4, 4, 200), 500),
            # Row panels that reach part of the columns: d = 1208 with a
            # three-panel trapezoid, d = 266 with two panels of S, and a
            # machine without conjugate inputs at d = 254, one panel.
            ((1, 3, 300), 700),
            ((0, 3, 64), 300),
            ((3, 0, 64), 3000),
        ],
    )
    def test_matches_the_full_product(self, counts, samples):
        # The same draws through the whole S F and the whole S, upper zeros
        # included; the panels sum in another order, within 1e-14.
        transform, layout = build_machine(CloningConfig(*counts))
        emp = simulate(transform, layout, SampleConfig(samples, 11, 0.5j))
        k = layout.total_modes
        gen = np.random.default_rng(11)
        g = gen.standard_normal(2 * k)
        s = to_symplectic(transform).matrix
        sf = s @ montecarlo._wishart_factor(gen, 2 * k, samples - 1)
        gram = (0.5 / (samples - 1)) * sf @ sf.T
        cov = [gram[2 * a : 2 * a + 2, 2 * a : 2 * a + 2] for a in range(k)]
        np.testing.assert_allclose(emp.covariances, cov, rtol=0, atol=1e-14)
        amps = layout.input_amplitudes(0.5j)
        mu_in = np.sqrt(2.0) * np.column_stack((amps.real, amps.imag)).reshape(-1)
        means = s @ (mu_in + np.sqrt(0.5 / samples) * g)
        np.testing.assert_allclose(emp.means.reshape(-1), means, rtol=0, atol=1e-14)

    def test_panels_need_no_full_size_temporaries(self):
        # At K = 606, S is 11.8 MB.  The certificates of a fresh map and a
        # sampling run with them cached each trace one 2K x K pair (X and Y,
        # or the factor F) and panels; a full-size product traced 2 S.
        transform, layout = build_machine(CloningConfig(4, 4, 300))
        s = transform.quadrature_image.matrix
        tracemalloc.start()
        try:
            gaussian.SymplecticMap(s).residual()
            residual_peak = tracemalloc.get_traced_memory()[1]
            to_symplectic(transform)
            tracemalloc.reset_peak()
            simulate(transform, layout, SampleConfig(4096, 1))
            sampling_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual_peak < 1.6 * s.nbytes
        assert sampling_peak < 1.6 * s.nbytes

    def test_verify_path_never_builds_the_image(self):
        # At K = 606, S would be 11.8 MB.  Certifying and sampling read
        # (M, L) and hold one working set besides: X and Y (S's size
        # together), then the factor F (S's size for n - 1 >= 2K), with
        # one row panel of S and a few tiles.  Holding S as well traced
        # about 2.2 S.
        warm, warm_layout = build_machine(CloningConfig(2, 2, 130))
        simulate(warm, warm_layout, SampleConfig(600, 1))  # first-use imports
        transform, layout = build_machine(CloningConfig(4, 4, 300))
        s_nbytes = (2 * transform.mode_count) ** 2 * 8
        tracemalloc.start()
        try:
            commutation_residual(transform)
            simulate(transform, layout, SampleConfig(4096, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "quadrature_image" not in vars(transform)
        assert peak <= 1.2 * s_nbytes

    def test_stream_version_3_definition(self):
        # A run draws g, then F's chi^2 diagonal, then its normals row by
        # row, all from default_rng(seed).  The draws are pinned exactly;
        # the moments, which also pass through BLAS products, to 1e-12.
        # The 4 x 4 values are stream version 2's: v3 draws as v2 did for
        # n - 1 >= d.
        assert montecarlo.STREAM_VERSION == 3
        gen = np.random.default_rng(2**64 - 1)
        assert gen.standard_normal(4)[0] == 0.7213364570768727
        assert montecarlo._wishart_factor(gen, 4, 5).tolist() == [
            [2.0641360507387065, 0.0, 0.0, 0.0],
            [-0.09459650306552869, 2.605615103482924, 0.0, 0.0],
            [1.2536647840795245, 0.6841898002396202, 1.2639938612658754, 0.0],
            [-0.9660323525907308, 0.7311210350129016, -0.013779267408206727,
             1.710015929726313],
        ]
        # dof = 3 < d = 4: a 4 x 3 trapezoid, zero above the diagonal only.
        assert montecarlo._wishart_factor(gen, 4, 3).tolist() == [
            [1.5246612470388643, 0.0, 0.0],
            [-0.32018285515557876, 1.3507958664789792, 0.0],
            [-0.23469822790137987, 0.061965466718244044, 0.09365075000135907],
            [0.38644051036869487, -0.3086178209353126, -0.6593333036010385],
        ]
        _, _, emp = run(CloningConfig(1, 1, 2), 64, 2**64 - 1, 0.5j)
        np.testing.assert_allclose(
            emp.means[0], [0.04779638119409085, 0.5886777870605474], rtol=1e-12
        )
        np.testing.assert_allclose(
            emp.covariances[0].ravel(),
            [0.569616332272427, -0.04183663786231095, -0.04183663786231095,
             0.5424262529344104],
            rtol=1e-12,
        )

    def test_largest_sample_count_passes(self):
        cfg = CloningConfig(1, 1, 2)
        _, layout, emp = run(cfg, 2**53, 3, 1 + 0.5j)
        assert compare_to_analytic(emp, noise_report(cfg), layout).passed

    def test_logs_its_plan_only_when_asked(self, caplog, capsys):
        assert any(
            isinstance(h, logging.NullHandler)
            for h in logging.getLogger("pciclone").handlers
        )
        run(CloningConfig(1, 0, 1), 100, 0, 0j)
        assert not caplog.records
        assert capsys.readouterr() == ("", "")
        with caplog.at_level(logging.DEBUG, logger="pciclone"):
            run(CloningConfig(1, 0, 1), 100, 0, 0j)
        (record,) = caplog.records
        assert record.name == "pciclone.montecarlo"
        # 1 signal mode in 1 of 2 modes, d = 4 quadratures, n - 1 = 99 >= d:
        # the Bartlett factor is 4 x 4.
        assert record.getMessage() == (
            "sampling 100 samples of 2 modes from a 4 x 4 Wishart factor"
        )

    def test_covariances_are_symmetric(self):
        _, _, emp = run(CloningConfig(2, 1, 3), 10**4, 5, 0.2 + 0.1j)
        for mode in range(emp.mode_count):
            cov = emp.covariances[mode]
            assert cov[0, 1] == cov[1, 0]
            assert cov[0, 0] > 0 and cov[1, 1] > 0

    def test_non_canonical_transform_rejected(self):
        bad = CanonicalTransform(
            np.array([[2.0 + 0j]]), np.array([[0.0 + 0j]])
        )
        _, layout = build_machine(CloningConfig(1, 0, 1))
        with pytest.raises(DomainError):
            simulate(bad, layout, SampleConfig(100, 0))
        # A residual already computed and cached is still checked.
        assert commutation_residual(bad) == pytest.approx(3.0)
        with pytest.raises(DomainError):
            simulate(bad, layout, SampleConfig(100, 0))

    def test_mode_count_mismatch_rejected(self, monkeypatch):
        # Refused before the certificates of the fresh transform are paid.
        calls = []
        real = canonical._omega_residuals

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(canonical, "_omega_residuals", spy)
        transform, _ = build_machine(CloningConfig(1, 0, 1))
        _, layout = build_machine(CloningConfig(1, 1, 2))
        with pytest.raises(DomainError, match="layout expects"):
            simulate(transform, layout, SampleConfig(100, 0))
        assert calls == []

    def test_nan_transform_rejected(self):
        _, layout = build_machine(CloningConfig(1, 0, 1))
        k = layout.total_modes
        bad = CanonicalTransform(np.full((k, k), np.nan), np.zeros((k, k)))
        with pytest.raises(DomainError):
            simulate(bad, layout, SampleConfig(100, 0))

    def test_amplitude_beyond_noise_resolution_rejected(self):
        # Past 2^52 the float spacing of the means exceeds the vacuum
        # noise's standard deviation; the sampled variance of this run was
        # about 5.6e154 and made the fidelity's standard error 0.
        transform, layout = build_machine(CloningConfig(0, 1, 1))
        with pytest.raises(DomainError, match="resolve the noise"):
            simulate(transform, layout, SampleConfig(22, 0, 4.338994632913419e92j))

def exact_moments(cfg, psi, se):
    """(layout, EmpiricalMoments) holding the exact output moments of
    ``cfg`` with every standard error set to ``se``."""
    transform, layout = build_machine(cfg)
    exact = apply_map(layout.input_state(psi), to_symplectic(transform))
    k = layout.total_modes
    means = np.stack([exact.mean[2 * m : 2 * m + 2] for m in range(k)])
    covs = np.stack(
        [exact.covariance[2 * m : 2 * m + 2, 2 * m : 2 * m + 2] for m in range(k)]
    )
    emp = EmpiricalMoments(
        sample_count=10**6,
        psi=psi,
        means=means,
        covariances=covs,
        mean_se=np.full((k, 2), se),
        var_se=np.full((k, 2), se),
    )
    return layout, emp


class TestCompareToAnalytic:
    def test_analytic_surrogate_gives_zero_z(self):
        # Feed the comparison the exact moments; every z must vanish.
        cfg = CloningConfig(1, 1, 3)
        layout, emp = exact_moments(cfg, 0.6 - 0.2j, 1e-3)
        summary = compare_to_analytic(emp, noise_report(cfg), layout)
        assert summary.passed
        assert summary.max_abs_z < 1e-9
        assert summary.flagged() == []

    def test_real_run_passes(self):
        cfg = CloningConfig(1, 1, 2)
        transform, layout, emp = run(cfg, 10**5, 2026, 1 + 0.5j)
        summary = compare_to_analytic(emp, noise_report(cfg), layout)
        assert summary.passed
        assert set(summary.roles) == {"clone", "anticlone"}

    def test_residual_modes_checked_against_vacuum(self):
        cfg = CloningConfig(2, 0, 2)
        transform, layout, emp = run(cfg, 10**5, 8, 0.9j)
        summary = compare_to_analytic(emp, noise_report(cfg), layout)
        assert summary.passed
        assert "residual" in summary.roles

    def test_corrupted_report_is_flagged(self):
        cfg = CloningConfig(1, 1, 2)
        transform, layout, emp = run(cfg, 10**5, 4, 0.5 + 0.5j)
        rep = noise_report(cfg)
        lying = type(rep)(
            **{**rep.to_dict(), "var_clone": 2.0 * rep.var_clone}
        )
        summary = compare_to_analytic(emp, lying, layout)
        assert not summary.passed
        assert summary.flagged()

    @pytest.mark.parametrize(
        "field, role",
        [
            ("var_clone", "clone"),
            ("f_clone", "clone"),
            ("var_anticlone", "anticlone"),
            ("f_anticlone", "anticlone"),
        ],
    )
    def test_each_corrupted_prediction_is_flagged(self, field, role):
        cfg = CloningConfig(1, 1, 2)
        _, layout, emp = run(cfg, 10**5, 4, 0.5 + 0.5j)
        rep = noise_report(cfg)
        lying = dataclasses.replace(rep, **{field: 0.9 * getattr(rep, field)})
        summary = compare_to_analytic(emp, lying, layout)
        assert not summary.passed
        assert {summary.roles[mode] for mode in summary.flagged()} == {role}

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 4),
        st.integers(0, 4),
        st.integers(1, 10),
        st.integers(2, 400),
        st.integers(0, 2**64 - 1),
        st.complex_numbers(max_magnitude=5.0),
    )
    def test_matches_per_mode_oracle(self, n, nc, m, samples, seed, psi):
        # The array scoring does the per-mode loop's arithmetic except for
        # the fidelity's standard error: numpy's hypot and square against
        # math.hypot and pow, which may differ in the last bit or two.
        # max_abs_z inherits that where it is a z_fidelity.
        assume(n + nc > 0 and m >= n)
        cfg = CloningConfig(n, nc, m)
        _, layout, emp = run(cfg, samples, seed, psi)
        rep = noise_report(cfg)
        got = compare_to_analytic(emp, rep, layout)
        want = oracles.per_mode_compare(emp, rep, layout)
        key = operator.itemgetter(
            "mode", "role", "z_mean_x", "z_mean_p", "z_var_x", "z_var_p"
        )
        assert [key(row) for row in got.rows] == [key(row) for row in want.rows]
        assert got.passed == want.passed
        np.testing.assert_array_max_ulp(
            [row["z_fidelity"] for row in got.rows],
            [row["z_fidelity"] for row in want.rows],
            maxulp=4,
        )
        np.testing.assert_array_max_ulp(got.max_abs_z, want.max_abs_z, maxulp=4)

    def test_zero_standard_error_gives_zero_or_inf(self):
        cfg = CloningConfig(1, 1, 3)
        layout, emp = exact_moments(cfg, 0.6 - 0.2j, 0.0)
        means = emp.means.copy()
        means[0, 0] += 0.25
        emp = dataclasses.replace(emp, means=means)
        rep = noise_report(cfg)
        summary = compare_to_analytic(emp, rep, layout)
        assert summary.rows == oracles.per_mode_compare(emp, rep, layout).rows
        assert summary.rows[0]["z_mean_x"] == np.inf
        assert summary.max_abs_z == np.inf and not summary.passed

    @pytest.mark.parametrize(
        "field, index",
        [("means", (-1, 1)), ("covariances", (1, 0, 1)), ("mean_se", (2, 0)),
         ("var_se", (0, 1))],
    )
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_moments_rejected(self, field, index, bad):
        _, _, emp = run(CloningConfig(1, 1, 3), 10**4, 11, 0.5j)
        arr = getattr(emp, field).copy()
        arr[index] = bad
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            dataclasses.replace(emp, **{field: arr})

    def test_nan_in_a_row_flags_that_mode(self):
        z = np.zeros((4, 5))
        z[0, 0] = 9.0
        z[2, 1] = np.nan
        summary = ComparisonSummary(("clone",) * 4, z, threshold=10.0)
        assert summary.flagged() == [2]
        assert np.isnan(summary.max_abs_z) and not summary.passed
        worst = summary.worst
        assert (worst["mode"], worst["column"]) == (2, "z_mean_p")
        assert np.isnan(worst["z"])

    def test_worst_is_the_first_largest(self):
        z = np.zeros((3, 5))
        z[1, 3], z[2, 0] = -4.5, 4.5
        summary = ComparisonSummary(("clone", "anticlone", "residual"), z)
        assert summary.worst == {"mode": 1, "role": "anticlone",
                                 "column": "z_var_p", "z": -4.5}

    def test_nan_prediction_never_passes(self):
        # The NaN rows are the anticlones, after the first row, where
        # Python's max would drop them.
        cfg = CloningConfig(1, 1, 3)
        _, layout, emp = run(cfg, 10**4, 11, 0.5j)
        rep = dataclasses.replace(noise_report(cfg), var_anticlone=np.nan)
        summary = compare_to_analytic(emp, rep, layout)
        assert np.isnan(summary.max_abs_z) and not summary.passed
        assert summary.flagged() == sorted(layout.anticlone_slots)

    def test_scores_without_per_mode_states(self, monkeypatch):
        cfg = CloningConfig(2, 1, 4)
        _, layout, emp = run(cfg, 10**4, 3, 0.2j)

        def refuse(*args, **kwargs):
            raise AssertionError("compare_to_analytic scored a mode on its own")

        monkeypatch.setattr(gaussian.GaussianState, "__post_init__", refuse)
        monkeypatch.setattr(gaussian, "fidelity_with_coherent", refuse)
        monkeypatch.setattr(
            montecarlo, "fidelity_with_coherent", refuse, raising=False
        )
        assert compare_to_analytic(emp, noise_report(cfg), layout).passed

    def test_huge_variance_keeps_a_finite_fidelity_error(self):
        # (1 + n)^2 overflows at n = 5e199; the fidelity's standard error
        # must not become 0 and its z infinite.
        cfg = CloningConfig(1, 1, 3)
        layout, emp = exact_moments(cfg, 0.6 - 0.2j, 1e-3)
        covs, var_se = emp.covariances.copy(), emp.var_se.copy()
        covs[0] = np.diag([1e200, 0.5])
        var_se[0] = np.array([1e200, 0.5]) * np.sqrt(2.0 / (emp.sample_count - 1))
        emp = dataclasses.replace(emp, covariances=covs, var_se=var_se)
        summary = compare_to_analytic(emp, noise_report(cfg), layout)
        assert np.isfinite(summary.rows[0]["z_fidelity"])
        assert summary.rows[0]["z_fidelity"] < -1e100
        json.dumps(summary.to_dict(), allow_nan=False)

    @pytest.mark.parametrize("bad", [-0.5, np.nan])
    def test_singular_covariance_rejected(self, bad):
        cfg = CloningConfig(1, 1, 3)
        layout, emp = exact_moments(cfg, 0.6 - 0.2j, 1e-3)
        covs = emp.covariances.copy()
        covs[2] = np.diag([bad, bad])
        # A NaN is refused by EmpiricalMoments, -0.5 by the scoring.
        with pytest.raises(DomainError):
            emp = dataclasses.replace(emp, covariances=covs)
            compare_to_analytic(emp, noise_report(cfg), layout)

    def test_threshold_is_respected(self):
        cfg = CloningConfig(1, 0, 2)
        transform, layout, emp = run(cfg, 10**5, 6, 0j)
        summary = compare_to_analytic(
            emp, noise_report(cfg), layout, threshold=1e-6
        )
        assert not summary.passed

    def test_report_layout_mismatch_rejected(self):
        # Same mode budget, different anticlone structure: (2,0,2) has no
        # anticlone ports while (1,1,2) expects them.
        _, layout = build_machine(CloningConfig(1, 1, 2))
        _, _, emp = run(CloningConfig(2, 0, 2), 10**4, 9, 0j)
        rep = noise_report(CloningConfig(2, 0, 2))
        with pytest.raises(DomainError):
            compare_to_analytic(emp, rep, layout)

    def test_mode_count_mismatch_rejected(self):
        cfg_small = CloningConfig(1, 0, 1)
        _, layout_small = build_machine(cfg_small)
        _, _, emp_big = run(CloningConfig(1, 1, 2), 10**4, 10, 0j)
        with pytest.raises(DomainError):
            compare_to_analytic(emp_big, noise_report(cfg_small), layout_small)

    def test_serialization(self):
        cfg = CloningConfig(1, 1, 2)
        transform, layout, emp = run(cfg, 10**4, 12, 0j)
        summary = compare_to_analytic(emp, noise_report(cfg), layout)
        doc = summary.to_dict()
        assert list(doc) == ["rows", "threshold", "max_abs_z", "worst", "passed"]
        assert [list(row) for row in doc["rows"]] == [[
            "mode", "role", "z_mean_x", "z_mean_p",
            "z_var_x", "z_var_p", "z_fidelity",
        ]] * 4
        assert [row["mode"] for row in doc["rows"]] == [0, 1, 2, 3]
        assert [list(row.values())[2:] for row in doc["rows"]] == summary.z.tolist()
        assert doc["max_abs_z"] == np.max(np.abs(summary.z))
        worst = doc["worst"]
        assert list(worst) == ["mode", "role", "column", "z"]
        assert abs(worst["z"]) == doc["max_abs_z"]
        assert doc["rows"][worst["mode"]][worst["column"]] == worst["z"]
        assert worst["role"] == doc["rows"][worst["mode"]]["role"]
        assert doc["passed"] is summary.passed is True
        with pytest.raises(ValueError):
            summary.z[0, 0] = 0.0


def test_exhaustive_grid_statistics():
    # Every machine with N+N' <= 4 and M <= 6 agrees with its analytic
    # report at the 5-sigma level with 1e6 samples; the slowest test here
    # but the broadest net over layout/role wiring.
    for n in range(0, 5):
        for nc in range(0, 5 - n):
            if n + nc == 0:
                continue
            for m in range(max(n, 1), 7):
                cfg = CloningConfig(n, nc, m)
                transform, layout = build_machine(cfg)
                emp = simulate(
                    transform, layout, SampleConfig(10**6, 31, 0.7 - 0.3j)
                )
                summary = compare_to_analytic(emp, noise_report(cfg), layout)
                assert summary.passed, (cfg, summary.flagged())
