import dataclasses
import functools
import json
import logging
import math
import operator
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from pciclone import canonical, gaussian, machine, montecarlo
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
    compare_to_analytic,
    simulate,
)

import oracles
from oracles import block_normals


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


class TestNormals:
    # Stream versions 7 to 9's kernel: Box-Muller from SFC64's uniform
    # pairs, its angle, cosine and sine in float32.
    def test_within_a_millionth_of_r_of_float64_box_muller(self):
        z = np.empty(1 << 20)
        montecarlo._normals(montecarlo._generator(5), z)
        want, r = oracles.box_muller(montecarlo._generator(5), z.size)
        assert np.all(np.abs(z - want) <= 1e-6 * r)

    def test_chunk_invariant(self):
        # Two calls draw what one call over both arrays draws, whatever
        # the split, across the kernel's passes of _CHUNK pairs too.
        size = 2 * (2 * montecarlo._CHUNK + 5)
        whole = np.empty(size)
        montecarlo._normals(montecarlo._generator(9), whole)
        for splits in ((2,), (2 * montecarlo._CHUNK,), (6, 8192, 8200), (size - 2,)):
            gen = montecarlo._generator(9)
            parts = np.split(np.empty(size), splits)
            for part in parts:
                montecarlo._normals(gen, part)
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_radius_from_zero_to_the_tail_cut(self):
        # u = 0 gives r = 0, and u's largest value, 1 - 2^-53, the
        # largest radius, sqrt(106 log 2) = 8.57: no normal lies beyond.
        class Uniforms:
            def random(self, out):
                out[...] = np.reshape([0.0, 0.3, 1 - 2.0**-53, 0.0], out.shape)

        z = np.empty(4)
        montecarlo._normals(Uniforms(), z)
        assert z[:2].tolist() == [0.0, 0.0]
        assert z[2] == pytest.approx(math.sqrt(106 * math.log(2)), rel=1e-15)
        assert 8.57 < z[2] < 8.58
        assert z[3] == 0.0

    def test_moments_within_five_standard_errors(self):
        # Over 2^20 draws: mean 0, variance 1, third moment 0, fourth 3,
        # and x and p of a pair uncorrelated, each within 5 standard
        # errors (the roots of 1, 2, 15, 96 and 2 over the count).
        n = 1 << 20
        z = np.empty(n)
        montecarlo._normals(montecarlo._generator(2), z)
        for got, want, var in ((z.mean(), 0.0, 1), (z.var(), 1.0, 2),
                               (np.mean(z**3), 0.0, 15), (np.mean(z**4), 3.0, 96),
                               (np.mean(z[0::2] * z[1::2]), 0.0, 2)):
            assert abs(got - want) <= 5 * math.sqrt(var / n)


def assert_same_variance_law(transform, layout, samples, route, oracle, runs=1000):
    """Each mode's x and p variance over ``runs`` runs of ``route`` and of
    ``oracle``, on disjoint seeds, pass a two-sample KS test, modes pooled
    by role, since every clone (anticlone) has one law."""

    def variances(run, seeds):
        return np.array([
            np.diagonal(run(transform, layout,
                            SampleConfig(samples, seed, 0.5 - 0.25j)).covariances,
                        axis1=1, axis2=2)
            for seed in seeds
        ])

    got, want = variances(route, range(runs)), variances(oracle, range(runs, 2 * runs))
    for slots in (layout.clone_slots, layout.anticlone_slots, layout.residual_slots):
        for q in range(2):
            if slots:
                pair = got[:, list(slots), q].ravel(), want[:, list(slots), q].ravel()
                assert stats.ks_2samp(*pair).pvalue > 1e-3


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
            # d = 52: two panels of the square factor, the second 20 wide;
            # and of the trapezoid, the second 7 wide.
            ((2, 2, 12), 64),
            ((2, 2, 12), 40),
            # d = 8: one panel.
            ((1, 1, 2), 9),
        ],
    )
    def test_matches_stream_3_in_law(self, counts, samples):
        # Each mode's x and p variance over 1000 runs of stream version 4
        # and of stream version 3 (the whole factor, drawn row by row), on
        # disjoint seeds, must pass a two-sample KS test; modes are pooled
        # by role, since every clone (anticlone) has one law.
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        runs = 1000

        def variances(route, seeds):
            out = []
            for seed in seeds:
                emp = route(transform, layout, SampleConfig(samples, seed, 0.5 - 0.25j))
                out.append(np.diagonal(emp.covariances, axis1=1, axis2=2))
            return np.array(out)

        def stream_3(transform, layout, config):
            return oracles.wishart_simulate(transform, layout, config,
                                            oracles.stream_3_factor)

        v4 = variances(simulate, range(runs))
        v3 = variances(stream_3, range(runs, 2 * runs))
        for slots in (layout.clone_slots, layout.anticlone_slots, layout.residual_slots):
            for q in range(2):
                if slots:
                    got, want = v4[:, list(slots), q], v3[:, list(slots), q]
                    assert stats.ks_2samp(got.ravel(), want.ravel()).pvalue > 1e-3

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
            # n - 1 < d_R = 16: the shared block's trapezoid alone; and a
            # block split by a panel on a p row (d = 812 at n = 300, where
            # the anticlone block's columns start at 299).
            ((4, 4, 200), 10),
            ((4, 4, 200), 300),
            # |C| != |A|: C's 8 columns and A's 10 at d = 28, and C's 78
            # and A's 80 at n - 1 = 29 < d = 164, each trapezoidal.
            ((2, 3, 5), 30),
            ((1, 2, 40), 30),
        ],
    )
    def test_matches_the_full_product(self, counts, samples):
        # The same draws, stream version 9's, g and F' assembled whole
        # from its panels, through the whole S F' and the whole S, upper
        # zeros included; the panels sum in another order, within 1e-14.
        transform, layout = build_machine(CloningConfig(*counts))
        config = SampleConfig(samples, 11, 0.5j)
        emp = simulate(transform, layout, config)
        want = oracles.stream_9_simulate(transform, layout, config,
                                         transform._network.blocks)
        np.testing.assert_allclose(emp.covariances, want.covariances, rtol=0, atol=1e-14)
        np.testing.assert_allclose(emp.means, want.means, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("counts", [(1, 1, 3), (2, 2, 6)])
    def test_cross_mode_variances_keep_their_joint_law(self, counts):
        # Modes i and j have x variances a^T W a and b^T W b (a and b their
        # x-rows of S, up to one scale), and for W ~ Wishart(I, nu)
        # Cov(a^T W a, b^T W b) = 2 nu (a^T b)^2: the two correlate as
        # (a^T b)^2 / (|a|^2 |b|^2).  Block factor F' must keep that for
        # every pair, clone-anticlone pairs (whose rows share only the
        # replica block R) included, as well as clone-clone and, at (2, 2,
        # 6), clone-residual pairs: within 5 standard errors of the
        # correlation, (1 - rho^2)/sqrt(runs), over 3000 runs at n = 64.
        # Were R's factor drawn apart for each private block, the clone-
        # anticlone correlations, 0.132 at (1, 1, 3), would read 0.
        transform, layout = build_machine(CloningConfig(*counts))
        x_rows = to_symplectic(transform).matrix[0::2]
        gram = x_rows @ x_rows.T
        want = gram**2 / np.outer(np.diag(gram), np.diag(gram))
        runs = 3000
        x_var = np.array([
            simulate(transform, layout, SampleConfig(64, seed, 0.5j)).covariances[:, 0, 0]
            for seed in range(runs)
        ])
        got = np.corrcoef(x_var.T)
        assert layout.clone_slots and layout.anticlone_slots
        assert np.all(np.abs(got - want) <= 5 * (1 - want**2) / np.sqrt(runs) + 1e-12)

    def test_panels_need_no_full_size_temporaries(self):
        # At K = 606, S is 11.8 MB.  The certificates of a fresh map trace
        # one 2K x K pair (X and Y) and tiles; a full-size product traced
        # 2 S.  A sampling run traces the stages' probes and one panel of F,
        # never F itself, which is S's size here.
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
        assert sampling_peak < 0.25 * s.nbytes

    def test_straddling_panels_drawn_in_place(self):
        # K = 7999 at n = 100: the first panel holds g and R's 4 columns,
        # whose normals run over every mode, and 28 that C and A share;
        # the other three reach a band of C's and A's modes.  Every panel
        # is drawn in the 4.2 MB panel buffer, so sampling holds the
        # buffer, the normal kernel's 48 KiB of scratch, the means (the
        # input's, then the sample's, in one array), the sums and a row of
        # a panel's reduction: 6 doubles a mode, under the 7 allowed.
        network, layout = machine._network(CloningConfig(1, 0, 4000))
        k = network.mode_count
        assert k == 7999
        sample = SampleConfig(100, 1)
        simulate(network, layout, sample)  # first-use set-up and the bound
        tracemalloc.start()
        try:
            simulate(network, layout, sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        buffer = 16 * k * (montecarlo._PANEL + 1)
        assert peak <= buffer + 7 * 8 * k + 64 * 1024

    @pytest.mark.parametrize("counts, samples",
                             [((2, 2, 6), 1 << 20), ((4, 4, 40), 200), ((1, 0, 400), 100)])
    def test_one_normals_call_per_panel(self, counts, samples, monkeypatch):
        # g rides in the first panel and C's and A's columns share F''s
        # columns, so a run of r = r_R + max(r_C, r_A) columns makes
        # ceil(r / _PANEL) kernel calls, each over one panel's rows; the
        # verify_deep configuration (r = 8 + 10) makes one, over all 14
        # modes and 19 columns.
        calls = []
        real = montecarlo._normals

        def spy(gen, out):
            calls.append(out.size)
            real(gen, out)

        monkeypatch.setattr(montecarlo, "_normals", spy)
        network, layout = machine._network(CloningConfig(*counts))
        simulate(network, layout, SampleConfig(samples, 3))
        (_, _, r_r, *_), (_, _, r_c, *_), (_, _, r_a, *_) = montecarlo._factor_blocks(
            network.blocks, samples - 1)
        assert len(calls) == -(-(r_r + max(r_c, r_a)) // montecarlo._PANEL)
        if counts == (2, 2, 6):
            assert calls == [2 * 14 * 19]

    @pytest.mark.parametrize(
        "counts, samples",
        [
            # No C and no A; A empty; |C| = 4 != |A| = 5.
            ((1, 0, 1), 5),
            ((3, 1, 3), 64),
            ((2, 3, 5), 64),
            # n - 1 = 29 below C's 78 and A's 80 rows: trapezoidal C and A
            # factors, 23 columns each.  At n = 200 A's 80 columns outlast
            # C's 78, in the third of three panels.
            ((1, 2, 40), 30),
            ((1, 2, 40), 200),
        ],
    )
    def test_stream_version_9_support(self, counts, samples, monkeypatch):
        # simulate's panels, as drawn before each push, assembled whole,
        # are the oracle's g and F' bit for bit.  F' holds R's and C's
        # Bartlett factors, their diagonals running from the block's first
        # mode down, and A's, its diagonal running from A's last mode up
        # (x before p): chi on each diagonal, normals below it in the
        # factor's order (R's down to the last mode), zeros everywhere
        # else.  Each panel's one kernel call covers exactly the modes its
        # columns reach (every mode for the first panel, which holds g).
        network, layout = machine._network(CloningConfig(*counts))
        r_block, c_block, a_block = network.blocks
        k, d, dof = network.mode_count, 2 * network.mode_count, samples - 1
        panels, calls = [], []
        real_panel, real_normals = montecarlo._factor_panel, montecarlo._normals

        def panel_spy(gen, chi, factor, c, out):
            panels.append((c, out))
            band = real_panel(gen, chi, factor, c, out)
            panels[-1] = (c, out.copy())
            return band

        def normals_spy(gen, out):
            row_bytes = panels[-1][1].strides[0]
            offset = out.ctypes.data - panels[-1][1].ctypes.data
            assert offset % row_bytes == 0 and out.nbytes % row_bytes == 0
            calls.append((offset // row_bytes, (offset + out.nbytes) // row_bytes))
            real_normals(gen, out)

        monkeypatch.setattr(montecarlo, "_factor_panel", panel_spy)
        monkeypatch.setattr(montecarlo, "_normals", normals_spy)
        simulate(network, layout, SampleConfig(samples, 6))
        g = panels[0][1][:, 0]
        f = np.concatenate([panel[:, 1 if c == 0 else 0 :] for c, panel in panels], axis=1)
        f = np.stack((f.real, f.imag), axis=1).reshape(d, -1)
        want_g, want_f = oracles.stream_9_draws(montecarlo._generator(6), d, dof,
                                                network.blocks)
        np.testing.assert_array_equal(g, want_g.view(complex))
        np.testing.assert_array_equal(f, want_f)
        # Where F' holds chi, normals and zeros.
        r_r = min(2 * r_block.stop, dof)
        r_c, r_a = (min(2 * (b.stop - b.start), dof - r_r) for b in (c_block, a_block))
        assert f.shape == (d, r_r + max(r_c, r_a))
        chi = np.sqrt(montecarlo._generator(6).chisquare(np.concatenate(
            [dof - np.arange(r_r), dof - r_r - np.arange(r_c),
             dof - r_r - np.arange(r_a)])))
        chi_at = np.zeros(f.shape)
        keep = np.zeros(f.shape, dtype=bool)
        a_rows = np.arange(2 * a_block.start, 2 * a_block.stop).reshape(-1, 2)[::-1].ravel()
        for j in range(r_r):
            chi_at[j, j] = chi[j]
            keep[j:, j] = True
        for j in range(r_c):
            chi_at[2 * c_block.start + j, r_r + j] = chi[r_r + j]
            keep[2 * c_block.start + j : 2 * c_block.stop, r_r + j] = True
        for j in range(r_a):
            chi_at[a_rows[j], r_r + j] = chi[r_r + r_c + j]
            keep[a_rows[j:], r_r + j] = True
        diagonal = chi_at != 0
        assert diagonal.sum() == chi.size
        np.testing.assert_array_equal(f[diagonal], chi_at[diagonal])
        assert np.all(f[keep & ~diagonal] != 0) and not np.any(f[~keep])
        reached = [np.flatnonzero(keep[:, c : c + montecarlo._PANEL].any(axis=1)) // 2
                   for c, _ in panels[1:]]
        assert calls == [(0, k)] + [(modes[0], modes[-1] + 1) for modes in reached]

    def test_shared_panels_run_the_two_distributions_alone(self, monkeypatch):
        # verify_wide's machine, K = 1030, at n = 4096: F' has R's 16
        # columns and the 1022 that C and A share, 33 panels.  The first
        # holds g and reaches every stage; each of the other 32 is zero in
        # R's rows and runs the clone and the anticlone distribution FFTs,
        # one call each, and no amplifier product.
        network, layout = machine._network(CloningConfig(4, 4, 512))
        products = []

        class Counted(np.ndarray):
            def __matmul__(self, other):
                products.append(other.shape)
                return np.asarray(self) @ other

        amplifier = dataclasses.replace(network.amplifier)
        object.__setattr__(amplifier, "m_matrix",
                           network.amplifier.m_matrix.view(Counted))
        network = dataclasses.replace(network, amplifier=amplifier)
        assert network.commutation_residual < 1e-12
        pushes = []
        real_push, real_dft = machine._Network._push, machine._apply_dft

        def push_spy(self, a, transpose=False, first=0, stop=None):
            pushes.append([])
            before = len(products)
            real_push(self, a, transpose, first, stop)
            pushes[-1].append(len(products) - before)

        def dft_spy(a, rows, inverse=False, port=None):
            pushes[-1].append((rows, inverse, port))
            real_dft(a, rows, inverse, port)

        monkeypatch.setattr(machine._Network, "_push", push_spy)
        monkeypatch.setattr(machine, "_apply_dft", dft_spy)
        simulate(network, layout, SampleConfig(4096, 2))
        (clone_port, clone_run), (anti_port, anti_run) = network.distribution
        assert len(pushes) == 33
        assert pushes[0] == [(network.concentration[0], False, None),
                             (network.concentration[1], False, None),
                             (clone_run, True, clone_port), (anti_run, True, anti_port), 1]
        assert pushes[1:] == [[(clone_run, True, clone_port),
                               (anti_run, True, anti_port), 0]] * 32

    @pytest.mark.parametrize("counts, samples", [((2, 2, 6), 100), ((4, 4, 40), 60)])
    def test_stages_and_pair_sample_alike(self, counts, samples):
        # One loop: the stages (alone or linked from the transform) push
        # the same panels, and so do a bare pair, through (M, L), and the
        # stages given its one block.
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        network, _ = machine._network(cfg)
        bare = dataclasses.replace(transform)
        one_block = dataclasses.replace(network, blocks=(slice(0, layout.total_modes),))
        assert bare._network is None and transform._network is not None
        sample = SampleConfig(samples, 4, 0.3 + 0.2j)
        linked, alone, dense, single = (simulate(t, layout, sample)
                                        for t in (transform, network, bare, one_block))
        for name in ("means", "covariances"):
            assert getattr(linked, name).tobytes() == getattr(alone, name).tobytes()
            np.testing.assert_allclose(getattr(dense, name), getattr(single, name),
                                       rtol=0, atol=1e-14)
        # The blocks draw other factors.  The sample mean is drawn after
        # the chi^2 diagonal, one variate per column of each block's
        # factor, so the two factorings' means are not one draw either: at
        # (4, 4, 40) the three blocks have 102 such columns and one 59.
        assert np.max(np.abs(dense.covariances - linked.covariances)) > 1e-3

    def test_non_canonical_stages_rejected(self):
        network, layout = machine._network(CloningConfig(1, 1, 2))
        amp = network.amplifier
        bad = dataclasses.replace(network, amplifier=CanonicalTransform(
            amp.m_matrix * 1.01, amp.l_matrix))
        with pytest.raises(DomainError, match="not canonical"):
            simulate(bad, layout, SampleConfig(100, 0))

    def test_verify_path_never_builds_the_image(self):
        # At K = 606, S would be 11.8 MB.  Certifying reads (M, L) and
        # holds X and Y (S's size together); sampling draws F (S's size
        # for n - 1 >= 2K) one panel of columns at a time as it pushes it
        # through the stages.  Holding S as well traced about 2.2 S.
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
        # Stream version 3 drew g, then F's chi^2 diagonal, then its
        # normals row by row, all from default_rng(seed).  Its draws are
        # pinned exactly through the oracle; its moments, which also pass
        # through BLAS products, to 1e-12.  The 4 x 4 values are stream
        # version 2's: v3 drew as v2 did for n - 1 >= d.
        gen = np.random.default_rng(2**64 - 1)
        assert gen.standard_normal(4)[0] == 0.7213364570768727
        assert oracles.stream_3_factor(gen, 4, 5).tolist() == [
            [2.0641360507387065, 0.0, 0.0, 0.0],
            [-0.09459650306552869, 2.605615103482924, 0.0, 0.0],
            [1.2536647840795245, 0.6841898002396202, 1.2639938612658754, 0.0],
            [-0.9660323525907308, 0.7311210350129016, -0.013779267408206727,
             1.710015929726313],
        ]
        # dof = 3 < d = 4: a 4 x 3 trapezoid, zero above the diagonal only.
        assert oracles.stream_3_factor(gen, 4, 3).tolist() == [
            [1.5246612470388643, 0.0, 0.0],
            [-0.32018285515557876, 1.3507958664789792, 0.0],
            [-0.23469822790137987, 0.061965466718244044, 0.09365075000135907],
            [0.38644051036869487, -0.3086178209353126, -0.6593333036010385],
        ]
        transform, layout = build_machine(CloningConfig(1, 1, 2))
        emp = oracles.wishart_simulate(transform, layout,
                                       SampleConfig(64, 2**64 - 1, 0.5j),
                                       oracles.stream_3_factor, np.random.default_rng)
        np.testing.assert_allclose(
            emp.means[0], [0.04779638119409085, 0.5886777870605474], rtol=1e-12
        )
        np.testing.assert_allclose(
            emp.covariances[0].ravel(),
            [0.569616332272427, -0.04183663786231095, -0.04183663786231095,
             0.5424262529344104],
            rtol=1e-12,
        )

    def test_stream_version_4_definition(self):
        # Stream version 4 drew g and F's chi^2 diagonal as stream version 3
        # did, then each panel of F in one standard_normal call over its
        # rows from mode c/2 down, x before p, zeroed above the diagonal:
        # stream version 5 with one block.  The draws are pinned exactly
        # through the oracle that assembles F from its panels, as modes of
        # amplitudes x + ip; the moments, which also pass through BLAS
        # products, to 1e-12 through the oracle run of the same draws from
        # PCG64 (simulate draws stream version 9).
        assert montecarlo._PANEL == 32
        gen = np.random.default_rng(2**64 - 1)
        assert gen.standard_normal(4)[0] == 0.7213364570768727
        f = oracles.stream_5_factor(gen, 4, 5)
        # The diagonal is stream version 3's.
        assert np.diagonal(f).tolist() == [2.0641360507387065, 2.605615103482924,
                                           1.2639938612658754, 1.710015929726313]
        # Modes 0 and 1 hold quadrature rows (0, 1) and (2, 3).
        panel = f[0::2] + 1j * f[1::2]
        assert panel.tolist() == [
            [2.0641360507387065 + 1.2536647840795245j, 2.605615103482924j, 0j, 0j],
            [-1.3596516040885636 - 0.6924759508929184j,
             0.6232872266157287 - 0.32018285515557876j,
             1.2639938612658754 + 0.061965466718244044j, 1.710015929726313j],
        ]
        # dof = 3 < d = 4: a 4 x 3 trapezoid, one panel of odd width.
        f = oracles.stream_5_factor(gen, 4, 3)
        panel = f[0::2] + 1j * f[1::2]
        assert panel.tolist() == [
            [1.0858948548299283 + 0.06980663299334089j, 0.9895304803719931j, 0j],
            [-0.855437214694838 - 0.19027621016958876j,
             -1.150566230886884 + 0.6468239522273848j,
             0.18342991622500493 + 1.0767999615952877j],
        ]
        transform, layout = build_machine(CloningConfig(1, 1, 2))
        emp = oracles.wishart_simulate(transform, layout,
                                       SampleConfig(64, 2**64 - 1, 0.5j),
                                       oracles.stream_5_factor, np.random.default_rng)
        np.testing.assert_allclose(
            emp.means[0], [0.04779638119409086, 0.5886777870605475], rtol=1e-12
        )
        np.testing.assert_allclose(
            emp.covariances[0].ravel(),
            [0.5407442602139919, 0.10066737729718096, 0.10066737729718096,
             0.5523514261228483],
            rtol=1e-12,
        )

    def test_stream_version_5_definition(self):
        # (1, 0, 2) has K = 3 modes in two blocks, R = modes 0:2 and the
        # clone vacuum C = mode 2 (no anticlone vacua).  At n = 64 F' has
        # R's 4 columns, then C's 2 with 63 - 4 degrees of freedom.  A run
        # draws g, the chi^2 diagonal of every column in one call, then
        # each panel block by block: R's columns over every mode from 0,
        # C's over mode 2 alone.  The draws are pinned exactly through the
        # oracle that assembles F' from its panels; the moments to 1e-12,
        # through the oracle run of the same draws from PCG64 (simulate
        # draws stream version 9).
        network, layout = machine._network(CloningConfig(1, 0, 2))
        assert network.blocks == (slice(0, 2), slice(2, 3), slice(3, 3))
        gen = np.random.default_rng(2**64 - 1)
        assert gen.standard_normal(6)[0] == 0.7213364570768727
        f = oracles.stream_5_factor(gen, 6, 63, network.blocks)
        # The chi values of R's 4 columns and C's 2, from one chisquare call.
        assert np.diagonal(f).tolist() == [8.639208810391008, 7.561381826484871,
                                           7.612432096077316, 8.60608007262899,
                                           6.964823897683522, 7.562136470895576]
        panel = f[0::2] + 1j * f[1::2]
        assert panel.tolist() == [
            [8.639208810391008 - 1.3596516040885636j, 7.561381826484871j, 0j, 0j,
             0j, 0j],
            [-0.3086178209353126 - 0.6593333036010385j,
             0.033597464252352556 + 0.7919315757477682j,
             7.612432096077316 + 0.505151857031185j, 8.60608007262899j, 0j, 0j],
            [-0.7049124964390987 - 0.23416331721468459j,
             -0.5617484882420268 - 0.33160488709308605j,
             -0.855437214694838 - 0.19027621016958876j,
             -1.150566230886884 + 0.6468239522273848j,
             6.964823897683522 + 1.0767999615952877j, 7.562136470895576j],
        ]
        transform, _ = build_machine(CloningConfig(1, 0, 2))
        emp = oracles.wishart_simulate(
            transform, layout, SampleConfig(64, 2**64 - 1, 0.5j),
            functools.partial(oracles.stream_5_factor, blocks=network.blocks),
            np.random.default_rng)
        np.testing.assert_allclose(
            emp.means.ravel(),
            [0.06653276803810297, 0.5792088646388021, 0.07241105064668837,
             -0.6583726726867363, 0.06963602014810234, 0.7004635199579814],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            emp.covariances.ravel(),
            [0.8781809859946733, -0.03919075938326585, -0.03919075938326585,
             0.8571597152414658, 1.4538549982271667, 0.08642174188523655,
             0.08642174188523655, 1.5104286263916888, 1.115096576522257,
             -0.050414872616656635, -0.050414872616656635, 0.9914138766476337],
            rtol=1e-12,
        )

    def test_stream_version_6_definition(self):
        # Stream version 6 is stream version 5's draw from numpy's SFC64
        # seeded by the seed, each panel's block parts from one
        # standard_normal call.  (1, 0, 2) as in the version 5 test: the
        # draws are pinned exactly through the oracle, and the moments to
        # 1e-12 through its run of the same draws (simulate draws stream
        # version 9).
        network, layout = machine._network(CloningConfig(1, 0, 2))
        gen = montecarlo._generator(2**64 - 1)
        assert isinstance(gen.bit_generator, np.random.SFC64)
        assert gen.standard_normal(6)[0] == 0.21728240006079313
        f = oracles.stream_5_factor(gen, 6, 63, network.blocks)
        assert np.diagonal(f).tolist() == [7.881454728158118, 7.985206208374803,
                                           7.845187043753923, 7.285339973135244,
                                           7.54997316899557, 6.6257430809540026]
        panel = f[0::2] + 1j * f[1::2]
        assert panel.tolist() == [
            [7.881454728158118 + 3.3021115085599018j, 7.985206208374803j, 0j, 0j,
             0j, 0j],
            [1.399951398368141 - 1.5363264509192882j,
             1.4885654126643488 + 1.6823682997335367j,
             7.845187043753923 + 2.4278446056975485j, 7.285339973135244j, 0j, 0j],
            [0.6560889180429631 + 0.156634205860302j,
             -0.9792140073250882 - 0.14093539060709204j,
             -0.20503440502613063 + 0.7967575196869127j,
             -1.2029746926462845 + 0.7343144884131172j,
             7.54997316899557 + 1.188724806939439j, 6.6257430809540026j],
        ]
        transform, _ = build_machine(CloningConfig(1, 0, 2))
        emp = oracles.wishart_simulate(
            transform, layout, SampleConfig(64, 2**64 - 1, 0.5j),
            functools.partial(oracles.stream_5_factor, blocks=network.blocks))
        np.testing.assert_allclose(
            emp.means.ravel(),
            [-0.04487890895693126, 0.8533926795037939, -0.008246884552782652,
             -0.8742330320933258, 0.05583725671858301, 0.8266069923816147],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            emp.covariances.ravel(),
            [1.1562542514120788, 0.36992104724385483, 0.36992104724385483,
             0.877170278991396, 1.7838929760516662, -0.2198114747629683,
             -0.2198114747629683, 1.4233468169955066, 1.0742678737381057,
             0.27524565076445623, 0.27524565076445623, 0.9988603793151971],
            rtol=1e-12,
        )

    def test_stream_version_7_definition(self):
        # Stream version 7 is stream version 6 with every normal, g's and
        # F''s, drawn by the Box-Muller kernel from SFC64's uniforms;
        # the chi^2 diagonal is still one chisquare call.  (1, 0, 2) as in
        # the version 5 and 6 tests.  The draws are pinned to 1e-15, since
        # numpy's float64 log may round the last bit differently on its
        # AVX2 and AVX-512 paths, through the oracle that assembles F'
        # from its panels; the moments to 1e-12, through the oracle run
        # of the same draws (simulate draws stream version 9).
        # The pins hold on those two paths (X86_V3 and X86_V4) only:
        # numpy's X86_V2 baseline and non-x86 platforms round the float32
        # cosine and sine otherwise.
        network, layout = machine._network(CloningConfig(1, 0, 2))
        gen = montecarlo._generator(2**64 - 1)
        g = oracles.stream_7_normals(gen, 6)
        np.testing.assert_allclose(
            g, [-0.1490325405393271, -0.27550577769977963, 0.6169933810815991,
                -1.0241191069218503, -0.4254806973229294, 0.2209296790464515],
            rtol=1e-15, atol=0)
        f = oracles.stream_5_factor(gen, 6, 63, network.blocks, oracles.stream_7_normals)
        assert np.diagonal(f).tolist() == [7.881454728158118, 7.985206208374803,
                                           7.845187043753923, 7.285339973135244,
                                           7.54997316899557, 6.6257430809540026]
        np.testing.assert_allclose(f[0::2] + 1j * f[1::2], [
            [7.881454728158118 + 0.6324466456857031j, 7.985206208374803j, 0j, 0j,
             0j, 0j],
            [0.7620080672704982 - 1.172252094577825j,
             0.679864897797567 - 0.11202667729908565j,
             7.845187043753923 - 0.06891995253050963j, 7.285339973135244j, 0j, 0j],
            [0.5417052306070026 - 0.31020248925538735j,
             -0.8768434330229724 + 0.6965931695305206j,
             -0.6785812345245208 + 0.39381987315049094j,
             0.31145788979363787 + 0.2826380892871862j,
             7.54997316899557 + 1.310140610203915j, 6.6257430809540026j],
        ], rtol=1e-15, atol=0)
        transform, _ = build_machine(CloningConfig(1, 0, 2))
        emp = oracles.wishart_simulate(
            transform, layout, SampleConfig(64, 2**64 - 1, 0.5j),
            functools.partial(oracles.stream_5_factor, blocks=network.blocks,
                              normals=oracles.stream_7_normals),
            normals=oracles.stream_7_normals)
        np.testing.assert_allclose(
            emp.means.ravel(),
            [-0.0012031972691853173, 0.7605708298511179, 0.06395143263109773,
             -0.8107701690933302, 0.05198188989618086, 0.7329546199703113],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            emp.covariances.ravel(),
            [1.045615077715656, 0.12107388095393941, 0.12107388095393941,
             0.9698337852986576, 1.6212997524995065, -0.2335710279442492,
             -0.2335710279442492, 1.4105234876303914, 1.0371876004274843,
             0.21097299789100643, 0.21097299789100643, 0.8861598556628056],
            rtol=1e-12,
        )

    def test_stream_version_8_definition(self):
        # Stream version 8 draws the chi^2 diagonal first, in one
        # chisquare call, then each panel of F' in one kernel call over
        # its rows, every column, g in the first panel's lead column.
        # (1, 0, 2) as in the version 5 to 7 tests: one panel, g and F''s
        # 6 columns, over all 3 modes.  The draws are pinned to 1e-15
        # through the oracle that assembles them whole, and the moments
        # to 1e-12 through the oracle run of the same draws, on numpy's
        # X86_V3 and X86_V4 dispatch only, as for version 7.
        network, layout = machine._network(CloningConfig(1, 0, 2))
        gen = montecarlo._generator(2**64 - 1)
        chi = np.sqrt(gen.chisquare([63, 62, 61, 60, 59, 58]))
        assert chi.tolist() == [8.049285293713911, 7.676781813689778,
                                7.204739583178269, 7.689121977704805,
                                7.791284902439409, 7.649614703282343]
        g, f = oracles.stream_8_draws(montecarlo._generator(2**64 - 1), 6, 63,
                                      network.blocks)
        panel = np.column_stack((g.view(complex), f[0::2] + 1j * f[1::2]))
        np.testing.assert_allclose(panel, [
            [0.4650339527685802 + 2.3039881018181068j,
             8.049285293713911 - 0.6292687433631428j, 7.676781813689778j,
             0j, 0j, 0j, 0j],
            [0.7620080672704982 - 1.172252094577825j,
             0.679864897797567 - 0.11202667729908565j,
             1.842151763287668 - 0.06891995253050963j,
             7.204739583178269 - 0.1842372409667422j, 7.689121977704805j, 0j, 0j],
            [0.31145788979363787 + 0.2826380892871862j,
             -0.9067627698809306 + 1.310140610203915j,
             -2.5434268019056296 - 0.23656063532250718j,
             -0.2316192833575309 - 1.8156073260372039j,
             1.3597558484736465 - 0.9202366555183821j,
             7.791284902439409 + 1.6995070019964853j, 7.649614703282343j],
        ], rtol=1e-15, atol=0)
        # The kernel's draw, in the same place: g whole in the lead column,
        # F' on and below each block's diagonal.
        gen = montecarlo._generator(2**64 - 1)
        gen.chisquare([63, 62, 61, 60, 59, 58])
        z = oracles.stream_7_normals(gen, (3, 14))
        drawn = panel.view(float)
        normal = (drawn != 0) & ~np.isin(drawn, chi)
        # g's 6 normals, R's 14 below its diagonal and C's 1.
        assert normal.sum() == 6 + 14 + 1
        assert normal[:, :2].all()
        np.testing.assert_array_equal(drawn[normal], z[normal])
        transform, _ = build_machine(CloningConfig(1, 0, 2))
        emp = oracles.stream_8_simulate(transform, layout,
                                        SampleConfig(64, 2**64 - 1, 0.5j), network.blocks)
        np.testing.assert_allclose(
            emp.means.ravel(),
            [0.10819520500208946, 1.0016831189991988, 0.13635459109439324,
             -1.0572839943298638, 0.06926296877788472, 0.9663533578383003],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            emp.covariances.ravel(),
            [0.9370514984841553, -0.04523377335301815, -0.04523377335301815,
             1.0028757265835295, 1.5222014053675736, -0.1481395888720133,
             -0.1481395888720133, 1.4204263701249282, 1.2115381956794316,
             0.23487014531332584, 0.23487014531332584, 0.9530724058971453],
            rtol=1e-12,
        )

    def test_stream_version_9_definition(self):
        # Stream version 9 draws as version 8 but lays A's Bartlett factor,
        # mode-reversed, over C's columns.  (1, 1, 3) at n = 7 has K = 6
        # modes, R = 0:2, C = 2:4 and A = 4:6: F' has R's 4 columns, then
        # 2 that C and A share, with 6 - 4 degrees of freedom, C's
        # diagonal from mode 2 down and A's from mode 5 up.  One panel: g
        # and F''s 6 columns over all 6 modes.  The draws are pinned to
        # 1e-15 and the moments of simulate to 1e-12, on numpy's X86_V3
        # and X86_V4 dispatch only, as for version 7.
        assert montecarlo.STREAM_VERSION == 9
        network, layout = machine._network(CloningConfig(1, 1, 3))
        factor = montecarlo._factor_blocks(network.blocks, 6)
        assert factor == [(0, 0, 4, 6, 0, 6, False), (4, 4, 2, 2, 2, 4, False),
                          (4, 6, 2, 2, 4, 6, True)]
        gen = montecarlo._generator(2**64 - 1)
        chi = np.sqrt(gen.chisquare([6, 5, 4, 3, 2, 1, 2, 1]))
        assert chi.tolist() == [2.4647341503629683, 1.928320495121848,
                                1.2867540534506587, 1.5138502967398555,
                                1.8197128180634028, 0.14659939275990977,
                                1.0015552626168769, 2.1702250543408237]
        panel = np.empty((6, 7), dtype=complex)
        assert montecarlo._factor_panel(gen, chi, factor, 0, panel) == (0, 6)
        np.testing.assert_allclose(panel, [
            [-0.7625136089514966 - 0.6292687433631428j,
             2.4647341503629683 + 0.04156220714922898j, 1.928320495121848j,
             0j, 0j, 0j, 0j],
            [0.679864897797567 - 0.11202667729908565j,
             1.842151763287668 - 0.06891995253050963j,
             -0.6132400868932025 - 0.1842372409667422j,
             1.2867540534506587 - 0.31020248925538735j, 1.5138502967398555j,
             0j, 0j],
            [-0.9067627698809306 + 1.310140610203915j,
             -2.5434268019056296 - 0.23656063532250718j,
             -0.2316192833575309 - 1.8156073260372039j,
             1.3597558484736465 - 0.9202366555183821j,
             -0.18808130745583349 + 1.6995070019964853j,
             1.8197128180634028 - 1.2722078979666687j, 0.14659939275990977j],
            [0.23477113893907772 - 0.3330623584845805j,
             1.4781596821768668 - 1.664226079335721j,
             1.6389016639980314 - 0.8751639269439871j,
             -0.526694538628629 + 0.523754085032823j,
             1.013615963850363 + 0.5461272160690008j,
             -2.913705868451118 - 0.911676387649003j,
             0.71325704349685 + 0.2295713524449295j],
            [0.07158465916906523 + 1.194986624869736j,
             0.5710220859043689 + 0.34737150366639863j,
             -1.4368478702583236 + 0.5043488809357671j,
             0.2410391425138042 + 0.8536032133350323j,
             -0.22086106985365442 + 1.2717947892848047j,
             -0.2746485469874166 + 1.561323631261681j,
             -0.65727183421804 + 0.7070276630053726j],
            [-0.12178703030823722 - 0.9043155175767583j,
             -0.9135746982853548 + 1.6412388127899629j,
             0.08344343918475612 - 0.266615080311718j,
             -0.5831547426755794 - 0.8502001739072587j,
             0.5985315390052924 + 0.2666134596797283j,
             1.0015552626168769 + 0.6792583713474454j, 2.1702250543408237j],
        ], rtol=1e-15, atol=0)
        g, f = oracles.stream_9_draws(montecarlo._generator(2**64 - 1), 12, 6,
                                      network.blocks)
        np.testing.assert_array_equal(g.view(complex), panel[:, 0])
        np.testing.assert_array_equal(f[0::2] + 1j * f[1::2], panel[:, 1:])
        transform, _ = build_machine(CloningConfig(1, 1, 3))
        emp = simulate(transform, layout, SampleConfig(7, 2**64 - 1, 0.5j))
        np.testing.assert_allclose(
            emp.means.ravel(),
            [-0.17898360356380505, 0.7557339276707677, 0.045457852534712434,
             -0.6261557995796, 0.19613446920035643, 0.6821281416258616,
             -0.24302999692551358, 0.37704037146948177, 0.3376084924687658,
             -0.7192734669085494, -0.2234536052708975, -0.6675927090281418],
            rtol=1e-12,
        )
        np.testing.assert_allclose(
            emp.covariances.ravel(),
            [0.39084006684481803, -0.05795594582270414, -0.05795594582270414,
             0.28484484150408085, 0.4708220076469561, 0.24619425314364307,
             0.24619425314364307, 0.8045339718761015, 1.0329993933095938,
             0.4295644292935856, 0.4295644292935856, 1.6731238666451773,
             0.43431228123036153, 0.10586727941692915, 0.10586727941692915,
             1.4189529969669936, 0.5135389157555699, -0.21342631189014272,
             -0.21342631189014272, 0.2904906965947441, 0.8029375810696849,
             0.05343619168067139, 0.05343619168067139, 0.46787213562095953],
            rtol=1e-12,
        )

    @pytest.mark.parametrize("counts, samples", [((2, 2, 12), 64), ((1, 1, 2), 9)])
    def test_matches_stream_6_in_law(self, counts, samples):
        # Each mode's x and p variance over 1000 runs of simulate (stream
        # version 9) and of stream version 6 (the same F' from SFC64's
        # ziggurat normals, through the oracle), on disjoint seeds, must
        # pass a two-sample KS test; modes are pooled by role, as in the
        # stream version 3 test.
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        stream_6 = functools.partial(
            oracles.wishart_simulate,
            factor=functools.partial(oracles.stream_5_factor,
                                     blocks=transform._network.blocks))
        assert_same_variance_law(transform, layout, samples, simulate, stream_6)

    @pytest.mark.parametrize("counts, samples", [((2, 2, 12), 64), ((4, 4, 40), 100)])
    def test_matches_stream_7_in_law(self, counts, samples):
        # As above against stream version 7, the same F' from the same
        # kernel drawn in another order, through the oracle.  At
        # (4, 4, 40) and n = 100 the panels straddle the block boundaries.
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        stream_7 = functools.partial(
            oracles.wishart_simulate,
            factor=functools.partial(oracles.stream_5_factor,
                                     blocks=transform._network.blocks,
                                     normals=oracles.stream_7_normals),
            normals=oracles.stream_7_normals)
        assert_same_variance_law(transform, layout, samples, simulate, stream_7)

    @pytest.mark.parametrize("counts, samples", [((2, 2, 12), 64), ((2, 3, 5), 20)])
    def test_matches_stream_8_in_law(self, counts, samples):
        # As above against stream version 8, whose C and A columns do not
        # share F''s columns and whose A factor runs in mode order, through
        # the oracle.  At (2, 3, 5) and n = 20, N != N': C's factor has 8
        # columns and A's trapezoid 9, with 19 - 10 degrees of freedom.
        cfg = CloningConfig(*counts)
        transform, layout = build_machine(cfg)
        stream_8 = functools.partial(oracles.stream_8_simulate,
                                     blocks=transform._network.blocks)
        assert_same_variance_law(transform, layout, samples, simulate, stream_8)

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

    def test_linked_transform_is_gated_on_its_stages(self, monkeypatch):
        # A transform from build_machine pushes its panels through the
        # stages it links, so their probe bound gates it, and no bound is
        # read through (M, L).
        calls = []
        real = canonical._probe_bound

        def spy(k, push):
            calls.append(k)
            return real(k, push)

        monkeypatch.setattr(canonical, "_probe_bound", spy)
        transform, layout = build_machine(CloningConfig(2, 2, 6))
        simulate(transform, layout, SampleConfig(100, 0))
        assert calls == []
        assert "commutation_residual" in vars(transform._network)
        assert "commutation_residual" not in vars(transform)
        # A bare transform is gated on the bound through its own (M, L).
        simulate(dataclasses.replace(transform), layout, SampleConfig(100, 0))
        assert calls == [14]

    def test_non_canonical_transform_rejected(self):
        bad = CanonicalTransform(
            np.array([[2.0 + 0j]]), np.array([[0.0 + 0j]])
        )
        _, layout = build_machine(CloningConfig(1, 0, 1))
        with pytest.raises(DomainError):
            simulate(bad, layout, SampleConfig(100, 0))
        # A residual already computed and cached is still checked.
        want = oracles.dense_commutation_residual(bad.m_matrix, bad.l_matrix)
        assert commutation_residual(bad) >= want == 3.0
        with pytest.raises(DomainError):
            simulate(bad, layout, SampleConfig(100, 0))

    def test_mode_count_mismatch_rejected(self, monkeypatch):
        # Refused before the certificates of the fresh transform are paid.
        calls = []
        real = canonical._probe_bound

        def spy(k, push):
            calls.append(k)
            return real(k, push)

        monkeypatch.setattr(canonical, "_probe_bound", spy)
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

    @pytest.mark.parametrize("roles, shape", [(("clone",) * 3, (4, 5)),
                                              (("clone",) * 4, (4, 4)),
                                              (("clone", "vacuum"), (2, 5))])
    def test_table_and_roles_validated(self, roles, shape):
        with pytest.raises(DomainError):
            ComparisonSummary(roles, np.zeros(shape))

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
        assert list(doc) == ["columns", "by_role", "flagged", "threshold", "max_abs_z",
                             "worst", "passed"]
        columns = ["z_mean_x", "z_mean_p", "z_var_x", "z_var_p", "z_fidelity"]
        assert doc["columns"] == columns
        assert summary.roles == ("clone", "anticlone", "clone", "anticlone")
        # One entry a role, its lists aligned with the columns: the
        # crossings, the mean and spread over the role's modes, and its
        # worst mode and score.
        assert list(doc["by_role"]) == ["clone", "anticlone"]
        for role, entry in doc["by_role"].items():
            assert list(entry) == ["modes", "above", "mean", "spread", "worst_mode",
                                   "worst_z"]
            modes = [j for j, r in enumerate(summary.roles) if r == role]
            z = summary.z[modes]
            assert entry["modes"] == len(modes) == 2
            assert entry["above"] == [0] * 5
            np.testing.assert_allclose(entry["mean"], z.mean(axis=0), rtol=1e-12)
            np.testing.assert_allclose(entry["spread"], z.std(axis=0), rtol=1e-12)
            assert {summary.roles[j] for j in entry["worst_mode"]} == {role}
            assert entry["worst_z"] == [summary.z[j, c]
                                        for c, j in enumerate(entry["worst_mode"])]
            assert np.abs(entry["worst_z"]).tolist() == np.abs(z).max(axis=0).tolist()
        assert doc["flagged"] == []
        assert doc["max_abs_z"] == np.max(np.abs(summary.z))
        worst = doc["worst"]
        assert list(worst) == ["mode", "role", "column", "z"]
        assert abs(worst["z"]) == doc["max_abs_z"]
        assert summary.z[worst["mode"], columns.index(worst["column"])] == worst["z"]
        assert worst["role"] == summary.roles[worst["mode"]]
        # The rows CSV writes carry the whole table, one dict per mode.
        assert [list(row) for row in summary.rows] == [["mode", "role", *columns]] * 4
        assert [[row["mode"], row["role"], *(row[c] for c in columns)]
                for row in summary.rows] == [
            [mode, role, *z]
            for mode, (role, z) in enumerate(zip(summary.roles, summary.z.tolist()))]
        assert doc["passed"] is summary.passed is True
        with pytest.raises(ValueError):
            summary.z[0, 0] = 0.0

    @pytest.mark.parametrize("threshold", [5.0, 1.0])
    @pytest.mark.parametrize("counts", [(1, 0, 1), (2, 0, 2), (2, 0, 3), (2, 1, 2),
                                        (2, 2, 6), (3, 0, 64), (1, 3, 40)])
    def test_summary_matches_per_mode_oracle(self, counts, threshold):
        # N' = 0 with M' = 0 or 1, M' = 1 with N' = 1, and layouts with
        # residual modes; at threshold 1 many scores cross, so the counts
        # and the flagged rows are not empty.
        cfg = CloningConfig(*counts)
        _, layout, emp = run(cfg, 500, 17, 0.4 - 0.9j)
        summary = compare_to_analytic(emp, noise_report(cfg), layout, threshold)
        doc = summary.to_dict()
        want = oracles.comparison_summary(summary.roles, summary.z, threshold)
        # The role codes compare_to_analytic hands over are the roles',
        # and a summary built from the names alone prints the same.
        rebuilt = ComparisonSummary(summary.roles, summary.z, threshold)
        assert summary._codes.tolist() == rebuilt._codes.tolist()
        assert json.dumps(rebuilt.to_dict()) == json.dumps(doc)
        assert doc["flagged"] == want["flagged"]
        assert [row["mode"] for row in doc["flagged"]] == summary.flagged()
        assert list(doc["by_role"]) == list(want["by_role"])
        for role, entry in doc["by_role"].items():
            expected = want["by_role"][role]
            for key in ("modes", "above", "worst_mode", "worst_z"):
                assert entry[key] == expected[key], (role, key)
            for key in ("mean", "spread"):
                np.testing.assert_allclose(entry[key], expected[key], rtol=1e-12, atol=0)

    def test_non_finite_scores_serialize_as_null(self):
        # A row with NaN z-scores and a row with an infinite one: every
        # non-finite z, and the mean and spread of every column that holds
        # one, is None, so json.dumps takes the summary with
        # allow_nan=False; the other columns keep their numbers.
        z = np.arange(25.0).reshape(5, 5) / 10
        z[1, :2] = np.nan
        z[2, 3] = -np.inf
        roles = ("clone", "clone", "clone", "anticlone", "clone")
        summary = ComparisonSummary(roles, z)
        doc = summary.to_dict()
        text = json.dumps(doc, allow_nan=False)
        assert json.loads(text) == doc
        assert doc["max_abs_z"] is None and doc["passed"] is False
        assert doc["worst"] == {"mode": 1, "role": "clone", "column": "z_mean_x",
                                "z": None}
        assert doc["flagged"] == [
            {"mode": 1, "role": "clone", "z": [None, None, 0.7, 0.8, 0.9]},
            {"mode": 2, "role": "clone", "z": [1.0, 1.1, 1.2, None, 1.4]},
        ]
        clone = doc["by_role"]["clone"]
        assert clone["above"] == [1, 1, 0, 1, 0]
        assert clone["mean"][:2] == clone["spread"][:2] == [None, None]
        assert clone["mean"][3] is clone["spread"][3] is None
        assert clone["worst_mode"] == [1, 1, 4, 2, 4]
        assert clone["worst_z"] == [None, None, 2.2, None, 2.4]
        np.testing.assert_allclose([clone["mean"][c] for c in (2, 4)],
                                   z[[0, 1, 2, 4]][:, [2, 4]].mean(axis=0), rtol=1e-12)
        assert doc["by_role"]["anticlone"]["spread"] == [0.0] * 5
        want = oracles.comparison_summary(roles, z)
        assert doc["flagged"] == want["flagged"]
        for key in ("modes", "above", "worst_mode", "worst_z"):
            assert clone[key] == want["by_role"]["clone"][key]

    def test_huge_scores_keep_a_finite_spread(self):
        # 1e300 squared overflows; each role's column is scaled by its
        # largest |z| first, so its mean and spread stay finite and exact
        # to rounding, and no RuntimeWarning (an error here) is raised.
        z = np.zeros((4, 5))
        z[:2, 2] = 1e300
        summary = ComparisonSummary(("clone",) * 3 + ("residual",), z)
        doc = summary.to_dict()
        json.dumps(doc, allow_nan=False)
        clone = doc["by_role"]["clone"]
        assert clone["mean"][2] == pytest.approx(2e300 / 3, rel=1e-12)
        assert clone["spread"][2] == pytest.approx(math.sqrt(2.0) / 3 * 1e300, rel=1e-12)
        assert clone["mean"][0] == clone["spread"][0] == 0.0
        assert doc["by_role"]["residual"]["spread"] == [0.0] * 5


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
