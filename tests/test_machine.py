import dataclasses
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from pciclone import gaussian, machine, montecarlo
from pciclone.canonical import commutation_residual, to_symplectic
from pciclone.errors import DomainError
from pciclone.gaussian import (
    apply_map,
    fidelity_with_coherent,
    marginal,
    quadrature_variance,
)
from pciclone.machine import (
    CloningConfig,
    asymmetry_gain,
    asymmetry_noise,
    attenuates,
    build_machine,
    gain_from_amplitudes,
    gain_from_counts,
    measurement_noise,
    noise_report,
    p_function_density,
)

import oracles

PSI_GRID = [0j, 0.7 + 0j, 1.3j, -0.4 + 0.9j]


def small_configs():
    for n in range(0, 5):
        for nc in range(0, 5 - n):
            if n + nc == 0:
                continue
            for m in range(max(n, 1), 7):
                yield CloningConfig(n, nc, m)


class TestCloningConfig:
    def test_anticlone_count(self):
        assert CloningConfig(1, 3, 6).m_anticlones == 8
        assert CloningConfig(2, 0, 2).m_anticlones == 0

    @pytest.mark.parametrize(
        "n, nc, m",
        [(2, 1, 1), (0, 0, 3), (1, 1, 0), (-1, 2, 2), (1, -1, 2)],
    )
    def test_invalid_counts(self, n, nc, m):
        with pytest.raises(DomainError):
            CloningConfig(n, nc, m)

    def test_non_integer_rejected(self):
        with pytest.raises(DomainError):
            CloningConfig(1.5, 1, 2)
        with pytest.raises(DomainError):
            CloningConfig(True, 1, 2)

    def test_attenuation_message_names_bound(self):
        with pytest.raises(DomainError, match="attenuation"):
            CloningConfig(3, 1, 2)

    @pytest.mark.parametrize("counts", [(4_000_000_000, 0, 4_000_000_000),
                                        (3, 2, 7)])
    def test_numpy_integer_counts_report_as_python_ints(self, counts):
        # N M = 1.6e19 wraps past 2^63 in int64, which made the gain's
        # square root raise; the counts are stored as Python ints.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            config = CloningConfig(*(np.int64(c) for c in counts))
            got = noise_report(config)
        assert [type(c) for c in dataclasses.astuple(config)] == [int] * 3
        assert repr(got) == repr(noise_report(CloningConfig(*counts)))


class TestGainFromAmplitudes:
    def test_conjugate_only(self):
        assert gain_from_amplitudes(0, 1, 1) == pytest.approx(2.0, rel=1e-14)

    def test_signal_only(self):
        assert gain_from_amplitudes(1, 0, math.sqrt(3)) == pytest.approx(
            3.0, rel=1e-14
        )

    def test_generic_point(self):
        expect = (2 * math.sqrt(2) - math.sqrt(3)) ** 2
        assert gain_from_amplitudes(1, math.sqrt(2), math.sqrt(3)) == pytest.approx(
            expect, rel=1e-14
        )

    def test_balanced_limit_continuity(self):
        # Approaching alpha = beta from either side must land on the
        # closed-form limit value.
        alpha, gamma = 0.8, 1.9
        limit = ((gamma**2 + alpha**2) / (2 * alpha * gamma)) ** 2
        assert gain_from_amplitudes(alpha, alpha, gamma) == pytest.approx(
            limit, rel=1e-14
        )
        for eps in (1e-7, -1e-7):
            assert gain_from_amplitudes(alpha, alpha + eps, gamma) == pytest.approx(
                limit, rel=1e-6
            )

    def test_sign_invariance(self):
        assert gain_from_amplitudes(-1, 2, -3) == gain_from_amplitudes(1, 2, 3)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            gain_from_amplitudes(2, 1, 1)
        with pytest.raises(DomainError):
            gain_from_amplitudes(0, 0, 1)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1, 2), (0, math.inf, 1), (1, 1, math.nan), (1, 1, 10**400)]
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            gain_from_amplitudes(*args)

    def test_rescaling_keeps_in_range_bits(self):
        # Every square and product of these stays a normal float, so the
        # unscaled formula is exact to rounding wherever its gain is finite.
        rng = np.random.default_rng(6)
        values = [0.0, 1e-150, 3.7e-91, 2.2e-20, 0.3, 1.0, 2.5, 1.7e7, 4.1e80, 1e150]
        triples = list(itertools.product(values, repeat=3))
        triples += (10.0 ** rng.uniform(-150, 150, size=(3000, 3))).tolist()
        compared = 0
        for alpha, beta, gamma in triples:
            if alpha == beta == 0.0 or gamma < alpha:
                continue
            try:
                old = oracles.unscaled_gain_from_amplitudes(alpha, beta, gamma)
            except (OverflowError, ZeroDivisionError):
                continue
            if math.isfinite(old):
                assert gain_from_amplitudes(alpha, beta, gamma) == old
                compared += 1
        assert compared > 1000

    def test_tiny_common_scale(self):
        assert gain_from_amplitudes(1e-200, 1e-200, 1e-200) == 1.0
        assert gain_from_amplitudes(0.0, 1e-300, 1e-300) == pytest.approx(2.0)

    @pytest.mark.parametrize(
        "args", [(1.0, 1.0, 1e200), (1e-300, 0.0, 1e300), (1e-10, 0.0, 1e200)]
    )
    def test_gain_beyond_float_range_rejected(self, args):
        with pytest.raises(DomainError, match="float range"):
            gain_from_amplitudes(*args)


class TestGainFromCounts:
    def test_balanced_pair(self):
        assert gain_from_counts(CloningConfig(1, 1, 2)) == pytest.approx(
            9 / 8, rel=1e-15
        )

    def test_identity_machine(self):
        assert gain_from_counts(CloningConfig(1, 0, 1)) == pytest.approx(
            1.0, rel=1e-15
        )

    @pytest.mark.parametrize("m", [1, 2, 5, 17])
    def test_conjugate_only_noise_is_m_independent(self, m):
        for n in (1, 2, 4):
            g = gain_from_counts(CloningConfig(0, n, m))
            assert (g - 1) / m == pytest.approx(1 / n, rel=1e-12)

    def test_matches_amplitude_formula(self):
        for cfg in small_configs():
            g_counts = gain_from_counts(cfg)
            g_amps = gain_from_amplitudes(
                math.sqrt(cfg.n_inputs),
                math.sqrt(cfg.n_conj),
                math.sqrt(cfg.m_clones),
            )
            assert g_counts == pytest.approx(g_amps, rel=1e-13)

    @given(
        st.integers(0, 8), st.integers(0, 8), st.integers(1, 30)
    )
    def test_duality_bit_exact(self, n, nc, m):
        if n + nc == 0 or m < n:
            return
        cfg = CloningConfig(n, nc, m)
        if cfg.m_anticlones < 1:
            return  # dual machine would have no clone ports
        dual = CloningConfig(nc, n, cfg.m_anticlones)
        assert gain_from_counts(cfg) == gain_from_counts(dual)


def test_counts_beyond_float_range_rejected():
    with pytest.raises(DomainError, match="float range"):
        gain_from_counts(CloningConfig(10**200, 1, 10**200))


class TestAsymmetryGain:
    def test_standard_cloner_end(self):
        for n, m in [(4, 8), (8, 16), (3, 3)]:
            assert asymmetry_gain(n, m, 0.0) == pytest.approx(
                gain_from_counts(CloningConfig(n, 0, m)), rel=1e-13
            )

    @pytest.mark.parametrize("m", [2, 8, 64, 10**6])
    def test_conjugate_end_noise(self, m):
        n = 8
        g = asymmetry_gain(n, m, 1.0)
        assert (g - 1) / m == pytest.approx(1 / n, rel=1e-12)

    def test_balanced_point(self):
        assert asymmetry_gain(2, 2, 0.5) == pytest.approx(9 / 8, rel=1e-14)

    def test_continuity_at_half(self):
        for n, m in [(8, 16), (6, 9), (2, 5)]:
            mid = asymmetry_gain(n, m, 0.5)
            assert asymmetry_gain(n, m, 0.5 - 1e-9) == pytest.approx(mid, abs=1e-8)
            assert asymmetry_gain(n, m, 0.5 + 1e-9) == pytest.approx(mid, abs=1e-8)

    def test_feasibility_boundary_is_inside(self):
        n, m = 8, 4
        a_lo = 1 - m / n
        assert asymmetry_gain(n, m, a_lo) == pytest.approx(1.0, rel=1e-12)

    def test_large_m_symmetry(self):
        # The a <-> 1-a asymmetry of the added noise vanishes as O(1/M);
        # at a = 0 the gap is exactly 1/M.
        n = 8
        m = 1e4 * n
        for a in np.linspace(0.0, 0.5, 26):
            lo = (asymmetry_gain(n, m, a) - 1) / m
            hi = (asymmetry_gain(n, m, 1 - a) - 1) / m
            assert abs(lo - hi) <= 1.5 / m

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            asymmetry_gain(8, 4, 0.2)  # (1-a)n = 6.4 > M
        with pytest.raises(DomainError):
            asymmetry_gain(0, 4, 0.5)
        with pytest.raises(DomainError):
            asymmetry_gain(8, 0, 0.5)
        with pytest.raises(DomainError):
            asymmetry_gain(8, 8, 1.5)

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 8, 0.5), (8, math.inf, 0.5), (8, 8, math.nan), (10**400, 8, 0.5)],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            asymmetry_gain(*args)

    @pytest.mark.parametrize(
        "args",
        [
            (1e-310, 8.0, 0.5),  # gain overflows
            (1e-310, 1e308, 0.5),  # sqrt(G) overflows to inf
            (1e-200, 1e-200, 0.0),  # n*M underflows to 0
            (1e300, 1e-300, 1.0),  # n*M' overflows
            (5e-324, 1.0, 0.5),  # a*n underflows to 0
        ],
    )
    def test_out_of_float_range_rejected(self, args):
        with pytest.raises(DomainError, match="float range"):
            asymmetry_gain(*args)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.floats(1e-3, 1e6),
        m=st.floats(1e-3, 1e6),
        t=st.floats(0.0, 1.0),
    )
    def test_range_guard_keeps_gain_bits(self, n, m, t):
        # The guard only refuses; in range the gain keeps the bits of the
        # plain expression.
        a = max(1.0 - m / n, 0.0) + t * min(m / n, 1.0)
        if a > 1.0:
            return
        n_sig, n_con = (1.0 - a) * n, a * n
        m_anti = max(m + (2.0 * a - 1.0) * n, 0.0)
        plain = (
            (m + n_con) / (math.sqrt(n_sig * m) + math.sqrt(n_con * m_anti))
        ) ** 2
        assert asymmetry_gain(n, m, a) == plain


class TestMeasurementNoise:
    def test_values(self):
        assert measurement_noise(1, 1) == pytest.approx(0.25, rel=1e-15)
        assert measurement_noise(1, 0) == pytest.approx(1.0, rel=1e-15)
        assert measurement_noise(2, 2) == pytest.approx(0.125, rel=1e-15)

    def test_is_large_m_limit(self):
        m = 10**6
        for n, nc in [(1, 1), (2, 2), (3, 1), (1, 4)]:
            n_th = (gain_from_counts(CloningConfig(n, nc, m)) - 1) / m
            assert n_th == pytest.approx(measurement_noise(n, nc), abs=1e-6)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            measurement_noise(0, 0)
        with pytest.raises(DomainError):
            measurement_noise(-1, 2)

    @pytest.mark.parametrize(
        "args", [(math.nan, 1), (math.inf, 0), (1.5, 1), (1, 2.0), (10**400, 1)]
    )
    def test_non_finite_or_non_integer_rejected(self, args):
        with pytest.raises(DomainError):
            measurement_noise(*args)


class TestAsymmetryNoise:
    @given(
        st.floats(-3, 6), st.floats(-3, 6), st.floats(0.0, 1.0)
    )
    def test_matches_gain_away_from_cancellation(self, log_n, log_m, a):
        n, m = 10.0**log_n, 10.0**log_m
        if attenuates(n, m, a):
            return
        gain = asymmetry_gain(n, m, a)
        if gain - 1.0 < 1e-2:
            return  # (G - 1)/M cancels here: the case the identity is for
        assert asymmetry_noise(n, m, a) == pytest.approx((gain - 1.0) / m, rel=1e-12)

    @pytest.mark.parametrize("m", [1e-300, 1e-17, 1.0, 1e10])
    def test_conjugate_only_split_adds_one_over_n(self, m):
        # G - 1 = M/n at a = 1; G itself rounds to 1 once M/n < eps.
        assert asymmetry_noise(4.0, m, 1.0) == pytest.approx(0.25, rel=1e-15)

    def test_no_amplification_at_m_equals_n(self):
        assert asymmetry_noise(8.0, 8.0, 0.0) == 0.0
        assert asymmetry_noise(8.0, 4.0, 0.5) == 0.0

    def test_attenuation_rejected(self):
        with pytest.raises(DomainError, match="attenuation"):
            asymmetry_noise(8.0, 4.0, 0.0)


class TestPFunctionDensity:
    def test_peak_value(self):
        assert p_function_density(1 / 16, 0.3 + 0.2j, 0.3 + 0.2j) == pytest.approx(
            16 / math.pi, rel=1e-14
        )

    def test_normalization(self):
        n_th = 0.37
        # d^2 xi = r dr dtheta; the density is isotropic around psi.
        total, _ = quad(
            lambda r: 2 * math.pi * r * p_function_density(n_th, r, 0),
            0.0,
            6.0 * math.sqrt(n_th),
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_second_moment(self):
        n_th = 0.21
        moment, _ = quad(
            lambda r: 2 * math.pi * r**3 * p_function_density(n_th, r, 0),
            0.0,
            np.inf,
        )
        assert moment == pytest.approx(n_th, rel=1e-9)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(DomainError):
            p_function_density(0.0, 0, 0)

    @pytest.mark.parametrize(
        "args", [(math.inf, 0, 0), (1.0, math.nan, 0), (10**400, 0, 0), (1.0, 0, 10**400)]
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            p_function_density(*args)


class TestNoiseReport:
    def test_one_one_three(self):
        rep = noise_report(CloningConfig(1, 1, 3))
        assert rep.f_clone == pytest.approx(9 / 10, rel=1e-12)
        assert rep.baseline_f == pytest.approx(6 / 7, rel=1e-12)
        assert rep.f_clone > rep.baseline_f

    def test_one_one_two_loses_to_perfect_baseline(self):
        rep = noise_report(CloningConfig(1, 1, 2))
        assert rep.n_th_clone == pytest.approx(1 / 16, rel=1e-12)
        assert rep.f_clone == pytest.approx(16 / 17, rel=1e-12)
        assert rep.baseline_f == 1.0
        assert rep.baseline_var == 0.5

    def test_large_m_halving(self):
        rep = noise_report(CloningConfig(1, 1, 10**6))
        assert rep.n_th_clone == pytest.approx(0.25, abs=1e-5)
        assert rep.baseline_var - 0.5 == pytest.approx(0.5, abs=1e-5)

    def test_internal_identities(self):
        for cfg in small_configs():
            rep = noise_report(cfg)
            assert rep.var_clone == pytest.approx(0.5 + rep.n_th_clone, abs=1e-15)
            assert rep.f_clone == pytest.approx(1 / (1 + rep.n_th_clone), abs=1e-15)
            if cfg.m_anticlones >= 1:
                assert rep.var_anticlone == pytest.approx(
                    0.5 + rep.n_th_anticlone, abs=1e-15
                )
                assert rep.f_anticlone == pytest.approx(
                    1 / (1 + rep.n_th_anticlone), abs=1e-15
                )
            assert rep.gain >= 1.0 - 1e-12

    def test_no_anticlone_channel(self):
        rep = noise_report(CloningConfig(2, 0, 2))
        assert rep.n_th_anticlone is None
        assert rep.var_anticlone is None
        assert rep.f_anticlone is None

    def test_serialization_keys(self):
        doc = noise_report(CloningConfig(1, 1, 2)).to_dict()
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

    def test_anticlone_baseline(self):
        assert noise_report(CloningConfig(1, 1, 3)).baseline_f_anticlone == (
            pytest.approx(2 / 3, rel=1e-14)
        )

    def test_fidelity_against_p_function_oracle(self):
        rep = noise_report(CloningConfig(1, 1, 3))
        assert rep.f_clone == pytest.approx(
            oracles.thermal_overlap_fidelity(rep.n_th_clone), rel=1e-9
        )

    def test_noise_within_16_ulp_of_exact(self):
        # (G - 1)/M with G rounded first missed by up to 658 ulp, at (8, 8, 9).
        for n, nc in itertools.product(range(9), repeat=2):
            for m in range(max(n, 1), 65) if n + nc else ():
                rep = noise_report(CloningConfig(n, nc, m))
                clone, anti = oracles.exact_added_noise(n, nc, m)
                assert oracles.ulps_from(rep.n_th_clone, clone) <= 16, (n, nc, m)
                if anti is not None:
                    assert oracles.ulps_from(rep.n_th_anticlone, anti) <= 16

    def test_noise_next_to_huge_counts(self):
        # G - 1 = 1/N is below the float epsilon of G = M/N.
        n = 2**53 - 1
        rep = noise_report(CloningConfig(n, 0, n + 1))
        clone, anti = oracles.exact_added_noise(n, 0, n + 1)
        assert oracles.ulps_from(rep.n_th_clone, clone) <= 16
        assert oracles.ulps_from(rep.n_th_anticlone, anti) <= 16

    @pytest.mark.parametrize("counts", [(1, 1, 2), (1, 0, 2), (0, 1, 1), (2, 1, 4),
                                        (1, 2, 3), (2, 2, 4), (0, 2, 3), (2, 0, 4),
                                        (1, 1, 4)])
    def test_fidelities_match_truncated_fock_space(self, counts):
        # Outside phase space: squeezed Fock vectors and a Kraus loss
        # channel, at a cutoff whose dropped levels hold far less than
        # 1e-12 (at 60 levels, (0, 2, 3) still missed by 7e-13).
        cfg, psi = CloningConfig(*counts), 0.7 - 0.4j
        f_clone, f_anti = oracles.fock_fidelities(cfg, psi, cutoff=70)
        rep = noise_report(cfg)
        assert abs(f_clone - rep.f_clone) <= 1e-12
        assert abs(f_anti - rep.f_anticlone) <= 1e-12
        transform, layout = build_machine(cfg)
        state = apply_map(layout.input_state(psi), to_symplectic(transform))
        for slots, target, want in ((layout.clone_slots, psi, f_clone),
                                    (layout.anticlone_slots, np.conj(psi), f_anti)):
            for mode in slots:
                assert abs(fidelity_with_coherent(state, mode, target) - want) <= 1e-12

    @given(st.integers(0, 8), st.integers(0, 8), st.integers(1, 64))
    def test_noise_duality_bit_exact(self, n, nc, m):
        if n + nc == 0 or m < n or m + nc - n < 1:
            return
        rep = noise_report(CloningConfig(n, nc, m))
        dual = noise_report(CloningConfig(nc, n, m + nc - n))
        assert rep.n_th_clone == dual.n_th_anticlone
        assert rep.n_th_anticlone == dual.n_th_clone


class TestBuildMachine:
    def test_headline_example(self):
        cfg = CloningConfig(1, 1, 2)
        transform, layout = build_machine(cfg)
        assert layout.total_modes == 4
        state = apply_map(layout.input_state(0.5 - 0.2j), to_symplectic(transform))
        for mode in layout.clone_slots:
            assert quadrature_variance(state, mode) == pytest.approx(
                (0.5625, 0.5625), abs=1e-12
            )

    def test_identity_machine(self):
        transform, layout = build_machine(CloningConfig(1, 0, 1))
        psi = 1.1 + 0.3j
        state = apply_map(layout.input_state(psi), to_symplectic(transform))
        (clone,) = layout.clone_slots
        assert quadrature_variance(state, clone) == pytest.approx(
            (0.5, 0.5), abs=1e-14
        )
        assert layout.anticlone_slots == ()

    def test_standard_two_to_three(self):
        transform, layout = build_machine(CloningConfig(2, 0, 3))
        state = apply_map(layout.input_state(0.9j), to_symplectic(transform))
        assert quadrature_variance(state, layout.clone_slots[0]) == pytest.approx(
            (2 / 3, 2 / 3), abs=1e-12
        )

    @pytest.mark.parametrize("psi", PSI_GRID)
    def test_mean_exactness(self, psi):
        for cfg in small_configs():
            transform, layout = build_machine(cfg)
            state = apply_map(layout.input_state(psi), to_symplectic(transform))
            for mode in layout.clone_slots:
                amp = (state.mean[2 * mode] + 1j * state.mean[2 * mode + 1]) / (
                    math.sqrt(2)
                )
                assert abs(amp - psi) < 1e-12
            for mode in layout.anticlone_slots:
                amp = (state.mean[2 * mode] + 1j * state.mean[2 * mode + 1]) / (
                    math.sqrt(2)
                )
                assert abs(amp - np.conj(psi)) < 1e-12

    def test_covariance_is_amplitude_independent(self):
        transform, layout = build_machine(CloningConfig(2, 1, 3))
        smap = to_symplectic(transform)
        covs = [
            apply_map(layout.input_state(psi), smap).covariance for psi in PSI_GRID
        ]
        for cov in covs[1:]:
            np.testing.assert_array_equal(cov, covs[0])

    def test_clone_marginals_identical(self):
        transform, layout = build_machine(CloningConfig(2, 2, 5))
        state = apply_map(layout.input_state(0.3 + 0.4j), to_symplectic(transform))
        first = marginal(state, [layout.clone_slots[0]])
        for mode in layout.clone_slots[1:]:
            other = marginal(state, [mode])
            np.testing.assert_allclose(other.mean, first.mean, atol=1e-12)
            np.testing.assert_allclose(
                other.covariance, first.covariance, atol=1e-12
            )

    def test_variances_match_closed_form(self):
        for cfg in small_configs():
            transform, layout = build_machine(cfg)
            rep = noise_report(cfg)
            state = apply_map(layout.input_state(0.8 - 0.1j), to_symplectic(transform))
            for mode in layout.clone_slots:
                vx, vp = quadrature_variance(state, mode)
                assert vx == pytest.approx(rep.var_clone, abs=1e-10)
                assert vp == pytest.approx(rep.var_clone, abs=1e-10)
            for mode in layout.anticlone_slots:
                vx, vp = quadrature_variance(state, mode)
                assert vx == pytest.approx(rep.var_anticlone, abs=1e-10)
                assert vp == pytest.approx(rep.var_anticlone, abs=1e-10)

    def test_moments_match_operator_oracle(self):
        # Dual route for the full machine, not just random transforms.
        psi = -0.6 + 1.1j
        for cfg in [CloningConfig(1, 1, 2), CloningConfig(3, 1, 4),
                    CloningConfig(0, 2, 3)]:
            transform, layout = build_machine(cfg)
            state = apply_map(layout.input_state(psi), to_symplectic(transform))
            amps_in = layout.input_amplitudes(psi)
            np.testing.assert_allclose(
                state.mean,
                oracles.quadrature_mean_vector(
                    transform.m_matrix, transform.l_matrix, amps_in
                ),
                atol=1e-12,
            )
            var_x, var_p, _ = oracles.operator_variances(
                transform.m_matrix, transform.l_matrix
            )
            for mode in range(layout.total_modes):
                vx, vp = quadrature_variance(state, mode)
                assert vx == pytest.approx(var_x[mode], abs=1e-12)
                assert vp == pytest.approx(var_p[mode], abs=1e-12)

    def test_layout_roles_partition(self):
        for cfg in small_configs():
            _, layout = build_machine(cfg)
            inputs = (
                layout.signal_slots
                + layout.conjugate_slots
                + layout.clone_vacuum_slots
                + layout.anticlone_vacuum_slots
            )
            outputs = (
                layout.clone_slots
                + layout.anticlone_slots
                + layout.residual_slots
            )
            assert sorted(inputs) == list(range(layout.total_modes))
            assert sorted(outputs) == list(range(layout.total_modes))
            assert len(layout.clone_slots) == cfg.m_clones
            assert len(layout.anticlone_slots) == cfg.m_anticlones

    def test_phase_insensitivity(self):
        for cfg in small_configs():
            transform, layout = build_machine(cfg)
            state = apply_map(layout.input_state(1.3 - 0.7j), to_symplectic(transform))
            for mode in range(layout.total_modes):
                vx, vp = quadrature_variance(state, mode)
                assert abs(vx - vp) < 1e-10

    def test_machine_is_canonical(self):
        for cfg in small_configs():
            transform, _ = build_machine(cfg)
            assert commutation_residual(transform) < 1e-10


def oracle_configs():
    # Every N, N' <= 4 and N <= M <= 10, including N = 0, N' = 0 and
    # M' = 0 (N' = 0, M = N), plus wide machines, two of them with an
    # empty channel whose amplifier port is a vacuum slot.
    for n in range(5):
        for nc in range(5):
            if n + nc == 0:
                continue
            for m in range(max(n, 1), 11):
                yield CloningConfig(n, nc, m)
    yield CloningConfig(4, 4, 64)
    yield CloningConfig(0, 3, 64)
    yield CloningConfig(3, 0, 64)


class TestRowwiseAssembly:
    def test_wide_machine_matches_the_gathered_route(self):
        # K = 1030, past the hypothesis grid's M <= 40: the pushed identity
        # columns give the bits of the row-by-row gathered assembly.
        cfg = CloningConfig(4, 4, 512)
        transform, _ = build_machine(cfg)
        mm, ll = oracles.gathered_build_machine(cfg)
        same_bytes(transform.m_matrix, mm)
        same_bytes(transform.l_matrix, ll)

    def test_wide_machine_certificates(self):
        # Dense DFT products leave about 4.4e-14 in the exact residual
        # here, FFTs about 1e-15; the probe bound reads about 8e-13.
        transform, _ = build_machine(CloningConfig(4, 4, 512))
        m, l = transform.m_matrix, transform.l_matrix
        exact = oracles.dense_commutation_residual(m, l)
        assert exact <= 1e-14
        assert exact <= commutation_residual(transform) <= 1e-11
        assert to_symplectic(transform).residual() == commutation_residual(transform)

    def test_matches_dense_oracle(self):
        for cfg in oracle_configs():
            transform, _ = build_machine(cfg)
            dense, _ = oracles.dense_build_machine(cfg)
            assert np.max(np.abs(transform.m_matrix - dense.m_matrix)) <= 1e-13, cfg
            assert np.max(np.abs(transform.l_matrix - dense.l_matrix)) <= 1e-13, cfg

    def test_quadrature_image_matches_sums(self):
        # Bit for bit, so signed zeros too.
        for cfg in oracle_configs():
            transform, _ = build_machine(cfg)
            want = oracles.quadrature_image_from_sums(transform)
            assert transform.quadrature_image.matrix.tobytes() == want.tobytes(), cfg

    def test_quadrature_image_needs_no_temporaries(self):
        transform, _ = build_machine(CloningConfig(4, 4, 512))
        tracemalloc.start()
        try:
            s = transform.quadrature_image.matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # S is 33.9 MB at K = 1030; the two K x K complex sums took 76.4 MB.
        assert s.nbytes < peak <= 40e6


def pushed_image(network, transpose=False):
    """The 2K x 2K matrix whose column 2j (2j + 1) is the push of mode j's
    unit x (p) quadrature through ``network``, interleaved as S is."""
    k = network.mode_count
    modes = np.arange(k)
    a = np.zeros((k, 2 * k), dtype=complex)
    a[modes, 2 * modes] = 1.0
    a[modes, 2 * modes + 1] = 1j
    network._push(a, transpose)
    return np.stack((a.real, a.imag), axis=1).reshape(2 * k, 2 * k)


def check_stages(cfg):
    transform, layout = build_machine(cfg)
    network = transform._network
    assert network.mode_count == layout.total_modes
    s = to_symplectic(transform).matrix
    np.testing.assert_allclose(pushed_image(network), s, rtol=0, atol=1e-14)
    np.testing.assert_allclose(pushed_image(network, True), s.T, rtol=0, atol=1e-14)
    # The probe bound holds every exact residual of the assembled pair.
    exact = max(oracles.dense_symplectic_residual(s),
                oracles.dense_commutation_residual(transform.m_matrix,
                                                   transform.l_matrix))
    assert exact <= network.commutation_residual <= 1e-12


class TestStages:
    def test_pushes_are_the_image_and_its_transpose(self):
        for cfg in oracle_configs():
            check_stages(cfg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 40))
    # N = 0, N' = 0, M' = 0 (N' = 0, M = N) and M' = 1.
    @example(0, 3, 5)
    @example(3, 0, 7)
    @example(4, 0, 4)
    @example(2, 0, 3)
    def test_pushes_and_probes_on_a_sweep(self, n, nc, m):
        if n + nc == 0 or m < n:
            return
        check_stages(CloningConfig(n, nc, m))

    def test_build_machine_reads_the_stages(self):
        # One network: the stages cmd_verify builds alone are the ones
        # build_machine assembles and links.
        cfg = CloningConfig(3, 2, 9)
        transform, layout = build_machine(cfg)
        network, alone = machine._network(cfg)
        assert alone == layout
        assert network.concentration == transform._network.concentration
        assert network.ports == transform._network.ports == (0, 3)
        assert network.distribution == transform._network.distribution
        # Each distribution block is its port, then one run of vacua.
        modes = range(layout.total_modes)
        assert [[port, *modes[run]] for port, run in network.distribution] == [
            list(layout.clone_slots), list(layout.anticlone_slots)]

    def test_amplifier_residual_is_caught(self):
        # sqrt(G - 1) off by 1e-6: A_00 = G - (G - 1)(1 + 1e-6)^2 - 1, about
        # -2e-6 (G - 1).
        transform, _ = build_machine(CloningConfig(2, 2, 6))
        network = transform._network
        amp = network.amplifier
        bad = dataclasses.replace(network, amplifier=type(amp)(
            amp.m_matrix, amp.l_matrix * (1 + 1e-6)))
        gain = gain_from_counts(CloningConfig(2, 2, 6))
        assert bad.commutation_residual >= 2e-6 * (gain - 1)

    def test_nan_stage_reads_nan(self):
        transform, _ = build_machine(CloningConfig(1, 1, 3))
        network = transform._network
        amp = network.amplifier
        bad = dataclasses.replace(network, amplifier=type(amp)(
            amp.m_matrix * np.nan, amp.l_matrix))
        assert math.isnan(bad.commutation_residual)


def same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestInPlaceBlocks:
    """The in-place route, each distribution block on its port's row
    copied next to its run, equals the gathered one of
    ``oracles.gathered_dft`` bit for bit."""

    @staticmethod
    def check(cfg):
        network, layout = machine._network(cfg)
        _, dist_start, anti_start, k = machine._block_starts(cfg)
        rng = np.random.default_rng(k)
        a = rng.standard_normal((k, 14)).view(complex)
        for transpose in (False, True):
            got, want = a.copy(), a.copy()
            network._push(got, transpose)
            oracles.gathered_push(cfg, want, transpose)
            same_bytes(got, want)
        # The transposed push never skips.
        got, want = a.copy(), a.copy()
        network._push(got, True, first=k - 1)
        oracles.gathered_push(cfg, want, True)
        same_bytes(got, want)
        # Rows outside ``first`` to ``stop`` are zero, as in a panel of F'
        # whose columns lie in R, or in C and A: the stages the push then
        # skips would map zeros to zeros.
        for first, stop in {(1, k), (dist_start - 1, k), (dist_start, k),
                            (dist_start, anti_start), (anti_start - 1, anti_start),
                            (anti_start - 1, k), (anti_start, k), (k - 1, k)}:
            if not 0 <= first < stop:
                continue
            part = np.zeros_like(a)
            part[first:stop] = a[first:stop]
            got, want = part.copy(), part.copy()
            network._push(got, first=first, stop=stop)
            oracles.gathered_push(cfg, want)
            same_bytes(got, want)
        transform, _ = build_machine(cfg)
        mm, ll = oracles.gathered_build_machine(cfg)
        same_bytes(transform.m_matrix, mm)
        same_bytes(transform.l_matrix, ll)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 40))
    # N = 0, N' = 0, M = 1, M' = 0 (N' = 0, M = N) and M' = 1; N' <= 1,
    # where the clone block borrows the conjugate port's row; M = 1 with
    # N' <= 1, where the anticlone run follows its port (no row borrowed).
    @example(0, 3, 5)
    @example(3, 0, 7)
    @example(2, 3, 2)
    @example(1, 2, 1)
    @example(4, 0, 4)
    @example(2, 0, 3)
    @example(3, 1, 6)
    @example(1, 1, 1)
    @example(1, 0, 1)
    @example(0, 1, 1)
    def test_push_and_assembly_match_the_gathered_route(self, n, nc, m):
        if n + nc == 0 or m < n:
            return
        self.check(CloningConfig(n, nc, m))

    def test_skipped_stages_leave_the_moments(self, monkeypatch):
        # (4, 4, 60), K = 126, at n = 4096: F' has R's 16 columns, then
        # 118 that C (modes 8:67) and A (modes 67:126, in reverse) share.
        # The first panel holds the sample mean and reaches every row; each
        # of the next four reaches a band of C's and A's modes narrowing
        # from both ends and skips the concentration DFTs and the
        # amplifier.  Unskipped pushes of the same draws give the same
        # bits.
        cfg = CloningConfig(4, 4, 60)
        network, layout = machine._network(cfg)
        sample = montecarlo.SampleConfig(4096, 7, 0.3 + 0.2j)
        windows = []
        real = machine._Network._push

        def unskipped(self, a, transpose=False, first=0, stop=None):
            windows.append((first, stop))
            real(self, a, transpose)

        got = montecarlo.simulate(network, layout, sample)
        monkeypatch.setattr(machine._Network, "_push", unskipped)
        want = montecarlo.simulate(network, layout, sample)
        assert windows == [(0, 126), (16, 118), (32, 102), (48, 86), (64, 70)]
        for name in ("means", "covariances", "mean_se", "var_se"):
            same_bytes(getattr(got, name), getattr(want, name))


class TestFactorBlocks:
    """Every output row of the machine is supported on R and C or on R and
    A, the premise of stream version 5's block factor."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 40))
    # N = 0, N' = 0, M = 1, M' = 0 (N' = 0, M = N) and M' = 1.
    @example(0, 3, 5)
    @example(3, 0, 7)
    @example(1, 2, 1)
    @example(0, 1, 1)
    @example(4, 0, 4)
    @example(2, 0, 3)
    def test_no_output_row_reaches_both_vacuum_runs(self, n, nc, m):
        if n + nc == 0 or m < n:
            return
        cfg = CloningConfig(n, nc, m)
        _, dist_start, anti_start, k = machine._block_starts(cfg)
        transform, layout = build_machine(cfg)
        network, _ = machine._network(cfg)
        blocks = (slice(0, dist_start), slice(dist_start, anti_start),
                  slice(anti_start, k))
        assert network.blocks == transform._network.blocks == blocks
        reach = (transform.m_matrix != 0) | (transform.l_matrix != 0)
        clone_vacua, anticlone_vacua = reach[:, blocks[1]], reach[:, blocks[2]]
        assert not np.any(clone_vacua.any(axis=1) & anticlone_vacua.any(axis=1))
        # simulate draws F' in the stages' blocks, linked or alone.
        with mock.patch.object(montecarlo, "_factor_blocks",
                               wraps=montecarlo._factor_blocks) as spy:
            montecarlo.simulate(transform, layout, montecarlo.SampleConfig(4, 0))
            montecarlo.simulate(network, layout, montecarlo.SampleConfig(4, 0))
        assert [call.args[0] for call in spy.call_args_list] == [blocks, blocks]


class TestMemoryGuard:
    def test_working_set_counts_slots_and_arrays(self):
        cfg = CloningConfig(1, 0, 50_000)
        k = machine._block_starts(cfg)[3]
        assert k == 99_999
        tracemalloc.start()
        try:
            machine._network(cfg)
            slots_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        slots = machine._SLOT_BYTES * k
        assert 0.8 * slots < slots_peak <= slots
        assert machine._working_set(cfg) == slots + 32 * k * k
        # A verify run plans its fixed part, two copies of one panel of F'
        # with the sample mean and three of the probes, whatever the
        # sample count.
        panel = 2 * 16 * k * (montecarlo._PANEL + 1)
        probes = 3 * 16 * k * machine._PROBES
        for samples in (2, 100, 2 * k + 1, 10**9):
            assert machine._working_set(cfg, samples) == (
                slots + machine._VERIFY_BYTES + panel + probes)
        # (M, L)'s bytes as the arrays hold them.
        small = CloningConfig(2, 1, 4)
        transform, layout = build_machine(small)
        ks = layout.total_modes
        assert transform.m_matrix.nbytes + transform.l_matrix.nbytes == 32 * ks * ks
        # Sampling at K = 606 traces the reused panel buffer, one more
        # panel-sized array at most and vectors of K: within two panels.
        network, layout = machine._network(CloningConfig(4, 4, 300))
        sample = montecarlo.SampleConfig(4096, 1)
        montecarlo.simulate(network, layout, sample)  # first-use imports
        tracemalloc.start()
        try:
            montecarlo.simulate(network, layout, sample)
            sampling_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sampling_peak <= 2 * 16 * 606 * (montecarlo._PANEL + 1)

    def test_probe_pass_holds_the_probes_and_two_batches(self):
        # K = 4102: the 32 probes are 2.1 MB.  They are pushed 8 at a time
        # through one reused array, with one array of the batch's moduli;
        # one pass held the probes, their image and its moduli, 5.2 MB.
        network, _ = machine._network(CloningConfig(4, 4, 2048))
        k = network.mode_count
        assert k == 4102
        machine._probe_bound(k, network._push)  # first-use set-up
        tracemalloc.start()
        try:
            machine._probe_bound(k, network._push)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        batch = gaussian._PROBE_BATCH
        assert batch == 8
        assert peak <= 16 * k * (machine._PROBES + 2 * batch) + 64 * 1024

    def test_refused_before_anything_is_built(self, monkeypatch):
        def unreachable(config):
            raise AssertionError("layout built past the memory guard")

        cfg = CloningConfig(4, 4, 64)
        need = machine._working_set(cfg)
        monkeypatch.setattr(machine, "_machine_layout", unreachable)
        monkeypatch.setattr(machine, "_physical_memory", lambda: need - 1)
        with pytest.raises(DomainError, match="^Unable to allocate .* physical memory"):
            build_machine(cfg)
        monkeypatch.undo()
        monkeypatch.setattr(machine, "_physical_memory", lambda: need)
        build_machine(cfg)

    def test_physical_memory_is_read(self):
        assert 0 < machine._physical_memory() < math.inf


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 1000), data=st.data())
def test_balanced_pair_beats_standard_cloner_iff_above_boundary(n, data):
    # A balanced pair N = N' beats 2N identical inputs iff
    # M^2 - 2MN - N^2 > 0, i.e. M > (1 + sqrt(2))N; no integer M ties.
    above = n + math.isqrt(2 * n * n) + 1  # the smallest M above the boundary
    for m in (above - 1, above, data.draw(st.integers(2 * n + 1, 10 * n))):
        rep = noise_report(CloningConfig(n, n, m))
        if m * m - 2 * m * n - n * n > 0:
            assert rep.f_clone > rep.baseline_f, (n, m)
        else:
            assert rep.f_clone < rep.baseline_f, (n, m)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(1, 12),
    st.floats(0.0, 1.0),
)
def test_balanced_beats_or_ties_other_splits_pointwise(n, nc, m, a):
    # asymmetry_gain at any feasible point is bounded below by the gain at
    # the best grid value; weak sanity check complementing the exhaustive
    # scan in the acceptance suite.
    if n + nc == 0 or m < n:
        return
    cfg = CloningConfig(n, nc, m)
    g = gain_from_counts(cfg)
    total = n + nc
    if m >= (1.0 - a) * total:
        assert asymmetry_gain(total, m, a) >= 1.0 - 1e-12
    assert g >= 1.0 - 1e-12
