import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from pciclone import machine
from pciclone.errors import ConvergenceError, DomainError
from pciclone.machine import asymmetry_gain, gain_from_amplitudes
from pciclone.optimize import (
    AmplifierSearchProblem,
    minimize_asymmetry,
    solve_amplifier,
)


class TestAmplifierSearchProblem:
    def test_gradients_match_finite_differences(self):
        problem = AmplifierSearchProblem(alpha=0.6, gamma=1.4)
        rng = np.random.default_rng(11)
        x = rng.normal(size=4)
        eps = 1e-6
        for fn, grad in [
            (problem.objective, problem.objective_grad),
            (problem.constraint, problem.constraint_grad),
        ]:
            g = grad(x)
            for i in range(4):
                step = np.zeros(4)
                step[i] = eps
                fd = (fn(x + step) - fn(x - step)) / (2 * eps)
                assert g[i] == pytest.approx(fd, abs=1e-6)

    def test_coefficients_satisfy_mean_conditions(self):
        # The eliminated entries enforce <b> = gamma*psi for every psi:
        # the psi coefficient equals gamma, the conj(psi) coefficient
        # vanishes (beta = 1 gauge).
        problem = AmplifierSearchProblem(alpha=0.5, gamma=2.0)
        m11, m12, m13, l11, l12, l13 = problem.coefficients(
            np.array([1.3, -0.2, 0.4, 0.1])
        )
        alpha, gamma = 0.5, 2.0
        assert alpha * m11 + 1.0 * l12 == pytest.approx(gamma, abs=1e-14)
        assert 1.0 * m12 + alpha * l11 == pytest.approx(0.0, abs=1e-14)


class TestSolveAmplifier:
    def test_conjugate_only_anchor(self):
        res = solve_amplifier(0.0, 1.0, 1.0)
        assert res.converged
        assert res.gain == pytest.approx(2.0, rel=1e-8)
        assert res.constraint_residual < 1e-9

    def test_generic_anchor(self):
        res = solve_amplifier(1.0, math.sqrt(2), math.sqrt(3))
        expect = (2 * math.sqrt(2) - math.sqrt(3)) ** 2
        assert res.gain == pytest.approx(expect, rel=1e-6)

    def test_trivial_point_gain_one(self):
        res = solve_amplifier(1.0, 1.0, 1.0)
        assert res.gain == pytest.approx(1.0, rel=1e-8)
        assert res.objective == pytest.approx(0.5, rel=1e-8)

    def test_auxiliary_couplings_vanish(self):
        res = solve_amplifier(0.7, 1.1, 1.5, seed=3)
        assert res.aux_norm < 1e-6
        assert res.full_residual < 1e-8

    def test_objective_consistent_with_coefficients(self):
        res = solve_amplifier(0.4, 1.0, 1.9)
        coeffs = [res.m11, res.m12, res.m13, res.l11, res.l12, res.l13]
        assert res.objective == pytest.approx(
            0.5 * sum(c * c for c in coeffs), abs=1e-12
        )

    def test_gain_is_largest_row_weight(self):
        res = solve_amplifier(0.9, 1.3, 1.6)
        assert res.gain == pytest.approx(res.m11**2 + res.m12**2 + res.m13**2,
                                         rel=1e-10)

    def test_seed_has_no_effect(self):
        # The solve is exact; ``seed`` stays only for existing callers.
        a = solve_amplifier(0.3, 0.8, 1.2, seed=17)
        b = solve_amplifier(0.3, 0.8, 1.2)
        assert a.to_dict() == b.to_dict()

    def test_random_triples_recover_formula(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            alpha = rng.uniform(0.0, 2.0)
            beta = rng.uniform(0.05, 2.0)
            gamma = alpha + rng.uniform(0.0, 2.0)
            res = solve_amplifier(alpha, beta, gamma, seed=1)
            expect = gain_from_amplitudes(alpha, beta, gamma)
            assert abs(res.gain - expect) / expect < 1e-6
            assert res.aux_norm < 1e-6
            assert res.full_residual < 1e-8
            assert_matches_secular_oracle(alpha, beta, gamma)

    def test_normalization_invariance(self):
        base = solve_amplifier(0.5, 1.0, 1.5)
        scaled = solve_amplifier(1.5, 3.0, 4.5)
        assert scaled.gain == pytest.approx(base.gain, rel=1e-8)

    def test_beta_zero_rejected(self):
        with pytest.raises(DomainError):
            solve_amplifier(1.0, 0.0, 2.0)

    def test_gamma_below_alpha_rejected(self):
        with pytest.raises(DomainError):
            solve_amplifier(2.0, 1.0, 1.0)

    def test_convergence_failure_raises(self):
        # At beta/alpha = 1e-6 the problem's own l12 = gamma - alpha*m11
        # rounds, leaving the closed-form point 1.3e-9 off the constraint,
        # small beside (alpha*m11)^2 ~ 9e12, one of the terms that form
        # it.  A zero tolerance demands an exact constraint, so that point
        # must be refused.
        assert solve_amplifier(1.0, 1e-6, 3.0).constraint_residual > 0.0
        with pytest.raises(ConvergenceError, match="constraint residual"):
            solve_amplifier(1.0, 1e-6, 3.0, tol=0.0)

    def test_certified_as_beta_vanishes(self):
        # The rounding of l12 = gamma - alpha*m11 grows like (alpha/beta)^2;
        # judged against (alpha*m11)^2, no beta down to 1e-8 is refused.
        for k in range(0, 33):
            beta = 10.0 ** (-k / 4)
            want = gain_from_amplitudes(1.0, beta, 3.0)
            assert solve_amplifier(1.0, beta, 3.0).gain == pytest.approx(
                want, rel=1e-12
            ), beta

    def test_gauge_ratio_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="float range"):
            solve_amplifier(1.0, 1.0, 1e200)

    def test_closed_form_takes_no_secular_evaluations(self):
        # Brent's method on the secular function ran out of iterations
        # here; the closed form evaluates it not at all.
        res = solve_amplifier(1.0, 1.0, 2e13)
        assert res.iterations == 0
        want = gain_from_amplitudes(1.0, 1.0, 2e13)
        assert res.gain == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("alpha", [1e-3, 0.25, 0.5, 0.999, 1.0])
    def test_certified_on_the_half_decade_grid(self, alpha):
        # beta from 1e-12 to 1 and gamma from 1 to 1e12 in half decades,
        # alpha/beta up to 1e12.  The secular search refused 351 of these
        # 3,125 points, all with alpha/beta >= 1e8.
        for kb in range(-24, 1):
            for kc in range(0, 25):
                beta, gamma = 10.0 ** (kb / 2), 10.0 ** (kc / 2)
                want = gain_from_amplitudes(alpha, beta, gamma)
                res = solve_amplifier(alpha, beta, gamma)
                assert res.gain == pytest.approx(want, rel=1e-12), (beta, gamma)

    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.999, 1.0])
    def test_certified_across_the_gauge_range(self, alpha):
        # The constraint's terms grow like (gamma/beta)^2 and its residual
        # with them; judged against them, no gamma up to 1e150 is refused.
        for k in range(0, 601, 5):
            gamma = 10.0 ** (k / 4)
            want = gain_from_amplitudes(alpha, 1.0, gamma)
            assert solve_amplifier(alpha, 1.0, gamma).gain == pytest.approx(
                want, rel=1e-15
            ), gamma

    def test_certificate_fields(self):
        res = solve_amplifier(0.5, 1.0, 1.5)
        assert -0.5 < res.multiplier < 0.5
        assert res.min_curvature > 0.0
        assert res.iterations == 0
        # Hard case: the multiplier sits at the window's end.
        hard = solve_amplifier(0.0, 1.0, 1.0)
        assert hard.multiplier == -0.5
        assert hard.min_curvature == 0.0

    @pytest.mark.parametrize(
        "args",
        [(math.nan, 1.0, 2.0), (0.0, math.inf, 1.0), (0.0, 1.0, math.nan)],
    )
    def test_non_finite_rejected(self, args):
        with pytest.raises(DomainError, match="finite"):
            solve_amplifier(*args)


def assert_matches_secular_oracle(alpha, beta, gamma):
    res = solve_amplifier(alpha, beta, gamma)
    couplings, multiplier = oracles.secular_amplifier(alpha, beta, gamma)
    got = (res.m11, res.m12, res.m13, res.l11, res.l12, res.l13)
    assert res.gain == pytest.approx(couplings[0] ** 2, rel=1e-13)
    assert res.multiplier == pytest.approx(multiplier, abs=1e-13)
    np.testing.assert_allclose(got, couplings, rtol=1e-13, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0),
    beta=st.floats(0.05, 2.0),
    excess=st.floats(0.0, 2.0),
)
def test_closed_form_matches_secular_oracle(alpha, beta, excess):
    assert_matches_secular_oracle(alpha, beta, alpha + excess)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.0, 2.0),
    beta=st.floats(0.05, 2.0),
    excess=st.floats(0.0, 2.0),
    free=st.tuples(*[st.floats(-3.0, 3.0)] * 3),
)
def test_solution_is_global_minimum(alpha, beta, excess, free):
    res = solve_amplifier(alpha, beta, alpha + excess)
    problem = AmplifierSearchProblem(
        alpha=res.alpha / res.beta, gamma=res.gamma / res.beta
    )
    x = np.array([res.m11, res.l11, res.m13, res.l13])
    stationarity = problem.objective_grad(x) + res.multiplier * (
        problem.constraint_grad(x)
    )
    assert np.max(np.abs(stationarity)) <= 1e-10
    assert res.min_curvature >= 0.0
    assert abs(res.multiplier) <= 0.5
    # Feasible competitors: pick l11, m13, l13 and solve the constraint,
    # quadratic in m11, for m11.
    l11, m13, l13 = free
    a, g = problem.alpha, problem.gamma
    t = 1.0 - a * a
    rest = g * g + 1.0 + t * l11 * l11 - m13 * m13 + l13 * l13
    for m11 in np.roots([t, 2.0 * a * g, -rest]):
        if abs(m11.imag) > 0.0:
            continue
        y = np.array([m11.real, l11, m13, l13])
        assert problem.objective(y) >= res.objective * (1.0 - 1e-12)


class TestMinimizeAsymmetry:
    def test_enough_clones_prefers_standard(self):
        res = minimize_asymmetry(8, 8)
        assert res.a_star == 0.0
        assert res.n_th == pytest.approx(0.0, abs=1e-12)

    def test_interior_optimum(self):
        res = minimize_asymmetry(8, 16)
        assert 0.0 < res.a_star < 0.5
        assert res.a_star == pytest.approx(0.25, abs=1e-6)

    def test_approaches_balanced_for_many_clones(self):
        res = minimize_asymmetry(8, 80000)
        assert abs(res.a_star - 0.5) < 0.02

    def test_gap_to_balanced_shrinks(self):
        gaps = [
            abs(minimize_asymmetry(8, m).a_star - 0.5)
            for m in (16, 64, 256, 80000)
        ]
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_one_closed_form_evaluation(self, monkeypatch):
        calls = []
        real = machine._gain_and_excess

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(machine, "_gain_and_excess", spy)
        minimize_asymmetry(8, 16)
        assert len(calls) == 1

    def test_refined_value_beats_grid(self):
        res = minimize_asymmetry(8, 32)
        grid_best = min(
            asymmetry_gain(8, 32, a) for a in np.linspace(0, 1, 1001)
        )
        assert res.gain <= grid_best + 1e-12

    def test_n_th_consistent_with_gain(self):
        res = minimize_asymmetry(8, 9)
        assert res.n_th == pytest.approx((res.gain - 1.0) / 9, abs=1e-15)

    @pytest.mark.parametrize(
        "n, m",
        [
            (8, 8), (4, 8), (8, 9), (8, 16),  # M >= n
            (8, 80000), (1, 1000),  # large M
            (8, 4), (3, 1), (5.5, 2.25),  # M < n
            (2.5, 7.3), (13.7, 14.2), (0.6, 1.9),  # non-integral
        ],
    )
    def test_closed_form_matches_oracle_scan(self, n, m):
        res = minimize_asymmetry(n, m)
        a_scan, gain_scan = oracles.scan_asymmetry(n, m)
        assert res.a_star == pytest.approx(a_scan, abs=1e-7)
        assert res.gain <= gain_scan * (1.0 + 1e-15)  # no worse, to rounding

    def test_too_few_clones_pins_boundary(self):
        # With M < n only a >= 1 - M/n is feasible and the noise vanishes
        # right at the boundary.
        res = minimize_asymmetry(8, 4)
        assert res.a_star == pytest.approx(0.5, abs=1e-9)
        assert res.n_th == pytest.approx(0.0, abs=1e-9)

    def test_invalid_counts_rejected(self):
        with pytest.raises(DomainError):
            minimize_asymmetry(0, 8)
        with pytest.raises(DomainError):
            minimize_asymmetry(8, 0)

    @pytest.mark.parametrize("n, m", [(8, math.nan), (math.inf, 4), (math.nan, 8)])
    def test_non_finite_rejected(self, n, m):
        with pytest.raises(DomainError, match="finite"):
            minimize_asymmetry(n, m)

    def test_no_op_keywords_removed(self):
        with pytest.raises(TypeError):
            minimize_asymmetry(8, 16, grid_step=1e-3)

    def test_noise_without_cancellation(self):
        # M/n is below the float epsilon: G rounds to 1, yet n_th = 1/n.
        res = minimize_asymmetry(1, 1e-17)
        assert (res.a_star, res.gain, res.n_th) == (1.0, 1.0, 1.0)

    def test_clone_count_near_float_max(self):
        # 2M overflows here; the optimum still tends to 1/2.
        res = minimize_asymmetry(1.0, 1e308)
        assert res.a_star == 0.5
        assert res.n_th == pytest.approx(0.5, rel=1e-12)

    def test_serialization(self):
        doc = minimize_asymmetry(8, 16).to_dict()
        assert set(doc) == {"n", "M", "a_star", "gain", "n_th"}
        assert doc["n"] == 8
        assert doc["M"] == 16
