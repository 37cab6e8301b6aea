import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pciclone import gaussian
from pciclone.canonical import (
    CanonicalTransform,
    pcia_transform,
    to_symplectic,
)
from pciclone.errors import DomainError
from pciclone.gaussian import (
    GaussianState,
    SymplecticMap,
    apply_map,
    coherent_fidelity,
    coherent_state,
    fidelity_with_coherent,
    frozen_array,
    marginal,
    quadrature_variance,
    symplectic_form,
    vacuum_state,
)
from pciclone.machine import (
    CloningConfig,
    attenuates,
    build_machine,
    noise_report,
    p_function_density,
)
from pciclone.montecarlo import (
    EmpiricalMoments,
    SampleConfig,
    compare_to_analytic,
    simulate,
)
from pciclone.optimize import solve_amplifier

import oracles
from oracles import dft_transform

amplitudes = st.complex_numbers(
    max_magnitude=10.0, allow_nan=False, allow_infinity=False
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: quadrature_variance(vacuum_state(2), 1.0),
        lambda: quadrature_variance(vacuum_state(2), True),
        lambda: marginal(vacuum_state(2), [1.0]),
        lambda: fidelity_with_coherent(vacuum_state(2), 1.0, 0),
        lambda: fidelity_with_coherent(vacuum_state(2), 1, complex("nan")),
        lambda: symplectic_form(2.0),
        lambda: vacuum_state(2.5),
        lambda: dft_transform(2.5),
        lambda: dft_transform(True),
        lambda: GaussianState(2.0, np.zeros(4), 0.5 * np.eye(4)),
        lambda: coherent_state([np.nan]),
        lambda: coherent_state([1.0, complex(0, np.inf)]),
        lambda: build_machine(CloningConfig(1, 1, 2))[1].input_state(np.nan),
        lambda: p_function_density(np.nan, 0, 0),
        lambda: p_function_density(np.inf, 0, 0),
        lambda: p_function_density(1.0, complex("nan"), 0),
    ],
    ids=[
        "variance-float-mode", "variance-bool-mode", "marginal-float-mode",
        "fidelity-float-mode", "fidelity-nan-target", "omega-float-count",
        "vacuum-float-count", "dft-float-count", "dft-bool-count",
        "state-float-count", "coherent-nan", "coherent-inf", "input-state-nan",
        "p-density-nan", "p-density-inf", "p-density-nan-xi",
    ],
)
def test_non_integral_or_non_finite_arguments_refused(call):
    with pytest.raises(DomainError):
        call()


def compare_at(threshold):
    cfg = CloningConfig(1, 1, 2)
    transform, layout = build_machine(cfg)
    emp = simulate(transform, layout, SampleConfig(1000, 1))
    return compare_to_analytic(emp, noise_report(cfg), layout, threshold=threshold)


@pytest.mark.parametrize(
    "call",
    [
        lambda: compare_at(np.nan),
        lambda: compare_at(-1.0),
        lambda: compare_at(0.0),
        lambda: compare_at(np.inf),
        lambda: solve_amplifier(1, 1, 2, tol=-1.0),
        lambda: solve_amplifier(1, 1, 2, tol=np.inf),
        lambda: vacuum_state(1).validate(np.nan),
        lambda: vacuum_state(1).validate(-1e-9),
        lambda: SymplecticMap(np.eye(2)).validate(np.nan),
        lambda: SymplecticMap(np.eye(2)).validate(-np.inf),
        lambda: attenuates(np.nan, 1, 0),
        lambda: attenuates(2, 1, np.inf),
    ],
    ids=[
        "threshold-nan", "threshold-negative", "threshold-zero", "threshold-inf",
        "solve-negative-tol", "solve-inf-tol", "state-nan-tol",
        "state-negative-tol", "map-nan-tol", "map-minus-inf-tol",
        "attenuates-nan-n", "attenuates-inf-a",
    ],
)
def test_tolerance_and_threshold_arguments_refused(call):
    # Refused up front, not by a comparison that a NaN bound fails.
    with pytest.raises(DomainError, match="must be"):
        call()


def test_symplectic_form_structure():
    omega = symplectic_form(3)
    assert omega.shape == (6, 6)
    np.testing.assert_array_equal(omega @ omega, -np.eye(6))
    np.testing.assert_array_equal(omega[:2, :2], [[0, 1], [-1, 0]])


class TestVacuumState:
    def test_single_mode(self):
        s = vacuum_state(1)
        np.testing.assert_array_equal(s.mean, [0.0, 0.0])
        np.testing.assert_array_equal(s.covariance, 0.5 * np.eye(2))

    def test_three_modes(self):
        s = vacuum_state(3)
        np.testing.assert_array_equal(s.mean, np.zeros(6))
        np.testing.assert_array_equal(s.covariance, 0.5 * np.eye(6))

    def test_zero_modes_rejected(self):
        with pytest.raises(DomainError):
            vacuum_state(0)


class TestCoherentState:
    def test_zero_amplitude_is_vacuum(self):
        s = coherent_state([0])
        v = vacuum_state(1)
        np.testing.assert_array_equal(s.mean, v.mean)
        np.testing.assert_array_equal(s.covariance, v.covariance)

    def test_unit_amplitude(self):
        s = coherent_state([1 + 0j])
        np.testing.assert_allclose(s.mean, [np.sqrt(2), 0.0], atol=1e-15)

    def test_conjugate_pair(self):
        s = coherent_state([1j, -1j])
        np.testing.assert_allclose(
            s.mean, [0.0, np.sqrt(2), 0.0, -np.sqrt(2)], atol=1e-15
        )

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            coherent_state([])

    @given(st.lists(amplitudes, min_size=1, max_size=4))
    def test_mean_is_the_quadrature_rule(self, amps):
        want = [np.sqrt(2.0) * x for a in amps for x in (a.real, a.imag)]
        assert coherent_state(amps).mean.tolist() == want
        assert gaussian._quadratures(amps[0]).tolist() == want[:2]

    @given(st.lists(amplitudes, min_size=1, max_size=4))
    def test_always_vacuum_noise_and_unit_self_fidelity(self, amps):
        s = coherent_state(amps)
        for mode, amp in enumerate(amps):
            assert quadrature_variance(s, mode) == (0.5, 0.5)
            assert fidelity_with_coherent(s, mode, amp) == pytest.approx(
                1.0, abs=1e-12
            )


class TestApplyMap:
    def test_identity_map(self):
        s = coherent_state([0.3 - 0.8j, 1.2])
        out = apply_map(s, SymplecticMap(np.eye(4)))
        np.testing.assert_array_equal(out.mean, s.mean)
        np.testing.assert_array_equal(out.covariance, s.covariance)

    def test_amplifier_variance(self):
        out = apply_map(vacuum_state(2), to_symplectic(pcia_transform(2.0)))
        # 0.5*G + 0.5*(G-1) with G=2
        assert quadrature_variance(out, 0) == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_amplifier_mean(self):
        psi = 0.6 + 0.4j
        s = coherent_state([psi, np.conj(psi)])
        out = apply_map(s, to_symplectic(pcia_transform(2.0)))
        expect = (np.sqrt(2) + 1.0) * psi
        np.testing.assert_allclose(
            out.mean[:2],
            [np.sqrt(2) * expect.real, np.sqrt(2) * expect.imag],
            atol=1e-12,
        )

    def test_purity_preserved(self):
        s = vacuum_state(2)
        out = apply_map(s, to_symplectic(pcia_transform(3.7)))
        assert np.linalg.det(out.covariance) == pytest.approx(
            np.linalg.det(s.covariance), rel=1e-12
        )
        out.validate()

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            apply_map(vacuum_state(2), SymplecticMap(np.eye(2)))


class TestMarginal:
    def test_full_selection(self):
        s = coherent_state([1j, 2.0, -0.5])
        out = marginal(s, [0, 1, 2])
        np.testing.assert_array_equal(out.mean, s.mean)
        np.testing.assert_array_equal(out.covariance, s.covariance)

    def test_vacuum_factorizes(self):
        out = marginal(vacuum_state(3), [1])
        np.testing.assert_array_equal(out.mean, vacuum_state(1).mean)
        np.testing.assert_array_equal(out.covariance, vacuum_state(1).covariance)

    def test_variance_commutes_with_marginal(self):
        s = apply_map(vacuum_state(2), to_symplectic(pcia_transform(2.5)))
        assert quadrature_variance(marginal(s, [1]), 0) == quadrature_variance(s, 1)

    def test_bad_indices(self):
        s = vacuum_state(2)
        with pytest.raises(DomainError):
            marginal(s, [0, 0])
        with pytest.raises(DomainError):
            marginal(s, [2])
        with pytest.raises(DomainError):
            marginal(s, [])


class TestQuadratureVariance:
    def test_vacuum(self):
        assert quadrature_variance(vacuum_state(1), 0) == (0.5, 0.5)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            quadrature_variance(vacuum_state(1), 1)


class TestFidelityWithCoherent:
    def test_self_fidelity(self):
        assert fidelity_with_coherent(vacuum_state(1), 0, 0j) == pytest.approx(
            1.0, abs=1e-15
        )

    @pytest.mark.parametrize("n", [0.0, 1e-3, 1 / 16, 1 / 9, 1.0, 10.0])
    def test_symmetric_added_noise(self, n):
        s = GaussianState(1, np.zeros(2), (0.5 + n) * np.eye(2))
        assert fidelity_with_coherent(s, 0, 0j) == pytest.approx(
            1.0 / (1.0 + n), abs=1e-12
        )

    @given(amplitudes, amplitudes)
    def test_displaced_coherent_overlap(self, psi, target):
        # Overlap of two coherent states is exp(-|psi - target|^2).
        f = fidelity_with_coherent(coherent_state([psi]), 0, target)
        assert f == pytest.approx(np.exp(-abs(psi - target) ** 2), rel=1e-9)

    def test_singular_covariance_rejected(self):
        s = GaussianState(1, np.zeros(2), -0.5 * np.eye(2))
        with pytest.raises(DomainError):
            fidelity_with_coherent(s, 0, 0j)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_array_form_matches_linear_solve(self, count, seed):
        # The written-out 2x2 inverse against a linear solve, entry by
        # entry, on asymmetric covariances with V + I/2 well inside the
        # positive determinants.
        rng = np.random.default_rng(seed)
        means = rng.normal(scale=2.0, size=(count, 2))
        covs = rng.uniform(-0.2, 0.2, size=(count, 2, 2))
        covs[:, [0, 1], [0, 1]] = rng.uniform(0.3, 3.0, size=(count, 2))
        targets = rng.normal(size=count) + 1j * rng.normal(size=count)
        got = coherent_fidelity(means, covs, targets)
        for j in range(count):
            v = covs[j] + 0.5 * np.eye(2)
            d = means[j] - np.sqrt(2.0) * np.array([targets[j].real, targets[j].imag])
            want = np.exp(-0.5 * d @ np.linalg.solve(v, d)) / np.sqrt(np.linalg.det(v))
            assert got[j] == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_one_singular_entry_rejects_the_stack(self, bad):
        covs = np.stack([0.5 * np.eye(2)] * 3)
        covs[1] = np.diag([bad, bad])
        with pytest.raises(DomainError):
            coherent_fidelity(np.zeros((3, 2)), covs, np.zeros(3))

    @pytest.mark.parametrize("cross", [0.0, 1e160])
    def test_determinant_overflow_is_named(self, cross):
        covs = np.stack([0.5 * np.eye(2), [[1e160, cross], [cross, 1e160]]])
        with pytest.raises(DomainError, match="overflows the float range"):
            coherent_fidelity(np.zeros((2, 2)), covs, np.zeros(2))


def _read_only(arr):
    arr.setflags(write=False)
    return arr


class TestFrozenArray:
    # Every holder of numeric arrays keeps a read-only, C-contiguous
    # float64 array that owns its data, and copies anything else.
    HOLDERS = {
        "SymplecticMap": lambda a: SymplecticMap(a).matrix,
        "GaussianState": lambda a: GaussianState(1, np.zeros(2), a).covariance,
        "EmpiricalMoments": lambda a: EmpiricalMoments(
            2, 0j, a, np.zeros((2, 2, 2)), np.ones((2, 2)), np.ones((2, 2))
        ).means,
    }
    COPIED = {
        "writable": lambda: np.array([[1.0, 2.0], [3.0, 4.0]]),
        "float32": lambda: _read_only(np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)),
        "int": lambda: _read_only(np.array([[1, 2], [3, 4]])),
        "fortran": lambda: _read_only(np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])),
        "view": lambda: _read_only(np.arange(1.0, 7.0))[:4].reshape(2, 2),
    }

    @pytest.mark.parametrize("holder", HOLDERS)
    def test_read_only_array_kept(self, holder):
        arr = _read_only(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.shares_memory(self.HOLDERS[holder](arr), arr)

    @pytest.mark.parametrize("kind", COPIED)
    @pytest.mark.parametrize("holder", HOLDERS)
    def test_other_arrays_copied(self, holder, kind):
        arr = self.COPIED[kind]()
        held = self.HOLDERS[holder](arr)
        assert not np.shares_memory(held, arr)
        assert held.dtype == np.float64 and held.flags.c_contiguous
        assert not held.flags.writeable
        np.testing.assert_array_equal(held, arr)

    def test_keeps_only_the_requested_dtype(self):
        arr = _read_only(np.eye(2))
        assert frozen_array(arr, float) is arr
        assert frozen_array(arr, complex).dtype == complex


class TestValidation:
    def test_asymmetric_covariance_rejected(self):
        s = GaussianState(1, np.zeros(2), np.array([[0.5, 0.2], [0.0, 0.5]]))
        with pytest.raises(DomainError):
            s.validate()

    def test_uncertainty_violation_rejected(self):
        s = GaussianState(1, np.zeros(2), 0.1 * np.eye(2))
        with pytest.raises(DomainError):
            s.validate()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            GaussianState(2, np.zeros(2), 0.5 * np.eye(4))

    def test_non_symplectic_map_rejected(self):
        with pytest.raises(DomainError):
            SymplecticMap(2.0 * np.eye(2)).validate()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 3), (3, 2)])
    def test_non_finite_map_rejected(self, bad, entry):
        s = np.array(to_symplectic(pcia_transform(1.5)).matrix)
        s[entry] = bad
        with pytest.raises(DomainError):
            SymplecticMap(s).validate()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_product_reads_nan_in_both(self):
        # A finite S whose S Omega S^T overflows: E's (0, 1) block holds
        # inf - inf = NaN next to inf.  Both routes, S and the (M, L) that
        # S is the image of, read a non-finite bound and refuse it.
        a = 1e200
        s = np.array([[a, 0, 0, a], [0, 0, 0, 0], [0, a, a, 0], [0, a, 0, 0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(oracles.dense_symplectic_residual(s))
        xx, xp, px, pp = s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2]
        pair = CanonicalTransform((xx + pp + 1j * (px - xp)) / 2,
                                  (xx - pp + 1j * (px + xp)) / 2)
        np.testing.assert_array_equal(pair.quadrature_image.matrix, s)
        for got in (SymplecticMap(s).residual(), pair.commutation_residual):
            assert not np.isfinite(got)
        with pytest.raises(DomainError):
            SymplecticMap(s).validate()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["mean", "diagonal", "off-diagonal"])
    def test_non_finite_state_rejected(self, bad, where):
        mean, cov = np.zeros(4), 0.5 * np.eye(4)
        if where == "mean":
            mean[1] = bad
        elif where == "diagonal":
            cov[2, 2] = bad
        else:
            cov[0, 3] = cov[3, 0] = bad
        with pytest.raises(DomainError):
            GaussianState(2, mean, cov).validate()

    def test_residual_never_builds_omega(self, monkeypatch):
        def dense_omega(mode_count):
            raise AssertionError("residual built the dense symplectic form")

        monkeypatch.setattr(gaussian, "symplectic_form", dense_omega)
        # Every probe passes through S = I exactly: the bound is 0.
        assert SymplecticMap(np.eye(6)).residual() == 0.0
        s = 2.0 * np.eye(2)
        assert SymplecticMap(s).residual() >= oracles.dense_symplectic_residual(s) == 3.0

    def test_states_are_immutable(self):
        s = vacuum_state(1)
        with pytest.raises(ValueError):
            s.mean[0] = 1.0
        with pytest.raises(ValueError):
            s.covariance[0, 0] = 9.0
