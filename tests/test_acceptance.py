"""Acceptance gate: one test per headline capability, each timed and
reported as a single PASS/FAIL line (echoed in the terminal summary).

The tolerances are the package's contract; loosening them here is a bug.
"""

import contextlib
import math
import sys
import time

import numpy as np

from pciclone.canonical import commutation_residual, to_symplectic
from pciclone.gaussian import (
    apply_map,
    fidelity_with_coherent,
    marginal,
    quadrature_variance,
)
from pciclone.machine import (
    CloningConfig,
    asymmetry_gain,
    build_machine,
    gain_from_amplitudes,
    gain_from_counts,
    noise_report,
)
from pciclone.montecarlo import SampleConfig, compare_to_analytic, simulate
from pciclone.optimize import minimize_asymmetry, solve_amplifier

RESULTS = []

PSI_GRID = (0j, 0.7 + 0j, 1.3j, -0.4 + 0.9j)


@contextlib.contextmanager
def criterion(label, budget=None):
    """Time a criterion body, record one PASS/FAIL line, enforce the budget."""
    notes = []
    t0 = time.perf_counter()
    ok = False
    try:
        yield notes
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {budget:g}s budget"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        suffix = f"  ({'; '.join(notes)})" if notes else ""
        line = f"{'PASS' if ok else 'FAIL'}  {label}  [{elapsed:.2f}s]{suffix}"
        RESULTS.append(line)
        print(line, file=sys.__stdout__, flush=True)


def structural_grid(max_total=6, max_m=8):
    for n in range(0, max_total + 1):
        for nc in range(0, max_total + 1 - n):
            if n + nc == 0:
                continue
            for m in range(max(n, 1), max_m + 1):
                yield CloningConfig(n, nc, m)


def mode_amplitude(state, mode):
    return (state.mean[2 * mode] + 1j * state.mean[2 * mode + 1]) / math.sqrt(2)


def test_criterion_1_balanced_pair_to_two_clones():
    with criterion(
        "criterion 1: balanced (1,1)->2 variance 0.5625, fidelity 16/17, "
        "sampling within 4 SE at 1e6",
        budget=5.0,
    ) as notes:
        cfg = CloningConfig(1, 1, 2)
        rep = noise_report(cfg)
        assert abs(rep.var_clone - 0.5625) < 1e-12
        assert abs(rep.f_clone - 16 / 17) < 1e-12

        transform, layout = build_machine(cfg)
        psi = 1 + 0.5j
        state = apply_map(layout.input_state(psi), to_symplectic(transform))
        for mode in layout.clone_slots:
            vx, vp = quadrature_variance(state, mode)
            assert abs(vx - rep.var_clone) < 1e-10
            assert abs(vp - rep.var_clone) < 1e-10
            assert abs(vx - 0.5625) < 1e-10
            assert abs(fidelity_with_coherent(state, mode, psi) - 16 / 17) < 1e-12

        emp = simulate(transform, layout, SampleConfig(10**6, 2026, psi))
        summary = compare_to_analytic(emp, rep, layout, threshold=4.0)
        assert summary.passed, summary.flagged()
        notes.append(f"max |z| = {summary.max_abs_z:.2f}")


def test_criterion_2_beats_standard_cloner():
    # The balanced machine adds (M-N)^2/(4 M^2 N) photons per clone
    # (G = (M+N)^2/(4MN)); the standard 2N->M cloner adds 1/(2N) - 1/M.
    # Their difference has the sign of M^2 - 2MN - N^2, so conjugate pairs
    # win iff M > (1+sqrt(2))N.  The window therefore straddles the
    # boundary, e.g. (N=3, M=7) and (N=4, M=9) lie below it, and each side
    # is asserted strictly.  sqrt(2) is irrational, so no integer point
    # ties.  What the paper promises is the advantage of a well chosen
    # split N'/(N+N') over the standard (N+N')->M cloner; that is (b).
    with criterion(
        "criterion 2: conjugate pairs beat 2N identical inputs iff "
        "M > (1+sqrt(2))N (N=N'<=4, 2N+1<=M<=20); some split beats the "
        "standard n->M cloner (2<=n<=8, n<M<=20)",
        budget=1.0,
    ):
        # (a) the balanced split, on both sides of the boundary
        wrong_side = []
        for n in range(1, 5):
            for m in range(2 * n + 1, 21):
                pci = noise_report(CloningConfig(n, n, m))
                std = noise_report(CloningConfig(2 * n, 0, m))
                # the 2N-input machine attains the standard baseline exactly
                assert abs(std.f_clone - pci.baseline_f) < 1e-12
                if m * m - 2 * m * n - n * n > 0:
                    on_side = pci.f_clone > std.f_clone
                else:
                    on_side = pci.f_clone < std.f_clone
                if not on_side:
                    wrong_side.append((n, m))
        assert not wrong_side, (
            f"balanced (N, M) on the wrong side of M > (1+sqrt(2))N: {wrong_side}"
        )

        # (b) the abstract's claim: a well chosen split beats n -> M
        no_split = []
        for total in range(2, 9):
            for m in range(total + 1, 21):
                baseline = noise_report(CloningConfig(total, 0, m)).baseline_f
                best = max(
                    noise_report(CloningConfig(n, total - n, m)).f_clone
                    for n in range(total + 1)
                )
                if not best > baseline:
                    no_split.append((total, m))
        assert not no_split, (
            f"no split beats the standard n->M cloner at (n, M) in {no_split}"
        )


def test_criterion_3_noise_halving_at_large_m():
    with criterion(
        "criterion 3: many-clone noise 1/(4N) halves the 1/(2N) baseline",
        budget=1.0,
    ):
        m = 10**6
        for n in (1, 2, 3):
            rep = noise_report(CloningConfig(n, n, m))
            assert abs(rep.n_th_clone - 1 / (4 * n)) < 1e-5
            assert abs((rep.baseline_var - 0.5) - 1 / (2 * n)) < 1e-5


def test_criterion_4_measurement_limit_all_splits():
    with criterion(
        "criterion 4: many-clone noise -> 1/(sqrt(N)+sqrt(N'))^2 for N,N'<=4",
        budget=1.0,
    ):
        m = 10**6
        for n in range(0, 5):
            for nc in range(0, 5):
                if n + nc == 0:
                    continue
                limit = 1.0 / (math.sqrt(n) + math.sqrt(nc)) ** 2
                n_th = (gain_from_counts(CloningConfig(n, nc, m)) - 1.0) / m
                assert abs(n_th - limit) < 1e-5


def test_criterion_5_asymmetry_scan_at_n8():
    with criterion(
        "criterion 5: n=8 asymmetry scan (best conjugate fraction per M)",
        budget=10.0,
    ) as notes:
        n = 8
        m_all = (8, 9, 16, 32, 64, 256, 80000)
        for m in m_all:
            g = asymmetry_gain(n, m, 1.0)
            assert abs((g - 1.0) / m - 1.0 / n) < 1e-12

        best = {
            m: minimize_asymmetry(n, m)
            for m in m_all
        }
        assert best[8].a_star == 0.0
        assert abs(best[8].n_th) < 1e-12
        for m in (9, 16, 32, 64):
            assert 0.0 < best[m].a_star < 0.5
        gaps = [abs(best[m].a_star - 0.5) for m in (16, 64, 256, 80000)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        notes.append(
            "a* = "
            + ", ".join(f"M={m}: {best[m].a_star:.6f}" for m in m_all)
        )


def test_criterion_6_amplifier_rediscovery():
    with criterion(
        "criterion 6: constrained search rediscovers the amplifier "
        "(100 random triples)",
        budget=60.0,
    ) as notes:
        rng = np.random.default_rng(2024)
        worst_rel = worst_aux = worst_full = 0.0
        for _ in range(100):
            alpha = rng.uniform(0.0, 2.0)
            beta = rng.uniform(0.05, 2.0)
            gamma = alpha + rng.uniform(0.0, 2.0)
            res = solve_amplifier(alpha, beta, gamma, seed=1)
            expect = gain_from_amplitudes(alpha, beta, gamma)
            rel = abs(res.gain - expect) / expect
            assert rel < 1e-6
            assert res.aux_norm < 1e-6
            assert res.full_residual < 1e-8
            worst_rel = max(worst_rel, rel)
            worst_aux = max(worst_aux, res.aux_norm)
            worst_full = max(worst_full, res.full_residual)
        notes.append(
            f"worst: gain rel {worst_rel:.1e}, aux {worst_aux:.1e}, "
            f"residual {worst_full:.1e}"
        )


def test_criterion_7_structural_invariants():
    with criterion(
        "criterion 7: canonical/symplectic/mean/variance exactness on the "
        "full grid (N+N'<=6, M<=8)",
        budget=10.0,
    ):
        for cfg in structural_grid():
            transform, layout = build_machine(cfg)
            assert commutation_residual(transform) < 1e-10
            smap = to_symplectic(transform)
            assert smap.residual() < 1e-10
            rep = noise_report(cfg)
            for psi in PSI_GRID:
                state = apply_map(layout.input_state(psi), smap)
                for mode in layout.clone_slots:
                    assert abs(mode_amplitude(state, mode) - psi) < 1e-12
                for mode in layout.anticlone_slots:
                    assert abs(
                        mode_amplitude(state, mode) - psi.conjugate()
                    ) < 1e-12
            state = apply_map(layout.input_state(0.7 - 0.3j), smap)
            first = marginal(state, [layout.clone_slots[0]])
            for mode in layout.clone_slots[1:]:
                other = marginal(state, [mode])
                assert np.max(np.abs(other.mean - first.mean)) < 1e-12
                assert np.max(np.abs(other.covariance - first.covariance)) < (
                    1e-12
                )
            if rep.var_anticlone is not None:
                for mode in layout.anticlone_slots:
                    vx, vp = quadrature_variance(state, mode)
                    assert abs(vx - rep.var_anticlone) < 1e-10
                    assert abs(vp - rep.var_anticlone) < 1e-10


def _fixed_budget_splits(total_in, total_out):
    """Integer (N, N', M, M') with N+N'=total_in, M+M'=total_out.

    The anticlone count is tied to the others, so the family is indexed
    by N alone and only exists when the two totals have equal parity.
    """
    if (total_out - total_in) % 2:
        return
    half = (total_out - total_in) // 2
    for n in range(total_in + 1):
        m = n + half
        mc = total_out - m
        if m < max(n, 1) or mc < 0:
            continue
        yield n, total_in - n, m, mc


def test_criterion_8_duality_and_balanced_optimality():
    with criterion(
        "criterion 8: clone/anticlone duality; balanced split is optimal "
        "at fixed totals (N+N'<=8, M+M'<=16)"
    ):
        for cfg in structural_grid():
            if cfg.m_anticlones < 1:
                continue  # the swapped machine would have no clone ports
            dual = CloningConfig(cfg.n_conj, cfg.n_inputs, cfg.m_anticlones)
            assert abs(gain_from_counts(cfg) - gain_from_counts(dual)) < 1e-12

        # A machine adds G-1 thermal photons to its clone set and G-1 to
        # its anticlone set; the added noise per output is 2(G-1)/(M+M').
        # Spot checks show the per-clone noise alone is NOT minimized by
        # the balanced split (N=3,N'=1,M=4 beats N=N'=2,M=3 on clones
        # while its anticlones are twice as noisy), so the meaningful
        # orderings are the per-output average and worst output.  The
        # balanced split must win both, with ties allowed at zero.
        for total_in in (2, 4, 6, 8):
            for total_out in range(total_in, 17, 2):
                family = list(_fixed_budget_splits(total_in, total_out))
                balanced = next(f for f in family if f[0] == f[1])
                g_bal = gain_from_counts(CloningConfig(*balanced[:3]))
                avg_bal = 2.0 * (g_bal - 1.0) / total_out
                worst_bal = (g_bal - 1.0) / min(balanced[2], balanced[3])
                for split in family:
                    n, nc, m, mc = split
                    g = gain_from_counts(CloningConfig(n, nc, m))
                    outputs = 2.0 if mc >= 1 else 1.0
                    avg = outputs * (g - 1.0) / total_out
                    worst = (g - 1.0) / (min(m, mc) if mc >= 1 else m)
                    assert avg_bal <= avg + 1e-12, (split, avg, avg_bal)
                    assert worst_bal <= worst + 1e-12, (split, worst, worst_bal)
