import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pciclone import canonical, gaussian, machine
from pciclone.canonical import (
    CanonicalTransform,
    commutation_residual,
    pcia_transform,
    to_symplectic,
)
from pciclone.errors import DomainError
from pciclone.gaussian import (
    SymplecticMap,
    apply_map,
    coherent_state,
    quadrature_variance,
    vacuum_state,
)
from pciclone.machine import CloningConfig, build_machine

import oracles
from oracles import compose, dft_transform, embed, identity_transform


def random_transform(rng, mode_count, stages=6, max_extra_gain=2.0):
    """Seeded composition of embedded DFTs and amplifiers."""
    t = identity_transform(mode_count)
    for _ in range(stages):
        if rng.random() < 0.5 and mode_count >= 2:
            pair = list(rng.choice(mode_count, size=2, replace=False))
            stage = embed(
                pcia_transform(1.0 + rng.uniform(0, max_extra_gain)),
                pair,
                mode_count,
            )
        else:
            size = int(rng.integers(1, mode_count + 1))
            targets = list(rng.choice(mode_count, size=size, replace=False))
            stage = embed(
                dft_transform(size, inverse=bool(rng.integers(2))),
                targets,
                mode_count,
            )
        t = compose(t, stage)
    return t


class TestIdentity:
    def test_exact_residual(self):
        assert commutation_residual(identity_transform(2)) == 0.0

    def test_neutral_element(self):
        t = pcia_transform(1.5)
        left = compose(identity_transform(2), t)
        right = compose(t, identity_transform(2))
        for other in (left, right):
            np.testing.assert_array_equal(other.m_matrix, t.m_matrix)
            np.testing.assert_array_equal(other.l_matrix, t.l_matrix)

    def test_symplectic_image(self):
        np.testing.assert_array_equal(
            to_symplectic(identity_transform(1)).matrix, np.eye(2)
        )

    def test_zero_modes_rejected(self):
        with pytest.raises(DomainError):
            identity_transform(0)


class TestCompose:
    def test_gain_multiplication(self):
        g1, g2 = 1.8, 2.3
        both = compose(pcia_transform(g1), pcia_transform(g2))
        expect = np.sqrt(g1 * g2) + np.sqrt((g1 - 1) * (g2 - 1))
        assert both.m_matrix[0, 0] == pytest.approx(expect, rel=1e-14)

    def test_functoriality(self):
        rng = np.random.default_rng(5)
        a = random_transform(rng, 3)
        b = random_transform(rng, 3)
        # compose(a, b) acts as b after a, so matrices multiply as S_b S_a.
        np.testing.assert_allclose(
            to_symplectic(compose(a, b)).matrix,
            to_symplectic(b).matrix @ to_symplectic(a).matrix,
            atol=1e-10,
        )

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            compose(identity_transform(2), identity_transform(3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    # Entries reach 90 here: the exact residual is 1.8e-12, the probe
    # bound 1.07e-10.
    @example(29658)
    def test_associative_and_canonical(self, seed):
        rng = np.random.default_rng(seed)
        a, b, c = (random_transform(rng, 3, stages=2) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.m_matrix, right.m_matrix, atol=1e-12)
        np.testing.assert_allclose(left.l_matrix, right.l_matrix, atol=1e-12)
        m, l = left.m_matrix, left.l_matrix
        assert oracles.dense_commutation_residual(m, l) < 1e-10
        # The probe bound's rounding grows with the entries' squares.
        assert commutation_residual(left) < 1e-12 * oracles.commutation_scale(m, l)


class TestCommutationResidual:
    def test_identity_zero(self):
        # Every probe passes through M = I, L = 0 exactly: the bound is 0.
        assert commutation_residual(identity_transform(4)) == 0.0

    def test_amplifier_exact(self):
        assert commutation_residual(pcia_transform(1.125)) < 1e-12

    def test_constructed_violation(self):
        bad = CanonicalTransform(2.0 * np.eye(1), np.zeros((1, 1)))
        want = oracles.dense_commutation_residual(bad.m_matrix, bad.l_matrix)
        assert want == 3.0
        assert commutation_residual(bad) >= want

    @pytest.mark.parametrize("seed", range(5))
    def test_cached_value_matches_recomputation(self, seed):
        rng = np.random.default_rng(seed)
        t = random_transform(rng, 5)
        t = CanonicalTransform(
            t.m_matrix + 1e-6 * rng.normal(size=(5, 5)), t.l_matrix
        )
        first = commutation_residual(t)
        assert first > 0
        # A new transform on the same matrices recomputes the same bits;
        # the dense oracles are compared in TestCertificatesMatchDense.
        assert CanonicalTransform(t.m_matrix, t.l_matrix).commutation_residual == first
        assert commutation_residual(t) == first
        assert t.commutation_residual == first


def assert_bound_reads(got, s, exact):
    """``got``, a probe bound of the map S, is at least every residual in
    ``exact`` and equals the dense probe oracle on the same probes: to
    1e-9 relative, or, where E is only rounding, to 1e-11 of the size of
    the products that form it."""
    want = oracles.dense_probe_bound(s)
    assert got >= max(exact)
    assert abs(got - want) <= max(1e-9 * want, 1e-11 * oracles.symplectic_scale(s))


def assert_certificates_match_dense(t):
    """The one bound of ``t``, read through (M, L), and that of its image
    read alone through S, each hold both dense exact residuals and equal
    the dense probe oracle."""
    m, l = t.m_matrix, t.l_matrix
    s = np.array(t.quadrature_image.matrix)
    exact = [oracles.dense_commutation_residual(m, l),
             oracles.dense_symplectic_residual(s)]
    assert t.quadrature_image.residual() == commutation_residual(t)
    assert_bound_reads(commutation_residual(t), s, exact)
    assert_bound_reads(SymplecticMap(s).residual(), s, exact)


def random_matrices(rng, k):
    """Complex M, L with independent normal entries of variance 1/K: far
    from canonical, with O(1) row norms."""
    return [
        (rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))) / np.sqrt(2 * k)
        for _ in range(2)
    ]


def defective_machine():
    """build_machine(2, 3, 5) with M[3, 1] += 1e-6: exact residuals
    7.07e-7, probe bound 4.4e-5."""
    transform, _ = build_machine(CloningConfig(2, 3, 5))
    m = np.array(transform.m_matrix)
    m[3, 1] += 1e-6
    return CanonicalTransform(m, transform.l_matrix)


class TestCertificatesMatchDense:
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_non_canonical(self, k, seed):
        m, l = random_matrices(np.random.default_rng(seed), k)
        assert_certificates_match_dense(CanonicalTransform(m, l))

    @pytest.mark.parametrize("k", [256, 257, 300])
    def test_across_tile_edges(self, k):
        # Larger maps, at and past the sizes of 2 x 128 modes.
        m, l = random_matrices(np.random.default_rng(k), k)
        assert_certificates_match_dense(CanonicalTransform(m, l))

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(1, 64))
    @settings(max_examples=60, deadline=None)
    def test_machines(self, n, nc, m):
        assume(n + nc >= 1 and m >= n)
        transform, _ = build_machine(CloningConfig(n, nc, m))
        assert_certificates_match_dense(transform)

    @pytest.mark.parametrize("which", ["m", "l"])
    def test_perturbed_entry_reads_alike(self, which):
        transform, _ = build_machine(CloningConfig(2, 1, 5))
        m, l = np.array(transform.m_matrix), np.array(transform.l_matrix)
        (m if which == "m" else l)[3, 1] += 1e-6
        bad = CanonicalTransform(m, l)
        assert_certificates_match_dense(bad)
        assert commutation_residual(bad) > 1e-7
        assert bad.quadrature_image.residual() > 1e-7

    @given(
        st.integers(100, 320),
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_block_sparse(self, k, blocks, empty, seed):
        # Row blocks with their own runs of zero columns and rows reaching
        # no column: the bound reads them as it reads a dense map.
        rng = np.random.default_rng(seed)
        m, l = random_matrices(rng, k)
        reach = np.ones((k, k), dtype=bool)
        edges = [0, *sorted(rng.choice(np.arange(1, k), blocks - 1, replace=False)), k]
        for r0, r1 in zip(edges[:-1], edges[1:]):
            for _ in range(int(rng.integers(1, 4))):
                c0 = int(rng.integers(0, k))
                reach[r0:r1, c0 : c0 + int(rng.integers(1, k // 2))] = False
        reach[edges[0] : edges[1], 100:150] = False
        reach[rng.choice(k, empty, replace=False)] = False
        t = CanonicalTransform(np.where(reach, m, 0), np.where(reach, l, 0))
        assert_certificates_match_dense(t)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_in_a_skipped_column(self, bad):
        # Clone rows reach no anticlone vacuum column.  A bad entry there
        # is refused through S and, put in M, through (M, L).
        transform, layout = build_machine(CloningConfig(2, 2, 130))
        s = np.array(transform.quadrature_image.matrix)
        row, col = 2 * layout.clone_slots[-1], 2 * layout.anticlone_slots[-1] + 1
        assert not s[:, col][2 * np.array(layout.clone_slots)].any()
        s[row, col] = bad
        assert not np.isfinite(SymplecticMap(s).residual())
        with pytest.raises(DomainError):
            SymplecticMap(s).validate()
        m = np.array(transform.m_matrix)
        m[row // 2, col // 2] = bad
        assert not np.isfinite(commutation_residual(
            CanonicalTransform(m, transform.l_matrix)))

    @pytest.mark.parametrize("rows, want", [((0, 2), 1.0), ((2, 3), 2.0)])
    def test_swapped_rows_read_alike(self, rows, want):
        # Swapping x_0 with x_1 moves an Omega entry off its block (1);
        # swapping x_1 with p_1 flips the sign of its block (2).
        transform, _ = build_machine(CloningConfig(2, 1, 5))
        s = np.array(transform.quadrature_image.matrix)
        s[list(rows)] = s[list(rows[::-1])]
        exact = oracles.dense_symplectic_residual(s)
        assert exact == pytest.approx(want, abs=1e-12)
        assert_bound_reads(SymplecticMap(s).residual(), s, [exact])


class TestRouteAgreement:
    # The stages, (M, L) and S each push the same probes; each bound
    # equals the dense probe oracle and holds the exact residuals.
    def test_defect_reads_alike_through_pair_and_image(self):
        bad = defective_machine()
        s = np.array(bad.quadrature_image.matrix)
        exact = oracles.dense_commutation_residual(bad.m_matrix, bad.l_matrix)
        assert exact == pytest.approx(7.07e-7, rel=1e-3)
        through_pair = commutation_residual(bad)
        through_image = SymplecticMap(s).residual()
        assert through_pair == pytest.approx(3.64e-5, rel=0.02)
        for got in (through_pair, through_image):
            assert_bound_reads(got, s, [exact, oracles.dense_symplectic_residual(s)])
        assert abs(through_pair - through_image) <= 1e-9 * through_image

    def test_defective_stages_read_their_image(self):
        # sqrt(G - 1) off by 1e-6: the stages' bound is the dense probe
        # oracle of the map the stages push, assembled column by column.
        network, _ = machine._network(CloningConfig(2, 3, 5))
        amp = network.amplifier
        bad = dataclasses.replace(network, amplifier=CanonicalTransform(
            amp.m_matrix, amp.l_matrix * (1 + 1e-6)))
        k, modes = bad.mode_count, np.arange(bad.mode_count)
        a = np.zeros((k, 2 * k), dtype=complex)
        a[modes, 2 * modes] = 1.0
        a[modes, 2 * modes + 1] = 1j
        bad._push(a)
        s = np.stack((a.real, a.imag), axis=1).reshape(2 * k, 2 * k)
        assert_bound_reads(bad.commutation_residual, s,
                           [oracles.dense_symplectic_residual(s)])
        assert bad.commutation_residual > 1e-6

    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_pairs(self, k, seed):
        # Far from canonical, so E is no rounding: (M, L) and S agree.
        # TestCertificatesMatchDense holds both against the oracles.
        m, l = random_matrices(np.random.default_rng(seed), k)
        t = CanonicalTransform(m, l)
        through_image = SymplecticMap(np.array(t.quadrature_image.matrix)).residual()
        assert abs(commutation_residual(t) - through_image) <= 1e-9 * through_image

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused_on_every_route(self, bad):
        transform, _ = build_machine(CloningConfig(2, 3, 5))
        m = np.array(transform.m_matrix)
        m[3, 1] = bad
        pair = CanonicalTransform(m, transform.l_matrix)
        s = np.array(transform.quadrature_image.matrix)
        s[6, 3] = bad
        network = transform._network
        amp_l = np.array(network.amplifier.l_matrix)
        amp_l[0, 1] = bad
        stages = dataclasses.replace(network, amplifier=CanonicalTransform(
            network.amplifier.m_matrix, amp_l))
        for got in (commutation_residual(pair), pair.quadrature_image.residual(),
                    SymplecticMap(s).residual(), commutation_residual(stages)):
            assert not got <= canonical.CANONICAL_TOL
        with pytest.raises(DomainError):
            to_symplectic(pair)
        with pytest.raises(DomainError):
            SymplecticMap(s).validate()

    @pytest.mark.parametrize("counts, k, cols", [
        ((2, 2, 6), 14, 32), ((4, 4, 64), 134, 32),
        ((4, 4, 130), 266, 8), ((1, 3, 300), 604, 8)])
    def test_batches_read_the_one_pass_bits(self, counts, k, cols):
        # Up to 2^13 probe amplitudes (K <= 256) the 32 probes go in one
        # batch, above it 8 at a time; through the stages, (M, L) and S
        # the bound has the bits of one pass of all 32.
        transform, _ = build_machine(CloningConfig(*counts))
        image = SymplecticMap(np.array(transform.quadrature_image.matrix))
        assert transform.mode_count == k
        for push in (transform._network._push, transform._push, image._push):
            shapes = []

            def spy(a, transpose):
                shapes.append(a.shape)
                return push(a, transpose)

            got = gaussian._probe_bound(k, spy)
            assert shapes == [(k, cols)] * (2 * 32 // cols)
            assert got == oracles.one_pass_probe_bound(k, push)
            assert 0.0 < got <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batches_read_the_one_pass_non_finite_bound(self, bad):
        # K = 266: a map holding a NaN or an inf reads the one pass's
        # non-finite bound through (M, L) and through S.
        transform, layout = build_machine(CloningConfig(4, 4, 130))
        k = transform.mode_count
        m = np.array(transform.m_matrix)
        m[layout.clone_slots[-1], layout.anticlone_slots[-1]] = bad
        pair = CanonicalTransform(m, transform.l_matrix)
        s = np.array(transform.quadrature_image.matrix)
        s[2 * layout.clone_slots[-1], 2 * layout.anticlone_slots[-1] + 1] = bad
        for push in (pair._push, SymplecticMap(s)._push):
            got = gaussian._probe_bound(k, push)
            want = oracles.one_pass_probe_bound(k, push)
            assert not np.isfinite(got)
            np.testing.assert_equal(got, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("batch", [0, 3])
    def test_non_finite_batch_carries_to_the_bound(self, bad, batch):
        # A NaN or inf in any one of the four batches of K = 300, the
        # first or the last, is the bound: the batches' maxima are
        # combined by np.maximum, which keeps a NaN where max drops it.
        network, _ = machine._network(CloningConfig(4, 4, 147))
        k = network.mode_count
        assert k == 300
        calls = []

        def push(a, transpose):
            network._push(a, transpose)
            calls.append(transpose)
            if len(calls) == 2 * batch + 2:
                a[k // 2, -1] = bad

        got = gaussian._probe_bound(k, push)
        assert len(calls) == 8
        np.testing.assert_equal(got, bad)


class TestOneProductResidual:
    # Each constraint alone, violated: the bound holds the dense oracle's
    # value, which is the size of the violation.
    @pytest.mark.parametrize("eps", [1e-6, 1e-6j, 0.25 - 0.5j])
    def test_antisymmetry_violation(self, eps):
        # M L^T - L M^T = L^T - L; M M^H - L L^H - I = -L L^H is O(eps^2).
        t = CanonicalTransform(np.eye(2), np.array([[0.0, eps], [0.0, 0.0]]))
        want = oracles.dense_commutation_residual(t.m_matrix, t.l_matrix)
        assert commutation_residual(t) >= want
        assert want == pytest.approx(abs(eps), rel=1e-12)

    @pytest.mark.parametrize("m", [
        (1 + 1e-6) * np.eye(2),
        np.array([[1.0, 1e-6 + 2e-6j], [0.0, 1.0]]),
        np.array([[1.0, 1e-6j], [0.0, 1.0]]),
    ])
    def test_unitarity_violation(self, m):
        # With L = 0 only M M^H - I is violated.
        t = CanonicalTransform(m, np.zeros((2, 2)))
        want = oracles.dense_commutation_residual(t.m_matrix, t.l_matrix)
        assert want > 1e-7
        assert commutation_residual(t) >= want

    @pytest.mark.parametrize("which", ["m", "l"])
    @pytest.mark.parametrize("entry", [(0, 0), (1, 2), (2, 1)])
    def test_nan_anywhere_is_refused(self, which, entry):
        transform, _ = build_machine(CloningConfig(1, 1, 2))
        m, l = np.array(transform.m_matrix), np.array(transform.l_matrix)
        (m if which == "m" else l)[entry] = np.nan
        bad = CanonicalTransform(m, l)
        assert np.isnan(commutation_residual(bad))
        assert np.isnan(bad.quadrature_image.residual())
        with pytest.raises(DomainError):
            to_symplectic(bad)


class TestHandOver:
    def test_read_only_matrices_kept(self):
        m = np.eye(3, dtype=complex)
        l = np.zeros((3, 3), dtype=complex)
        m.setflags(write=False)
        l.setflags(write=False)
        t = CanonicalTransform(m, l)
        assert np.shares_memory(t.m_matrix, m)
        assert np.shares_memory(t.l_matrix, l)

    def test_writable_matrix_copied(self):
        m = np.eye(3, dtype=complex)
        t = CanonicalTransform(m, np.zeros((3, 3)))
        assert not np.shares_memory(t.m_matrix, m)
        m[0, 0] = 5.0
        assert t.m_matrix[0, 0] == 1.0
        assert not t.m_matrix.flags.writeable

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.eye(3),  # real
            lambda: np.asfortranarray(np.eye(3, dtype=complex) + 1j * np.tri(3)),
            lambda: np.eye(4, dtype=complex)[:3, :3],  # a view
        ],
    )
    def test_other_read_only_arrays_copied(self, make):
        m = make()
        m.setflags(write=False)
        t = CanonicalTransform(m, np.zeros((3, 3)))
        assert not np.shares_memory(t.m_matrix, m)
        assert t.m_matrix.flags.c_contiguous
        np.testing.assert_array_equal(t.m_matrix, m)

    def test_quadrature_image_handed_over(self, monkeypatch):
        handed = []
        real = canonical.SymplecticMap

        def spy(matrix):
            handed.append(matrix)
            return real(matrix)

        monkeypatch.setattr(canonical, "SymplecticMap", spy)
        transform, _ = build_machine(CloningConfig(2, 1, 5))
        assert np.shares_memory(transform.quadrature_image.matrix, handed[-1])

    def test_build_machine_hands_over(self, monkeypatch):
        handed = []

        def spy(m, l):
            handed.append((m, l))
            return CanonicalTransform(m, l)

        monkeypatch.setattr(machine, "CanonicalTransform", spy)
        transform, _ = build_machine(CloningConfig(2, 1, 5))
        m, l = handed[-1]
        assert np.shares_memory(transform.m_matrix, m)
        assert np.shares_memory(transform.l_matrix, l)


class TestToSymplectic:
    def test_image_reads_the_transform_residuals(self, monkeypatch):
        # The image reports its transform's bound, not a second probe
        # pass; the same S read on its own, through S, holds the dense
        # residuals too, and a map made from the image by
        # dataclasses.replace reads its own.
        calls = []
        real = gaussian._probe_bound

        def spy(k, push):
            calls.append(k)
            return real(k, push)

        monkeypatch.setattr(canonical, "_probe_bound", spy)
        transform, _ = build_machine(CloningConfig(4, 4, 130))
        image = to_symplectic(transform)
        assert image._transform is transform
        assert image.residual() == transform.commutation_residual
        assert calls == [transform.mode_count]
        # That cached bound is the one residual member of a transform
        # and of its stages.
        for owner in (transform, transform._network):
            assert not hasattr(owner, "symplectic_residual")
            assert not hasattr(owner, "_bound")
        s = np.array(image.matrix)
        exact = max(oracles.dense_commutation_residual(transform.m_matrix,
                                                       transform.l_matrix),
                    oracles.dense_symplectic_residual(s))
        alone = SymplecticMap(s)
        for got in (image.residual(), alone.residual()):
            assert exact <= got <= 1e-12
        other = dataclasses.replace(image, matrix=2.0 * np.eye(4))
        assert other.residual() >= oracles.dense_symplectic_residual(other.matrix) == 3.0

    def test_unit_gain_is_identity(self):
        np.testing.assert_allclose(
            to_symplectic(pcia_transform(1.0)).matrix, np.eye(4), atol=1e-15
        )

    def test_dft2_is_balanced_orthogonal_mixer(self):
        s = to_symplectic(dft_transform(2)).matrix
        np.testing.assert_allclose(s @ s.T, np.eye(4), atol=1e-14)
        # Every input mode contributes half its power to each output mode.
        for i in range(2):
            for j in range(2):
                block = s[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                assert np.sum(block**2) == pytest.approx(1.0, abs=1e-12)

    def test_amplified_vacuum_variance(self):
        out = apply_map(vacuum_state(2), to_symplectic(pcia_transform(2.0)))
        assert quadrature_variance(out, 0) == pytest.approx((1.5, 1.5), abs=1e-12)

    def test_non_canonical_rejected(self):
        bad = CanonicalTransform(2.0 * np.eye(1), np.zeros((1, 1)))
        with pytest.raises(DomainError):
            to_symplectic(bad)
        # Refused again once the residual is cached on the transform.
        with pytest.raises(DomainError):
            to_symplectic(bad)

    def test_nan_transform_rejected(self):
        # A NaN residual must not slip past the tolerance comparison.
        bad = CanonicalTransform(np.full((1, 1), np.nan), np.zeros((1, 1)))
        with pytest.raises(DomainError):
            to_symplectic(bad)

    def test_image_built_once(self):
        t = pcia_transform(1.5)
        assert to_symplectic(t) is to_symplectic(t)
        assert not to_symplectic(t).matrix.flags.writeable

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moments_match_operator_algebra(self, seed):
        # Dual route: quadrature-space propagation must agree with the
        # complex-amplitude formulas applied to the same (M, L).
        rng = np.random.default_rng(seed)
        t = random_transform(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = apply_map(coherent_state(psi), to_symplectic(t))
        np.testing.assert_allclose(
            state.mean,
            oracles.quadrature_mean_vector(t.m_matrix, t.l_matrix, psi),
            atol=1e-10,
        )
        var_x, var_p, cov_xp = oracles.operator_variances(t.m_matrix, t.l_matrix)
        for mode in range(4):
            vx, vp = quadrature_variance(state, mode)
            assert vx == pytest.approx(var_x[mode], abs=1e-11)
            assert vp == pytest.approx(var_p[mode], abs=1e-11)
            assert state.covariance[2 * mode, 2 * mode + 1] == pytest.approx(
                cov_xp[mode], abs=1e-11
            )


class TestDftTransform:
    def test_single_mode_is_identity(self):
        t = dft_transform(1)
        np.testing.assert_array_equal(t.m_matrix, np.eye(1))

    def test_uniform_first_row(self):
        np.testing.assert_allclose(
            dft_transform(4).m_matrix[0], 0.5 * np.ones(4), atol=1e-15
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8])
    def test_concentration(self, k):
        psi = 0.4 - 0.9j
        state = apply_map(
            coherent_state([psi] * k), to_symplectic(dft_transform(k))
        )
        np.testing.assert_allclose(
            state.mean[:2],
            np.sqrt(2 * k) * np.array([psi.real, psi.imag]),
            atol=1e-12,
        )
        for mode in range(1, k):
            np.testing.assert_allclose(
                state.mean[2 * mode : 2 * mode + 2], 0.0, atol=1e-12
            )
            assert quadrature_variance(state, mode) == pytest.approx(
                (0.5, 0.5), abs=1e-12
            )

    @pytest.mark.parametrize("k", [1, 2, 3, 7])
    def test_inverse_flag(self, k):
        fwd = dft_transform(k)
        inv = dft_transform(k, inverse=True)
        np.testing.assert_allclose(
            inv.m_matrix, fwd.m_matrix.conj().T, atol=1e-15
        )
        round_trip = compose(fwd, inv)
        np.testing.assert_allclose(round_trip.m_matrix, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(round_trip.l_matrix, 0.0, atol=1e-12)

    def test_zero_modes_rejected(self):
        with pytest.raises(DomainError):
            dft_transform(0)

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_on_identity_is_the_matrix(self, inverse):
        # The worst gap, 3.4e-14, is the rounding of the exp formula's
        # argument 2 pi l k / K, not of the FFT.
        for k in [*range(1, 65), 509, 512, 1021, 1024]:
            a = np.eye(k, dtype=complex)
            canonical._apply_dft(a, slice(0, k), inverse)
            want = dft_transform(k, inverse).m_matrix
            assert np.max(np.abs(a - want)) <= 1e-13, k

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_acts_on_the_given_rows_only(self, inverse):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
        before = a.copy()
        rows = (4, 0, 2)
        oracles.gathered_dft(a, rows, inverse)
        want = dft_transform(3, inverse).m_matrix @ before[list(rows)]
        np.testing.assert_allclose(a[list(rows)], want, atol=1e-14)
        np.testing.assert_array_equal(a[[1, 3, 5]], before[[1, 3, 5]])

    @pytest.mark.parametrize("rows", [(), (2,)])
    def test_fft_of_fewer_than_two_rows_is_a_no_op(self, rows):
        a = np.arange(12.0).reshape(4, 3) + 1j
        before = a.copy()
        oracles.gathered_dft(a, rows)
        np.testing.assert_array_equal(a, before)

    @pytest.mark.parametrize("inverse", [False, True])
    @pytest.mark.parametrize("port, run", [(1, slice(5, 8)), (4, slice(5, 8)),
                                           (0, slice(2, 2)), (None, slice(2, 6)),
                                           (None, slice(3, 4))])
    def test_fft_in_place_on_a_port_and_its_run(self, inverse, port, run):
        # The port's row, then the run: the row borrowed before the run
        # (or none, where the port precedes it) is restored, and the
        # result is the gathered route's to the bit.
        rng = np.random.default_rng(6)
        a = rng.normal(size=(9, 4)) + 1j * rng.normal(size=(9, 4))
        before = a.copy()
        rows = ([] if port is None else [port]) + list(range(9)[run])
        canonical._apply_dft(a, run, inverse, port)
        want = before.copy()
        oracles.gathered_dft(want, rows, inverse)
        assert a.tobytes() == want.tobytes()
        np.testing.assert_allclose(
            a[rows], dft_transform(len(rows), inverse).m_matrix @ before[rows],
            atol=1e-14)
        others = [i for i in range(9) if i not in rows]
        np.testing.assert_array_equal(a[others], before[others])

    @pytest.mark.parametrize("inverse", [False, True])
    def test_fft_writes_into_the_block(self, inverse):
        # A 2049 x 32 block (1.0 MB) inside a larger array: the FFT writes
        # into the block's rows, so the call allocates far less than the
        # block.
        rng = np.random.default_rng(7)
        a = rng.normal(size=(2060, 40)) + 1j * rng.normal(size=(2060, 40))
        rows, cols = slice(5, 2054), slice(3, 35)
        canonical._apply_dft(a.copy()[:, cols], rows, inverse)  # first-use set-up
        block = a[:, cols]
        want = a.copy()
        want[rows, cols] = (np.fft.fft if inverse else np.fft.ifft)(
            a[rows, cols], axis=0, norm="ortho")
        tracemalloc.start()
        try:
            canonical._apply_dft(block, rows, inverse)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * block[rows].nbytes
        assert a.tobytes() == want.tobytes()


class TestPciaTransform:
    def test_unit_gain_is_identity(self):
        t = pcia_transform(1.0)
        np.testing.assert_array_equal(t.m_matrix, np.eye(2))
        np.testing.assert_array_equal(t.l_matrix, np.zeros((2, 2)))

    def test_coupling_entries(self):
        t = pcia_transform(9 / 8)
        assert t.l_matrix[0, 1] == pytest.approx(np.sqrt(1 / 8), rel=1e-15)
        assert t.l_matrix[1, 0] == pytest.approx(np.sqrt(1 / 8), rel=1e-15)

    def test_mean_chain(self):
        # psi and psi* inputs with G = 9/8 give sqrt(M)*psi on port 1, M=2.
        state = apply_map(
            coherent_state([1.0, 1.0]), to_symplectic(pcia_transform(9 / 8))
        )
        assert state.mean[0] == pytest.approx(np.sqrt(2) * np.sqrt(2), rel=1e-14)

    def test_label_symmetry(self):
        t = pcia_transform(1.7)
        perm = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(perm @ t.m_matrix @ perm, t.m_matrix)
        np.testing.assert_array_equal(perm @ t.l_matrix @ perm, t.l_matrix)

    def test_subunit_gain_rejected(self):
        with pytest.raises(DomainError):
            pcia_transform(0.99)

    @pytest.mark.parametrize("gain", [float("nan"), float("inf"), 10**400])
    def test_non_finite_gain_rejected(self, gain):
        with pytest.raises(DomainError):
            pcia_transform(gain)


class TestEmbed:
    def test_identity_embedding(self):
        t = embed(identity_transform(2), [0, 1], 5)
        np.testing.assert_array_equal(t.m_matrix, np.eye(5))
        np.testing.assert_array_equal(t.l_matrix, np.zeros((5, 5)))

    def test_preserves_canonicity(self):
        assert commutation_residual(embed(pcia_transform(2.0), [1, 3], 4)) < 1e-12

    def test_untouched_mode(self):
        # Start from a state whose mode 1 is not vacuum so the check bites.
        base = apply_map(
            coherent_state([1.0, -2.0j, 0.5]),
            to_symplectic(embed(pcia_transform(2.0), [1, 2], 3)),
        )
        out = apply_map(base, to_symplectic(embed(dft_transform(2), [0, 2], 3)))
        assert quadrature_variance(out, 1) == quadrature_variance(base, 1)
        np.testing.assert_array_equal(out.mean[2:4], base.mean[2:4])

    def test_bad_targets(self):
        with pytest.raises(DomainError):
            embed(pcia_transform(2.0), [0], 4)
        with pytest.raises(DomainError):
            embed(pcia_transform(2.0), [1, 1], 4)
        with pytest.raises(DomainError):
            embed(pcia_transform(2.0), [0, 4], 4)


def test_long_composition_stays_canonical():
    # Moderate per-stage gains keep the matrix entries O(1), isolating the
    # structural question from float growth under heavy amplification.
    rng = np.random.default_rng(123)
    t = random_transform(rng, 5, stages=50, max_extra_gain=0.2)
    assert commutation_residual(t) < 1e-10


def test_transforms_are_immutable():
    t = pcia_transform(2.0)
    with pytest.raises(ValueError):
        t.m_matrix[0, 0] = 5.0
