"""Linear canonical (Bogoliubov) transformations of mode operators.

A transform maps annihilation operators as b = M a + L a*, where M couples
outputs to annihilation operators and L to creation operators.  Preserving
the commutation relations requires

    M L^T - L M^T = 0        and        M M^H - L L^H = I,

and every such transform has an exact image as a symplectic matrix S on the
quadrature moments (see :func:`to_symplectic`).  Both constraints are
certified by one upper bound on E = S Omega S^T - Omega, the probe bound
of :data:`~pciclone.gaussian._CERTIFICATE`, read through (M, L): checking
a transform never builds S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, require_finite, require_integer
from .gaussian import SymplecticMap, _probe_bound, frozen_array

# Residual above which a transform is refused as non-canonical.
CANONICAL_TOL = 1e-8


@dataclass(frozen=True)
class CanonicalTransform:
    """Pair of KxK complex matrices (m_matrix, l_matrix) acting as
    b = m_matrix a + l_matrix a*.

    Both are stored read-only and C-contiguous, handed over or copied
    as :func:`~pciclone.gaussian.frozen_array` decides.
    """

    m_matrix: np.ndarray
    l_matrix: np.ndarray
    # The stages (M, L) was assembled from, if any, set by
    # :func:`~pciclone.machine.build_machine` alone: the sampler pushes
    # through them.  Not an init field, so dataclasses.replace drops it.
    _network: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = frozen_array(self.m_matrix, complex)
        l = frozen_array(self.l_matrix, complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"m_matrix must be square, got {m.shape}")
        if l.shape != m.shape:
            raise DomainError(f"l_matrix shape {l.shape} differs from {m.shape}")
        object.__setattr__(self, "m_matrix", m)
        object.__setattr__(self, "l_matrix", l)

    @property
    def mode_count(self) -> int:
        return self.m_matrix.shape[0]

    def _push(
        self,
        a: np.ndarray,
        transpose: bool = False,
        first: int = 0,
        stop: int | None = None,
    ) -> tuple[slice, ...]:
        """Turn each column alpha of the (K, cols) complex array ``a`` into
        M alpha + L conj(alpha) in place: S acting on the quadratures
        (Re alpha, Im alpha), through (M, L).  With ``transpose`` S^T
        acts instead, as (M^H, L^T).  The rows ``first`` to ``stop`` in
        which ``a`` can be nonzero are not used: every row is changed,
        and the one run returned says so, as
        :meth:`~pciclone.machine._Network._push` returns the rows it
        changes."""
        m, l = self.m_matrix, self.l_matrix
        if transpose:
            # M^H alpha = conj(M^T conj(alpha)), with no K x K copy.
            c = a.conj()
            a[...] = (m.T @ c).conj() + l.T @ c
        else:
            a[...] = m @ a + l @ a.conj()
        return (slice(0, self.mode_count),)

    @cached_property
    def _bound(self) -> float:
        return _probe_bound(self.mode_count, self._push)

    @property
    def commutation_residual(self) -> float:
        """Upper bound on the max-norm violation of the two commutation
        constraints, the probe bound of
        :data:`~pciclone.gaussian._CERTIFICATE` read through (M, L);
        NaN or inf if M or L holds one.  Equal to
        :attr:`symplectic_residual`."""
        return self._bound

    @property
    def symplectic_residual(self) -> float:
        """Upper bound on max|S Omega S^T - Omega| for the image S, the
        same bound as :attr:`commutation_residual`, computed without
        building S."""
        return self._bound

    @cached_property
    def quadrature_image(self) -> SymplecticMap:
        """Quadrature-moment image, built once on first use and not checked
        for canonicity; :func:`to_symplectic` is the checked accessor.

        With a = (x + ip)/sqrt(2), output quadratures follow

            x'_i = sum_j Re(M+L)_ij x_j - Im(M-L)_ij p_j
            p'_i = sum_j Im(M+L)_ij x_j + Re(M-L)_ij p_j,

        which satisfies S Omega S^T = Omega exactly when the transform is
        canonical.  Each block of S is written in place from the real and
        imaginary views of M and L, with no K x K temporary; signed zeros
        are kept, and inf - inf or an overflow writes NaN or inf quietly,
        which the bound refuses.  The map reports the transform's bound,
        read on demand and never recomputed from S.  Neither the
        certificates nor :func:`~pciclone.montecarlo.simulate` build S.
        """
        k = self.mode_count
        m, l = self.m_matrix, self.l_matrix
        s = np.empty((2 * k, 2 * k))
        with np.errstate(invalid="ignore", over="ignore"):
            np.add(m.real, l.real, out=s[0::2, 0::2])
            # Negated after the difference, as -(M-L).imag: l.imag - m.imag
            # would give +0 where the image has -0.
            np.subtract(m.imag, l.imag, out=s[0::2, 1::2])
            np.negative(s[0::2, 1::2], out=s[0::2, 1::2])
            np.add(m.imag, l.imag, out=s[1::2, 0::2])
            np.subtract(m.real, l.real, out=s[1::2, 1::2])
        s.setflags(write=False)  # hands s over to the map uncopied
        smap = SymplecticMap(s)
        object.__setattr__(smap, "_transform", self)
        return smap


def compose(
    first: CanonicalTransform, second: CanonicalTransform
) -> CanonicalTransform:
    """Transform acting as ``second`` after ``first``.

    Substituting b = M1 a + L1 a* into c = M2 b + L2 b* gives
    M = M2 M1 + L2 conj(L1) and L = M2 L1 + L2 conj(M1).
    """
    if first.mode_count != second.mode_count:
        raise DomainError(
            f"mode counts differ: {first.mode_count} vs {second.mode_count}"
        )
    m1, l1 = first.m_matrix, first.l_matrix
    m2, l2 = second.m_matrix, second.l_matrix
    return CanonicalTransform(m2 @ m1 + l2 @ l1.conj(), m2 @ l1 + l2 @ m1.conj())


def commutation_residual(transform: CanonicalTransform) -> float:
    """The transform's :attr:`~CanonicalTransform.commutation_residual`,
    an upper bound computed once per transform: later checks cost
    nothing."""
    return transform.commutation_residual


def _require_canonical(transform: CanonicalTransform) -> None:
    """Refuse a transform whose commutation residual, an upper bound,
    exceeds CANONICAL_TOL or is NaN."""
    res = commutation_residual(transform)
    if not res <= CANONICAL_TOL:
        raise DomainError(
            f"transform is not canonical (commutation residual {res:.3e})"
        )


def to_symplectic(transform: CanonicalTransform) -> SymplecticMap:
    """The transform's :attr:`~CanonicalTransform.quadrature_image`,
    refused as :func:`_require_canonical` decides.  The gate reads an
    upper bound, so a transform whose exact residual is above
    CANONICAL_TOL passes only with the miss probability of
    :data:`~pciclone.gaussian._CERTIFICATE`."""
    _require_canonical(transform)
    return transform.quadrature_image


def dft_transform(mode_count: int, inverse: bool = False) -> CanonicalTransform:
    """Passive discrete-Fourier mixing of K modes (L = 0).

    The forward direction concentrates: its first row is uniformly
    1/sqrt(K), so K equal coherent amplitudes psi merge into a single mode
    of amplitude sqrt(K) psi while the other K-1 outputs are left in the
    vacuum.  With ``inverse=True`` the conjugate transpose distributes one
    mode evenly over K outputs (first column uniformly 1/sqrt(K)).

    Entries follow the unitary convention M_lk = exp(2 pi i l k / K)/sqrt(K).
    """
    require_integer(mode_count=mode_count)
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    idx = np.arange(mode_count)
    m = np.exp(2j * np.pi * np.outer(idx, idx) / mode_count) / np.sqrt(mode_count)
    return CanonicalTransform(
        m.conj().T if inverse else m, np.zeros((mode_count, mode_count))
    )


def _apply_dft(
    a: np.ndarray,
    rows: slice,
    inverse: bool = False,
    port: int | None = None,
    batch: int = 1,
) -> None:
    """Act in place with the K-mode ``dft_transform(K, inverse)`` on K rows
    of ``a``: the run of rows ``rows``, or, given ``port``, the port's row
    followed by that run.  The port's row is copied into the row just
    before the run, whose own row is kept aside, so one orthonormal FFT
    runs along one contiguous view of ``a`` and is assigned back to it,
    with no gathered copy; the transformed first row then goes back to
    the port and the borrowed row is restored.  With ``batch`` > 1 (and
    no port) the run is cut into that many equal runs, each transformed
    on its own, in one batched FFT.

    The forward M_lk = exp(2 pi i l k / K)/sqrt(K) is numpy's ``ifft`` and
    its conjugate transpose numpy's ``fft``, both with ``norm="ortho"``,
    so no K x K matrix is built.  Fewer than two rows are left as they are.
    """
    start, stop = rows.start, rows.stop
    if port is not None:
        start -= 1
    if stop - start < 2 * batch:
        return
    # Row copies by basic indexing: a fancy-indexed swap costs five
    # times as much, which shows at a few modes.
    borrowed = a[start].copy() if port not in (None, start) else None
    if borrowed is not None:
        a[start] = a[port]
    view = a[start:stop]
    if batch > 1:
        # Splitting the leading axis keeps a view of ``a``.
        view = view.reshape(batch, -1, *view.shape[1:])
    fft = np.fft.fft if inverse else np.fft.ifft
    view[...] = fft(view, axis=view.ndim - a.ndim, norm="ortho")
    if borrowed is not None:
        a[port] = a[start]
        a[start] = borrowed


def pcia_transform(gain: float) -> CanonicalTransform:
    """Two-mode phase-insensitive amplifier with cross-conjugate coupling.

    Acts as b_1 = sqrt(G) a_1 + sqrt(G-1) a_2*,
            b_2 = sqrt(G-1) a_1* + sqrt(G) a_2,
    which is symmetric under interchanging the two mode labels and is
    canonical for every G >= 1 (G = 1 is the identity).
    """
    require_finite(gain=gain)
    if gain < 1.0:
        raise DomainError(f"amplifier gain must be >= 1, got {gain}")
    g = np.sqrt(gain)
    h = np.sqrt(gain - 1.0)
    return CanonicalTransform(
        np.array([[g, 0.0], [0.0, g]]), np.array([[0.0, h], [h, 0.0]])
    )


__all__ = [
    "CANONICAL_TOL",
    "CanonicalTransform",
    "commutation_residual",
    "compose",
    "dft_transform",
    "pcia_transform",
    "to_symplectic",
]
