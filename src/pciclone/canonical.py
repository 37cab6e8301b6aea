"""Linear canonical (Bogoliubov) transformations of mode operators.

A transform maps annihilation operators as b = M a + L a*, where M couples
outputs to annihilation operators and L to creation operators.  Preserving
the commutation relations requires

    M L^T - L M^T = 0        and        M M^H - L L^H = I,

and every such transform has an exact image as a symplectic matrix S on the
quadrature moments (see :func:`to_symplectic`).  Both constraints are
certified by one number, :attr:`CanonicalTransform.commutation_residual`,
a probe bound on E = S Omega S^T - Omega read once through (M, L).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, require_finite
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
    def commutation_residual(self) -> float:
        """Upper bound on max|S Omega S^T - Omega| for the image S, and so
        on both commutation residuals: the probe bound of
        :func:`~pciclone.gaussian._certificate` read once through (M, L),
        without building S; NaN or inf if M or L holds one."""
        return _probe_bound(self.mode_count, self._push)

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
        certificate nor :func:`~pciclone.montecarlo.simulate` build S.
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


def commutation_residual(transform: CanonicalTransform) -> float:
    """``transform.commutation_residual``, cached on a transform or on a
    machine's stages: later checks cost nothing."""
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
    :func:`~pciclone.gaussian._certificate`."""
    _require_canonical(transform)
    return transform.quadrature_image


def _apply_dft(
    a: np.ndarray,
    rows: slice,
    inverse: bool = False,
    port: int | None = None,
) -> None:
    """Act in place with the K x K unitary DFT on K rows of ``a``: the run
    of rows ``rows``, or, given ``port``, the port's row followed by that
    run.  The forward matrix M_lk = exp(2 pi i l k / K)/sqrt(K) has a
    first row of 1/sqrt(K), so K equal amplitudes merge into one mode;
    ``inverse`` applies its conjugate transpose, which spreads one mode
    evenly over K.  The port's row is copied into the row just before the
    run, whose own row is kept aside, so one orthonormal FFT runs along
    one contiguous view of ``a`` and writes its result into that view
    (``out=``), with no gathered copy and no block-sized output; the
    transformed first row then goes back to the port and the borrowed
    row is restored.

    The forward matrix is numpy's ``ifft`` and its conjugate transpose
    numpy's ``fft``, both with ``norm="ortho"``, so no K x K matrix is
    built.  Fewer than two rows are left as they are.
    """
    start, stop = rows.start, rows.stop
    if port is not None:
        start -= 1
    if stop - start < 2:
        return
    # Row copies by basic indexing: a fancy-indexed swap costs five
    # times as much, which shows at a few modes.
    borrowed = a[start].copy() if port not in (None, start) else None
    if borrowed is not None:
        a[start] = a[port]
    view = a[start:stop]
    fft = np.fft.fft if inverse else np.fft.ifft
    fft(view, axis=0, norm="ortho", out=view)
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
    "pcia_transform",
    "to_symplectic",
]
