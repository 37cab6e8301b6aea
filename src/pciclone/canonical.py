"""Linear canonical (Bogoliubov) transformations of mode operators.

A transform maps annihilation operators as b = M a + L a*, where M couples
outputs to annihilation operators and L to creation operators.  Preserving
the commutation relations requires

    M L^T - L M^T = 0        and        M M^H - L L^H = I,

and every such transform has an exact image as a symplectic matrix S on the
quadrature moments (see :func:`to_symplectic`).  Both constraints are read
off the 2 x 2 blocks of E = S Omega S^T - Omega, by the identity that
:meth:`~pciclone.gaussian.SymplecticMap.residual` states, with S's x and
p columns written straight from (M, L): checking a transform never
builds S.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, require_finite, require_integer
from .gaussian import (
    SymplecticMap,
    _omega_residuals,
    _support_plan,
    frozen_array,
)

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
        self, a: np.ndarray, first: int = 0, stop: int | None = None
    ) -> tuple[slice, ...]:
        """Turn each column alpha of the (K, cols) complex array ``a`` into
        M alpha + L conj(alpha) in place: S acting on the quadratures
        (Re alpha, Im alpha), through (M, L).  The rows ``first`` to
        ``stop`` in which ``a`` can be nonzero are not used: every row is
        changed, and the one run returned says so, as
        :meth:`~pciclone.machine._Network._push` returns the rows it
        changes."""
        a[...] = self.m_matrix @ a + self.l_matrix @ a.conj()
        return (slice(0, self.mode_count),)

    @property
    def commutation_residual(self) -> float:
        """Max-norm violation of the two commutation constraints; 0 when
        exact, NaN if M or L holds a NaN.  Read with
        :attr:`symplectic_residual` off the blocks of E = S Omega S^T - Omega
        of the image S that is sampled, as
        :meth:`~pciclone.gaussian.SymplecticMap.residual` states.
        """
        return self._residuals[1]

    @property
    def symplectic_residual(self) -> float:
        """Max-norm deviation of S Omega S^T from Omega for the image S,
        the :meth:`~pciclone.gaussian.SymplecticMap.residual` of
        :attr:`quadrature_image`, computed without building S."""
        return self._residuals[0]

    @cached_property
    def _plan(self) -> tuple:
        """:func:`~pciclone.gaussian._support_plan` of the image S, from the
        mode-level reach of (M, L): S's 2 x 2 block (i, j) is nonzero iff
        (M_ij, L_ij) != (0, 0), NaN included, as :func:`_image_blocks`
        writes it.  Read by both exact certificates."""
        # A complex number is true iff it is nonzero; NaN is true.
        return _support_plan(np.logical_or(self.m_matrix, self.l_matrix))

    @cached_property
    def _residuals(self) -> tuple[float, float]:
        """(symplectic, commutation) residuals of the image S, read off
        (M, L): the x and p columns X and Y of S are written only over each
        panel's runs of the plan and dropped once both are known."""
        m, l = self.m_matrix, self.l_matrix
        x, y = np.empty((2, 2 * self.mode_count, self.mode_count))
        for r0, r1, runs in self._plan:
            rows = slice(r0 // 2, r1 // 2)
            for a, b in runs:
                _image_blocks(
                    m[rows, a:b], l[rows, a:b],
                    x[r0:r1:2, a:b], y[r0:r1:2, a:b],
                    x[r0 + 1 : r1 : 2, a:b], y[r0 + 1 : r1 : 2, a:b],
                )
        return _omega_residuals(x, y, self._plan)

    @cached_property
    def quadrature_image(self) -> SymplecticMap:
        """Quadrature-moment image, built once on first use and not checked
        for canonicity; :func:`to_symplectic` is the checked accessor.

        With a = (x + ip)/sqrt(2), output quadratures follow

            x'_i = sum_j Re(M+L)_ij x_j - Im(M-L)_ij p_j
            p'_i = sum_j Im(M+L)_ij x_j + Re(M-L)_ij p_j,

        which satisfies S Omega S^T = Omega exactly when the transform is
        canonical.  Each block of S is written in place from the real and
        imaginary views of M and L by :func:`_image_blocks`, with no K x K
        temporary.  The map's residuals are the transform's, read on
        demand and never recomputed from S.  Neither the certificates nor
        :func:`~pciclone.montecarlo.simulate` build S.
        """
        k = self.mode_count
        s = np.empty((2 * k, 2 * k))
        _image_blocks(self.m_matrix, self.l_matrix,
                      s[0::2, 0::2], s[0::2, 1::2], s[1::2, 0::2], s[1::2, 1::2])
        s.setflags(write=False)  # hands s over to the map uncopied
        smap = SymplecticMap(s)
        object.__setattr__(smap, "_transform", self)
        return smap


# inf - inf and overflow give NaN and inf quietly: the certificates read
# them as a refusal.
@np.errstate(invalid="ignore", over="ignore")
def _image_blocks(m, l, xx, xp, px, pp) -> None:
    """Write the four quadrature blocks of the image of b = M a + L a*
    for the entries ``m``, ``l`` (equal-shape complex views of M and L):
    xx = Re(M+L), xp = -Im(M-L), px = Im(M+L) and pp = Re(M-L), each
    output a real view of that shape.  The one rule behind
    :attr:`CanonicalTransform.quadrature_image` and the x and p columns
    the certificates read; signed zeros are kept, so both hold the same
    bits."""
    np.add(m.real, l.real, out=xx)
    # Negated after the difference, as -(M-L).imag: l.imag - m.imag would
    # give +0 where the image has -0.
    np.subtract(m.imag, l.imag, out=xp)
    np.negative(xp, out=xp)
    np.add(m.imag, l.imag, out=px)
    np.subtract(m.real, l.real, out=pp)


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
    computed once per transform: later checks cost nothing."""
    return transform.commutation_residual


def _require_canonical(transform: CanonicalTransform) -> None:
    """Refuse a transform whose commutation residual exceeds CANONICAL_TOL
    or is NaN."""
    res = commutation_residual(transform)
    if not res <= CANONICAL_TOL:
        raise DomainError(
            f"transform is not canonical (commutation residual {res:.3e})"
        )


def to_symplectic(transform: CanonicalTransform) -> SymplecticMap:
    """The transform's :attr:`~CanonicalTransform.quadrature_image`,
    refused as :func:`_require_canonical` decides."""
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
