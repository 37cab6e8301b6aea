"""Linear canonical (Bogoliubov) transformations of mode operators.

A transform maps annihilation operators as b = M a + L a*, where M couples
outputs to annihilation operators and L to creation operators.  Preserving
the commutation relations requires

    M L^T - L M^T = 0        and        M M^H - L L^H = I,

and every such transform has an exact image as a symplectic matrix on the
quadrature moments (see :func:`to_symplectic`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, require_finite
from .gaussian import SymplecticMap, mirrored_tile_max

# Residual above which a transform is refused as non-canonical.
CANONICAL_TOL = 1e-8


def _frozen_complex(arr: np.ndarray) -> np.ndarray:
    # A complex, C-contiguous array that owns its data and is already
    # read-only has been handed over by its maker: keep it uncopied.
    flags = arr.flags
    if (
        arr.dtype == complex
        and flags.c_contiguous
        and flags.owndata
        and not flags.writeable
    ):
        return arr
    out = np.array(arr, dtype=complex, order="C", copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CanonicalTransform:
    """Pair of KxK complex matrices (m_matrix, l_matrix) acting as
    b = m_matrix a + l_matrix a*.

    Both are stored read-only and C-contiguous.  A matrix is copied
    unless it is already a complex, C-contiguous, read-only array that
    owns its data: marking an array read-only hands it over.
    """

    m_matrix: np.ndarray
    l_matrix: np.ndarray

    def __post_init__(self):
        m = _frozen_complex(np.asarray(self.m_matrix))
        l = _frozen_complex(np.asarray(self.l_matrix))
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"m_matrix must be square, got {m.shape}")
        if l.shape != m.shape:
            raise DomainError(f"l_matrix shape {l.shape} differs from {m.shape}")
        object.__setattr__(self, "m_matrix", m)
        object.__setattr__(self, "l_matrix", l)

    @property
    def mode_count(self) -> int:
        return self.m_matrix.shape[0]

    @cached_property
    def commutation_residual(self) -> float:
        """Max-norm violation of the two commutation constraints; 0 when
        exact.  Computed on first use only: the matrices are read-only.

        Each constraint is read from the structure of its products.  With
        W = M L^T, M L^T - L M^T = W - W^T.  With M = A + iB and
        L = C + iD, M M^H - L L^H has real part A A^T + B B^T - C C^T -
        D D^T and imaginary part V - V^T with V = B A^T - D C^T.  The real
        part is P P^T - Q Q^T, where P and Q view M and L as K x 2K real
        arrays (A and B, C and D interleaved); numpy evaluates each
        such product as a symmetric rank-k update.
        """
        k = self.mode_count
        m, l = self.m_matrix, self.l_matrix
        w = m @ l.T
        p, q = m.view(float), l.view(float)
        re = p @ p.T
        re -= q @ q.T
        re.flat[:: k + 1] -= 1.0
        v = np.ascontiguousarray(m.imag) @ np.ascontiguousarray(m.real).T
        v -= np.ascontiguousarray(l.imag) @ np.ascontiguousarray(l.real).T
        sym = mirrored_tile_max(k, lambda a, b: np.max(np.abs(w[a, b] - w[b, a].T)))
        unit = mirrored_tile_max(
            k, lambda a, b: np.max(np.hypot(re[a, b], v[a, b] - v[b, a].T))
        )
        return float(np.maximum(sym, unit))  # NaN from either one stays NaN

    @cached_property
    def quadrature_image(self) -> SymplecticMap:
        """Quadrature-moment image, built once on first use and not checked
        for canonicity; :func:`to_symplectic` is the checked accessor.

        With a = (x + ip)/sqrt(2), output quadratures follow

            x'_i = sum_j Re(M+L)_ij x_j - Im(M-L)_ij p_j
            p'_i = sum_j Im(M+L)_ij x_j + Re(M-L)_ij p_j,

        which satisfies S Omega S^T = Omega exactly when the transform is
        canonical.
        """
        plus = self.m_matrix + self.l_matrix
        minus = self.m_matrix - self.l_matrix
        k = self.mode_count
        s = np.empty((2 * k, 2 * k))
        s[0::2, 0::2] = plus.real
        s[0::2, 1::2] = -minus.imag
        s[1::2, 0::2] = plus.imag
        s[1::2, 1::2] = minus.real
        return SymplecticMap(s)


def identity_transform(mode_count: int) -> CanonicalTransform:
    """M = identity, L = 0."""
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    return CanonicalTransform(np.eye(mode_count), np.zeros((mode_count, mode_count)))


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
    """Max-norm violation of the two commutation constraints; 0 when exact.

    The value is cached on the transform, so repeated checks of the same
    transform cost nothing after the first.
    """
    return transform.commutation_residual


def to_symplectic(
    transform: CanonicalTransform, tol: float = CANONICAL_TOL
) -> SymplecticMap:
    """The transform's :attr:`~CanonicalTransform.quadrature_image`,
    refused when the commutation residual exceeds ``tol`` or is NaN."""
    res = commutation_residual(transform)
    if not res <= tol:
        raise DomainError(
            f"transform is not canonical (commutation residual {res:.3e})"
        )
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
    if mode_count < 1:
        raise DomainError(f"mode_count must be >= 1, got {mode_count}")
    idx = np.arange(mode_count)
    m = np.exp(2j * np.pi * np.outer(idx, idx) / mode_count) / np.sqrt(mode_count)
    if inverse:
        m = m.conj().T
    return CanonicalTransform(m, np.zeros((mode_count, mode_count)))


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


def embed(
    transform: CanonicalTransform, targets: list[int], total_modes: int
) -> CanonicalTransform:
    """Act with ``transform`` on the listed modes, identity elsewhere."""
    if len(targets) != transform.mode_count:
        raise DomainError(
            f"{transform.mode_count}-mode transform given {len(targets)} targets"
        )
    if len(set(targets)) != len(targets):
        raise DomainError(f"repeated target index in {targets}")
    for t in targets:
        if not 0 <= t < total_modes:
            raise DomainError(f"target index {t} out of range [0, {total_modes})")
    m = np.eye(total_modes, dtype=complex)
    l = np.zeros((total_modes, total_modes), dtype=complex)
    sel = np.ix_(targets, targets)
    m[sel] = transform.m_matrix
    l[sel] = transform.l_matrix
    return CanonicalTransform(m, l)


__all__ = [
    "CANONICAL_TOL",
    "CanonicalTransform",
    "commutation_residual",
    "compose",
    "dft_transform",
    "embed",
    "identity_transform",
    "pcia_transform",
    "to_symplectic",
]
