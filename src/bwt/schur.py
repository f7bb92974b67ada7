"""Block decompositions along range/null splits and generalized Schur complements.

For PSD matrices a and b, the a-Schur complement b/a is the part of b living on
null(a) that cannot be explained through range(a).  It is computed here by two
independent routes and cross-checked:

1. the defining formula  b22 - (b11^(+/2) b12)^T (b11^(+/2) b12)  in block
   coordinates, and
2. the projection identity  b^(1/2) P b^(1/2) restricted to null(a), where P
   projects onto null(g^T b^(1/2)) for any factor g of a.

The two must agree to roundoff; a larger gap raises NumericalInconsistency
rather than silently returning either value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalInconsistency
from .linalg import (
    CovMatrix,
    GreenFactor,
    _check_pair,
    _memoized,
    _null_basis,
    _psd_apply,
    _rank,
    _sym,
    _tol_bound,
    green_factor,
    numeric_rank,
    psd_function,
    spectral_decompose,
)

#: Relative bound on the gap between the two Schur computation paths.
PATH_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class BlockView:
    """Coordinates of b split along range(a) and null(a).

    q1 and q2 are orthonormal bases of range(a) and null(a); a11 = q1.T a q1 is
    positive definite by construction, and b11, b12, b21, b22 are the blocks of
    b in the combined basis [q1 q2].
    """

    q1: np.ndarray
    q2: np.ndarray
    a11: np.ndarray
    b11: np.ndarray
    b12: np.ndarray
    b21: np.ndarray
    b22: np.ndarray

    @property
    def rank(self) -> int:
        return self.q1.shape[1]


@dataclass(frozen=True, eq=False)
class SchurResult:
    """A generalized Schur complement, reported in ambient coordinates.

    ``value`` is n x n and vanishes on range(a); its restriction to null(a) is
    the complement itself.  ``path_residual`` is the largest elementwise gap
    between the two independent computation routes.
    """

    value: np.ndarray
    rank: int
    path_residual: float


def block_decompose(a: CovMatrix, b) -> BlockView:
    """Split a symmetric matrix into blocks along range(a) / null(a).

    ``b`` may be any symmetric matrix of matching size; PSD is not required
    at this level (only :func:`schur_complement` needs it).
    """
    b_mat = b.data if isinstance(b, CovMatrix) else np.asarray(b, dtype=float)
    if b_mat.shape != (a.n, a.n):
        raise InvalidInput(f"expected a {a.n}x{a.n} matrix, got shape {b_mat.shape}")
    scale = np.linalg.norm(b_mat)
    if np.abs(b_mat - b_mat.T).max() > a.tol_rel * max(scale, 1e-300):
        raise InvalidInput("b is asymmetric beyond tolerance")
    b_mat = _sym(b_mat)
    dec = spectral_decompose(a)
    q1 = dec.eigvecs[:, : dec.rank]
    q2 = dec.eigvecs[:, dec.rank :]
    return BlockView(
        q1=q1,
        q2=q2,
        a11=_sym(q1.T @ a.data @ q1),
        b11=_sym(q1.T @ b_mat @ q1),
        b12=q1.T @ b_mat @ q2,
        b21=q2.T @ b_mat @ q1,
        b22=_sym(q2.T @ b_mat @ q2),
    )


def schur_complement(a: CovMatrix, b: CovMatrix) -> SchurResult:
    """The a-Schur complement of b, cross-validated over two routes.

    Depends on a only through null(a).  The result is PSD, vanishes on
    range(a), and is zero exactly when range(b) meets null(a) trivially.

    Raises
    ------
    NumericalInconsistency
        If the defining-formula route and the projection route disagree by
        more than ``PATH_TOL * (1 + ||b||)``.
    """
    _check_pair(a, b)
    res = _memoized("schur", (a, b), lambda: _schur_complement(a, b))
    return SchurResult(value=res.value.copy(), rank=res.rank, path_residual=res.path_residual)


def _schur_complement(a: CovMatrix, b: CovMatrix) -> SchurResult:
    bv = block_decompose(a, b)
    tol = max(a.tol_rel, b.tol_rel)
    lam_a = a.lam_max
    lam_b = b.lam_max

    # route 1: defining formula in block coordinates
    w = _psd_apply(bv.b11, "pinv_sqrt", tol) @ bv.b12
    val1 = _sym(bv.b22 - w.T @ w)

    # route 2: project b^(1/2) onto null(g^T b^(1/2)) and restrict to null(a)
    b_root = psd_function(b, "sqrt")
    g = green_factor(a).g
    v_null = _null_basis(g.T @ b_root, tol * np.sqrt(lam_a * lam_b))
    proj = b_root @ (v_null @ v_null.T) @ b_root
    val2 = _sym(bv.q2.T @ proj @ bv.q2)

    residual = float(np.abs(val1 - val2).max()) if val1.size else 0.0
    if residual > _tol_bound(PATH_TOL, b.data):
        raise NumericalInconsistency(
            f"Schur routes disagree: gap {residual:.3e} "
            f"exceeds {PATH_TOL:.1e} * (1 + ||b||)"
        )

    value = bv.q2 @ val1 @ bv.q2.T
    if val1.size:
        ev = np.linalg.eigvalsh(val1)
        # The cut is anchored to b's top eigenvalue, not the complement's own:
        # a complement made of pure roundoff must come out rank 0.
        rank = _rank(ev, tol * lam_b)
    else:
        rank = 0
    return SchurResult(value=_sym(value), rank=rank, path_residual=residual)


def schur_rank_identity(a: CovMatrix, b: CovMatrix, g: GreenFactor | None = None) -> tuple[int, int]:
    """Both sides of rank(b/a) = rank(b) - rank(g.T b g), evaluated independently.

    ``g`` defaults to the spectral factor of a; any factor gives the same
    right-hand side.
    """
    if g is None:
        g = green_factor(a)
    g_mat = g.padded()
    lhs = schur_complement(a, b).rank
    w = np.linalg.eigvalsh(_sym(g_mat.T @ b.data @ g_mat))
    tol = max(a.tol_rel, b.tol_rel)
    # g.T b g lives on the scale lam_max(a) * lam_max(b); anchor the cut there
    # so an all-noise compression (range(b) inside null(a)) counts as rank 0.
    return lhs, numeric_rank(b) - _rank(w, tol * (a.lam_max * b.lam_max))
