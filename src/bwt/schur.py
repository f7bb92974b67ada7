"""Block decompositions along range/null splits and generalized Schur complements.

For PSD matrices a and b, the a-Schur complement b/a is the part of b living on
null(a) that cannot be explained through range(a).  It is computed here by two
independent routes and cross-checked:

1. the defining formula  b22 - (b11^(+/2) b12)^T (b11^(+/2) b12)  in block
   coordinates, and
2. the projection identity  b^(1/2) P b^(1/2) restricted to null(a), where P
   projects onto null(g^T b^(1/2)) for any factor g of a.  With f_a and f_b
   the thin spectral factors of a and b (n x rank), this is
   f_b (I - V V^T) f_b^T for V the right singular vectors of f_a^T f_b
   above the rank cut: one thin SVD of a rank(a) x rank(b) matrix, with no
   null basis, n x n root or projector.

The two must agree to roundoff; a larger gap raises NumericalInconsistency
rather than silently returning either value.  When a has full rank, null(a)
is empty and so is the complement: neither route runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalInconsistency
from .linalg import (
    CovMatrix,
    GreenFactor,
    _check_pair,
    _factor_array,
    _joint_tol,
    _memoized,
    _psd_apply,
    _rank,
    _sym,
    _thin_factor,
    _tol_bound,
    green_factor,
    numeric_rank,
    spectral_decompose,
)

#: Relative bound on the gap between the two Schur computation paths.
PATH_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class BlockView:
    """Coordinates of b split along range(a) and null(a).

    q1 and q2 are orthonormal bases of range(a) and null(a), the leading and
    trailing eigenvectors of a's spectrum.  a11 = q1.T a q1 is
    diag(lambda_r), a's eigenvalues above its rank cut, read from that
    spectrum rather than multiplied out, so it is positive definite and
    exactly diagonal.  b11, b12, b21, b22 are the blocks of b in the
    combined basis [q1 q2].  A view may be shared between callers, so its
    arrays are read-only.
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
    at this level (only :func:`schur_complement` needs it).  The split of a
    covariance ``b`` is built once and shared while a and b live; its data
    is already symmetric, so only a raw array is checked and symmetrized.
    """
    b_mat = b.data if isinstance(b, CovMatrix) else np.asarray(b, dtype=float)
    if b_mat.shape != (a.n, a.n):
        raise InvalidInput(f"expected a {a.n}x{a.n} matrix, got shape {b_mat.shape}")
    if isinstance(b, CovMatrix):
        return _memoized("blocks", (a, b), lambda: _split(a, b_mat))
    scale = np.linalg.norm(b_mat)
    if np.abs(b_mat - b_mat.T).max() > a.tol_rel * scale:
        raise InvalidInput("b is asymmetric beyond tolerance")
    return _split(a, _sym(b_mat))


def _split(a: CovMatrix, b_mat: np.ndarray) -> BlockView:
    """The blocks of ``b_mat``, square and exactly symmetric, along a's
    range/null split."""
    dec = spectral_decompose(a)
    q1 = dec.eigvecs[:, : dec.rank]
    q2 = dec.eigvecs[:, dec.rank :]
    l1, l2 = q1.T @ b_mat, q2.T @ b_mat
    bv = BlockView(
        q1=q1,
        q2=q2,
        a11=np.diag(dec.eigvals[: dec.rank]),
        b11=_sym(l1 @ q1),
        b12=l1 @ q2,
        b21=l2 @ q1,
        b22=_sym(l2 @ q2),
    )
    for m in vars(bv).values():
        m.flags.writeable = False
    return bv


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
    if numeric_rank(a) == a.n:  # null(a) is empty, and so is the complement
        return SchurResult(value=np.zeros((a.n, a.n)), rank=0, path_residual=0.0)
    bv = block_decompose(a, b)
    tol = _joint_tol(a, b)

    # route 1: defining formula in block coordinates
    w = _psd_apply(bv.b11, "pinv_sqrt", tol) @ bv.b12
    val1 = _sym(bv.b22 - w.T @ w)

    # route 2: the projection identity, on the thin factors of a and b
    val2 = _projection_route(a, b, bv.q2)

    residual = float(np.abs(val1 - val2).max())
    if residual > _tol_bound(PATH_TOL, b.data):
        raise NumericalInconsistency(
            f"Schur routes disagree: gap {residual:.3e} "
            f"exceeds {PATH_TOL:.1e} * (1 + ||b||)"
        )

    value = bv.q2 @ val1 @ bv.q2.T
    # The cut is anchored to b's top eigenvalue, not the complement's own:
    # a complement made of pure roundoff must come out rank 0.
    rank = _rank(np.linalg.eigvalsh(val1), tol * b.lam_max)
    return SchurResult(value=_sym(value), rank=rank, path_residual=residual)


def _projection_route(a: CovMatrix, b: CovMatrix, q2: np.ndarray) -> np.ndarray:
    """Route 2: b^(1/2) P b^(1/2) in the null(a) coordinates ``q2``.

    With f_a, f_b the thin spectral factors and b^(1/2) = f_b U_b^T, the
    matrix g^T b^(1/2) is f_a^T f_b U_b^T, so P keeps null(U_b^T) and
    U_b null(f_a^T f_b), and the projection is f_b N N^T f_b^T for N spanning
    null(f_a^T f_b).  f_a^T f_b has the singular values of g^T b^(1/2), so it
    is cut where g^T b^(1/2) was.

    N N^T is I - V_l V_l^T, for V_l the right singular vectors above the
    cut, which the thin SVD gives without a full U or V.  With Y = q2^T f_b
    and Z = Y V_l the route is the projector form Y Y^T - Z Z^T.
    """
    tol = _joint_tol(a, b)
    f_b = _thin_factor(b)
    _, sv, vt = np.linalg.svd(_thin_factor(a).T @ f_b, full_matrices=False)
    y = q2.T @ f_b
    z = y @ vt[: _rank(sv, tol * np.sqrt(a.lam_max * b.lam_max))].T
    return _sym(y @ y.T - z @ z.T)


def schur_rank_identity(a: CovMatrix, b: CovMatrix, g: GreenFactor | None = None) -> tuple[int, int]:
    """Both sides of rank(b/a) = rank(b) - rank(g.T b g), evaluated independently.

    ``g`` (a GreenFactor or a plain square array) defaults to the spectral
    factor of a; any factor gives the same right-hand side.
    """
    g_mat = _factor_array(green_factor(a) if g is None else g)
    if g_mat.shape != (a.n, a.n):
        raise InvalidInput(f"factor shape {g_mat.shape} does not match dimension {a.n}")
    lhs = schur_complement(a, b).rank
    w = np.linalg.eigvalsh(_sym(g_mat.T @ b.data @ g_mat))
    tol = _joint_tol(a, b)
    # g.T b g lives on the scale lam_max(a) * lam_max(b); anchor the cut there
    # so an all-noise compression (range(b) inside null(a)) counts as rank 0.
    return lhs, numeric_rank(b) - _rank(w, tol * (a.lam_max * b.lam_max))
