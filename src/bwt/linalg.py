"""Validated covariance matrices, spectral helpers, and Green factorizations.

Every rank decision in the package goes through the same relative threshold:
an eigenvalue counts as nonzero when it exceeds ``tol_rel * lambda_max`` (for
singular values, ``tol_rel * sigma_max``).  The tolerance travels with each
:class:`CovMatrix`, so callers pick it once at construction time.

Decompositions are shared rather than repeated.  A :class:`CovMatrix` keeps
the eigenvalues its validation computed (for lambda_max and the numeric
rank), and a small cache keyed by object identity (:func:`_memoized`) holds
the last few eigendecompositions, pair contexts and pair results.  Every
shared value is what a fresh computation on the same, immutable input would
return, so results do not depend on what the cache holds.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

DEFAULT_TOL_REL = 1e-10

#: Entries the decomposition cache keeps: enough for the spectra, pair
#: context and pair results of a source, a target and one point between them.
_MEMO_SIZE = 12
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


def _memoized(tag: str, objs: tuple, build):
    """``build()`` for the objects ``objs``, shared while they are alive.

    Entries are keyed by ``tag`` and the objects' ids and hold only weak
    references to them, so the cache never keeps an object alive.  Entries
    of dead objects are dropped before every lookup, which makes a reused id
    a miss; past ``_MEMO_SIZE`` entries the least recently used goes.  The
    objects must be immutable (a CovMatrix's data is read-only), and a
    caller must not mutate what it gets back.
    """
    key = (tag, *map(id, objs))
    with _memo_lock:
        for k in [k for k, (refs, _) in _memo.items() if any(r() is None for r in refs)]:
            del _memo[k]
        hit = _memo.get(key)
        if hit is not None:
            _memo.move_to_end(key)
            return hit[1]
    value = build()
    with _memo_lock:
        _memo[key] = (tuple(map(weakref.ref, objs)), value)
        _memo.move_to_end(key)
        while len(_memo) > _MEMO_SIZE:
            _memo.popitem(last=False)
    return value


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _from_spectrum(u: np.ndarray, fw: np.ndarray) -> np.ndarray:
    """The symmetric matrix with eigenvectors ``u`` (columns) and eigenvalues ``fw``."""
    return _sym((u * fw) @ u.T)


def _live(w: np.ndarray, cut: float) -> np.ndarray:
    """The entries of ``w`` above ``cut``, for every rank decision.  With
    ``tol`` positive a cut ``tol * scale`` is zero at zero scale, where nothing
    is above it, or when it underflows, where every positive entry stays (an
    empty mask would drop whole spectra at pair scales below 1e-158)."""
    return w > cut


def _rank(w: np.ndarray, cut: float) -> int:
    """How many entries of ``w`` are live at ``cut`` (see :func:`_live`)."""
    return int(np.count_nonzero(_live(w, cut)))


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """``u`` with each column negated where needed so that its first entry
    of largest absolute value is positive."""
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return np.where(top < 0.0, -u, u)


def _null_basis(k: np.ndarray, cut: float) -> np.ndarray:
    """Orthonormal columns spanning null(k): the right singular vectors of
    ``k`` past its rank at ``cut``."""
    _, sdiag, vt = np.linalg.svd(k)
    return vt[_rank(sdiag, cut) :].T


def _tol_bound(tol: float, m: np.ndarray) -> float:
    """``tol * (1 + ||m||_F)``: relative to the scale of ``m``, absolute near zero."""
    return tol * (1.0 + float(np.linalg.norm(m)))


def _check_pair(a: CovMatrix, b: CovMatrix) -> None:
    if a.n != b.n:
        raise InvalidInput(f"dimension mismatch: {a.n} vs {b.n}")


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """A symmetric PSD matrix, validated at construction.

    Symmetry is enforced up to ``tol_rel * ||data||_F`` (then symmetrized);
    eigenvalues down to ``-tol_rel * lambda_max`` are clamped to zero, anything
    more negative is rejected.  ``data`` is the matrix's own read-only copy;
    the eigenvalues computed to validate it are kept for :attr:`lam_max` and
    :func:`numeric_rank`.

    Raises
    ------
    InvalidInput
        If ``tol_rel`` is not finite and positive, or if the array is not
        square, not finite, asymmetric beyond tolerance, or has a
        significantly negative eigenvalue.
    """

    data: np.ndarray
    tol_rel: float = DEFAULT_TOL_REL

    def __post_init__(self):
        if not 0.0 < self.tol_rel < np.inf:
            raise InvalidInput(f"tol_rel must be finite and positive, got {self.tol_rel!r}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[0] != data.shape[1] or data.shape[0] == 0:
            raise InvalidInput(f"expected a square matrix, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidInput("matrix contains non-finite entries")
        scale = np.linalg.norm(data)
        asym = np.abs(data - data.T).max()
        if asym > self.tol_rel * max(scale, 1e-300):
            raise InvalidInput(
                f"matrix is asymmetric: max |a - a.T| = {asym:.3e} "
                f"exceeds {self.tol_rel:.1e} * ||a|| = {self.tol_rel * scale:.3e}"
            )
        data = _sym(data)
        w = np.linalg.eigvalsh(data)
        lam_max = max(w[-1], 0.0)
        if w[0] < -self.tol_rel * lam_max:
            raise InvalidInput(
                f"matrix is not PSD: min eigenvalue {w[0]:.3e} "
                f"(lambda_max = {lam_max:.3e}, tol_rel = {self.tol_rel:.1e})"
            )
        if w[0] < 0.0:
            # negatives within tolerance: clamp to zero and rebuild; the
            # eigenvalues of the rebuilt matrix are computed when first needed
            w_full, u = np.linalg.eigh(data)
            data = _from_spectrum(u, np.clip(w_full, 0.0, None))
            w = None
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_eigvals", w)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    def _ascending_eigvals(self) -> np.ndarray:
        """The eigenvalues of ``data`` from ``eigvalsh``, ascending."""
        if self._eigvals is None:
            object.__setattr__(self, "_eigvals", np.linalg.eigvalsh(self.data))
        return self._eigvals

    @property
    def lam_max(self) -> float:
        """The largest eigenvalue, floored at zero."""
        return max(float(self._ascending_eigvals()[-1]), 0.0)

    def trace(self) -> float:
        return float(np.trace(self.data))


@dataclass(frozen=True, eq=False)
class SpectralDecomp:
    """Eigenvalues in descending order, orthonormal eigenvectors as columns,
    and the numeric rank at the source matrix's tolerance."""

    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int


@dataclass(frozen=True, eq=False)
class GreenFactor:
    """A matrix ``g`` with ``g @ g.T`` equal to some covariance.

    ``g`` is either square (``parent_dim`` columns, the public form) or
    trimmed to ``rank`` columns for internal block work.
    """

    g: np.ndarray
    parent_dim: int

    def padded(self) -> np.ndarray:
        """The factor as a square ``parent_dim x parent_dim`` array."""
        n, r = self.g.shape
        if r == n:
            return self.g
        out = np.zeros((n, n))
        out[:, :r] = self.g
        return out


def _as_reference(g) -> np.ndarray:
    """Accept a GreenFactor or a plain array as an alignment reference."""
    mat = g.padded() if isinstance(g, GreenFactor) else np.asarray(g, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"reference factor must be square, got shape {mat.shape}")
    return mat


def _eigh(a: CovMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a.data)``, shared through the decomposition cache."""

    def build():
        w, u = np.linalg.eigh(a.data)
        w.flags.writeable = False
        u.flags.writeable = False
        return w, u

    return _memoized("eigh", (a,), build)


def spectral_decompose(a: CovMatrix) -> SpectralDecomp:
    """Eigendecomposition with a deterministic sign convention.

    Eigenvalues come out descending.  Each eigenvector is flipped so that its
    first component of largest absolute value is positive, which pins the
    basis down to a reproducible choice.
    """
    w, u = _eigh(a)
    w = w[::-1].copy()
    rank = _rank(w, a.tol_rel * max(w[0], 0.0))
    return SpectralDecomp(eigvals=w, eigvecs=_fix_signs(u[:, ::-1]), rank=rank)


def _psd_apply(mat: np.ndarray, f: str, tol_rel: float) -> np.ndarray:
    """Apply sqrt / pinv / pinv_sqrt to a raw symmetric PSD array."""
    return _psd_functions(mat, (f,), tol_rel)[0]


def _psd_functions(mat: np.ndarray, fs, tol_rel: float) -> list:
    """:func:`_psd_apply` for each name in ``fs``, from one eigendecomposition."""
    if mat.shape[0] == 0:
        return [mat.copy() for _ in fs]
    w, u = np.linalg.eigh(_sym(mat))
    return [_psd_from_eigh(w, u, f, tol_rel) for f in fs]


def _psd_from_eigh(w: np.ndarray, u: np.ndarray, f: str, tol_rel: float) -> np.ndarray:
    """A spectral function of the matrix with ascending eigenpairs (w, u)."""
    live = _live(w, tol_rel * max(w[-1], 0.0))
    fw = np.zeros_like(w)
    if f == "sqrt":
        fw[live] = np.sqrt(w[live])
    elif f == "pinv":
        fw[live] = 1.0 / w[live]
    elif f == "pinv_sqrt":
        fw[live] = 1.0 / np.sqrt(w[live])
    else:
        raise InvalidInput(f"unknown matrix function {f!r}")
    return _from_spectrum(u, fw)


def psd_function(a: CovMatrix, f: str) -> np.ndarray:
    """Spectral matrix function of a PSD matrix.

    Parameters
    ----------
    a : CovMatrix
    f : {"sqrt", "pinv", "pinv_sqrt"}
        Eigenvalues at or below ``tol_rel * lambda_max`` are treated as zero,
        so ``pinv`` variants are Moore-Penrose on the numeric range.
    """
    w, u = _eigh(a)
    return _psd_from_eigh(w, u, f, a.tol_rel)


def numeric_rank(a: CovMatrix) -> int:
    """Number of eigenvalues above ``tol_rel * lambda_max``."""
    return _rank(a._ascending_eigvals(), a.tol_rel * a.lam_max)


def green_factor(a: CovMatrix, method: str = "spectral") -> GreenFactor:
    """A square factor g with ``g @ g.T == a``.

    ``method="spectral"`` returns ``U_r diag(sqrt(lambda_r))`` padded with zero
    columns; ``method="pivoted_cholesky"`` returns a permuted lower-triangular
    factor computed by LAPACK's dpstrf with pivoting stopped at
    ``tol_rel * max(diag)``.  Both satisfy the same contract, they just pick
    different members of the factor family.  scipy is imported inside the
    ``pivoted_cholesky`` branch, so importing bwt loads numpy alone.
    """
    n = a.n
    if method == "spectral":
        dec = spectral_decompose(a)
        g = np.zeros((n, n))
        if dec.rank > 0:
            g[:, : dec.rank] = dec.eigvecs[:, : dec.rank] * np.sqrt(dec.eigvals[: dec.rank])
        return GreenFactor(g=g, parent_dim=n)
    if method == "pivoted_cholesky":
        from scipy.linalg import lapack

        dmax = max(float(a.data.diagonal().max()), 0.0)
        pivot_tol = a.tol_rel * dmax if dmax > 0.0 else -1.0
        c, piv, rank, info = lapack.dpstrf(a.data, tol=pivot_tol, lower=1)
        if info < 0:
            raise InvalidInput(f"pivoted Cholesky failed (lapack info = {info})")
        ell = np.tril(c)
        ell[:, rank:] = 0.0
        g = np.zeros((n, n))
        g[piv - 1, :] = ell
        return GreenFactor(g=g, parent_dim=n)
    raise InvalidInput(f"unknown factorization method {method!r}")


def align_green(g1, a2: CovMatrix) -> GreenFactor:
    """The factor of ``a2`` whose Gram against the reference is symmetric PSD.

    Given a reference matrix ``g1`` (a GreenFactor or plain square array) and a
    target covariance ``a2``, returns g2 with ``g2 @ g2.T == a2`` and
    ``g1.T @ g2`` symmetric PSD; among all factors of ``a2`` this one maximizes
    ``tr(g1.T @ g2)``.  Construction: full SVD ``g1.T @ sqrt(a2) = U D Vt``,
    then ``g2 = sqrt(a2) @ Vt.T @ U.T``.  The full SVD extends the rotation
    over orthogonal complements deterministically.
    """
    ref = _as_reference(g1)
    if ref.shape[0] != a2.n:
        raise InvalidInput(
            f"dimension mismatch: reference is {ref.shape[0]}, target is {a2.n}"
        )
    root = psd_function(a2, "sqrt")
    u, _, vt = np.linalg.svd(ref.T @ root)
    return GreenFactor(g=root @ vt.T @ u.T, parent_dim=a2.n)


def trace_fidelity(a: CovMatrix, b: CovMatrix) -> float:
    """tr((g.T @ b @ g)^(1/2)) for any factor g of ``a``.

    Invariant under the choice of factor (all choices are unitarily
    equivalent), symmetric in (a, b), and equal to tr((a^(1/2) b a^(1/2))^(1/2)).
    The two arguments are evaluated in a canonical order so the symmetry holds
    exactly in floating point.
    """
    _check_pair(a, b)
    if a.data.tobytes() > b.data.tobytes():
        a, b = b, a
    return _memoized("fidelity", (a, b), lambda: _fidelity(a, b))


def _fidelity(a: CovMatrix, b: CovMatrix) -> float:
    g = green_factor(a).g
    w = np.linalg.eigvalsh(_sym(g.T @ b.data @ g))
    # Eigenvalues of g.T b g below the pair's noise floor are dropped before
    # the square root: sqrt amplifies an O(eps)-sized eigenvalue to O(
    # sqrt(eps)), which would otherwise dominate the error in the sum.
    w = np.where(_live(w, max(a.tol_rel, b.tol_rel) * a.lam_max * b.lam_max), w, 0.0)
    return float(np.sqrt(w).sum())
