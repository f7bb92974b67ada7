"""Validated covariance matrices, spectral helpers, and Green factorizations.

Every threshold in the package takes one of two forms, both spelled here:

- relative, ``value > tol * scale`` (:func:`_live`, :func:`_rank`), for rank
  cuts and input validation.  An eigenvalue counts as nonzero when it
  exceeds ``tol_rel * lambda_max`` (for singular values, ``tol_rel *
  sigma_max``); a matrix is symmetric when ``max |a - a.T|`` is at most
  ``tol_rel * ||a||_F``.  A zero scale needs no floor: the value tested is
  then zero too and fails the strict test.
- absolute near zero, ``value <= tol * (1 + scale)`` (:func:`_tol_bound`),
  for residuals and "is zero" tests, such as a vanishing Schur complement
  or a transport residual.

The rank tolerance travels with each :class:`CovMatrix`, so callers pick it
once at construction time.  Work on several covariances (a pair, a
coupling, a barycenter) cuts at their joint tolerance, the largest of their
``tol_rel`` (:func:`_joint_tol`).  Residual tests take their tolerance from
the caller (``tol_map``) or from a module constant.

A :class:`CovMatrix` holds the symmetrized input as given: validation
rejects eigenvalues below ``-tol_rel * lambda_max`` but clamps and rebuilds
nothing, so wrapping ``c.data`` again gives the same bytes.  It keeps the
eigenvalues its validation computed, and :func:`numeric_rank` counts them:
that count is the only rank of a covariance.

Each covariance has one eigendecomposition, :func:`spectral_decompose`: one
``eigh``, eigenvalues descending, eigenvector signs fixed, arrays read-only.
Every spectral quantity of a covariance reads it (:func:`psd_function`,
:func:`green_factor`, :func:`align_green`, the thin factor, the range/null
split of a pair), keeping its top :func:`numeric_rank` eigenpairs.  Matrices
derived from a covariance or a pair (blocks, compressions, Schur
complements) decide their own ranks.

Decompositions are shared rather than repeated, through two small caches
keyed by object identity (:func:`_memoized`): one holds the last few
spectra, the other the block splits, pair contexts and pair results.  A
session's pair entries therefore never push out the spectra of the
covariances it keeps coming back to.  Every shared value is what a fresh
computation on the same, immutable input would return, so results do not
depend on what the caches hold.  Work on a pair is sized by the ranks: it
goes through the n x rank spectral factors (:func:`_thin_factor`), not the
zero-padded square ones, and the fidelity of a pair goes through the factor
of its lower-rank side (:func:`trace_fidelity`).
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

DEFAULT_TOL_REL = 1e-10

#: Entries each decomposition cache keeps.  The spectra (one
#: :class:`SpectralDecomp` per covariance) have their own table, so they hold
#: a pool of covariances and the points built between them; the other table
#: holds the block splits, pair context and pair results of a source, a
#: target and one point between them (eight entries).  The spectra are not
#: owned by :class:`CovMatrix`: a long family of live covariances would then
#: keep every n x n eigenbasis alive, where the bounded table keeps the last
#: ``_MEMO_SIZE``.
_MEMO_SIZE = 12
_spectra: OrderedDict = OrderedDict()
_memo: OrderedDict = OrderedDict()
_memo_lock = threading.Lock()


def _memoized(tag: str, objs: tuple, build, table: OrderedDict = _memo):
    """``build()`` for the objects ``objs``, shared while they are alive.

    Entries of ``table`` (the pair table unless a caller passes
    ``_spectra``) are keyed by ``tag`` and the objects' ids and hold only
    weak references to them, so a cache never keeps an object alive.  A
    lookup checks the weak references of the entry it finds: an entry whose
    object died is a miss, even when a new object reuses the id.  Entries of
    dead objects are dropped when an entry is inserted, and past
    ``_MEMO_SIZE`` entries the least recently used goes.  The objects must
    be immutable (a CovMatrix's data is read-only), and a caller must not
    mutate what it gets back.
    """
    key = (tag, *map(id, objs))
    with _memo_lock:
        hit = table.get(key)
        if hit is not None and all(r() is not None for r in hit[0]):
            table.move_to_end(key)
            return hit[1]
    value = build()
    with _memo_lock:
        for k in [k for k, (refs, _) in table.items() if any(r() is None for r in refs)]:
            del table[k]
        table[key] = (tuple(map(weakref.ref, objs)), value)
        table.move_to_end(key)
        while len(table) > _MEMO_SIZE:
            table.popitem(last=False)
    return value


def _sym(m: np.ndarray) -> np.ndarray:
    """(m + m.T) / 2, in one temporary: halving by 0.5 rounds as by 2."""
    out = m + m.T
    out *= 0.5
    return out


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


def _tol_bound(tol: float, scale) -> float:
    """``tol * (1 + scale)``, for ``scale`` a norm or an array (its Frobenius
    norm): relative to the scale when it is large, absolute near zero."""
    return tol * (1.0 + float(np.linalg.norm(scale) if isinstance(scale, np.ndarray) else scale))


def _joint_tol(*covs: CovMatrix) -> float:
    """The rank tolerance of work on several covariances: the loosest of theirs."""
    return max(c.tol_rel for c in covs)


def _check_pair(a: CovMatrix, b: CovMatrix) -> None:
    if a.n != b.n:
        raise InvalidInput(f"dimension mismatch: {a.n} vs {b.n}")


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """A symmetric PSD matrix, validated at construction.

    Symmetry is enforced up to ``tol_rel * ||data||_F``; an eigenvalue below
    ``-tol_rel * lambda_max`` is rejected.  ``data`` is the symmetrized input,
    the matrix's own read-only copy: nothing is clamped or rebuilt, so
    eigenvalues of roundoff size may be slightly negative.  The eigenvalues
    computed to validate it are kept for :attr:`lam_max` and
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
        if asym > self.tol_rel * scale:
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
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_eigvals", w)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def lam_max(self) -> float:
        """The largest eigenvalue, floored at zero."""
        return max(float(self._eigvals[-1]), 0.0)

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


def _factor_array(g) -> np.ndarray:
    """A GreenFactor as its square array, or a plain array as floats: every
    public function that takes a factor accepts both."""
    return g.padded() if isinstance(g, GreenFactor) else np.asarray(g, dtype=float)


def _as_reference(g) -> np.ndarray:
    """Accept a GreenFactor or a plain array as an alignment reference."""
    mat = _factor_array(g)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InvalidInput(f"reference factor must be square, got shape {mat.shape}")
    return mat


def spectral_decompose(a: CovMatrix) -> SpectralDecomp:
    """The eigendecomposition of ``a``, with a deterministic sign convention.

    Eigenvalues come out descending.  Each eigenvector is flipped so that its
    first component of largest absolute value is positive, which pins the
    basis down to a reproducible choice.  This is the one decomposition of a
    covariance: it is computed once (one ``eigh``) and shared through the
    spectra's cache, so every call on ``a`` returns the same object, and its
    arrays are read-only.
    """

    def build():
        w, u = np.linalg.eigh(a.data)
        w, u = w[::-1].copy(), _fix_signs(u[:, ::-1])
        w.flags.writeable = False
        u.flags.writeable = False
        return SpectralDecomp(eigvals=w, eigvecs=u, rank=numeric_rank(a))

    return _memoized("eigh", (a,), build, _spectra)


def _live_eigs(a: CovMatrix) -> tuple[np.ndarray, np.ndarray]:
    """The top :func:`numeric_rank` eigenpairs of :func:`spectral_decompose`:
    eigenvalues descending, eigenvectors as columns with their signs fixed."""
    dec = spectral_decompose(a)
    return dec.eigvals[: dec.rank], dec.eigvecs[:, : dec.rank]


def _thin_factor(a: CovMatrix) -> np.ndarray:
    """The n x rank spectral factor ``U_r sqrt(lambda_r)`` of ``a``: the
    nonzero columns of ``green_factor(a)``, in the same order."""
    w, u = _live_eigs(a)
    return u * np.sqrt(w)


#: The spectral functions of :func:`psd_function`, by name.
_PSD_FUNCTIONS = {"sqrt": np.sqrt, "pinv": lambda w: 1.0 / w,
                  "pinv_sqrt": lambda w: 1.0 / np.sqrt(w)}


def _psd_apply(mat: np.ndarray, f: str, tol_rel: float) -> np.ndarray:
    """Apply sqrt / pinv / pinv_sqrt to a raw symmetric PSD array."""
    if mat.shape[0] == 0:
        return mat.copy()
    w, u = np.linalg.eigh(_sym(mat))
    return _psd_from_eigh(w, u, _PSD_FUNCTIONS[f], _live(w, tol_rel * max(w[-1], 0.0)))


def _psd_from_eigh(w: np.ndarray, u: np.ndarray, fn, live) -> np.ndarray:
    """The symmetric matrix with eigenpairs (w, u) after ``fn`` maps the
    eigenvalues that ``live`` indexes (a mask or a slice); the rest map to
    zero."""
    fw = np.zeros_like(w)
    fw[live] = fn(w[live])
    return _sym((u * fw) @ u.T)


def psd_function(a: CovMatrix, f: str) -> np.ndarray:
    """Spectral matrix function of a PSD matrix.

    Parameters
    ----------
    a : CovMatrix
    f : {"sqrt", "pinv", "pinv_sqrt"}
        Applied to the top :func:`numeric_rank` eigenpairs; the rest are
        treated as zero, so ``pinv`` variants are Moore-Penrose on the
        numeric range.
    """
    if f not in _PSD_FUNCTIONS:
        raise InvalidInput(f"unknown matrix function {f!r}")
    dec = spectral_decompose(a)
    return _psd_from_eigh(dec.eigvals, dec.eigvecs, _PSD_FUNCTIONS[f], slice(dec.rank))


def numeric_rank(a: CovMatrix) -> int:
    """Number of eigenvalues above ``tol_rel * lambda_max``: the one rank of
    a covariance, counted on the eigenvalues its validation computed."""
    return _rank(a._eigvals, a.tol_rel * a.lam_max)


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
        f = _thin_factor(a)
        g = np.zeros((n, n))
        g[:, : f.shape[1]] = f
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
    ``tr(g1.T @ g2)``.

    Construction: with ``f = U_r sqrt(lambda_r)`` the n x r factor of the top
    :func:`numeric_rank` eigenpairs of :func:`spectral_decompose` of ``a2``,
    the thin SVD ``g1.T @ f = P S Qt`` gives ``g2 = f @ Qt.T @ P.T``, an
    n x r SVD instead of an n x n one.  That maximizer is unique, and equal
    to the full construction below, when ``g1.T @ f`` has full column rank at
    ``a2.tol_rel``.  Otherwise (orthogonal ranges, a zero reference or a zero
    ``a2``) the maximizers form a family, and the member is the one of the
    full SVD ``g1.T @ sqrt(a2) = U D Vt``, ``g2 = sqrt(a2) @ Vt.T @ U.T``,
    which extends the rotation over orthogonal complements deterministically.
    """
    ref = _as_reference(g1)
    if ref.shape[0] != a2.n:
        raise InvalidInput(
            f"dimension mismatch: reference is {ref.shape[0]}, target is {a2.n}"
        )
    return GreenFactor(g=_align_thin(ref, _thin_factor(a2), a2), parent_dim=a2.n)


def _align_thin(ref: np.ndarray, f: np.ndarray, a2: CovMatrix) -> np.ndarray:
    """The square factor of :func:`align_green` for a square array ``ref``,
    given ``f = _thin_factor(a2)``, so that a caller aligning against one
    covariance many times builds ``f`` once."""
    rank = f.shape[1]
    if rank:
        p, s, qt = np.linalg.svd(ref.T @ f, full_matrices=False)
        if _rank(s, a2.tol_rel * s[0]) == rank:
            return f @ qt.T @ p.T
    root = psd_function(a2, "sqrt")
    u, _, vt = np.linalg.svd(ref.T @ root)
    return root @ vt.T @ u.T


def trace_fidelity(a: CovMatrix, b: CovMatrix) -> float:
    """tr((g.T @ b @ g)^(1/2)) for any factor g of ``a``.

    Invariant under the choice of factor (all choices are unitarily
    equivalent), symmetric in (a, b), and equal to tr((a^(1/2) b a^(1/2))^(1/2)).
    It is computed on the side of lower :func:`numeric_rank`, ties going to
    the byte-wise lower data, so the decomposed matrix is min(rank(a),
    rank(b)) square and the symmetry holds exactly in floating point.
    """
    return _trace_fidelity(a, b)


def _trace_fidelity(a: CovMatrix, b: CovMatrix, f_b: np.ndarray | None = None) -> float:
    """:func:`trace_fidelity`, for a caller that may hold ``f_b =
    _thin_factor(b)``: when b is the side taken, the fidelity reads it
    instead of b's spectrum.  The side is the argument of lower rank, or of
    byte-wise lower data when the ranks tie: an order of the unordered pair,
    so (a, b) and (b, a) compute the same product."""
    _check_pair(a, b)
    f_a = None
    ra, rb = numeric_rank(a), numeric_rank(b)
    if ra > rb or (ra == rb and a.data.tobytes() > b.data.tobytes()):
        a, b, f_a = b, a, f_b
    return _memoized("fidelity", (a, b), lambda: _fidelity(a, b, f_a))


def _fidelity(a: CovMatrix, b: CovMatrix, f: np.ndarray | None = None) -> float:
    """The fidelity from ``f = _thin_factor(a)``, looked up unless given."""
    # f.T b f is rank(a) x rank(a), the lower rank of the pair: the square
    # factor only pads it with zeros
    if f is None:
        f = _thin_factor(a)
    w = np.linalg.eigvalsh(_sym(f.T @ b.data @ f))
    # Eigenvalues of f.T b f below the pair's noise floor are dropped before
    # the square root: sqrt amplifies an O(eps)-sized eigenvalue to O(
    # sqrt(eps)), which would otherwise dominate the error in the sum.
    w = np.where(_live(w, _joint_tol(a, b) * a.lam_max * b.lam_max), w, 0.0)
    return float(np.sqrt(w).sum())
