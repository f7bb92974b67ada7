"""Validated covariance matrices, spectral helpers, and Green factorizations.

Every rank decision in the package goes through the same relative threshold:
an eigenvalue counts as nonzero when it exceeds ``tol_rel * lambda_max`` (for
singular values, ``tol_rel * sigma_max``).  The tolerance travels with each
:class:`CovMatrix`, so callers pick it once at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput

DEFAULT_TOL_REL = 1e-10


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


@dataclass(frozen=True, eq=False)
class CovMatrix:
    """A symmetric PSD matrix, validated at construction.

    Symmetry is enforced up to ``tol_rel * ||data||_F`` (then symmetrized);
    eigenvalues down to ``-tol_rel * lambda_max`` are clamped to zero, anything
    more negative is rejected.

    Raises
    ------
    InvalidInput
        If the array is not square, not finite, asymmetric beyond tolerance,
        or has a significantly negative eigenvalue.
    """

    data: np.ndarray
    tol_rel: float = DEFAULT_TOL_REL

    def __post_init__(self):
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
            # negatives within tolerance: clamp to zero and rebuild
            w_full, u = np.linalg.eigh(data)
            data = _sym((u * np.clip(w_full, 0.0, None)) @ u.T)
        object.__setattr__(self, "data", data)

    @property
    def n(self) -> int:
        return self.data.shape[0]

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


def spectral_decompose(a: CovMatrix) -> SpectralDecomp:
    """Eigendecomposition with a deterministic sign convention.

    Eigenvalues come out descending.  Each eigenvector is flipped so that its
    first component of largest absolute value is positive, which pins the
    basis down to a reproducible choice.
    """
    w, u = np.linalg.eigh(a.data)
    w = w[::-1].copy()
    u = u[:, ::-1].copy()
    for j in range(u.shape[1]):
        i = int(np.argmax(np.abs(u[:, j])))
        if u[i, j] < 0.0:
            u[:, j] = -u[:, j]
    lam_max = max(w[0], 0.0)
    rank = int(np.count_nonzero(w > a.tol_rel * lam_max)) if lam_max > 0.0 else 0
    return SpectralDecomp(eigvals=w, eigvecs=u, rank=rank)


def _psd_apply(mat: np.ndarray, f: str, tol_rel: float) -> np.ndarray:
    """Apply sqrt / pinv / pinv_sqrt to a raw symmetric PSD array."""
    if mat.shape[0] == 0:
        return mat.copy()
    w, u = np.linalg.eigh(_sym(mat))
    cut = tol_rel * max(w[-1], 0.0)
    live = w > cut
    fw = np.zeros_like(w)
    if f == "sqrt":
        fw[live] = np.sqrt(w[live])
    elif f == "pinv":
        fw[live] = 1.0 / w[live]
    elif f == "pinv_sqrt":
        fw[live] = 1.0 / np.sqrt(w[live])
    else:
        raise InvalidInput(f"unknown matrix function {f!r}")
    return _sym((u * fw) @ u.T)


def psd_function(a: CovMatrix, f: str) -> np.ndarray:
    """Spectral matrix function of a PSD matrix.

    Parameters
    ----------
    a : CovMatrix
    f : {"sqrt", "pinv", "pinv_sqrt"}
        Eigenvalues at or below ``tol_rel * lambda_max`` are treated as zero,
        so ``pinv`` variants are Moore-Penrose on the numeric range.
    """
    return _psd_apply(a.data, f, a.tol_rel)


def numeric_rank(a: CovMatrix) -> int:
    """Number of eigenvalues above ``tol_rel * lambda_max``."""
    w = np.linalg.eigvalsh(a.data)
    lam_max = max(w[-1], 0.0)
    if lam_max == 0.0:
        return 0
    return int(np.count_nonzero(w > a.tol_rel * lam_max))


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
    if a.n != b.n:
        raise InvalidInput(f"dimension mismatch: {a.n} vs {b.n}")
    if a.data.tobytes() > b.data.tobytes():
        a, b = b, a
    g = green_factor(a).g
    w = np.linalg.eigvalsh(_sym(g.T @ b.data @ g))
    # Eigenvalues of g.T b g below the pair's noise floor are dropped before
    # the square root: sqrt amplifies an O(eps)-sized eigenvalue to O(
    # sqrt(eps)), which would otherwise dominate the error in the sum.
    lam_a = max(float(np.linalg.eigvalsh(a.data)[-1]), 0.0)
    lam_b = max(float(np.linalg.eigvalsh(b.data)[-1]), 0.0)
    cut = max(a.tol_rel, b.tol_rel) * lam_a * lam_b
    w = np.where(w > cut, w, 0.0)
    return float(np.sqrt(w).sum())
