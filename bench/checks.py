"""The benchmark's own reference computations, independent of bwt's code.

All of them run between timed operations.  Ranks use the documented
convention (an eigenvalue counts when it exceeds ``TOL_RANK * lambda_max``)
but are computed here, from numpy alone.  Distances use the Procrustes form

    W2^2 = tr a + tr b - 2 ||F_a^T F_b||_*

with the generating factors F of the inputs: one SVD, and no square root of
a tiny eigenvalue anywhere, so its float64 error stays at the level of
``n * eps * (tr a + tr b)`` even when a spectrum decays past the rank cut.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)
#: Relative rank cut, the documented default of bwt.
TOL_RANK = 1e-10
#: Residual tolerance of maps, Schur decisions and factor identities,
#: the documented default ``tol_map`` of bwt.
TOL_MAP = 1e-8
#: Two-route agreement bound for Schur complements, as documented by bwt.
TOL_SCHUR = 1e-7
#: Relative tolerance of the two-sided geodesic distance identity.
TOL_MEMBER = 1e-7
#: Safety factor on the float64 error bound of the Procrustes reference.
W2_ERR_FACTOR = 8.0


def fro(m) -> float:
    return float(np.linalg.norm(m))


def nuclear(fa: np.ndarray, fb: np.ndarray) -> float:
    if fa.shape[1] == 0 or fb.shape[1] == 0:
        return 0.0
    return float(np.linalg.svd(fa.T @ fb, compute_uv=False).sum())


def w2sq(fa: np.ndarray, fb: np.ndarray) -> float:
    """Procrustes squared distance between N(0, fa fa^T) and N(0, fb fb^T)."""
    return fro(fa) ** 2 + fro(fb) ** 2 - 2.0 * nuclear(fa, fb)


def w2sq_tol(fa: np.ndarray, fb: np.ndarray) -> float:
    """Float64 error bound of :func:`w2sq`: traces, an n-term Gram product
    and a backward-stable SVD, each accurate to about n * eps of the scale."""
    n = fa.shape[0]
    return W2_ERR_FACTOR * n * EPS * (fro(fa) ** 2 + fro(fb) ** 2)


class Spectrum:
    """Own eigendecomposition of a covariance, with the range/null split."""

    def __init__(self, data: np.ndarray):
        w, u = np.linalg.eigh(data)
        self.lam = max(float(w[-1]), 0.0)
        live = w > TOL_RANK * self.lam if self.lam > 0.0 else np.zeros_like(w, bool)
        self.rank = int(np.count_nonzero(live))
        self.q1 = u[:, live]
        self.q2 = u[:, ~live]


def rank(data: np.ndarray) -> int:
    w = np.linalg.eigvalsh(data)
    lam = max(float(w[-1]), 0.0)
    return int(np.count_nonzero(w > TOL_RANK * lam)) if lam > 0.0 else 0


def schur(sa: Spectrum, b: np.ndarray):
    """The a-Schur complement of b by the defining formula in a's own
    range/null basis: (ambient value, rank)."""
    q1, q2 = sa.q1, sa.q2
    if q2.shape[1] == 0:
        return np.zeros_like(b), 0
    b11 = q1.T @ b @ q1
    b12 = q1.T @ b @ q2
    b22 = q2.T @ b @ q2
    lam_b = max(float(np.linalg.eigvalsh(b)[-1]), 0.0)
    if b11.size:
        w, u = np.linalg.eigh((b11 + b11.T) / 2.0)
        live = w > TOL_RANK * lam_b
        x = u[:, live].T @ b12
        s = b22 - x.T @ (x / w[live][:, None])
    else:
        s = b22
    s = (s + s.T) / 2.0
    ev = np.linalg.eigvalsh(s)
    s_rank = int(np.count_nonzero(ev > TOL_RANK * lam_b)) if lam_b > 0.0 else 0
    return q2 @ s @ q2.T, s_rank


def schur_is_zero(value: np.ndarray, b: np.ndarray) -> bool:
    return fro(value) <= TOL_MAP * (1.0 + fro(b))


def map_problems(a: np.ndarray, b: np.ndarray, t: np.ndarray, fid: float,
                 spd: bool = False) -> list[str]:
    """Failed properties of an optimal map t from N(0, a) to N(0, b):
    t a t^T = b, tr(a t) equal to the reference fidelity, and, for ``spd``,
    t symmetric PSD."""
    bad = []
    if fro(t @ a @ t.T - b) > TOL_MAP * (1.0 + fro(b)):
        bad.append("transport")
    if abs(float(np.trace(a @ t)) - fid) > TOL_MAP * (1.0 + np.trace(a) + np.trace(b)):
        bad.append("optimality")
    if spd:
        scale = 1.0 + fro(t)
        if fro(t - t.T) > TOL_MAP * scale:
            bad.append("symmetric")
        elif float(np.linalg.eigvalsh((t + t.T) / 2.0)[0]) < -TOL_MAP * scale:
            bad.append("psd")
    return bad


def path_problems(a: np.ndarray, b: np.ndarray, g: np.ndarray, m: np.ndarray) -> list[str]:
    """Failed properties of an aligned factor pair: g g^T = a, m m^T = b and
    g^T m symmetric PSD (which makes factor interpolation geodesic)."""
    bad = []
    if fro(g @ g.T - a) > TOL_MAP * (1.0 + fro(a)):
        bad.append("factor_a")
    if fro(m @ m.T - b) > TOL_MAP * (1.0 + fro(b)):
        bad.append("factor_b")
    c = g.T @ m
    scale = 1.0 + fro(c)
    if fro(c - c.T) > TOL_MAP * scale:
        bad.append("aligned")
    elif float(np.linalg.eigvalsh((c + c.T) / 2.0)[0]) < -TOL_MAP * scale:
        bad.append("aligned")
    return bad


def on_geodesic(fa: np.ndarray, fb: np.ndarray, fg: np.ndarray, t: float) -> bool:
    """The two-sided distance identity for a point with factor fg at t."""
    d = np.sqrt(max(w2sq(fa, fb), 0.0))
    d1 = np.sqrt(max(w2sq(fa, fg), 0.0))
    d2 = np.sqrt(max(w2sq(fg, fb), 0.0))
    tol = TOL_MEMBER * (1.0 + d)
    return abs(d1 - t * d) <= tol and abs(d2 - (1.0 - t) * d) <= tol


def fixed_point_residual(covs, weights, a_hat: np.ndarray) -> float:
    """|| a_hat - sum_i p_i (a_hat^(1/2) a_i a_hat^(1/2))^(1/2) ||_F."""

    def root(m):
        w, u = np.linalg.eigh((m + m.T) / 2.0)
        cut = TOL_RANK * max(float(w[-1]), 0.0)
        return (u * np.sqrt(np.where(w > cut, w, 0.0))) @ u.T

    r = root(a_hat)
    acc = sum(p * root(r @ c @ r) for p, c in zip(weights, covs))
    return fro(a_hat - acc)


def barycenter_problems(covs, weights, res, fp_bwt: float) -> dict[str, list[str]]:
    """Criterion 06 of the acceptance suite, recomputed: a nondecreasing
    objective history, every factor aligned with the mean factor, and the
    fixed-point residual within 1e-6 (1 + tr a_hat).  Returned per call."""
    solve, fp = [], []
    hist = res.objective_history
    if any(nxt < prev - 1e-12 for prev, nxt in zip(hist, hist[1:])):
        solve.append("monotone")
    g_hat = res.g_hat
    if fro(g_hat @ g_hat.T - res.a_hat.data) > TOL_MAP * (1.0 + fro(res.a_hat.data)):
        solve.append("a_hat")
    for g in res.greens:
        c = g_hat.T @ g
        scale = 1.0 + fro(c)
        if (np.abs(c - c.T).max() > 1e-4 * scale
                or np.linalg.eigvalsh((c + c.T) / 2.0)[0] < -1e-8 * scale):
            solve.append("aligned")
            break
    bound = 1e-6 * (1.0 + float(np.trace(res.a_hat.data)))
    own = fixed_point_residual(covs, weights, res.a_hat.data)
    if own > bound:
        solve.append("fixed_point")
    if abs(fp_bwt - own) > bound:
        fp.append("value")
    return {"solve_bcd": solve, "fixed_point_residual": fp}
