"""A correctness ratchet on the four Gaussian processes at n = 200.

Brownian motion, the Brownian bridge and order-2 and order-3 integrated
Brownian motion on the 200-point midpoint grid make 12 ordered pairs whose
spectra decay past the rank cut, where the library's known failures live.
Every reference here comes from numpy alone and the generating factors F of
the inputs (Cholesky for the two kernels, the Volterra factor for the
integrated motions): the distance and the fidelity by the Procrustes form
||F_a^T F_b||_*, reachability from numpy's own ranks and Schur complement.

``CEILING`` holds the failures per (call, kind) over the 12 pairs.  Like the
decomposition bounds, a change may lower a number, never raise one; a
(call, kind) not listed may not fail at all.
"""

import collections
import itertools

import numpy as np

from bwt import (
    BwtError,
    CovMatrix,
    Grid,
    classic_kernels,
    make_path,
    ot_map,
    spd_reachability,
    volterra_green,
    w2_distance,
)

N = 200
TOL_RANK = 1e-10
TOL_MAP = 1e-8
EPS = float(np.finfo(float).eps)

CEILING = {
    ("w2_distance", "check:w2"): 10,
    ("make_path", "check:factor_b"): 7,
    ("spd_reachability", "NumericalInconsistency"): 5,
    ("ot_map", "check:optimality"): 3,
    ("ot_map", "NumericalInconsistency"): 2,
}


def _processes():
    """name -> (covariance, generating factor F with F F^T = covariance)."""
    grid = Grid(N)
    out = {}
    for which in ("bm", "bb"):
        c = CovMatrix(classic_kernels(which, grid)[0].mat)
        out[which] = c, np.linalg.cholesky(c.data)
    for order in (2, 3):
        g = volterra_green(order, grid).mat
        out[f"ibm{order}"] = CovMatrix(g @ g.T), g
    return out


def _fro(m) -> float:
    return float(np.linalg.norm(m))


def _split(a):
    """numpy's range/null bases of a at the documented rank cut."""
    w, u = np.linalg.eigh(a)
    live = w > TOL_RANK * max(float(w[-1]), 0.0)
    return u[:, live], u[:, ~live]


def _schur_is_zero(q1, q2, b) -> bool:
    """Whether the a-Schur complement of b, by its defining formula in a's
    range/null basis [q1 q2], vanishes within TOL_MAP (1 + ||b||)."""
    if q2.shape[1] == 0:
        return True
    b11, b12, b22 = q1.T @ b @ q1, q1.T @ b @ q2, q2.T @ b @ q2
    w, u = np.linalg.eigh((b11 + b11.T) / 2)
    live = w > TOL_RANK * float(np.linalg.eigvalsh(b)[-1])
    x = u[:, live].T @ b12
    return _fro(b22 - x.T @ (x / w[live][:, None])) <= TOL_MAP * (1 + _fro(b))


def _map_problems(a, b, t, fid):
    bad = []
    if _fro(t @ a @ t.T - b) > TOL_MAP * (1 + _fro(b)):
        bad.append("transport")
    if abs(float(np.trace(a @ t)) - fid) > TOL_MAP * (1 + np.trace(a) + np.trace(b)):
        bad.append("optimality")
    return bad


def _path_problems(a, b, g, m):
    bad = []
    if _fro(g @ g.T - a) > TOL_MAP * (1 + _fro(a)):
        bad.append("factor_a")
    if _fro(m @ m.T - b) > TOL_MAP * (1 + _fro(b)):
        bad.append("factor_b")
    c = g.T @ m
    scale = 1 + _fro(c)
    if (_fro(c - c.T) > TOL_MAP * scale
            or np.linalg.eigvalsh((c + c.T) / 2)[0] < -TOL_MAP * scale):
        bad.append("aligned")
    return bad


def test_process_pairs_fail_no_more_than_the_ceiling():
    procs = _processes()
    splits = {name: _split(c.data) for name, (c, _) in procs.items()}
    failures = collections.Counter()
    for (na, (ca, fa)), (nb, (cb, fb)) in itertools.permutations(procs.items(), 2):
        a, b = ca.data, cb.data
        fid = float(np.linalg.svd(fa.T @ fb, compute_uv=False).sum())
        w2sq = _fro(fa) ** 2 + _fro(fb) ** 2 - 2 * fid
        w2_tol = 8 * N * EPS * (_fro(fa) ** 2 + _fro(fb) ** 2)
        reachable = splits[na][0].shape[1] >= splits[nb][0].shape[1]
        spd = _schur_is_zero(*splits[na], b)

        def judge(call, fn, problems):
            try:
                out = fn()
            except BwtError as exc:
                failures[call, type(exc).__name__] += 1
                return
            for kind in problems(out):
                failures[call, f"check:{kind}"] += 1

        judge("w2_distance", lambda: w2_distance(ca, cb),
              lambda d: [] if abs(d * d - w2sq) <= w2_tol else ["w2"])
        judge("spd_reachability", lambda: spd_reachability(ca, cb),
              lambda rep: ["spd_exists"] if rep.spd_exists != spd else
              [f"witness_{p}" for p in _map_problems(a, b, rep.witness.t, fid)] if spd else [])
        if reachable:
            judge("ot_map", lambda: ot_map(ca, cb), lambda m: _map_problems(a, b, m.t, fid))
        judge("make_path", lambda: make_path(ca, cb, style="extreme" if reachable else "zero"),
              lambda p: _path_problems(a, b, p.g, p.m))
    over = {key: count for key, count in failures.items() if count > CEILING.get(key, 0)}
    assert over == {}, f"failures above the ceiling: {over} (ceiling {CEILING})"
