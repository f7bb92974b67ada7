"""Wasserstein geodesics between centered Gaussians.

Every geodesic from N(0, a) to N(0, b) arises from an aligned factor pair:
a factor g of a and a factor m of b with g.T m symmetric PSD, interpolated
linearly, gamma(t) = ((1-t) g + t m)((1-t) g + t m).T.  In the block
coordinates of a's range/null split the family of admissible m is
parameterized by a matrix n12 with range inside null(b11^(1/2) g11) and
n12.T n12 dominated by the Schur complement of the pair; the leftover PSD
mass goes into a free lower-right factor block m22.  Monge geodesics (those
induced by a transport map) are exactly the ones with m22 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, InvalidParam, Unreachable
from .linalg import CovMatrix, _joint_tol, _live, _psd_from_eigh, _sym, _tol_bound, numeric_rank
from .schur import schur_complement
from .transport import DEFAULT_TOL_MAP, TransportMap, _core, is_reachable, w2_distance

#: Relative tolerance for deciding that a covariance sits on the geodesic
#: between two others (two-sided distance identity).
MEMBERSHIP_TOL = 1e-7


@dataclass(frozen=True, eq=False)
class GeodesicParam:
    """Parameters selecting one geodesic out of the family for a pair (a, b).

    ``n12`` has shape (rank(a), n - rank(a)) and controls how mass headed for
    null(a) is correlated with the source; ``m22`` is the factor of the
    leftover, ``m22 @ m22.T = schur - n12.T @ n12``.  ``kind`` is "monge" when
    m22 vanishes and "interior" otherwise.
    """

    n12: np.ndarray
    m22: np.ndarray
    kind: str


@dataclass(frozen=True, eq=False)
class PointClass:
    """Classification of one covariance as a point on a geodesic."""

    kind: str
    rank_gamma: int
    rank_a: int
    schur_norm: float


class GeodesicPath:
    """A geodesic as a callable curve of covariances.

    Holds the aligned factor pair (g, m) in ambient coordinates; gamma(t)
    materializes the covariance at parameter t in [0, 1].
    """

    def __init__(self, a: CovMatrix, b: CovMatrix, param: GeodesicParam,
                 g: np.ndarray, m: np.ndarray):
        self.a = a
        self.b = b
        self.param = param
        self.g = g
        self.m = m

    def gamma(self, t: float) -> CovMatrix:
        if not 0.0 <= t <= 1.0:
            raise InvalidParam(f"geodesic parameter must lie in [0, 1], got {t}")
        g_t = (1.0 - t) * self.g + t * self.m
        return CovMatrix(g_t @ g_t.T, tol_rel=_joint_tol(self.a, self.b))


def make_param(a: CovMatrix, b: CovMatrix, style: str = "extreme",
               s: float | None = None) -> GeodesicParam:
    """A named member of the geodesic family for (a, b).

    Every style is a point s of the scaled family n12 = s * extreme, with
    the leftover weight sqrt(1 - s^2) on the Schur root in m22:
    style="extreme" (s = 1) is the Monge geodesic induced by the
    deterministic transport map (requires rank(a) >= rank(b)), style="zero"
    (s = 0) puts nothing into n12, the maximally diffuse member, and
    style="scaled" takes s in [-1, 1] from the caller; passing s with any
    other style raises InvalidParam.
    """
    core = _core(a, b)
    if style == "extreme":
        s_val = 1.0
    elif style == "zero":
        s_val = 0.0
    elif style == "scaled":
        if s is None:
            raise InvalidParam("style='scaled' requires the coefficient s")
        s_val = float(s)
        if not -1.0 <= s_val <= 1.0:
            raise InvalidParam(f"scaled coefficient must lie in [-1, 1], got {s}")
    else:
        raise InvalidParam(f"unknown geodesic style {style!r}")
    if s is not None and style != "scaled":
        raise InvalidParam(f"style={style!r} fixes s; only style='scaled' reads it")

    root = core.schur_sqrt
    if s_val == 0.0:
        n12 = np.zeros((core.r, core.n2))
    else:
        if not is_reachable(a, b):
            raise Unreachable("Monge-directed geodesic parameters need rank(a) >= rank(b)")
        n12 = s_val * (core.deterministic_u12() @ root)
    m22 = np.sqrt(max(1.0 - s_val * s_val, 0.0)) * root
    kind = "monge" if _is_zero(m22, b, DEFAULT_TOL_MAP) else "interior"
    return GeodesicParam(n12=n12, m22=m22, kind=kind)


def raw_param(a: CovMatrix, b: CovMatrix, n12: np.ndarray,
              tol_map: float = DEFAULT_TOL_MAP) -> GeodesicParam:
    """Build a geodesic parameter from an explicit n12 block, validated.

    Admissibility requires b11^(1/2) g11 n12 = 0 and n12.T n12 dominated by
    the Schur complement of (a, b); the free factor block is completed with
    the symmetric PSD square root of the leftover.  ``tol_map`` bounds both
    tests and decides ``kind``: "monge" when that root is zero within it.
    """
    core = _core(a, b)
    n12 = np.asarray(n12, dtype=float)
    if n12.shape != (core.r, core.n2):
        raise InvalidParam(f"n12 must have shape ({core.r}, {core.n2}), got {n12.shape}")

    core.check_in_null(n12, "n12", tol_map)

    # one eigh of the leftover gives both its PSD test and its square root
    m22 = _sym(core.schur - n12.T @ n12)
    if core.n2:
        w, u = np.linalg.eigh(m22)
        if w[0] < -_tol_bound(tol_map, core.schur):
            raise InvalidParam("n12.T n12 exceeds the Schur complement of the pair")
        m22 = _psd_from_eigh(w, u, np.sqrt, _live(w, core.tol * max(w[-1], 0.0)))
    kind = "monge" if _is_zero(m22, b, tol_map) else "interior"
    return GeodesicParam(n12=n12, m22=m22, kind=kind)


def _is_zero(m22: np.ndarray, b: CovMatrix, tol_map: float) -> bool:
    return float(np.linalg.norm(m22)) <= _tol_bound(tol_map, b.data)


def green_pair(a: CovMatrix, b: CovMatrix, param: GeodesicParam):
    """The aligned factor pair (g, m) in ambient coordinates for a parameter.

    g is the block-diagonal factor of a supported on range(a); m factors b
    with g.T m symmetric PSD, so linear interpolation of the two factors
    traces a geodesic.
    """
    core = _core(a, b)
    n12 = np.asarray(param.n12, dtype=float)
    m22 = np.asarray(param.m22, dtype=float)
    if n12.shape != (core.r, core.n2) or m22.shape != (core.n2, core.n2):
        raise InvalidParam("parameter block shapes do not match the pair")

    q1 = core.bv.q1
    g = (q1 * core.root) @ q1.T  # the factor g11 on range(a), zero on null(a)
    # the range block g11^(-1) x^(1/2) of m is h.T u.T
    return g, core.assemble(core.h.T @ core.u.T, 0.0, core.w21 + n12.T, m22)


def make_path(a: CovMatrix, b: CovMatrix, style: str = "extreme",
              s: float | None = None) -> GeodesicPath:
    """Convenience constructor: named parameter plus its factor pair."""
    param = make_param(a, b, style, s)
    return GeodesicPath(a, b, param, *green_pair(a, b, param))


def kantorovich_point(a: CovMatrix, b: CovMatrix, param: GeodesicParam,
                      t: float) -> CovMatrix:
    """The covariance at parameter t on the geodesic selected by ``param``."""
    return GeodesicPath(a, b, param, *green_pair(a, b, param)).gamma(t)


def mccann_interpolant(a: CovMatrix, tmap, t: float) -> CovMatrix:
    """Displacement interpolation ((1-t) I + t T) a ((1-t) I + t T).T.

    ``tmap`` is a TransportMap or a plain matrix.  For an optimal T this is
    the Monge geodesic through a; the curve is defined for any linear map.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParam(f"interpolation parameter must lie in [0, 1], got {t}")
    t_mat = tmap.t if isinstance(tmap, TransportMap) else np.asarray(tmap, dtype=float)
    if t_mat.shape != (a.n, a.n):
        raise InvalidInput(f"map shape {t_mat.shape} does not match dimension {a.n}")
    lin = (1.0 - t) * np.eye(a.n) + t * t_mat
    return CovMatrix(lin @ a.data @ lin.T, tol_rel=a.tol_rel)


def classify_point(a: CovMatrix, b: CovMatrix, gamma: CovMatrix,
                   t: float) -> PointClass:
    """Decide whether a covariance is a geodesic point, and of which kind.

    First verifies membership through the two-sided distance identity
    w2(a, gamma) = t w2(a, b) and w2(gamma, b) = (1-t) w2(a, b); failure
    raises InvalidParam.  Interior points of a Monge geodesic are exactly
    those whose Schur complement over a vanishes, so for t in (0, 1) the
    kind is read off that norm; the endpoints belong to every geodesic and
    are classified "extreme".
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidParam(f"geodesic parameter must lie in [0, 1], got {t}")
    d = w2_distance(a, b)
    d1 = w2_distance(a, gamma)
    d2 = w2_distance(gamma, b)
    tol = _tol_bound(MEMBERSHIP_TOL, d)
    if abs(d1 - t * d) > tol or abs(d2 - (1.0 - t) * d) > tol:
        raise InvalidParam(
            f"not a geodesic point: w2 splits as {d1:.6g} + {d2:.6g} "
            f"against t*d = {t * d:.6g}, (1-t)*d = {(1.0 - t) * d:.6g}"
        )

    rank_g = numeric_rank(gamma)
    rank_a = numeric_rank(a)
    if t == 0.0 or t == 1.0:
        return PointClass("extreme", rank_g, rank_a, 0.0)

    sc = schur_complement(a, gamma)
    norm_sc = float(np.linalg.norm(sc.value))
    kind = "extreme" if norm_sc <= _tol_bound(DEFAULT_TOL_MAP, gamma.data) else "interior"
    return PointClass(kind, rank_g, rank_a, norm_sc)


def sample_path(path: GeodesicPath, ts) -> list[CovMatrix]:
    """Materialize the path at each parameter value in ``ts``."""
    return [path.gamma(float(t)) for t in ts]
