"""Optimal transport maps between centered Gaussians with PSD covariances.

Transport from N(0, a) to N(0, b) by a linear map t requires t a t.T = b and,
for optimality, tr(a t) equal to the trace fidelity of the pair.  Such a map
exists iff rank(a) >= rank(b).  When a is singular the optimal map is not
unique: its action from range(a) to null(a) carries a partial-isometry degree
of freedom u12, and the blocks mapping out of null(a) are entirely free.  This
module constructs the family members, the canonical symmetric PSD
representative (when one exists), couplings, and the dual potentials.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidInput,
    InvalidParam,
    NoSpdMap,
    NotInvertible,
    NumericalInconsistency,
    Unreachable,
)
from .linalg import (
    CovMatrix,
    GreenFactor,
    _check_pair,
    _fix_signs,
    _from_spectrum,
    _live,
    _memoized,
    _null_basis,
    _psd_apply,
    _psd_functions,
    _rank,
    _sym,
    _tol_bound,
    numeric_rank,
    psd_function,
    spectral_decompose,
    trace_fidelity,
)
from .schur import BlockView, block_decompose, schur_complement

DEFAULT_TOL_MAP = 1e-8

#: Singular-value threshold (relative to 1) above which two unit vectors from
#: a range basis and a null basis are considered the same direction.
INTERSECT_TOL = 1e-8


class Infinite:
    """Sentinel for a conjugate-potential value of plus infinity.

    Returned by :func:`dual_conjugate` instead of ``float('inf')`` so that
    callers must handle the infinite branch explicitly; compare with
    ``value is INFINITE``.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = Infinite()


@dataclass(frozen=True, eq=False)
class TransportMap:
    """An optimal transport map together with its construction data.

    ``t`` is the full map in ambient coordinates.  ``t11`` and ``t21`` are the
    determined blocks in range/null coordinates of the source, ``u12`` the
    partial isometry used for the rank-increasing part (zero when none is
    needed), and ``free_blocks`` the policy that filled the undetermined
    blocks.  Residuals record how well t a t.T = b and the optimality trace
    identity hold.
    """

    t: np.ndarray
    t11: np.ndarray
    t21: np.ndarray
    u12: np.ndarray
    free_blocks: str
    residual_transport: float
    residual_optimality: float


@dataclass(frozen=True, eq=False)
class SpdReachReport:
    """Five independently evaluated criteria for the existence of a symmetric
    PSD optimal map, plus the canonical witness when one exists."""

    spd_exists: bool
    as_unique: bool
    schur_zero: bool
    range_eq: bool
    trivial_intersection: bool
    witness: TransportMap | None


def _core(a: CovMatrix, b: CovMatrix) -> "_Core":
    """The pair context of (a, b), built once and shared while both live."""
    _check_pair(a, b)
    return _memoized("core", (a, b), lambda: _Core(a, b))


class _Core:
    """Shared block data for the map constructions: the range/null split of a,
    the factor g11 of a11, the compressed matrix x = g11 b11 g11 with its
    spectral functions, and the Schur complement via the x-route.

    One context serves every construction on the pair (get it from
    :func:`_core`).  It holds no reference to a or b, and no array in it is
    written after it is computed."""

    def __init__(self, a: CovMatrix, b: CovMatrix):
        self.tol = max(a.tol_rel, b.tol_rel)
        self.bv: BlockView = block_decompose(a, b)
        self.n = a.n
        self.r = self.bv.rank
        self.n2 = self.n - self.r

        self.g11, self.ig11 = _psd_functions(self.bv.a11, ("sqrt", "pinv_sqrt"), a.tol_rel)

        # Every spectral cut below is anchored to the pair's scale rather than
        # the derived matrix's own top eigenvalue, so a block that is pure
        # roundoff (e.g. the Schur complement when b is reachable) is treated
        # as exactly zero instead of acquiring phantom rank.
        self.lam_a = a.lam_max
        self.lam_b = b.lam_max

        x = _sym(self.g11 @ self.bv.b11 @ self.g11)
        self._x_eigvals, self._x_eigvecs = np.linalg.eigh(x)
        self._x_live = _live(self._x_eigvals, self.tol * self.lam_a * self.lam_b)
        self.x_sqrt = self._x_pow(0.5)
        self.x_pinv_sqrt = self._x_pow(-0.5)

        # b21 g11 x^(-1/2): the determined part of the lower-left block
        self.w21 = self.bv.b21 @ self.g11 @ self.x_pinv_sqrt
        self.schur = _sym(self.bv.b22 - self.w21 @ self.w21.T)
        if self.n2:
            sw, su = np.linalg.eigh(self.schur)
        else:
            sw, su = np.zeros(0), np.zeros((0, 0))
        self._schur_eigvals = sw
        self._schur_eigvecs = su
        self._schur_live = _live(sw, self.tol * self.lam_b)
        self.schur_rank = _rank(sw, self.tol * self.lam_b)
        fw = np.zeros_like(sw)
        fw[self._schur_live] = np.sqrt(sw[self._schur_live])
        self.schur_sqrt = _from_spectrum(su, fw)

    def _x_pow(self, p: float) -> np.ndarray:
        w, live = self._x_eigvals, self._x_live
        fw = np.zeros_like(w)
        fw[live] = w[live] ** p
        return _from_spectrum(self._x_eigvecs, fw)

    def t11(self) -> np.ndarray:
        """g11^(-1) x^(1/2) g11^(-1): the range block of every optimal map."""
        return _sym(self.ig11 @ self.x_sqrt @ self.ig11)

    def spd_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The blocks t12 and t22 of the canonical symmetric PSD map."""
        t12 = self.ig11 @ self.x_pinv_sqrt @ self.g11 @ self.bv.b12
        t22 = self.bv.b21 @ self.g11 @ self._x_pow(-1.5) @ self.g11 @ self.bv.b12
        return t12, t22

    def assemble(self, t11, t12, t21, t22) -> np.ndarray:
        blk = np.zeros((self.n, self.n))
        blk[: self.r, : self.r] = t11
        blk[: self.r, self.r :] = t12
        blk[self.r :, : self.r] = t21
        blk[self.r :, self.r :] = t22
        q = np.hstack([self.bv.q1, self.bv.q2])
        return q @ blk @ q.T

    @functools.cached_property
    def k(self) -> np.ndarray:
        """b11^(1/2) g11, whose null space must hold the range of u12 / n12."""
        return _psd_apply(self.bv.b11, "sqrt", self.tol) @ self.g11

    def check_in_null(self, m: np.ndarray, name: str, tol_map: float) -> None:
        """Raise InvalidParam unless the range of ``m`` lies in null(k)."""
        scale = max(float(np.linalg.norm(self.k)), 1.0) * max(float(np.linalg.norm(m)), 1.0)
        if np.linalg.norm(self.k @ m) > tol_map * scale:
            raise InvalidParam(f"{name} range is not inside null(b11^(1/2) g11)")

    def deterministic_u12(self) -> np.ndarray:
        """The canonical partial isometry null(a)-coords -> range(a)-coords.

        Pairs the descending eigenvectors of the Schur complement with an
        SVD-derived basis of null(b11^(1/2) g11), taken in its natural order.
        Computed once per context; each call returns a fresh copy.
        """
        return self._u12.copy()

    @functools.cached_property
    def _u12(self) -> np.ndarray:
        u12 = np.zeros((self.r, self.n2))
        if self.schur_rank == 0:
            return u12
        su = _fix_signs(self._schur_eigvecs[:, np.argsort(self._schur_eigvals)[::-1]])
        v_null = _null_basis(self.k, self.tol * np.sqrt(self.lam_a * self.lam_b))
        if v_null.shape[1] < self.schur_rank:
            raise NumericalInconsistency(
                "null space of b11^(1/2) g11 is too small to absorb the "
                "rank increase; rank thresholds are inconsistent"
            )
        return v_null[:, : self.schur_rank] @ su[:, : self.schur_rank].T


def w2_distance(a: CovMatrix, b: CovMatrix) -> float:
    """The 2-Wasserstein distance between N(0, a) and N(0, b)."""
    return _w2_from_fidelity(a, b, trace_fidelity(a, b))


def _w2_from_fidelity(a: CovMatrix, b: CovMatrix, fidelity: float) -> float:
    gap = a.trace() + b.trace() - 2.0 * fidelity
    return float(np.sqrt(max(gap, 0.0)))


def is_reachable(a: CovMatrix, b: CovMatrix) -> bool:
    """Whether an optimal transport map from N(0, a) to N(0, b) exists,
    i.e. rank(a) >= rank(b)."""
    _check_pair(a, b)
    return numeric_rank(a) >= numeric_rank(b)


def _checked_map(a: CovMatrix, b: CovMatrix, t, t11, t21, u12, tag: str,
                 tol_map: float) -> TransportMap:
    """Wrap a map with its transport and optimality residuals; a transport
    residual above ``tol_map * (1 + ||b||)`` raises NumericalInconsistency."""
    res_t = float(np.linalg.norm(t @ a.data @ t.T - b.data))
    res_o = abs(float(np.trace(a.data @ t)) - trace_fidelity(a, b))
    if res_t > _tol_bound(tol_map, b.data):
        raise NumericalInconsistency(
            f"transport residual {res_t:.3e} exceeds {tol_map:.1e} * (1 + ||b||)"
        )
    return TransportMap(
        t=t,
        t11=t11,
        t21=t21,
        u12=u12,
        free_blocks=tag,
        residual_transport=res_t,
        residual_optimality=res_o,
    )


def pusz_woronowicz(a: CovMatrix, b: CovMatrix, tol_map: float = DEFAULT_TOL_MAP) -> TransportMap:
    """The unique optimal map a^(-1/2) (a^(1/2) b a^(1/2))^(1/2) a^(-1/2).

    Requires a positive definite; use :func:`ot_map` for the singular case.
    """
    _check_pair(a, b)
    if numeric_rank(a) < a.n:
        raise NotInvertible("source covariance is singular; no inverse square root")
    root = psd_function(a, "sqrt")
    inv_root = psd_function(a, "pinv_sqrt")
    mid = _psd_apply(_sym(root @ b.data @ root), "sqrt", max(a.tol_rel, b.tol_rel))
    t = _sym(inv_root @ mid @ inv_root)
    return _checked_map(a, b, t, t, np.zeros((0, a.n)), np.zeros((a.n, 0)), "none", tol_map)


def ot_map(
    a: CovMatrix,
    b: CovMatrix,
    u12_policy: str = "deterministic",
    u12: np.ndarray | None = None,
    free_policy: str = "symmetric_zero",
    tol_map: float = DEFAULT_TOL_MAP,
) -> TransportMap:
    """An optimal transport map from N(0, a) to N(0, b).

    Parameters
    ----------
    u12_policy : {"deterministic", "negated", "supplied"}
        Which partial isometry fills the rank-increasing block: the canonical
        one, its negation, or a caller-supplied matrix (in range/null block
        coordinates, validated for admissibility).
    free_policy : {"symmetric_zero", "spd_canonical"}
        How to fill the blocks acting out of null(a): symmetric completion
        with a zero lower-right block, or the canonical symmetric PSD
        completion (only available when the Schur complement vanishes).

    Raises
    ------
    Unreachable
        If rank(a) < rank(b).
    NoSpdMap
        If ``free_policy="spd_canonical"`` but no symmetric PSD map exists.
    """
    _check_reachable(a, b)
    return _ot_map(_core(a, b), a, b, u12_policy, u12, free_policy, tol_map)


def _check_reachable(a: CovMatrix, b: CovMatrix) -> None:
    if not is_reachable(a, b):
        raise Unreachable(
            f"rank(a) = {numeric_rank(a)} < rank(b) = {numeric_rank(b)}; "
            "no transport map exists in this direction"
        )


def _check_spd(core: _Core, b: CovMatrix, tol_map: float) -> None:
    if np.linalg.norm(core.schur) > _tol_bound(tol_map, b.data):
        raise NoSpdMap(
            "the Schur complement of the pair is nonzero; "
            "no symmetric PSD transport map exists"
        )


def _ot_map(core: _Core, a: CovMatrix, b: CovMatrix, u12_policy: str, u12,
            free_policy: str, tol_map: float) -> TransportMap:
    """:func:`ot_map` on the pair's context, once reachability is checked."""
    r, n2 = core.r, core.n2

    if u12_policy == "deterministic":
        u12_blk = core.deterministic_u12()
    elif u12_policy == "negated":
        u12_blk = -core.deterministic_u12()
    elif u12_policy == "supplied":
        if u12 is None:
            raise InvalidParam("u12_policy='supplied' requires a u12 matrix")
        u12_blk = np.asarray(u12, dtype=float)
        if u12_blk.shape != (r, n2):
            raise InvalidParam(f"u12 must have shape ({r}, {n2}), got {u12_blk.shape}")
        _validate_isometry(core, u12_blk, tol_map)
    else:
        raise InvalidParam(f"unknown u12 policy {u12_policy!r}")

    t11 = core.t11()
    t21 = (core.w21 + core.schur_sqrt @ u12_blk.T) @ core.ig11

    if free_policy == "symmetric_zero":
        t12 = t21.T
        t22 = np.zeros((n2, n2))
    elif free_policy == "spd_canonical":
        _check_spd(core, b, tol_map)
        t12, t22 = core.spd_blocks()
    else:
        raise InvalidParam(f"unknown free-block policy {free_policy!r}")

    t = core.assemble(t11, t12, t21, t22)
    return _checked_map(a, b, t, t11, t21, u12_blk, free_policy, tol_map)


def _validate_isometry(core: _Core, u12_blk: np.ndarray, tol_map: float) -> None:
    """Check a supplied u12: range inside null(b11^(1/2) g11), and u12.T u12
    equal to the projector onto range of the Schur complement."""
    core.check_in_null(u12_blk, "u12", tol_map)
    su = core._schur_eigvecs[:, core._schur_live]
    proj = su @ su.T
    if np.linalg.norm(u12_blk.T @ u12_blk - proj) > _tol_bound(tol_map, proj):
        raise InvalidParam(
            "u12.T u12 is not the projector onto the range of the Schur complement"
        )


def canonical_spd_map(a: CovMatrix, b: CovMatrix, tol_map: float = DEFAULT_TOL_MAP) -> TransportMap:
    """The canonical symmetric PSD optimal map, when one exists.

    Among all symmetric PSD optimal maps this is the one of minimal rank,
    rank(b^(1/2) a^(1/2)); every other member differs only by a PSD
    lower-right block on null(a).

    Raises
    ------
    NoSpdMap
        If the Schur complement of (a, b) is nonzero, in which case no
        symmetric PSD transport map exists at all.
    """
    return _canonical_spd_map(_core(a, b), a, b, tol_map)


def _canonical_spd_map(core: _Core, a: CovMatrix, b: CovMatrix,
                       tol_map: float) -> TransportMap:
    _check_spd(core, b, tol_map)
    _check_reachable(a, b)
    return _ot_map(core, a, b, "deterministic", None, "spd_canonical", tol_map)


def spd_reachability(a: CovMatrix, b: CovMatrix, tol_map: float = DEFAULT_TOL_MAP) -> SpdReachReport:
    """Evaluate the five equivalent criteria for a symmetric PSD optimal map.

    Each criterion is computed independently; a disagreement raises
    NumericalInconsistency instead of picking a winner.  The criteria:

    1. the canonical construction succeeds and is PSD with correct transport,
    2. the optimal map is almost-surely unique under N(0, a), i.e. the Schur
       complement has rank zero (uniqueness here is on range(a) only, the
       blocks acting out of null(a) always stay free),
    3. the Schur complement of (a, b) vanishes in norm,
    4. rank(b) = rank(b a),
    5. range(b) intersects null(a) trivially (principal angles).

    The criteria share the spectra of a and b, and the canonical witness is
    built on the context of criterion 1.
    """
    core = _core(a, b)
    tol_abs = _tol_bound(tol_map, b.data)

    # 1. construct the canonical candidate unconditionally and test it
    t12, t22 = core.spd_blocks()
    cand = core.assemble(core.t11(), t12, t12.T, t22)
    res_t = float(np.linalg.norm(cand @ a.data @ cand.T - b.data))
    eig_min = float(np.linalg.eigvalsh(_sym(cand))[0])
    cand_scale = max(float(np.abs(cand).max()), 1.0)
    spd_exists = res_t <= tol_abs and eig_min >= -tol_map * cand_scale

    # 2. rank of the Schur complement (via the x-route spectrum)
    as_unique = core.schur_rank == 0

    # 3. norm of the independently computed Schur complement
    schur_zero = float(np.linalg.norm(schur_complement(a, b).value)) <= tol_abs

    # 4. rank(b) == rank(b a), both via singular values; the product's cut is
    # anchored at lam_max(a) lam_max(b) so an all-noise product has rank 0
    sv = np.linalg.svd(b.data @ a.data, compute_uv=False)
    range_eq = numeric_rank(b) == _rank(sv, core.tol * core.lam_a * core.lam_b)

    # 5. principal angles between range(b) and null(a)
    dec_b = spectral_decompose(b)
    qb = dec_b.eigvecs[:, : dec_b.rank]
    q2 = core.bv.q2
    trivial_intersection = (
        qb.shape[1] == 0
        or q2.shape[1] == 0
        or _rank(np.linalg.svd(qb.T @ q2, compute_uv=False), 1.0 - INTERSECT_TOL) == 0
    )

    flags = (spd_exists, as_unique, schur_zero, range_eq, trivial_intersection)
    if len(set(flags)) != 1:
        raise NumericalInconsistency(
            "SPD reachability criteria disagree: "
            f"construction={spd_exists}, uniqueness={as_unique}, "
            f"schur_zero={schur_zero}, range_eq={range_eq}, "
            f"intersection={trivial_intersection}"
        )

    witness = _canonical_spd_map(core, a, b, tol_map) if spd_exists else None
    return SpdReachReport(
        spd_exists=spd_exists,
        as_unique=as_unique,
        schur_zero=schur_zero,
        range_eq=range_eq,
        trivial_intersection=trivial_intersection,
        witness=witness,
    )


def optimal_coupling(a: CovMatrix, b: CovMatrix, param) -> CovMatrix:
    """The covariance of the optimal coupling of N(0, a) and N(0, b).

    ``param`` is a geodesic parameter (see :mod:`bwt.geodesic`); the coupling
    covariance is [[a, g m.T], [m g.T, b]] for the aligned factor pair (g, m)
    it induces.  The cross block does not depend on the choice of factor of
    a11 nor on the free part of m22.
    """
    from .geodesic import green_pair

    g, m = green_pair(a, b, param)
    n = a.n
    c = np.zeros((2 * n, 2 * n))
    c[:n, :n] = a.data
    c[n:, n:] = b.data
    c[:n, n:] = g @ m.T
    c[n:, :n] = c[:n, n:].T
    return CovMatrix(c, tol_rel=max(a.tol_rel, b.tol_rel))


def dual_conjugate(g: GreenFactor, m: GreenFactor, y, tol_map: float = DEFAULT_TOL_MAP):
    """The conjugate Kantorovich potential at y for an aligned factor pair.

    For factors g, m with g.T m symmetric PSD, the conjugate potential is
    ||(g.T m)^(+1/2) g.T y||^2 / 2 when g.T y lies in range((g.T m)^(1/2)),
    and plus infinity otherwise.  The infinite branch returns the
    :data:`INFINITE` sentinel, never a float.

    Raises
    ------
    InvalidParam
        If g.T m is not symmetric PSD within tolerance (misaligned factors).
    """
    g_mat = g.padded() if isinstance(g, GreenFactor) else np.asarray(g, dtype=float)
    m_mat = m.padded() if isinstance(m, GreenFactor) else np.asarray(m, dtype=float)
    y = np.asarray(y, dtype=float).reshape(-1)
    if g_mat.shape != m_mat.shape or y.shape[0] != g_mat.shape[0]:
        raise InvalidInput("factor/vector dimensions do not match")

    gram = g_mat.T @ m_mat
    scale = max(float(np.abs(gram).max()), 1e-300)
    if np.abs(gram - gram.T).max() > tol_map * scale:
        raise InvalidParam("g.T m is not symmetric; factors are not aligned")
    w, u = np.linalg.eigh(_sym(gram))
    if w[0] < -tol_map * max(w[-1], scale):
        raise InvalidParam("g.T m is not PSD; factors are not aligned")

    z = g_mat.T @ y
    live = _live(w, tol_map * max(w[-1], 0.0))
    z_range = u[:, live] @ (u[:, live].T @ z)
    if np.linalg.norm(z - z_range) > _tol_bound(tol_map, z):
        return INFINITE
    half_inv = (u[:, live] / np.sqrt(w[live])) @ u[:, live].T
    return float(0.5 * np.dot(half_inv @ z, half_inv @ z))
