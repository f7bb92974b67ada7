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
from dataclasses import dataclass, replace

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
    _factor_array,
    _fix_signs,
    _joint_tol,
    _live,
    _live_eigs,
    _memoized,
    _psd_apply,
    _psd_from_eigh,
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
    the factor g11 = diag(sqrt(lambda_r)) of a11 from a's cached spectrum, the
    compressed matrix x = g11 b11 g11 and the Schur complement via the
    x-route.  g11 and its inverse are kept as their diagonals ``root`` and
    ``iroot`` and applied as row and column scalings.

    x = u diag(s^2) u.T is decomposed once, on its live spectrum, and every
    map block is built from two thin factors of it, with no power of x:
    h = diag(s) u.T g11^(-1) (r_x x r) and c = diag(1/s) u.T g11 b12
    (r_x x n2).  Then t11 = h.T diag(1/s) h, w21 = c.T u.T, the Schur
    complement is b22 - c.T c, and null(b11^(1/2) g11) = null(x) is spanned
    by the eigenvectors of x outside the live set.

    One context serves every construction on the pair: each pair function
    gets it from :func:`_core`, which builds it once.  It holds no reference
    to a or b, and no array in it is written after it is computed.  The
    canonical symmetric PSD map is built by :meth:`spd_blk` on each call,
    except for a full-rank source: there it is the unique optimal map, and
    :func:`_canonical_map` keeps it, checked, once per ``tol_map``; ``kept``
    holds that (tol_map, map) pair, or None."""

    def __init__(self, a: CovMatrix, b: CovMatrix):
        self.tol = _joint_tol(a, b)
        self.bv: BlockView = block_decompose(a, b)
        self.n = a.n
        self.r = self.bv.rank
        self.n2 = self.n - self.r

        # a = q diag(lam) q.T, with q = [q1 q2] the basis of the blocks: maps
        # are built as blocks in it and carried to ambient coordinates by q
        dec = spectral_decompose(a)
        self.q, self.lam = dec.eigvecs, dec.eigvals

        # a11 is diag(lambda_r) in a's eigenbasis q1, so its factor and the
        # inverse come from a's spectrum, at a's own rank
        self.root = np.sqrt(self.lam[: self.r])
        self.iroot = 1.0 / self.root

        # Every spectral cut below is anchored to the pair's scale rather than
        # the derived matrix's own top eigenvalue, so a block that is pure
        # roundoff (e.g. the Schur complement when b is reachable) is treated
        # as exactly zero instead of acquiring phantom rank.
        self.lam_a = a.lam_max
        self.lam_b = b.lam_max

        x = _sym(self.root[:, None] * self.bv.b11 * self.root)
        mu, u = np.linalg.eigh(x)
        live = _live(mu, self.tol * self.lam_a * self.lam_b)
        self.u, self._u_null = u[:, live], u[:, ~live]
        self.s = np.sqrt(mu[live])
        self.h = (self.s[:, None] * self.u.T) * self.iroot
        self.c = ((self.u.T / self.s[:, None]) * self.root) @ self.bv.b12

        # b21 g11 x^(-1/2): the determined part of the lower-left block
        self.w21 = self.c.T @ self.u.T
        self.schur = _sym(self.bv.b22 - self.c.T @ self.c)
        if self.n2:
            sw, su = np.linalg.eigh(self.schur)
        else:
            sw, su = np.zeros(0), np.zeros((0, 0))
        self._schur_eigvecs = su
        self._schur_live = _live(sw, self.tol * self.lam_b)
        self.schur_rank = int(np.count_nonzero(self._schur_live))
        self.schur_sqrt = _psd_from_eigh(sw, su, np.sqrt, self._schur_live)
        self.kept: tuple[float, TransportMap] | None = None

    def t11(self) -> np.ndarray:
        """g11^(-1) x^(1/2) g11^(-1) = h.T diag(1/s) h: the range block of
        every optimal map."""
        return _sym(self.h.T @ (self.h / self.s[:, None]))

    def spd_blk(self) -> np.ndarray:
        """The canonical symmetric PSD map [[t11, t12], [t12.T, t22]] in a's
        eigenbasis: the one construction of that map.  It is the weighted
        Gram product k.T diag(1/s) k of k = [h | c], symmetrized, so it is
        PSD up to rounding by construction; t22 = b21 g11 x^(-3/2) g11 b12
        is never formed as a power of x."""
        k = np.hstack([self.h, self.c])
        return _sym(k.T @ (k / self.s[:, None]))

    def assemble(self, t11, t12, t21, t22) -> np.ndarray:
        """The matrix [[t11, t12], [t21, t22]] of blocks in a's eigenbasis,
        in ambient coordinates."""
        blk = np.zeros((self.n, self.n))
        blk[: self.r, : self.r] = t11
        blk[: self.r, self.r :] = t12
        blk[self.r :, : self.r] = t21
        blk[self.r :, self.r :] = t22
        return self.q @ blk @ self.q.T

    def check_in_null(self, m: np.ndarray, name: str, tol_map: float) -> None:
        """Raise InvalidParam unless the range of ``m`` lies in
        null(b11^(1/2) g11), tested as ||b11^(1/2) g11 m|| = ||x^(1/2) m||
        = ||diag(s) u.T m|| against the scale ||x^(1/2)||_F ||m||."""
        bound = _tol_bound(tol_map, np.linalg.norm(self.s) * np.linalg.norm(m))
        if np.linalg.norm(self.s[:, None] * (self.u.T @ m)) > bound:
            raise InvalidParam(f"{name} range is not inside null(b11^(1/2) g11)")

    def deterministic_u12(self) -> np.ndarray:
        """The canonical partial isometry null(a)-coords -> range(a)-coords.

        Pairs the descending eigenvectors of the Schur complement with the
        eigenvectors of x outside its live set, which span
        null(b11^(1/2) g11) = null(x), in ascending order of their
        eigenvalues.  Computed once per context; each call returns a fresh
        copy.
        """
        return self._u12.copy()

    @functools.cached_property
    def _u12(self) -> np.ndarray:
        u12 = np.zeros((self.r, self.n2))
        if self.schur_rank == 0:
            return u12
        su = _fix_signs(self._schur_eigvecs[:, ::-1])
        if self._u_null.shape[1] < self.schur_rank:
            raise NumericalInconsistency(
                "null space of b11^(1/2) g11 is too small to absorb the "
                "rank increase; rank thresholds are inconsistent"
            )
        return self._u_null[:, : self.schur_rank] @ su[:, : self.schur_rank].T


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
    # tr(a t) as the sum of a_ij t_ji: no n x n product for one scalar
    res_o = abs(float(np.einsum("ij,ji->", a.data, t)) - trace_fidelity(a, b))
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
    mid = _psd_apply(_sym(root @ b.data @ root), "sqrt", _joint_tol(a, b))
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
        with a zero lower-right block, or the canonical symmetric PSD map
        (only available when the Schur complement vanishes).  The latter
        is the witness map of :func:`spd_reachability`, with its t11, t21
        and zero u12; a supplied u12 is validated but does not enter it.

    Raises
    ------
    Unreachable
        If rank(a) < rank(b).
    NoSpdMap
        If ``free_policy="spd_canonical"`` but no symmetric PSD map exists.
    """
    _check_reachable(a, b)
    core = _core(a, b)
    r, n2 = core.r, core.n2

    if u12_policy == "supplied":
        if u12 is None:
            raise InvalidParam("u12_policy='supplied' requires a u12 matrix")
        u12_blk = np.asarray(u12, dtype=float)
        if u12_blk.shape != (r, n2):
            raise InvalidParam(f"u12 must have shape ({r}, {n2}), got {u12_blk.shape}")
        _validate_isometry(core, u12_blk, tol_map)
    elif u12_policy not in ("deterministic", "negated"):
        raise InvalidParam(f"unknown u12 policy {u12_policy!r}")

    if free_policy == "spd_canonical":
        _check_spd(core, b, tol_map)
        return _canonical_map(core, a, b, tol_map)
    if free_policy != "symmetric_zero":
        raise InvalidParam(f"unknown free-block policy {free_policy!r}")
    if not n2:  # no u12 and no free block: the one map is the canonical one
        return _canonical_map(core, a, b, tol_map, free_policy)

    if u12_policy != "supplied":
        u12_blk = core.deterministic_u12()
        if u12_policy == "negated":
            u12_blk = -u12_blk
    t11 = core.t11()
    t21 = (core.w21 + core.schur_sqrt @ u12_blk.T) * core.iroot
    t = core.assemble(t11, t21.T, t21, np.zeros((n2, n2)))
    return _checked_map(a, b, t, t11, t21, u12_blk, free_policy, tol_map)


def _spd_map(core: _Core, a: CovMatrix, b: CovMatrix, blk: np.ndarray,
             tol_map: float) -> TransportMap:
    """The canonical symmetric PSD map of :meth:`_Core.spd_blk` in ambient
    coordinates: its u12 is zero, and its t21 is t12.T."""
    r = core.r
    return _checked_map(a, b, core.q @ blk @ core.q.T, blk[:r, :r].copy(),
                        blk[r:, :r].copy(), np.zeros((r, core.n2)), "spd_canonical", tol_map)


def _kept_map(core: _Core, tol_map: float) -> TransportMap | None:
    """The map :func:`_canonical_map` keeps on ``core`` for ``tol_map``, if any."""
    kept = core.kept
    return kept[1] if kept is not None and kept[0] == tol_map else None


def _canonical_map(core: _Core, a: CovMatrix, b: CovMatrix, tol_map: float,
                   tag: str = "spd_canonical", blk: np.ndarray | None = None) -> TransportMap:
    """The canonical symmetric PSD map of :func:`_spd_map`, built from
    ``blk`` when the caller has it, and tagged ``tag``.

    For a full-rank source (n2 = 0) there is no u12 and no free block, so
    every policy of :func:`ot_map` gives this map too: it is the unique
    optimal map.  It is then built and checked once per context and
    ``tol_map``, and only the last one is kept; a map that fails its check
    is not kept, so it raises again.  Each caller gets its own copy of
    every array.  Threads that race here may each build it, with the same
    bytes, as :func:`~bwt.linalg._memoized` may.
    """
    m = None if core.n2 else _kept_map(core, tol_map)
    if m is None:
        m = _spd_map(core, a, b, core.spd_blk() if blk is None else blk, tol_map)
        if core.n2:
            return m
        core.kept = (tol_map, m)
    return replace(m, t=m.t.copy(), t11=m.t11.copy(), t21=m.t21.copy(),
                   u12=m.u12.copy(), free_blocks=tag)


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
    lower-right block on null(a).  It is built as the witness of
    :func:`spd_reachability` is, and equals it byte for byte, but only the
    Schur complement's norm is checked here: criterion 1's PSD test is not
    repeated.

    Raises
    ------
    NoSpdMap
        If the Schur complement of (a, b) is nonzero, in which case no
        symmetric PSD transport map exists at all.
    """
    _check_spd(_core(a, b), b, tol_map)  # ahead of ot_map's Unreachable
    return ot_map(a, b, free_policy="spd_canonical", tol_map=tol_map)


def _psd_within(m: np.ndarray, tau: float) -> bool:
    """Whether the symmetric ``m`` has no eigenvalue below -``tau``, decided
    as whether m + tau I has a Cholesky factor.  This differs from
    eigvalsh(m)[0] >= -tau only within about n eps ||m|| of -tau, and
    costs a fraction of it."""
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] += tau
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


def _criterion_one(core: _Core, tol_map: float, tol_abs: float) -> np.ndarray | None:
    """Criterion 1 of :func:`spd_reachability`: the canonical map's blocks
    blk in a's eigenbasis q, or None when q blk q.T is not a PSD transport
    map within ``tol_abs``.

    Both tests are made on blk.  q is orthogonal and q.T b q is the pair's
    block view, so the transport residual is ||blk diag(lambda) blk.T -
    q.T b q||_F, one n x n product; blk and q blk q.T are similar, so they
    share their spectrum, whose PSD test (:func:`_psd_within`, at
    tol_map (1 + max|blk|)) runs only for a map that passes the residual.
    For a full-rank source blk is the t11 of the map :func:`_canonical_map`
    keeps, when it keeps one, and is not formed again.
    """
    kept = _kept_map(core, tol_map)
    blk = core.spd_blk() if kept is None else kept.t11
    bv = core.bv
    b_q = np.block([[bv.b11, bv.b12], [bv.b21, bv.b22]])
    if np.linalg.norm((blk * core.lam) @ blk.T - b_q) > tol_abs:
        return None
    if not _psd_within(blk, _tol_bound(tol_map, np.abs(blk).max())):
        return None
    return blk


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

    The criteria share the spectra of a and b.  Criterion 1 tests the
    canonical map as the block matrix blk = [[t11, t12], [t12.T, t22]] in
    a's eigenbasis q, where a is diag(lambda) and q.T b q is the pair's
    :class:`~bwt.schur.BlockView`: its transport residual is
    ||blk diag(lambda) blk.T - q.T b q||_F, and it is PSD when
    blk + tol_map (1 + max|blk|) I has a Cholesky factor.  Only a map that
    passes is assembled, as the witness q blk q.T, the map
    :func:`canonical_spd_map` returns; for a full-rank source that is the
    unique optimal map, built and checked once per context and tol_map.

    When rank(a) < rank(b) the ranks settle criteria 4 and 5, and both
    fail without a singular value: rank(b a) <= rank(a) < rank(b), and
    dim range(b) + dim null(a) > n.  Criteria 1-3 are evaluated as always.
    """
    core = _core(a, b)
    tol_abs = _tol_bound(tol_map, b.data)

    # 1. construct the canonical candidate unconditionally and test it
    blk = _criterion_one(core, tol_map, tol_abs)
    spd_exists = blk is not None

    # 2. rank of the Schur complement (via the x-route spectrum)
    as_unique = core.schur_rank == 0

    # 3. norm of the independently computed Schur complement
    schur_zero = float(np.linalg.norm(schur_complement(a, b).value)) <= tol_abs

    # 4 and 5 both fail by the ranks alone when rank(a) < rank(b)
    if numeric_rank(a) < numeric_rank(b):
        range_eq = trivial_intersection = False
    else:
        # 4. rank(b) == rank(b a), both via singular values.  On the live
        # eigenpairs b a = U_b (L_b U_b^T U_a L_a) U_a^T, so sigma(b a) is
        # that of the rank(b) x rank(a) middle factor.  Its cut is anchored
        # at lam_max(a) lam_max(b) so an all-noise product has rank 0.
        (w_a, u_a), (w_b, u_b) = _live_eigs(a), _live_eigs(b)
        sv = np.linalg.svd((u_b * w_b).T @ (u_a * w_a), compute_uv=False)
        range_eq = numeric_rank(b) == _rank(sv, core.tol * core.lam_a * core.lam_b)

        # 5. principal angles between range(b), spanned by the live u_b of
        # criterion 4, and null(a)
        q2 = core.bv.q2
        trivial_intersection = (
            u_b.shape[1] == 0
            or q2.shape[1] == 0
            or _rank(np.linalg.svd(u_b.T @ q2, compute_uv=False), 1.0 - INTERSECT_TOL) == 0
        )

    flags = (spd_exists, as_unique, schur_zero, range_eq, trivial_intersection)
    if len(set(flags)) != 1:
        raise NumericalInconsistency(
            "SPD reachability criteria disagree: "
            f"construction={spd_exists}, uniqueness={as_unique}, "
            f"schur_zero={schur_zero}, range_eq={range_eq}, "
            f"intersection={trivial_intersection}"
        )

    witness = _canonical_map(core, a, b, tol_map, blk=blk) if spd_exists else None
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
    return CovMatrix(c, tol_rel=_joint_tol(a, b))


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
    g_mat, m_mat = _factor_array(g), _factor_array(m)
    y = np.asarray(y, dtype=float).reshape(-1)
    if g_mat.shape != m_mat.shape or y.shape[0] != g_mat.shape[0]:
        raise InvalidInput("factor/vector dimensions do not match")

    gram = g_mat.T @ m_mat
    scale = float(np.abs(gram).max())
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
