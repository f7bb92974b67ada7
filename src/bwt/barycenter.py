"""Wasserstein barycenters of centered Gaussians by block-coordinate ascent.

The barycenter of measures N(0, a_i) with weights p_i minimizes the weighted
sum of squared distances.  Parameterizing couplings through factors g_i of
the a_i turns this into maximizing the Frobenius norm of the weighted mean
factor g_hat = sum_i p_i g_i, a smooth concave-like problem over the product
of factor families.  Block-coordinate ascent updates one g_i at a time by
aligning it against the mean of the others, which is a single SVD per update
and never decreases the objective.  Where sweeps contract slowly, as on
singular families, :func:`solve_bcd` also tries Anderson steps between
sweeps and keeps one only when it raises the objective.

The candidate returned is a_hat = g_hat @ g_hat.T.  Stationarity is checked
against the classical fixed-point equation; both it and pairwise alignment
are necessary conditions only, so a converged run certifies a critical point
rather than the global optimum (genuinely suboptimal fixed points exist when
the a_i are singular).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalInconsistency, PreconditionFailed
from .linalg import (
    CovMatrix,
    _align_thin,
    _check_pair,
    _joint_tol,
    _live_eigs,
    _psd_apply,
    _sym,
    _thin_factor,
    _tol_bound,
    _trace_fidelity,
    psd_function,
)
from .transport import _w2_from_fidelity

WEIGHT_SUM_TOL = 1e-12

#: Pairwise product-norm slack (relative) accepted by the closed forms that
#: require mutually orthogonal ranges.
ORTHO_TOL_FACTOR = 10.0

#: Differences of past sweeps that an Anderson step of :func:`solve_bcd`
#: combines, so a step extrapolates from the last ``_ANDERSON_DEPTH + 1``
#: sweeps.  On the benchmark's singular families at seed 3, depth 5 needs
#: the fewest SVDs among depths 2-6 (depth 2, three sweeps, needs 18 %
#: more); a deeper window saves under 1 % more and holds more sweeps.
_ANDERSON_DEPTH = 5


def _check_weights(weights, label: str) -> None:
    """Raise InvalidInput unless the ``label`` weights are finite, strictly
    positive and sum to 1."""
    if not all(0.0 < w < np.inf for w in weights):
        raise InvalidInput(f"{label} must be finite and strictly positive, got {weights!r}")
    if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInput(f"{label} must sum to 1, got {sum(weights)!r}")


@dataclass(frozen=True)
class BarycenterProblem:
    """A weighted family of PSD covariances of common dimension."""

    covs: tuple
    weights: tuple

    def __post_init__(self):
        covs = tuple(self.covs)
        weights = tuple(float(w) for w in self.weights)
        if not covs:
            raise InvalidInput("need at least one covariance")
        if len(covs) != len(weights):
            raise InvalidInput(f"{len(covs)} covariances but {len(weights)} weights")
        n = covs[0].n
        for c in covs:
            if not isinstance(c, CovMatrix):
                raise InvalidInput("covariances must be CovMatrix instances")
            if c.n != n:
                raise InvalidInput("covariances must share one dimension")
        _check_weights(weights, "weights")
        object.__setattr__(self, "covs", covs)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.covs[0].n

    @property
    def size(self) -> int:
        return len(self.covs)

    def weighted_trace(self) -> float:
        return float(sum(w * c.trace() for w, c in zip(self.weights, self.covs)))


@dataclass(frozen=True, eq=False)
class BarycenterResult:
    """Outcome of a barycenter computation.

    ``greens`` are the final per-measure factors, ``g_hat`` their weighted
    mean, ``objective`` its squared Frobenius norm, and ``objective_history``
    the objective after every single-factor update (so ``size`` entries per
    sweep; a kept Anderson step raises the objective between two sweeps and
    adds no entry).  ``frechet_variance`` is evaluated directly as the
    weighted sum of squared distances from ``a_hat``.
    """

    a_hat: CovMatrix
    greens: tuple
    g_hat: np.ndarray
    objective: float
    frechet_variance: float
    iterations: int
    converged: bool
    objective_history: tuple


def _haar_rotation(n: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def frechet_variance(problem: BarycenterProblem, a_hat: CovMatrix) -> float:
    """The weighted sum of squared distances from a candidate barycenter."""
    return _frechet_variance(problem, a_hat, (None,) * problem.size)


def _frechet_variance(problem: BarycenterProblem, a_hat: CovMatrix, thins) -> float:
    """:func:`frechet_variance`; a member whose thin factor is given in
    ``thins`` (``None`` where not) reads it instead of its spectrum, so that a
    family larger than the spectra's cache is not decomposed again."""
    return float(
        sum(w * _w2_from_fidelity(a_hat, c, _trace_fidelity(a_hat, c, f)) ** 2
            for w, c, f in zip(problem.weights, problem.covs, thins))
    )


def fixed_point_residual(problem: BarycenterProblem, a_hat: CovMatrix) -> float:
    """Frobenius residual of the barycenter fixed-point equation.

    A barycenter satisfies a_hat = sum_i p_i (a_hat^(1/2) a_i a_hat^(1/2))^(1/2);
    the converse can fail for singular families, so a small residual is
    necessary but not sufficient for optimality.

    Raises
    ------
    InvalidInput
        If ``a_hat`` and the family differ in dimension.
    """
    _check_pair(a_hat, problem.covs[0])
    root = psd_function(a_hat, "sqrt")
    acc = np.zeros((a_hat.n, a_hat.n))
    for w, c in zip(problem.weights, problem.covs):
        acc += w * _psd_apply(_sym(root @ c.data @ root), "sqrt", a_hat.tol_rel)
    return float(np.linalg.norm(a_hat.data - acc))


def _mean_factor(problem: BarycenterProblem, greens) -> np.ndarray:
    """g_hat = sum_i p_i g_i."""
    g_hat = np.zeros((problem.n, problem.n))
    for w, g in zip(problem.weights, greens):
        g_hat += w * g
    return g_hat


def _result_from_greens(problem, greens, iterations, converged, history=None,
                        thins=None, g_hat=None) -> BarycenterResult:
    """The result for final factors ``greens``; without a ``history`` (a
    closed form) the history is the final objective alone.  ``thins``, when
    given, are the members' thin factors.  ``g_hat``, when given, is the
    ascent's running mean factor, whose objective ends the history; else
    the mean is summed afresh."""
    if g_hat is None:
        g_hat = _mean_factor(problem, greens)
    a_hat = CovMatrix(g_hat @ g_hat.T, tol_rel=_joint_tol(*problem.covs))
    objective = float(np.linalg.norm(g_hat) ** 2)
    return BarycenterResult(
        a_hat=a_hat,
        greens=tuple(np.array(g) for g in greens),
        g_hat=g_hat,
        objective=objective,
        frechet_variance=_frechet_variance(problem, a_hat, thins or (None,) * problem.size),
        iterations=iterations,
        converged=converged,
        objective_history=(objective,) if history is None else tuple(history),
    )


def _check_limits(max_iter, tol_obj) -> None:
    """Raise InvalidInput unless ``max_iter`` is an integer >= 0 (not a bool)
    and ``tol_obj`` is None or finite and >= 0: a negative count would
    return the start unswept, and a NaN or negative tolerance would never
    stop the ascent."""
    if (isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral)
            or max_iter < 0):
        raise InvalidInput(f"max_iter must be an integer >= 0, got {max_iter!r}")
    if tol_obj is not None and not (isinstance(tol_obj, numbers.Real)
                                    and 0.0 <= tol_obj < np.inf):
        raise InvalidInput(f"tol_obj must be finite and >= 0, got {tol_obj!r}")


def solve_bcd(
    problem: BarycenterProblem,
    max_iter: int = 500,
    tol_obj: float | None = None,
    seed: int | None = None,
) -> BarycenterResult:
    """Block-coordinate ascent on the factor parameterization.

    Parameters
    ----------
    max_iter : int
        Maximum number of full sweeps over the family, at least 0; Anderson
        steps do not count.  At 0 the start is returned, not converged.
    tol_obj : float, optional
        Stop when a full sweep improves the objective by less than this
        finite, nonnegative amount; defaults to 1e-10 times the weighted
        trace of the family.
    seed : int, optional
        When given, each member's root start is rotated on the right by an
        independent Haar-distributed orthogonal matrix, which randomizes the
        ascent path; the default start is deterministic.

    The default start is the members' square roots U_r sqrt(lambda_r) U_r^T,
    from the spectra that give their thin factors.  Commuting members' roots
    are aligned: the start is then the barycenter (sum_i p_i a_i^(1/2))^2.
    A root's rows span its member's range, so singular members do not share
    one rank-r row space, a set every update maps into itself (a saddle).

    Every single-factor update maximizes the objective in that coordinate,
    so ``objective_history`` is nondecreasing up to roundoff; each costs one
    SVD of an n x rank matrix (see :func:`~bwt.linalg.align_green`).

    Anderson steps.  After a sweep that gains more than half what the sweep
    before it gained, an Anderson step (Walker & Ni 2011) extrapolates from
    the last ``_ANDERSON_DEPTH + 1`` (six) sweeps and projects each member
    back onto its factor set, at the cost of one sweep's SVDs; no step is
    tried before the window holds that many sweeps.  Full-rank families
    typically contract much faster than that ratio and never try one;
    singular families contract slowly and converge in about a quarter of
    the sweeps with steps.  The safeguard: a step is kept only when its
    objective is strictly above the sweep's; otherwise it is dropped, along
    with all but the last sweep in the window.  The stopping rule is
    checked after every plain sweep, before any step, and no step follows
    the last sweep ``max_iter`` allows, so the last update is always a
    plain sweep and the returned factors are aligned as without steps.
    ``iterations`` counts plain sweeps only, and ``objective`` is the last
    entry of ``objective_history``, bit for bit.
    """
    _check_limits(max_iter, tol_obj)
    scale = problem.weighted_trace()
    if tol_obj is None:
        tol_obj = 1e-10 * scale
    if scale == 0.0:
        zeros = np.zeros((problem.n, problem.n))
        return _result_from_greens(problem, [zeros] * problem.size, 0, True)

    # one decomposition per member, even in a family larger than the cache
    rng = np.random.default_rng(seed) if seed is not None else None
    thins, greens = [], []
    for c in problem.covs:
        thins.append(_thin_factor(c))
        g = thins[-1] @ _live_eigs(c)[1].T  # the spectrum _thin_factor just cached
        greens.append(g if rng is None else g @ _haar_rotation(problem.n, rng))

    g_hat = _mean_factor(problem, greens)
    objective = float(np.linalg.norm(g_hat) ** 2)
    history = [objective]
    xs, rs = [], []  # the last _ANDERSON_DEPTH + 1 sweep starts and residuals
    gain = np.inf

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        start, prev_gain = objective, gain
        xs.append(list(greens))
        for i, (w, f, c) in enumerate(zip(problem.weights, thins, problem.covs)):
            g_rest = g_hat - w * greens[i]
            greens[i] = _align_thin(g_rest, f, c)
            g_hat = g_rest + w * greens[i]
            objective = float(np.linalg.norm(g_hat) ** 2)
            history.append(objective)
        gain = objective - start
        if gain < tol_obj:
            converged = True
            break
        rs.append([g - x for g, x in zip(greens, xs[-1])])
        del xs[:-_ANDERSON_DEPTH - 1], rs[:-_ANDERSON_DEPTH - 1]
        if len(xs) <= _ANDERSON_DEPTH or gain <= 0.5 * prev_gain or sweeps == max_iter:
            continue
        trial = _anderson_step(problem, thins, xs, rs)
        if trial is None:
            continue
        trial_hat = _mean_factor(problem, trial)
        trial_obj = float(np.linalg.norm(trial_hat) ** 2)
        if trial_obj > objective:
            greens, g_hat, objective = trial, trial_hat, trial_obj
        else:
            del xs[:-1], rs[:-1]

    return _result_from_greens(problem, greens, sweeps, converged, history, thins, g_hat)


def _anderson_step(problem, thins, xs, rs):
    """The Anderson extrapolation of the last sweeps, each member projected
    onto its factor set; None when the extrapolation is not finite.

    ``xs`` are the families the last sweeps started from and ``rs`` what
    each sweep added to them, oldest first.  With dr_m the differences of
    consecutive residuals and phi = x + r the sweep results, gamma minimizes
    ||r_j - sum_m gamma_m dr_m|| (inner products summed over members) and
    the extrapolation is phi_j - sum_m gamma_m (phi_(m+1) - phi_m), which is
    x_j + r_j - sum_m gamma_m (dx_m + dr_m) of Walker & Ni (2011).  The
    nearest factor of a_i to a matrix t is the one maximizing tr(t^T g),
    since ||g||_F^2 = tr(a_i) is fixed on the set: the alignment of an
    ascent update, one n x rank SVD per member.  Differences are formed one
    member at a time, so the step holds no stacked copy of the window.
    """
    depth = len(xs) - 1
    gram, rhs = np.zeros((depth, depth)), np.zeros(depth)
    for i in range(problem.size):
        dr = [v[i] - u[i] for u, v in zip(rs, rs[1:])]
        gram += [[np.vdot(u, v) for v in dr] for u in dr]
        rhs += [np.vdot(u, rs[-1][i]) for u in dr]
    gamma = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    trial = []
    for i in range(problem.size):
        phi = [x[i] + r[i] for x, r in zip(xs, rs)]
        t = phi[-1] - sum(gm * (v - u) for gm, u, v in zip(gamma, phi, phi[1:]))
        if not np.all(np.isfinite(t)):
            return None
        trial.append(t)
    return [_align_thin(t, f, c) for t, f, c in zip(trial, thins, problem.covs)]


def ranges_orthogonal(covs) -> bool:
    """Whether the covariances have pairwise orthogonal ranges (a_i a_j = 0)."""
    try:
        _check_orthogonal(list(covs), "covariances")
    except PreconditionFailed:
        return False
    return True


def _ranges_meet(a: CovMatrix, b: CovMatrix) -> bool:
    """Whether ||a b|| exceeds the orthogonality slack for the pair."""
    bound = ORTHO_TOL_FACTOR * _joint_tol(a, b) * np.linalg.norm(a.data) * np.linalg.norm(b.data)
    return np.linalg.norm(a.data @ b.data) > bound


def _check_orthogonal(covs, label: str) -> None:
    for i in range(len(covs)):
        for j in range(i + 1, len(covs)):
            if _ranges_meet(covs[i], covs[j]):
                raise PreconditionFailed(
                    f"{label} {i} and {j} do not have orthogonal ranges"
                )


def orthogonal_closed_form(problem: BarycenterProblem) -> BarycenterResult:
    """The exact barycenter of a family with mutually orthogonal ranges.

    When a_i a_j = 0 for i != j, every choice of factors gives the same mean
    square norm and the ascent objective is constant over the whole product
    family, so sum_i p_i^2 a_i is a barycenter.  The returned factors are the
    symmetric square roots: their pairwise products vanish along with the
    range overlaps, which makes a_hat equal that closed form exactly (other
    factor choices realize other members of the barycenter set).

    Raises
    ------
    PreconditionFailed
        If some pair of ranges fails the orthogonality check.
    """
    _check_orthogonal(problem.covs, "covariances")
    greens = [psd_function(c, "sqrt") for c in problem.covs]
    return _result_from_greens(problem, greens, 0, True)


def hierarchical_closed_form(
    groups,
    outer_weights,
    max_iter: int = 500,
    tol_obj: float | None = None,
    seed: int | None = None,
) -> BarycenterResult:
    """Barycenter of groups of measures whose ranges are orthogonal across
    groups: solve each group by ascent, then combine the group optima with
    the orthogonal closed form.

    ``groups`` is a sequence of BarycenterProblem sharing one dimension, and
    ``outer_weights`` the weights across groups.  The combined mean factor is
    the outer-weighted sum of the group mean factors, so the combined
    objective must equal the outer-weight-squared sum of group objectives;
    that identity is recomputed from scratch and a mismatch raises
    NumericalInconsistency.

    Raises
    ------
    InvalidInput
        From :func:`solve_bcd`, if ``max_iter`` or ``tol_obj`` is one it
        refuses.
    PreconditionFailed
        If two covariances in different groups have non-orthogonal ranges.
    """
    groups = list(groups)
    outer = [float(q) for q in outer_weights]
    if not groups:
        raise InvalidInput("need at least one group")
    if len(groups) != len(outer):
        raise InvalidInput(f"{len(groups)} groups but {len(outer)} outer weights")
    _check_weights(outer, "outer weights")
    n = groups[0].n
    if any(g.n != n for g in groups):
        raise InvalidInput("groups must share one dimension")

    for gi in range(len(groups)):
        for gj in range(gi + 1, len(groups)):
            for a in groups[gi].covs:
                for b in groups[gj].covs:
                    if _ranges_meet(a, b):
                        raise PreconditionFailed(
                            f"groups {gi} and {gj} contain covariances with "
                            "non-orthogonal ranges"
                        )

    sub = [
        solve_bcd(g, max_iter=max_iter, tol_obj=tol_obj, seed=seed)
        for g in groups
    ]

    flat_covs, flat_weights, flat_greens = [], [], []
    for q, g, res in zip(outer, groups, sub):
        for w, c, grn in zip(g.weights, g.covs, res.greens):
            flat_covs.append(c)
            flat_weights.append(q * w)
            flat_greens.append(grn)
    flat = BarycenterProblem(tuple(flat_covs), tuple(flat_weights))

    result = _result_from_greens(
        flat,
        flat_greens,
        iterations=sum(r.iterations for r in sub),
        converged=all(r.converged for r in sub),
    )
    predicted = sum(q * q * r.objective for q, r in zip(outer, sub))
    if abs(result.objective - predicted) > _tol_bound(1e-8, result.objective):
        raise NumericalInconsistency(
            f"combined objective {result.objective:.12g} does not match the "
            f"orthogonal-split prediction {predicted:.12g}"
        )
    return result


def multicoupling_kernel(result: BarycenterResult) -> np.ndarray:
    """The covariance of the optimal multicoupling, as one stacked matrix.

    Block (i, j) is g_i @ g_j.T; the full matrix is a Gram matrix of the
    stacked factors and therefore PSD by construction.
    """
    s = np.vstack(result.greens)
    return s @ s.T
