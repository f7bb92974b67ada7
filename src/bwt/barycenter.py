"""Wasserstein barycenters of centered Gaussians by block-coordinate ascent.

The barycenter of measures N(0, a_i) with weights p_i minimizes the weighted
sum of squared distances.  Parameterizing couplings through factors g_i of
the a_i turns this into maximizing the Frobenius norm of the weighted mean
factor g_hat = sum_i p_i g_i, a smooth concave-like problem over the product
of factor families.  Block-coordinate ascent updates one g_i at a time by
aligning it against the mean of the others, which is a single SVD per update
and never decreases the objective.

The candidate returned is a_hat = g_hat @ g_hat.T.  Stationarity is checked
against the classical fixed-point equation; both it and pairwise alignment
are necessary conditions only, so a converged run certifies a critical point
rather than the global optimum (genuinely suboptimal fixed points exist when
the a_i are singular).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalInconsistency, PreconditionFailed
from .linalg import CovMatrix, _psd_apply, _sym, align_green, green_factor, psd_function
from .transport import w2_distance

WEIGHT_SUM_TOL = 1e-12

#: Pairwise product-norm slack (relative) accepted by the closed forms that
#: require mutually orthogonal ranges.
ORTHO_TOL_FACTOR = 10.0


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
        if any(w <= 0.0 for w in weights):
            raise InvalidInput("weights must be strictly positive")
        if abs(sum(weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInput(f"weights must sum to 1, got {sum(weights)!r}")
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
    sweep).  ``frechet_variance`` is evaluated directly as the weighted sum
    of squared distances from ``a_hat``.
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
    return float(
        sum(w * w2_distance(a_hat, c) ** 2 for w, c in zip(problem.weights, problem.covs))
    )


def fixed_point_residual(problem: BarycenterProblem, a_hat: CovMatrix) -> float:
    """Frobenius residual of the barycenter fixed-point equation.

    A barycenter satisfies a_hat = sum_i p_i (a_hat^(1/2) a_i a_hat^(1/2))^(1/2);
    the converse can fail for singular families, so a small residual is
    necessary but not sufficient for optimality.
    """
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


def _result_from_greens(problem, greens, iterations, converged, history=None) -> BarycenterResult:
    """The result for final factors ``greens``; without a ``history`` (a
    closed form) the history is the final objective alone."""
    g_hat = _mean_factor(problem, greens)
    a_hat = CovMatrix(g_hat @ g_hat.T, tol_rel=max(c.tol_rel for c in problem.covs))
    objective = float(np.linalg.norm(g_hat) ** 2)
    return BarycenterResult(
        a_hat=a_hat,
        greens=tuple(np.array(g) for g in greens),
        g_hat=g_hat,
        objective=objective,
        frechet_variance=frechet_variance(problem, a_hat),
        iterations=iterations,
        converged=converged,
        objective_history=(objective,) if history is None else tuple(history),
    )


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
        Maximum number of full sweeps over the family.
    tol_obj : float, optional
        Stop when a full sweep improves the objective by less than this;
        defaults to 1e-10 times the weighted trace of the family.
    seed : int, optional
        When given, each starting factor is the spectral one rotated on the
        right by an independent Haar-distributed orthogonal matrix, which
        randomizes the ascent path; the default start is deterministic.

    Every single-factor update maximizes the objective in that coordinate,
    so ``objective_history`` is nondecreasing up to roundoff.
    """
    scale = problem.weighted_trace()
    if tol_obj is None:
        tol_obj = 1e-10 * scale
    if scale == 0.0:
        zero = CovMatrix(np.zeros((problem.n, problem.n)))
        greens = tuple(np.zeros((problem.n, problem.n)) for _ in problem.covs)
        return BarycenterResult(
            a_hat=zero,
            greens=greens,
            g_hat=np.zeros((problem.n, problem.n)),
            objective=0.0,
            frechet_variance=0.0,
            iterations=0,
            converged=True,
            objective_history=(0.0,),
        )

    rng = np.random.default_rng(seed) if seed is not None else None
    greens = []
    for c in problem.covs:
        g = green_factor(c).g
        if rng is not None:
            g = g @ _haar_rotation(problem.n, rng)
        greens.append(g)

    g_hat = _mean_factor(problem, greens)
    objective = float(np.linalg.norm(g_hat) ** 2)
    history = [objective]

    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        start = objective
        for i, (w, c) in enumerate(zip(problem.weights, problem.covs)):
            g_rest = g_hat - w * greens[i]
            greens[i] = align_green(g_rest, c).g
            g_hat = g_rest + w * greens[i]
            objective = float(np.linalg.norm(g_hat) ** 2)
            history.append(objective)
        if objective - start < tol_obj:
            converged = True
            break

    return _result_from_greens(problem, greens, sweeps, converged, history)


def ranges_orthogonal(covs) -> bool:
    """Whether the covariances have pairwise orthogonal ranges (a_i a_j = 0)."""
    try:
        _check_orthogonal(list(covs), "covariances")
    except PreconditionFailed:
        return False
    return True


def _ranges_meet(a: CovMatrix, b: CovMatrix) -> bool:
    """Whether ||a b|| exceeds the orthogonality slack for the pair."""
    bound = (
        ORTHO_TOL_FACTOR
        * max(a.tol_rel, b.tol_rel)
        * np.linalg.norm(a.data)
        * np.linalg.norm(b.data)
    )
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
    PreconditionFailed
        If two covariances in different groups have non-orthogonal ranges.
    """
    groups = list(groups)
    outer = [float(q) for q in outer_weights]
    if not groups:
        raise InvalidInput("need at least one group")
    if len(groups) != len(outer):
        raise InvalidInput(f"{len(groups)} groups but {len(outer)} outer weights")
    if any(q <= 0.0 for q in outer):
        raise InvalidInput("outer weights must be strictly positive")
    if abs(sum(outer) - 1.0) > WEIGHT_SUM_TOL:
        raise InvalidInput(f"outer weights must sum to 1, got {sum(outer)!r}")
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
    if abs(result.objective - predicted) > 1e-8 * (1.0 + result.objective):
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
