"""Discretized Gaussian processes on [0, 1] and their transport distances.

Everything lives on the midpoint grid s_i = (i - 1/2)/m with weight h = 1/m.
An integral operator with kernel K is stored as the matrix h * K(s_i, s_j),
a convention under which operator composition is plain matrix product,
operator trace is matrix trace, and the squared Hilbert-Schmidt norm is the
squared Frobenius norm.  Covariance matrices of discretized processes come
out in the same convention (they are the covariances of the sqrt(h)-scaled
sample vectors), so Wasserstein distances between the discretizations
approximate distances between the processes.

Smoothing operators only: the inverse direction (numerical differentiation)
is ill-conditioned on this grid and deliberately not provided.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

import numpy as np

from .errors import InvalidParam
from .linalg import CovMatrix
from .transport import w2_distance

#: Relative threshold used when classifying a cross Gram matrix.
GRAM_TOL = 1e-8


def _positive_int(value, what: str) -> int:
    """``value`` as a plain int, or InvalidParam unless it is an integer
    >= 1: any ``numbers.Integral`` but a bool, so a NumPy integer counts
    and ``True`` does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise InvalidParam(f"{what} must be a positive integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class Grid:
    """Midpoint discretization of [0, 1] into m cells."""

    m: int

    def __post_init__(self):
        object.__setattr__(self, "m", _positive_int(self.m, "grid size"))

    @property
    def points(self) -> np.ndarray:
        return (np.arange(self.m) + 0.5) / self.m

    @property
    def weight(self) -> float:
        return 1.0 / self.m


@dataclass(frozen=True, eq=False)
class DiscretizedOperator:
    """An integral operator as the matrix h * K(s_i, s_j) on a midpoint grid."""

    grid: Grid
    mat: np.ndarray

    def compose(self, other: "DiscretizedOperator") -> "DiscretizedOperator":
        if other.grid.m != self.grid.m:
            raise InvalidParam("operators live on different grids")
        return DiscretizedOperator(self.grid, self.mat @ other.mat)

    def adjoint(self) -> "DiscretizedOperator":
        return DiscretizedOperator(self.grid, self.mat.T.copy())

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def hs_norm_sq(self) -> float:
        return float(np.linalg.norm(self.mat) ** 2)


def _bm_kernel(s, t):
    return np.minimum(s, t)


def _bb_kernel(s, t):
    return np.minimum(s, t) - s * t


def volterra_green(n: int, grid: Grid) -> DiscretizedOperator:
    """The Volterra factor of n-fold integrated Brownian motion.

    Kernel (s - t)^(n-1) / (n-1)! on t <= s, zero above the diagonal; n = 1
    is plain Brownian motion.
    """
    n = _positive_int(n, "integration order")
    s = grid.points
    diff = s[:, None] - s[None, :]
    kern = np.where(diff >= 0.0, diff ** (n - 1), 0.0) / factorial(n - 1)
    return DiscretizedOperator(grid, grid.weight * kern)


def classic_kernels(which: str, grid: Grid):
    """Covariance and Volterra factor of a classic process on [0, 1].

    which="bm": Brownian motion, K = min(s, t), factor 1 on t <= s.
    which="bb": Brownian bridge, K = min(s, t) - s t, factor 1 on t <= s
    minus s.  Returns the pair (covariance, factor) as operators.
    """
    s = grid.points
    step = (s[:, None] >= s[None, :]).astype(float)
    if which == "bm":
        kern = _bm_kernel(s[:, None], s[None, :])
        green = step
    elif which == "bb":
        kern = _bb_kernel(s[:, None], s[None, :])
        green = step - s[:, None]
    else:
        raise InvalidParam(f"unknown process {which!r}; expected 'bm' or 'bb'")
    h = grid.weight
    return DiscretizedOperator(grid, h * kern), DiscretizedOperator(grid, h * green)


def _trace_constant(n: int) -> Fraction:
    # integral of the diagonal of the n-fold integrated BM covariance
    return Fraction(1, 2 * n * (2 * n - 1) * factorial(n - 1) ** 2)


def ibm_w2_analytic(n: int, m: int) -> float:
    """Closed-form expression built from the trace constants of n- and m-fold
    integrated Brownian motions; the squared distance only at n = m.

    With c_k = 1 / (2k (2k-1) ((k-1)!)^2) the value is c_n + c_m - 2 c_(n+m)/2
    for n + m even and c_n + c_m - c_(n+m+1)/2 for n + m odd, evaluated in
    exact rational arithmetic and returned as a float.

    The derivation behind this expression treats the cross Gram of the two
    Volterra factors as if it were symmetric PSD.  That holds only at n = m
    (where the distance is zero); for n != m the cross Gram is genuinely
    asymmetric, the derivation does not apply, and this expression does not
    equal the true squared distance.  The discrepancy is real, not a
    discretization artifact: :func:`ibm_w2_numeric` converges to the true
    value, which differs from this one for every n != m.  The expression is
    kept for its exact rational values and for comparison against the
    numeric route; see :func:`cross_gram_certificate` to check the symmetry
    assumption on any factor pair directly.
    """
    n, m = (_positive_int(k, "integration order") for k in (n, m))
    c_n, c_m = _trace_constant(n), _trace_constant(m)
    if (n + m) % 2 == 0:
        val = c_n + c_m - 2 * _trace_constant((n + m) // 2)
    else:
        val = c_n + c_m - _trace_constant((n + m + 1) // 2)
    return float(val)


def ibm_w2_numeric(n: int, m: int, num_points: int) -> float:
    """Squared distance between the discretized integrated Brownian motions.

    Builds the two Volterra factors on a midpoint grid with ``num_points``
    cells, forms their covariances, and returns the squared 2-Wasserstein
    distance between the resulting centered Gaussians.  As the grid refines
    this converges to the squared distance between the processes at a
    first-order rate.

    The fidelity term drops eigenvalues under the relative rank cut before
    its square root, so a spectrum that decays past the cut biases the value
    upwards: for orders (1, 2) at 500 cells it sits about 4.9e-5 above the
    Procrustes value ||g1||^2 + ||g2||^2 - 2 ||g1^T g2||_1 of the same factors.
    """
    grid = Grid(num_points)
    g1 = volterra_green(n, grid)
    g2 = volterra_green(m, grid)
    c1 = CovMatrix(g1.mat @ g1.mat.T)
    c2 = CovMatrix(g2.mat @ g2.mat.T)
    return w2_distance(c1, c2) ** 2


@dataclass(frozen=True, eq=False)
class GramCertificate:
    """Classification of a cross Gram matrix g1* g2.

    ``kind`` is "psd" when the matrix is symmetric PSD within tolerance,
    "symmetric_not_psd" when symmetric with negative spectrum, and
    "asymmetric" otherwise.  ``min_eig`` always refers to the symmetric part.
    """

    kind: str
    min_eig: float
    asymmetry: float


def cross_gram_certificate(g1: DiscretizedOperator, g2: DiscretizedOperator) -> GramCertificate:
    """Classify the cross Gram operator of two discretized factors.

    The matrix tested is g1.mat.T @ g2.mat, the discretization of the kernel
    integral of g1* composed with g2.  Symmetric PSD cross Grams are the
    aligned case in which factor interpolation is geodesic; an asymmetric
    certificate means the factor pair carries no such alignment.
    """
    if g1.grid.m != g2.grid.m:
        raise InvalidParam("operators live on different grids")
    c = g1.mat.T @ g2.mat
    scale = float(np.linalg.norm(c))
    asymmetry = float(np.linalg.norm(c - c.T))
    w = np.linalg.eigvalsh((c + c.T) / 2.0)
    min_eig = float(w[0])
    if asymmetry > GRAM_TOL * scale:
        kind = "asymmetric"
    elif min_eig >= -GRAM_TOL * scale:
        kind = "psd"
    else:
        kind = "symmetric_not_psd"
    return GramCertificate(kind=kind, min_eig=min_eig, asymmetry=asymmetry)


def mercer_composite(grid: Grid, which: str) -> DiscretizedOperator:
    """Composite kernels mixing Brownian motion and bridge.

    which="k121" conjugates the bridge covariance by the motion factor,
    K(s, t) = double integral of min(u, v) - u v over u in [s, 1], v in
    [t, 1]; which="k212" conjugates the motion covariance by the bridge
    factor.  Both are built as adjoint-factor times covariance times factor,
    so the discretization is a congruence of a PSD matrix and is PSD to
    machine precision by construction.
    """
    k_bm, g_bm = classic_kernels("bm", grid)
    k_bb, g_bb = classic_kernels("bb", grid)
    if which == "k121":
        return g_bm.adjoint().compose(k_bb).compose(g_bm)
    if which == "k212":
        return g_bb.adjoint().compose(k_bm).compose(g_bb)
    raise InvalidParam(f"unknown composite {which!r}; expected 'k121' or 'k212'")


def composite_kernel_value(grid: Grid, which: str, s: float, t: float) -> float:
    """Pointwise value of a composite kernel at arbitrary (s, t) in [0, 1]^2.

    Same midpoint product-grid quadrature as :func:`mercer_composite`, but
    the outer arguments need not be grid points, so boundary values like
    (0, 0) and (1, 1) can be checked directly.
    """
    u = grid.points
    h = grid.weight
    if which == "k121":
        phi_s = (u >= s).astype(float)
        phi_t = (u >= t).astype(float)
        mid = _bb_kernel(u[:, None], u[None, :])
    elif which == "k212":
        phi_s = (u >= s).astype(float) - u
        phi_t = (u >= t).astype(float) - u
        mid = _bm_kernel(u[:, None], u[None, :])
    else:
        raise InvalidParam(f"unknown composite {which!r}; expected 'k121' or 'k212'")
    return float(h * h * phi_s @ mid @ phi_t)
