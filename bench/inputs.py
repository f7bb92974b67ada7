"""Seeded inputs for the three workloads.

bwt receives only the generated matrices.  Each input also carries a factor
``f`` with ``f @ f.T`` equal to its covariance in exact arithmetic, which the
benchmark's Procrustes reference uses, a ``full`` flag known by
construction, which sorts operations into the full-rank and singular groups
without asking the code under test, and a ``seeded`` flag, true when the
input is drawn from the seed rather than fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Dimension of the ``pairs`` pool and size of its process grid.
PAIRS_N = 200
#: Dimension, family size and singular rank of the ``barycenter`` families.
BARY_N, BARY_K, BARY_RANK = 60, 6, 30
#: Singular families per ``barycenter`` pass; each pass also runs twice as
#: many full-rank ones.
BARY_SINGULAR = 36
BARY_FULLRANK = 2 * BARY_SINGULAR
#: Dimension of the large ``cli`` fixture pair.
CLI_N = 100

README_A = np.diag([4.0, 1.0, 0.0])
README_B = np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 2.0], [0.0, 2.0, 1.0]])


@dataclass
class Input:
    #: What the input is, not which draw: both random copies of a rank share
    #: a name, so operation labels built from names do not depend on the seed.
    name: str
    cov: object  # bwt.CovMatrix
    f: np.ndarray
    full: bool
    seeded: bool = True


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 64), *stream])


def random_factor(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """An n x rank Gaussian factor scaled so the covariance has trace ~1."""
    return rng.standard_normal((n, rank)) / np.sqrt(n * rank)


def pairs_pool(seed: int) -> list[Input]:
    """Random covariances of rank n, 2n/3 and n/3 (two each), then Brownian
    motion, Brownian bridge and order-2 and order-3 integrated Brownian
    motion on the m = n midpoint grid."""
    from bwt import CovMatrix, Grid, classic_kernels, volterra_green

    n = PAIRS_N
    rng = _rng(seed, 1)
    pool = []
    for rank in (n, 2 * n // 3, n // 3):
        for _copy in range(2):
            f = random_factor(rng, n, rank)
            pool.append(Input(f"rand{rank}", CovMatrix(f @ f.T), f, rank == n))
    grid = Grid(n)
    for which in ("bm", "bb"):
        cov, _ = classic_kernels(which, grid)
        c = CovMatrix(cov.mat)
        pool.append(Input(which, c, np.linalg.cholesky(c.data), True, seeded=False))
    for order in (2, 3):
        g = volterra_green(order, grid).mat
        pool.append(Input(f"ibm{order}", CovMatrix(g @ g.T), g, False, seeded=False))
    return pool


def pair_order(size: int) -> list[tuple[int, int]]:
    """All ordered pairs of distinct pool members, by diagonal: every block
    of ``size`` consecutive pairs uses each member once as source and once
    as target, so a run cut short still sees a balanced mix."""
    return [(i, (i + d) % size) for d in range(1, size) for i in range(size)]


@dataclass
class Family:
    kind: str  # "fullrank" or "singular"
    problem: object  # bwt.BarycenterProblem


def barycenter_families(seed: int) -> list[Family]:
    """``BARY_FULLRANK`` full-rank families, then ``BARY_SINGULAR`` singular
    ones of rank ``BARY_RANK``."""
    from bwt import BarycenterProblem, CovMatrix

    n, k = BARY_N, BARY_K
    fams = []
    for i in range(BARY_FULLRANK + BARY_SINGULAR):
        kind = "fullrank" if i < BARY_FULLRANK else "singular"
        rank = n if kind == "fullrank" else BARY_RANK
        rng = _rng(seed, 2, i)
        factors = (rng.standard_normal((n, rank)) / np.sqrt(rank) for _ in range(k))
        covs = tuple(CovMatrix(f @ f.T) for f in factors)
        fams.append(Family(kind, BarycenterProblem(covs, (1.0 / k,) * k)))
    return fams


def barycenter_order() -> list[int]:
    """Family indices in the repeating kind order full, full, singular.

    Two full-rank families per singular one keep the overall median inside
    the tight full-rank cluster (7-8 sweeps) instead of between the two
    kinds; singular families take 77-224 sweeps depending on the seed.
    """
    order = []
    for j in range(BARY_SINGULAR):
        order += [2 * j, 2 * j + 1, BARY_FULLRANK + j]
    return order


def cli_fixtures(seed: int) -> dict[str, tuple[Input, Input]]:
    """The README 3x3 pair and a seeded full-rank n = 100 pair."""
    from bwt import CovMatrix

    rng = _rng(seed, 3)
    fa, fb = (random_factor(rng, CLI_N, CLI_N) for _ in range(2))
    small_a = Input("readme_a", CovMatrix(README_A), np.sqrt(README_A), False, seeded=False)
    small_b = Input("readme_b", CovMatrix(README_B),
                    np.array([[0.0], [2.0], [1.0]]), False, seeded=False)
    return {
        "small": (small_a, small_b),
        "large": (Input("large_a", CovMatrix(fa @ fa.T), fa, True),
                  Input("large_b", CovMatrix(fb @ fb.T), fb, True)),
    }
