"""Shared helpers: seeded random PSD matrices with exact rank control."""

import shutil
import tempfile

import numpy as np
from hypothesis.configuration import set_hypothesis_home_dir

from bwt import CovMatrix


def pytest_configure(config):
    """Hypothesis caches what it reads of the sources in its home directory,
    from collection on: keep that in a temporary directory, removed at the
    end of the run, rather than in the checkout."""
    home = tempfile.mkdtemp(prefix="bwt-hypothesis-")
    config.add_cleanup(lambda: shutil.rmtree(home, ignore_errors=True))
    set_hypothesis_home_dir(home)


def rand_psd(rng, n, rank=None, tol_rel=None):
    """A random PSD matrix with the given rank and spectrum in [0.5, 2.5].

    The zero eigenvalues are exact (up to the orthogonal-conjugation
    roundoff), so the numeric rank is unambiguous at default tolerance.
    """
    if rank is None:
        rank = n
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(0.5, 2.5, size=rank)
    m = (q * vals) @ q.T
    m = (m + m.T) / 2.0
    if tol_rel is None:
        return CovMatrix(m)
    return CovMatrix(m, tol_rel=tol_rel)


def rand_rank(rng, n):
    """A rank in [1, n], full rank half the time."""
    if rng.uniform() < 0.5:
        return n
    return int(rng.integers(1, n + 1))


def rand_reachable_pair(rng, n):
    """A pair (a, b) with rank(a) >= rank(b), both possibly singular."""
    ra = int(rng.integers(1, n + 1))
    rb = int(rng.integers(1, ra + 1))
    return rand_psd(rng, n, ra), rand_psd(rng, n, rb)
