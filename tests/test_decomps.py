"""Decomposition counts per public operation, and results that do not depend
on what bwt's decomposition cache holds.

The counts wrap ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd``, which bwt
looks up at call time.  Every operation runs on freshly built covariances
(their construction is not counted), so a count is what one call costs when
no earlier call has decomposed its inputs.  The bounds are upper bounds:
a change may lower them, never raise them.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from bwt import (
    BwtError,
    CovMatrix,
    canonical_spd_map,
    classify_point,
    make_path,
    ot_map,
    psd_function,
    schur_complement,
    spd_reachability,
    spectral_decompose,
    trace_fidelity,
    w2_distance,
)

from conftest import rand_psd

README_A = np.diag([4.0, 1.0, 0.0])
README_B = np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 2.0], [0.0, 2.0, 1.0]])


def _n30_pair():
    rng = np.random.default_rng(30)
    return rand_psd(rng, 30, 20).data, rand_psd(rng, 30, 12).data


PAIRS = {"readme": lambda: (README_A, README_B), "n30": _n30_pair}


def _session(a, b, gamma):
    """The public calls of one benchmark ``pairs`` session on (a, b)."""
    out = [w2_distance(a, b), spd_reachability(a, b), ot_map(a, b)]
    path = make_path(a, b)
    point = path.gamma(0.5)
    out += [path, point, classify_point(a, b, point, 0.5), schur_complement(a, b)]
    return out


OPS = {
    "w2_distance": lambda a, b, g: w2_distance(a, b),
    "spd_reachability": lambda a, b, g: spd_reachability(a, b),
    "ot_map": lambda a, b, g: ot_map(a, b),
    "canonical_spd_map": lambda a, b, g: canonical_spd_map(a, b),
    "make_path": lambda a, b, g: make_path(a, b),
    "classify_point": lambda a, b, g: classify_point(a, b, g, 0.5),
    "schur_complement": lambda a, b, g: schur_complement(a, b),
    "session": _session,
}

#: Decompositions per call on fresh inputs, (README pair, n = 30 pair).
#: Before the shared spectra and pair contexts these were 4/4, 40/40,
#: 13/13, 20/20, 16/16, 22/22, 8/8 and 104/105.
BOUNDS = {
    "w2_distance": (2, 4),
    "spd_reachability": (12, 14),
    "ot_map": (6, 8),
    "canonical_spd_map": (6, 8),
    "make_path": (4, 6),
    "classify_point": (9, 12),
    "schur_complement": (5, 7),
    "session": (19, 23),
}


def _fresh(pair):
    """New covariances for a pair, and a geodesic point built from copies."""
    x, y = PAIRS[pair]()
    gamma = make_path(CovMatrix(x), CovMatrix(y)).gamma(0.5)
    return CovMatrix(x), CovMatrix(y), gamma


@pytest.fixture
def count_decomps(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh", "svd"):
        orig = getattr(np.linalg, name)

        def counted(*args, _orig=orig, **kwargs):
            calls.append(1)
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def run(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    return run


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_decomposition_count_bounds(count_decomps, pair, op):
    bound = BOUNDS[op][0 if pair == "readme" else 1]
    assert count_decomps(OPS[op], *_fresh(pair)) <= bound


def _blob(x) -> bytes:
    """Every number a result carries, as bytes (floats bit for bit)."""
    if isinstance(x, np.ndarray):
        return x.dtype.str.encode() + str(x.shape).encode() + np.ascontiguousarray(x).tobytes()
    if isinstance(x, CovMatrix):
        return _blob(x.data)
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(_blob(v) for v in x) + b"]"
    if hasattr(x, "__dataclass_fields__"):
        return b"{" + b",".join(_blob(getattr(x, k)) for k in x.__dataclass_fields__) + b"}"
    if hasattr(x, "param"):  # GeodesicPath
        return _blob([x.param, x.g, x.m])
    if isinstance(x, float):
        return np.float64(x).tobytes()
    return repr(x).encode()


def _run(ops, a, b, gamma):
    out = {}
    for name in ops:
        try:
            out[name] = _blob(OPS[name](a, b, gamma))
        except BwtError as exc:
            out[name] = f"{type(exc).__name__}: {exc}".encode()
    return out


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_results_do_not_depend_on_cache_state(pair):
    names = sorted(OPS)
    fresh = {name: _run([name], *_fresh(pair))[name] for name in names}
    inputs = _fresh(pair)
    _run(names, *inputs)
    warmed = _run(names, *inputs)
    reversed_order = _run(names[::-1], *_fresh(pair))
    assert warmed == fresh
    assert reversed_order == fresh


def test_dropped_covariance_is_freed_and_never_served_stale():
    rng = np.random.default_rng(7)
    b = rand_psd(rng, 6, 4)
    for _ in range(20):
        a = rand_psd(rng, 6, 5)
        w2_distance(a, b), spd_reachability(a, b), schur_complement(a, b), psd_function(a, "sqrt")
        ref = weakref.ref(a)
        del a
        gc.collect()
        assert ref() is None
        # a new covariance, often at the dropped one's address; what bwt
        # reports for it must come from its own spectrum
        c = rand_psd(rng, 6, 3)
        w, u = np.linalg.eigh(c.data)
        dec = spectral_decompose(c)
        assert dec.eigvals.tobytes() == w[::-1].tobytes()
        assert dec.rank == 3
        root = psd_function(c, "sqrt")
        assert np.abs(root @ root - c.data).max() <= 1e-12
        x = root @ b.data @ root
        assert trace_fidelity(c, b) == pytest.approx(
            np.sqrt(np.clip(np.linalg.eigvalsh((x + x.T) / 2), 0.0, None)).sum(), abs=1e-7)


def test_shared_cache_under_threads():
    rng = np.random.default_rng(11)
    covs = [rand_psd(rng, 6, r) for r in (6, 4, 6, 2)]
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]

    def results(a, b):
        out = []
        for fn in (w2_distance, spd_reachability, schur_complement):
            try:
                out.append(_blob(fn(a, b)))
            except BwtError as exc:
                out.append(repr(exc).encode())
        return out

    expected = {(i, j): results(covs[i], covs[j]) for i, j in pairs}
    errors = []

    def worker(seed):
        order = np.random.default_rng(seed).permutation(len(pairs))
        try:
            for _ in range(3):
                for k in order:
                    i, j = pairs[k]
                    if results(covs[i], covs[j]) != expected[i, j]:
                        errors.append((i, j))
                    # a short-lived copy of the full-rank covs[0]: same
                    # data, new identity, dropped at once
                    if j and results(CovMatrix(covs[0].data), covs[j]) != expected[0, j]:
                        errors.append((0, j))
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []


def test_cov_matrix_data_is_read_only():
    src = np.eye(3)
    c = CovMatrix(src)
    with pytest.raises(ValueError):
        c.data[0, 0] = 1.0
    src[0, 0] = 5.0  # the caller's array stays the caller's
    assert c.data[0, 0] == 1.0
