"""Decomposition counts per public operation, and results that do not depend
on what bwt's decomposition cache holds.

The counts wrap ``numpy.linalg.eigh``, ``eigvalsh`` and ``svd``, which bwt
looks up at call time.  Every operation runs on freshly built covariances
(their construction is not counted), so a count is what one call costs when
no earlier call has decomposed its inputs.  The bounds are upper bounds:
a change may lower them, never raise them.
"""

import gc
import itertools
import sys
import threading
import weakref

import numpy as np
import pytest

from bwt import (
    BarycenterProblem,
    BwtError,
    CovMatrix,
    NoSpdMap,
    canonical_spd_map,
    classify_point,
    frechet_variance,
    make_path,
    numeric_rank,
    ot_map,
    psd_function,
    schur_complement,
    solve_bcd,
    spd_reachability,
    spectral_decompose,
    trace_fidelity,
    w2_distance,
)

from bwt import barycenter, linalg
from conftest import rand_psd

README_A = np.diag([4.0, 1.0, 0.0])
README_B = np.array([[0.0, 0.0, 0.0], [0.0, 4.0, 2.0], [0.0, 2.0, 1.0]])


def _n30_pair():
    rng = np.random.default_rng(30)
    return rand_psd(rng, 30, 20).data, rand_psd(rng, 30, 12).data


def _full_rank_source_pair():
    rng = np.random.default_rng(31)
    return rand_psd(rng, 30, 30).data, rand_psd(rng, 30, 12).data


def _schur_rank_four_pair():
    # b's range holds four directions of null(a): the Schur complement has
    # rank 4, so the maps and paths need the partial isometry u12
    rng = np.random.default_rng(32)
    q = np.linalg.qr(rng.standard_normal((30, 30)))[0]
    a = (q[:, :20] * rng.uniform(0.5, 2.5, 20)) @ q[:, :20].T
    f = np.hstack([rng.standard_normal((30, 8)) / 30, q[:, 20:24]])
    return (a + a.T) / 2, f @ f.T


PAIRS = {"readme": lambda: (README_A, README_B), "n30": _n30_pair,
         "full": _full_rank_source_pair, "schur4": _schur_rank_four_pair}


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

#: Decompositions per call on fresh inputs, in the order of ``PAIRS``.
#: Before the shared spectra and pair contexts the README and n = 30 counts
#: were 4/4, 40/40, 13/13, 20/20, 16/16, 22/22, 8/8 and 104/105; before the
#: rank-sized pair layer they were 2/2, 12/12, 6/6, 6/6, 4/4, 9/9, 5/5 and
#: 19/19.  Before criterion 1's PSD test took a Cholesky factor instead of
#: an eigvalsh, spd_reachability made 11/11/6/9 and a session 18/18/9/17.
BOUNDS = {
    "w2_distance": (2, 2, 2, 2),
    "spd_reachability": (10, 10, 5, 9),
    "ot_map": (5, 5, 3, 5),
    "canonical_spd_map": (5, 5, 3, 3),
    "make_path": (3, 3, 2, 3),
    "classify_point": (9, 9, 5, 9),
    "schur_complement": (5, 5, 0, 5),
    "session": (17, 17, 8, 17),
}


def _fresh(pair):
    """New covariances for a pair, and a geodesic point built from copies."""
    x, y = PAIRS[pair]()
    gamma = make_path(CovMatrix(x), CovMatrix(y)).gamma(0.5)
    return CovMatrix(x), CovMatrix(y), gamma


@pytest.fixture
def count_decomps(monkeypatch):
    calls, shapes, inputs, options = [], [], [], []
    for name in ("eigh", "eigvalsh", "svd"):
        orig = getattr(np.linalg, name)

        def counted(m, *args, _orig=orig, _name=name, **kwargs):
            calls.append(_name)
            shapes.append(np.shape(m))
            inputs.append(m)
            options.append(kwargs)
            return _orig(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)

    def run(fn, *args):
        del calls[:], shapes[:], inputs[:], options[:]
        fn(*args)
        return len(calls)

    run.calls = calls  # the names of the last run's decompositions
    run.shapes = shapes  # and the shapes of what they decomposed
    run.inputs = inputs  # and the arrays themselves
    run.options = options  # and the keyword arguments they were given
    return run


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_decomposition_count_bounds(count_decomps, pair, op):
    bound = BOUNDS[op][list(PAIRS).index(pair)]

    def call(*args):
        try:
            OPS[op](*args)
        except NoSpdMap:  # a refusal is bounded by what it decomposed
            assert op == "canonical_spd_map" and pair == "schur4"

    assert count_decomps(call, *_fresh(pair)) <= bound


@pytest.mark.parametrize("op", ["schur_complement", "w2_distance"])
def test_pair_work_is_rank_sized(count_decomps, op):
    # past the cached spectra of a (rank 20) and b (rank 12), the n = 30
    # pair decomposes only blocks and cross Grams of the ranks
    a, b, gamma = _fresh("n30")
    spectral_decompose(a), spectral_decompose(b)
    assert count_decomps(OPS[op], a, b, gamma) > 0
    assert max(max(s) for s in count_decomps.shapes) <= 20


def test_full_rank_base_decomposes_nothing_for_the_complement(count_decomps):
    a, b, _ = _fresh("full")
    spectral_decompose(a), spectral_decompose(b)
    assert count_decomps(schur_complement, a, b) == 0


@pytest.mark.parametrize("pair", ["n30", "full"])
def test_one_eigh_per_covariance(count_decomps, monkeypatch, pair):
    # every covariance a session meets, its inputs and the points it builds,
    # is decomposed by at most one n x n eigh, whose result all its
    # consumers share
    a, b, gamma = _fresh(pair)
    covs = [a, b]
    post_init = CovMatrix.__post_init__

    def recorded(self):
        post_init(self)
        covs.append(self)

    monkeypatch.setattr(CovMatrix, "__post_init__", recorded)
    count_decomps(_session, a, b, gamma)
    decomposed = [m for name, m in zip(count_decomps.calls, count_decomps.inputs)
                  if name == "eigh" and any(m is c.data for c in covs)]
    assert len(decomposed) == len({id(m) for m in decomposed})
    assert any(m is a.data for m in decomposed) and any(m is b.data for m in decomposed)


def test_spectral_decompose_is_shared_and_read_only():
    a, _, _ = _fresh("n30")
    dec = spectral_decompose(a)
    assert spectral_decompose(a) is dec
    for arr in (dec.eigvals, dec.eigvecs):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("pair", ["n30", "full"])
def test_twelve_cache_entries_hold_a_session(count_decomps, monkeypatch, pair):
    # unbounded caches save nothing more: a session's three spectra fit in
    # the spectra's table, and its splits, contexts and results (eight
    # entries) in the pair table
    bounded = count_decomps(_session, *_fresh(pair)), list(count_decomps.calls)
    monkeypatch.setattr(linalg, "_MEMO_SIZE", 10**6)
    assert (count_decomps(_session, *_fresh(pair)), count_decomps.calls) == bounded


@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_construction_makes_one_eigvalsh(count_decomps, pair):
    for x in PAIRS[pair]():
        assert count_decomps(CovMatrix, x) == 1
        assert count_decomps.calls == ["eigvalsh"]


def test_barycenter_ascent_makes_one_svd_per_update(count_decomps, monkeypatch):
    # each update, and each member's projection in an Anderson step, is one
    # n x r SVD on the member's cached spectrum: no per-update eigh or n x n
    # root, and no second SVD
    rng = np.random.default_rng(12)
    prob = BarycenterProblem(tuple(rand_psd(rng, 20, 8) for _ in range(5)), (0.2,) * 5)
    shapes, counted_svd = [], np.linalg.svd
    attempts, step = [], barycenter._anderson_step

    def svd(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return counted_svd(m, *args, **kwargs)

    def spy(*args):
        attempts.append(args)
        return step(*args)

    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(barycenter, "_anderson_step", spy)
    results = []
    count_decomps(lambda: results.append(solve_bcd(prob)))
    res = results[0]
    assert res.iterations > 1
    assert attempts  # this family contracts slowly enough to try steps
    assert count_decomps.calls.count("svd") == prob.size * (res.iterations + len(attempts))
    assert set(shapes) == {(20, 8)}
    # the members' spectra and that of a_hat, all outside the sweeps
    assert count_decomps.calls.count("eigh") <= prob.size + 1


def _family_decomposed(count_decomps, k: int) -> list:
    """What one ``solve_bcd`` on a fresh seeded family of ``k`` members
    passes to ``eigh``: member i's data as i, a_hat's as k and anything else
    as -1.  Its Frechet variance is that of the public function."""
    rng = np.random.default_rng(13)
    prob = BarycenterProblem(tuple(rand_psd(rng, 10, 4) for _ in range(k)), (1.0 / k,) * k)
    results = []
    count_decomps(lambda: results.append(solve_bcd(prob)))
    res = results[0]
    named = {id(c.data): i for i, c in enumerate(prob.covs)}
    named[id(res.a_hat.data)] = k
    decomposed = [named.get(id(m), -1) for name, m
                  in zip(count_decomps.calls, count_decomps.inputs) if name == "eigh"]
    assert res.iterations > 2
    assert (np.float64(res.frechet_variance).tobytes()
            == np.float64(frechet_variance(prob, res.a_hat)).tobytes())
    return decomposed


def _each_spectrum_once(decomposed, k: int) -> bool:
    """Each member's data decomposed exactly once, a_hat's at most once (a
    fidelity decomposes the byte-wise lower of its pair, so a_hat is not
    decomposed when every member sorts below it), and nothing else."""
    return sorted(decomposed) in (list(range(k)), list(range(k + 1)))


def test_family_larger_than_the_cache_reads_each_spectrum_once(count_decomps):
    # with more members than the spectra's cache holds, a spectrum looked
    # up per update would be decomposed again on every update, and one
    # looked up for the Frechet variance after the sweeps again there
    k = linalg._MEMO_SIZE + 2
    # the members' spectra before the sweeps, a_hat's after them: the
    # Frechet variance reads the members' thin factors the sweeps used
    assert _each_spectrum_once(_family_decomposed(count_decomps, k), k)


@pytest.mark.parametrize("k", [linalg._MEMO_SIZE - 2, linalg._MEMO_SIZE - 1])
def test_family_within_the_cache_decomposes_each_spectrum_once(count_decomps, k):
    # the members' spectra before the sweeps and a_hat's after them: pair
    # entries evict no spectrum, so while a_hat and the members fit in the
    # spectra's cache the Frechet variance decomposes nothing more
    assert _each_spectrum_once(_family_decomposed(count_decomps, k), k)


def test_slowest_small_singular_family_svd_bound(count_decomps):
    # every sweep and every Anderson step costs one SVD per member; over 40
    # seeded rank-8 families of five 20 x 20 members the slowest took 180
    # SVDs when a step extrapolated from three sweeps, 140 from six
    worst = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        prob = BarycenterProblem(tuple(rand_psd(rng, 20, 8) for _ in range(5)), (0.2,) * 5)
        count_decomps(solve_bcd, prob)
        worst = max(worst, count_decomps.calls.count("svd"))
    assert worst <= 140


def test_full_rank_families_svd_total(count_decomps):
    # full-rank families take no Anderson step, so every SVD is a sweep's;
    # over 20 seeded families of five 20 x 20 members the staggered spectral
    # start took 700 SVDs, the members' square roots 500
    total = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        prob = BarycenterProblem(tuple(rand_psd(rng, 20) for _ in range(5)), (0.2,) * 5)
        count_decomps(solve_bcd, prob)
        total += count_decomps.calls.count("svd")
    assert total <= 500


def test_pool_sessions_decompose_each_covariance_once(count_decomps):
    # every ordered-pair session over a pool of eight covariances: the pair
    # entries each session caches do not push the pool's spectra out
    rng = np.random.default_rng(16)
    pool = [rand_psd(rng, 20, r) for r in (20, 14, 20, 8, 17, 20, 11, 5)]

    def sessions():
        for a, b in itertools.permutations(pool, 2):
            style = "extreme" if numeric_rank(a) >= numeric_rank(b) else "zero"
            for fn in (w2_distance, spd_reachability, schur_complement,
                       lambda a, b: make_path(a, b, style).gamma(0.5)):
                try:
                    fn(a, b)
                except BwtError:
                    pass

    count_decomps(sessions)
    decomposed = [i for name, m in zip(count_decomps.calls, count_decomps.inputs)
                  if name == "eigh" for i, c in enumerate(pool) if m is c.data]
    assert sorted(decomposed) == list(range(len(pool)))


def test_pair_with_no_spd_map_makes_no_square_eigvalsh(count_decomps):
    # criterion 1 measures its candidate's residual in a's eigenbasis; a
    # candidate that fails there is neither assembled nor decomposed
    rng = np.random.default_rng(32)
    a, b = rand_psd(rng, 30, 20), rand_psd(rng, 30, 25)
    reports = []
    count_decomps(lambda: reports.append(spd_reachability(a, b)))
    assert not reports[0].spd_exists
    assert ("eigvalsh", (30, 30)) not in zip(count_decomps.calls, count_decomps.shapes)


def test_lower_rank_source_settles_criteria_four_and_five_by_ranks(count_decomps):
    # the n = 30 pair reversed, rank 12 -> rank 20: rank(b a) <= rank(a) <
    # rank(b) and range(b) meets null(a), so neither criterion takes a
    # singular-value spectrum; 7 decompositions where both took 9
    b, a = map(CovMatrix, PAIRS["n30"]())
    reports = []
    assert count_decomps(lambda: reports.append(spd_reachability(a, b))) <= 7
    assert not reports[0].spd_exists
    assert all(opts.get("compute_uv", True) for name, opts
               in zip(count_decomps.calls, count_decomps.options) if name == "svd")


def test_spectra_cache_is_bounded():
    # the spectra are the cache's, not the covariances': forty live
    # covariances keep at most the last _MEMO_SIZE eigenbases alive
    rng = np.random.default_rng(17)
    covs = [rand_psd(rng, 10, 6) for _ in range(40)]
    refs = [weakref.ref(spectral_decompose(c)) for c in covs]
    gc.collect()
    assert sum(r() is not None for r in refs) <= linalg._MEMO_SIZE


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
