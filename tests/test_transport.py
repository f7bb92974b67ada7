"""Transport maps, reachability reports, couplings, and the dual potential."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwt import (
    INFINITE,
    CovMatrix,
    Grid,
    InvalidInput,
    InvalidParam,
    NoSpdMap,
    NotInvertible,
    NumericalInconsistency,
    Unreachable,
    canonical_spd_map,
    dual_conjugate,
    green_factor,
    is_reachable,
    make_param,
    numeric_rank,
    optimal_coupling,
    ot_map,
    pusz_woronowicz,
    raw_param,
    spd_reachability,
    trace_fidelity,
    volterra_green,
    w2_distance,
)
from bwt.linalg import _live_eigs, _rank, _tol_bound
from bwt import transport
from bwt.transport import (
    DEFAULT_TOL_MAP,
    INTERSECT_TOL,
    _core,
    _criterion_one,
    _psd_within,
    _spd_map,
)
from conftest import rand_psd, rand_reachable_pair, schur_rank_four_pair

A3 = CovMatrix(np.diag([4.0, 1.0, 0.0]))
B3 = CovMatrix(np.array([[0, 0, 0], [0, 4, 2], [0, 2, 1]], dtype=float))
C3 = CovMatrix(np.diag([0.0, 0.0, 1.0]))
S_AB = np.array([[0, 0, 0], [0, 2, 1], [0, 1, 0.5]])

A2 = CovMatrix(np.diag([1.0, 0.0]))
B2 = CovMatrix(np.diag([0.0, 1.0]))


def spd_pair(rng, n, rank=None):
    """(a, b) with b = w a w.T for invertible w: always SPD-reachable."""
    a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)) if rank is None else rank)
    w = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return a, CovMatrix((lambda m: (m + m.T) / 2)(w @ a.data @ w.T))


def test_canonical_spd_map_golden_example():
    m = canonical_spd_map(A3, B3)
    assert np.abs(m.t - S_AB).max() <= 1e-12
    assert np.abs(m.t - m.t.T).max() == 0.0
    assert np.linalg.eigvalsh(m.t)[0] >= -1e-12
    assert m.residual_transport <= 1e-12
    assert m.residual_optimality <= 1e-12


def test_canonical_spd_map_is_the_witness_and_symmetric_to_rounding():
    # one construction: the witness of spd_reachability and canonical_spd_map
    # are the same map, byte for byte, with t22 built symmetric, so the only
    # asymmetry left is the rounding of carrying it to ambient coordinates
    eps = np.finfo(float).eps
    rng = np.random.default_rng(30)
    maps = []
    for _ in range(4):
        a, b = spd_pair(rng, 30, rank=20)
        witness, m = spd_reachability(a, b).witness, canonical_spd_map(a, b)
        for field in ("t", "t11", "t21", "u12"):
            assert getattr(witness, field).tobytes() == getattr(m, field).tobytes()
        maps.append(witness.t)
    # a rank-40 source against the ill-conditioned order-3 integrated
    # Brownian motion covariance: canonical_spd_map returns although
    # spd_reachability finds its criteria split
    g = volterra_green(3, Grid(60)).mat
    ibm3 = CovMatrix(g @ g.T)
    for _ in range(2):
        maps.append(canonical_spd_map(rand_psd(rng, 60, 40), ibm3).t)
    for t in maps:
        assert np.linalg.norm(t - t.T) <= 8 * t.shape[0] * eps * np.linalg.norm(t)


def test_canonical_spd_map_is_psd_against_an_ill_conditioned_target():
    # rank-40 sources against the order-3 integrated Brownian motion
    # covariance, whose spectrum decays past the rank cut: the map is a
    # weighted Gram product, so it is PSD up to rounding
    g = volterra_green(3, Grid(60)).mat
    ibm3 = CovMatrix(g @ g.T)
    for seed in range(5):
        t = canonical_spd_map(rand_psd(np.random.default_rng(seed), 60, 40), ibm3).t
        assert np.linalg.eigvalsh((t + t.T) / 2)[0] >= -_tol_bound(DEFAULT_TOL_MAP, t)


def test_canonical_spd_map_with_a_schur_complement_under_the_norm_bound():
    # The Schur complement diag(1e-9) passes the norm test of
    # canonical_spd_map but has rank 1 at the spectral cut.  The map is the
    # witness construction, symmetric with a zero u12, which misses b's 1e-9
    # entry; spd_reachability sees its criteria split and says so.
    a = CovMatrix(np.diag([1.0, 1.0, 0.0]))
    b = CovMatrix(np.diag([1.0, 0.0, 1e-9]))
    m = canonical_spd_map(a, b)
    assert np.array_equal(m.t, np.diag([1.0, 0.0, 0.0]))
    assert not m.u12.any()
    assert m.residual_transport == pytest.approx(1e-9, rel=1e-12)
    with pytest.raises(NumericalInconsistency, match="criteria disagree"):
        spd_reachability(a, b)


def test_w2_known_values():
    assert w2_distance(A3, B3) ** 2 == pytest.approx(6.0, abs=1e-12)
    assert w2_distance(A3, A3) == 0.0
    assert w2_distance(A2, B2) ** 2 == pytest.approx(2.0, abs=1e-14)
    # commuting case: sum of (sqrt(a_i) - sqrt(b_i))^2
    p = CovMatrix(np.diag([4.0, 9.0]))
    q = CovMatrix(np.diag([1.0, 25.0]))
    assert w2_distance(p, q) ** 2 == pytest.approx(1.0 + 4.0, abs=1e-12)


def test_w2_symmetry_is_exact():
    rng = np.random.default_rng(20)
    for n in (2, 3, 5, 7):
        for _ in range(8):
            a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            assert w2_distance(a, b) == w2_distance(b, a)


def test_w2_triangle_inequality():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(2, 7))
        a, b, c = (rand_psd(rng, n, rank=int(rng.integers(1, n + 1))) for _ in range(3))
        assert w2_distance(a, c) <= w2_distance(a, b) + w2_distance(b, c) + 1e-9


def test_pusz_woronowicz_on_definite_source():
    rng = np.random.default_rng(22)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a = rand_psd(rng, n)
        b = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        m = pusz_woronowicz(a, b)
        assert np.abs(m.t - m.t.T).max() == 0.0
        assert np.linalg.eigvalsh(m.t)[0] >= -1e-10
        assert np.linalg.norm(m.t @ a.data @ m.t - b.data) <= 1e-8 * (1 + np.linalg.norm(b.data))
        # agrees with the block-coordinate construction when both apply
        m2 = canonical_spd_map(a, b)
        assert np.abs(m.t - m2.t).max() <= 1e-8
    a = rand_psd(rng, 4)
    assert np.abs(pusz_woronowicz(a, a).t - np.eye(4)).max() <= 1e-10


def test_pusz_woronowicz_rejects_singular_source():
    with pytest.raises(NotInvertible):
        pusz_woronowicz(A3, B3)


def test_reachability_is_rank_comparison():
    assert is_reachable(A3, B3)
    assert is_reachable(A3, C3)
    assert not is_reachable(C3, A3)
    assert is_reachable(C3, C3)
    with pytest.raises(Unreachable):
        ot_map(C3, A3)


def test_ot_map_deterministic_example():
    m = ot_map(A3, C3)
    want = np.array([[0, 0, 0.5], [0, 0, 0], [0.5, 0, 0]])
    assert np.abs(m.t - want).max() <= 1e-12
    assert m.free_blocks == "symmetric_zero"
    assert m.u12.shape == (2, 1)
    assert m.t21.shape == (1, 2)
    assert m.residual_transport <= 1e-12


def test_ot_map_negated_flips_the_rank_block():
    m0 = ot_map(A3, C3)
    m1 = ot_map(A3, C3, u12_policy="negated")
    assert np.abs(m1.t + m0.t).max() <= 1e-12  # here t is odd in u12
    assert np.abs(m1.u12 + m0.u12).max() == 0.0
    # both are genuine transport maps
    assert m1.residual_transport <= 1e-12


def test_ot_map_supplied_accepts_valid_and_rejects_invalid():
    det = ot_map(A3, C3)
    again = ot_map(A3, C3, u12_policy="supplied", u12=det.u12)
    assert np.abs(again.t - det.t).max() == 0.0

    # any unit 2-vector is admissible for this pair (b11 = 0, schur rank 1)
    tilt = np.array([[0.6], [0.8]])
    m = ot_map(A3, C3, u12_policy="supplied", u12=tilt)
    assert m.residual_transport <= 1e-12
    assert np.abs(m.t[2, 0] - 2 * 0.6 * 0.25) <= 1e-12  # t21 = u12.T g11^{-1}... scaled rows

    with pytest.raises(InvalidParam):
        ot_map(A3, C3, u12_policy="supplied")  # missing matrix
    with pytest.raises(InvalidParam):
        ot_map(A3, C3, u12_policy="supplied", u12=np.zeros((3, 1)))  # bad shape
    with pytest.raises(InvalidParam):
        # not a partial isometry onto range of the complement
        ot_map(A3, C3, u12_policy="supplied", u12=np.array([[0.5], [0.0]]))
    with pytest.raises(InvalidParam):
        # complement vanishes for (A3, B3): only the zero block is admissible
        ot_map(A3, B3, u12_policy="supplied", u12=np.array([[1.0], [0.0]]))
    with pytest.raises(InvalidParam):
        ot_map(A3, B3, u12_policy="bogus")
    with pytest.raises(InvalidParam):
        ot_map(A3, B3, free_policy="bogus")


def test_blocks_outside_the_null_space_are_refused():
    # b11^(1/2) g11 = diag(2, 0) for this pair, so the range of [1, 0].T is
    # not inside its null space, whether supplied as n12 or as u12
    a, b = CovMatrix(np.diag([4.0, 1.0, 0.0])), CovMatrix(np.diag([1.0, 0.0, 1.0]))
    blk = np.array([[1.0], [0.0]])
    with pytest.raises(InvalidParam, match="not inside null"):
        raw_param(a, b, blk)
    with pytest.raises(InvalidParam, match="not inside null"):
        ot_map(a, b, u12_policy="supplied", u12=blk)


def test_ot_map_spd_canonical_policy():
    rng = np.random.default_rng(23)
    for _ in range(8):
        a, b = spd_pair(rng, int(rng.integers(2, 6)))
        via_policy = ot_map(a, b, free_policy="spd_canonical")
        dedicated = canonical_spd_map(a, b)
        assert np.abs(via_policy.t - dedicated.t).max() <= 1e-12
        assert np.abs(via_policy.t - via_policy.t.T).max() <= 1e-12
        assert np.linalg.eigvalsh(via_policy.t)[0] >= -1e-9
    with pytest.raises(NoSpdMap):
        ot_map(A3, C3, free_policy="spd_canonical")
    with pytest.raises(NoSpdMap):
        canonical_spd_map(A3, C3)


def test_canonical_spd_map_reports_no_spd_map_before_unreachable():
    # rank(a) < rank(b) and a nonzero Schur complement: NoSpdMap, exit 4
    with pytest.raises(NoSpdMap):
        canonical_spd_map(CovMatrix(np.diag([1.0, 0.0, 0.0])), CovMatrix(np.eye(3)))


def test_ot_map_to_self_is_the_range_projector():
    rng = np.random.default_rng(24)
    a = rand_psd(rng, 5, rank=3)
    m = ot_map(a, a)
    proj = green_factor(a).padded()
    proj = proj @ np.linalg.pinv(proj)
    assert np.abs(m.t - proj).max() <= 1e-10
    b = rand_psd(rng, 4)
    assert np.abs(ot_map(b, b).t - np.eye(4)).max() <= 1e-10


def test_map_residuals_and_optimality_certificate_seeded():
    rng = np.random.default_rng(25)
    g_rel = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        a, b = rand_reachable_pair(rng, n)
        for policy in ("deterministic", "negated"):
            m = ot_map(a, b, u12_policy=policy)
            assert m.residual_transport <= 1e-8 * (1 + np.linalg.norm(b.data))
            assert m.residual_optimality <= 1e-8 * (1 + b.trace())
            # optimality certificate: sym(G^T T G) has no significant
            # negative eigenvalue for an optimal map
            g = green_factor(a).padded()
            sym = g.T @ m.t @ g
            sym = (sym + sym.T) / 2
            scale = max(np.abs(sym).max(), 1.0)
            assert np.linalg.eigvalsh(sym)[0] >= -1e-9 * scale
            g_rel += 1
    assert g_rel == 80


def _cross_route_pairs():
    """Seeded pairs with rank(a) = n and with rank(a) > rank(b), the README
    pair and the pair whose Schur complement has rank 4."""
    rng = np.random.default_rng(41)
    pairs = {"readme": (A3, B3),
             "schur4": tuple(map(CovMatrix, schur_rank_four_pair()))}
    for i in range(3):
        n = int(rng.integers(3, 9))
        pairs[f"full{i}"] = rand_psd(rng, n), rand_psd(rng, n, int(rng.integers(1, n)))
        ra = int(rng.integers(2, n + 1))
        pairs[f"singular{i}"] = rand_psd(rng, n, ra), rand_psd(rng, n, int(rng.integers(1, ra)))
    return pairs


@pytest.mark.parametrize("name", sorted(_cross_route_pairs()))
def test_maps_are_optimal_against_the_public_fidelity(name):
    # residual_optimality reads the fidelity of the map's own pair context;
    # the public trace_fidelity, taken on the lower-rank side of the pair, is
    # an independent route to the same value
    a, b = _cross_route_pairs()[name]
    maps = {}
    u12 = ot_map(a, b).u12
    for policy, free in itertools.product(("deterministic", "negated", "supplied"),
                                          ("symmetric_zero", "spd_canonical")):
        try:
            maps[policy, free] = ot_map(a, b, u12_policy=policy, u12=u12, free_policy=free)
        except NoSpdMap:
            assert name == "schur4" and free == "spd_canonical"
    report = spd_reachability(a, b)
    assert report.spd_exists == (name != "schur4")
    if report.spd_exists:
        maps["witness"] = report.witness
        maps["canonical"] = canonical_spd_map(a, b)
    assert len(maps) == (3 if name == "schur4" else 8)
    fidelity = trace_fidelity(a, b)
    for m in maps.values():
        assert abs(np.trace(a.data @ m.t) - fidelity) <= 1e-8 * (1 + b.trace())


def test_spd_reachability_flags_agree_and_witness_matches():
    rep = spd_reachability(A3, B3)
    assert (rep.spd_exists, rep.as_unique, rep.schur_zero, rep.range_eq,
            rep.trivial_intersection) == (True, True, True, True, True)
    assert rep.witness is not None
    assert np.abs(rep.witness.t - S_AB).max() <= 1e-12

    rep = spd_reachability(A3, C3)
    assert (rep.spd_exists, rep.as_unique, rep.schur_zero, rep.range_eq,
            rep.trivial_intersection) == (False, False, False, False, False)
    assert rep.witness is None


def test_spd_reachability_consistent_on_seeded_pairs():
    rng = np.random.default_rng(26)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = int(rng.integers(2, 7))
        if rng.uniform() < 0.5:
            a, b = spd_pair(rng, n)
        else:
            a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        rep = spd_reachability(a, b)  # raises NumericalInconsistency on any split vote
        assert rep.spd_exists == rep.as_unique == rep.schur_zero
        assert rep.range_eq == rep.trivial_intersection == rep.spd_exists
        assert (rep.witness is not None) == rep.spd_exists
        seen[rep.spd_exists] += 1
    # the generator must exercise both outcomes
    assert seen[True] > 0 and seen[False] > 0


def _svd_criteria_four_and_five(a, b, tol_map=DEFAULT_TOL_MAP):
    """Criteria 4 and 5 of spd_reachability by their singular values, the
    route it takes unless the ranks settle them: rank(b a) against rank(b)
    on the live eigenpairs, and the principal angles between range(b) and
    null(a)."""
    core = _core(a, b)
    (w_a, u_a), (w_b, u_b) = _live_eigs(a), _live_eigs(b)
    sv = np.linalg.svd((u_b * w_b).T @ (u_a * w_a), compute_uv=False)
    range_eq = numeric_rank(b) == _rank(sv, core.tol * core.lam_a * core.lam_b)
    q2 = core.bv.q2
    trivial = (u_b.shape[1] == 0 or q2.shape[1] == 0 or _rank(
        np.linalg.svd(u_b.T @ q2, compute_uv=False), 1.0 - INTERSECT_TOL) == 0)
    return range_eq, trivial


def _lower_rank_sources(rng):
    """120 seeded pairs with rank(a) < rank(b): rank-0 sources, spectra in
    [0.5, 2.5], and sources whose least live eigenvalue sits within a
    relative 1e-5 of the default rank cut, on either side of it."""
    for k in range(120):
        n = int(rng.integers(3, 12))
        rb = int(rng.integers(3, n + 1))
        ra = 0 if k % 4 == 0 else int(rng.integers(1 + k % 4 // 3, rb))
        if k % 4 == 3:
            q = np.linalg.qr(rng.standard_normal((n, n)))[0]
            vals = np.zeros(n)
            vals[:ra] = np.concatenate([[1.0], rng.uniform(0.5, 0.99, ra - 2),
                                        [1e-10 * (1.0 + rng.uniform(-1e-5, 1e-5))]])
            m = (q * vals) @ q.T
            a = CovMatrix((m + m.T) / 2)
        else:
            a = rand_psd(rng, n, ra)
        yield a, rand_psd(rng, n, rb)


def test_ranks_settle_criteria_four_and_five_as_their_singular_values_do(monkeypatch):
    # when rank(a) < rank(b) the ranks alone fail criteria 4 and 5; their
    # singular values, computed apart, agree, and no spectrum is decomposed
    # for them
    svd, spectra = np.linalg.svd, []

    def counted(m, *args, **kwargs):
        if kwargs.get("compute_uv") is False:
            spectra.append(np.shape(m))
        return svd(m, *args, **kwargs)

    ranks = []
    for a, b in _lower_rank_sources(np.random.default_rng(28)):
        assert numeric_rank(a) < numeric_rank(b)
        oracle = _svd_criteria_four_and_five(a, b)
        monkeypatch.setattr(np.linalg, "svd", counted)
        rep = spd_reachability(a, b)
        monkeypatch.setattr(np.linalg, "svd", svd)
        flags = (rep.spd_exists, rep.as_unique, rep.schur_zero, rep.range_eq,
                 rep.trivial_intersection)
        assert flags == (False,) * 3 + oracle == (False,) * 5
        assert rep.witness is None
        ranks.append((numeric_rank(a), np.count_nonzero(a._eigvals > 1e-5)))
    assert spectra == []
    # rank-0 sources, and near-cut eigenvalues counted live and not
    assert ranks.count((0, 0)) == 30
    assert {live - clear for live, clear in ranks[3::4]} == {0, 1}


def _old_criterion_one(a, b, tol_map=DEFAULT_TOL_MAP):
    """Criterion 1 of spd_reachability tested in ambient coordinates only:
    the candidate assembled through [q1 q2], its transport residual and its
    least eigenvalue.  Returns the flag, the candidate and its residual."""
    core = _core(a, b)
    blk = core.spd_blk()
    q = np.hstack([core.bv.q1, core.bv.q2])
    cand = q @ blk @ q.T
    res_t = float(np.linalg.norm(cand @ a.data @ cand.T - b.data))
    eig_min = float(np.linalg.eigvalsh((cand + cand.T) / 2)[0])
    cand_scale = max(float(np.abs(cand).max()), 1.0)
    tol_abs = tol_map * (1.0 + float(np.linalg.norm(b.data)))
    return res_t <= tol_abs and eig_min >= -tol_map * cand_scale, cand, res_t


def _criterion_one_pairs(rng):
    """60 seeded pairs of both outcomes at scales 1e-3 to 1e3, then 24 pairs
    b = t a t for an SPD t of norm 1e6 and a of condition 1e6, whose
    candidates' transport residuals land around tol_abs, on either side."""
    for k in range(60):
        n = int(rng.integers(2, 12))
        scale = 10.0 ** rng.uniform(-3, 3)
        if k % 2:
            a, b = spd_pair(rng, n)
        else:
            a = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            b = rand_psd(rng, n, rank=int(rng.integers(1, n + 1)))
        yield CovMatrix(scale * a.data), CovMatrix(b.data / scale)
    n = 8
    for _ in range(24):
        qa = np.linalg.qr(rng.standard_normal((n, n)))[0]
        qt = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = CovMatrix((qa * (10.0 ** rng.uniform(-10.5, -9.5) * np.logspace(0, -6, n))) @ qa.T)
        t = (qt * np.logspace(6, 0, n)) @ qt.T
        yield a, CovMatrix(t @ a.data @ t)


def test_criterion_one_in_the_eigenbasis_matches_the_ambient_test():
    # criterion 1 tests the map's blocks in a's eigenbasis, whose residual
    # rounds differently from the ambient one: the flag, the witness and its
    # residual are those of the ambient candidate, byte for byte, also where
    # the residual lies near tol_abs
    seen = {True: 0, False: 0}
    near = 0
    for a, b in _criterion_one_pairs(np.random.default_rng(27)):
        tol_abs = _tol_bound(DEFAULT_TOL_MAP, b.data)
        flag, cand, res_t = _old_criterion_one(a, b)
        core = _core(a, b)
        blk = _criterion_one(core, DEFAULT_TOL_MAP, tol_abs)
        assert (blk is not None) == flag
        if flag:
            witness = _spd_map(core, a, b, blk, DEFAULT_TOL_MAP)
            assert witness.t.tobytes() == cand.tobytes() and witness.residual_transport == res_t
        near += 0.1 <= res_t / tol_abs <= 10.0
        seen[flag] += 1
    assert seen[True] >= 10 and seen[False] >= 10 and near >= 12


@settings(database=None, deadline=None, derandomize=True)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3),
       c=st.one_of(st.floats(0.0, 0.999), st.floats(1.001, 100.0)), zeros=st.integers(0, 24))
def test_psd_test_of_criterion_one_decides_as_the_least_eigenvalue(n, seed, scale, c, zeros):
    # a rotated spectrum whose least eigenvalue sits at -c tau, the others
    # in [0, scale] with up to ``zeros`` of them zero: the Cholesky test of
    # m + tau I decides as eigvalsh(m)[0] < -tau does, away from -tau; a
    # PSD block passes with c = 0 and zero eigenvalues
    rng = np.random.default_rng(seed)
    w = scale * rng.uniform(0.0, 1.0, n)
    w[1 : 1 + zeros] = 0.0
    tau = _tol_bound(DEFAULT_TOL_MAP, scale)
    w[0] = -c * tau
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    m = (q * w) @ q.T
    m = (m + m.T) / 2
    before = m.copy()
    eig_psd = not np.linalg.eigvalsh(m)[0] < -tau
    assert _psd_within(m, tau) == eig_psd == (c < 1.0)
    assert m.tobytes() == before.tobytes()  # the diagonal of a copy is shifted


def test_full_rank_source_builds_its_one_map_once_and_hands_out_copies(monkeypatch):
    # with rank(a) = n every policy, the canonical map and the witness are
    # the one optimal map: built and checked once per tol_map, equal byte
    # for byte, and each caller owns its arrays
    rng = np.random.default_rng(29)
    a, b = rand_psd(rng, 6), rand_psd(rng, 6, rank=4)
    checked = []  # the tag of each map built and checked
    real = transport._checked_map

    def counted(a, b, t, t11, t21, u12, tag, tol_map, fidelity):
        checked.append(tag)
        return real(a, b, t, t11, t21, u12, tag, tol_map, fidelity)

    monkeypatch.setattr(transport, "_checked_map", counted)
    # each map by name, with the free_blocks it must report
    maps = {"witness": (spd_reachability(a, b).witness, "spd_canonical"),
            "canonical": (canonical_spd_map(a, b), "spd_canonical")}
    for u12, free in itertools.product(("deterministic", "negated"),
                                       ("symmetric_zero", "spd_canonical")):
        maps[f"{u12} {free}"] = (ot_map(a, b, u12_policy=u12, free_policy=free), free)
    maps["supplied"] = (ot_map(a, b, u12_policy="supplied", u12=np.zeros((6, 0))),
                        "symmetric_zero")
    assert checked == ["spd_canonical"]

    core = _core(a, b)
    t_old = core.assemble(core.t11(), np.zeros((6, 0)), np.zeros((0, 6)), np.zeros((0, 0)))
    ref = maps["witness"][0]
    assert ref.t.tobytes() == t_old.tobytes()
    for m, free in maps.values():
        assert m.t.tobytes() == ref.t.tobytes() and m.t11.tobytes() == ref.t11.tobytes()
        assert (m.residual_transport, m.residual_optimality) == (
            ref.residual_transport, ref.residual_optimality)
        assert m.free_blocks == free
    arrays = [x for m, _ in maps.values() for x in (m.t, m.t11)]
    assert not any(np.shares_memory(x, y) for x, y in itertools.combinations(arrays, 2))

    # writing into one returned map changes no other map, nor a later call's
    maps["canonical"][0].t[...] = 0.0
    maps["witness"][0].t11[...] = 0.0
    assert maps["deterministic symmetric_zero"][0].t.tobytes() == t_old.tobytes()
    assert ot_map(a, b).t.tobytes() == t_old.tobytes()
    assert spd_reachability(a, b).witness.t11.tobytes() == core.t11().tobytes()
    assert canonical_spd_map(a, b).t.tobytes() == t_old.tobytes()
    # another tol_map builds and checks the map again, for itself
    assert ot_map(a, b, tol_map=1e-9).t.tobytes() == t_old.tobytes()
    assert len(checked) == 2


def test_a_failed_check_of_the_full_rank_map_is_not_kept(monkeypatch):
    rng = np.random.default_rng(30)
    a, b = rand_psd(rng, 5), rand_psd(rng, 5, rank=3)
    real = transport._checked_map
    calls = []

    def failing_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise NumericalInconsistency("transport residual")
        return real(*args)

    monkeypatch.setattr(transport, "_checked_map", failing_once)
    with pytest.raises(NumericalInconsistency):
        ot_map(a, b)
    assert ot_map(a, b).residual_transport <= _tol_bound(DEFAULT_TOL_MAP, b.data)
    assert len(calls) == 2


def test_canonical_spd_map_at_tiny_scale_transports_the_scale_one_pair():
    # At a pair scale of 1e-156 the eigenvalues of x = g11 b11 g11 are
    # subnormal.  The map is built from x^(+-1/2) only, so nothing overflows:
    # the map of the scaled pair transports the scale-1 pair, and is PSD.
    for seed in range(30):
        a, b = rand_reachable_pair(np.random.default_rng(seed), 5)
        t = canonical_spd_map(CovMatrix(a.data * 1e-156), CovMatrix(b.data * 1e-156)).t
        assert np.linalg.norm(t @ a.data @ t.T - b.data) <= _tol_bound(DEFAULT_TOL_MAP, b.data)
        assert np.linalg.eigvalsh((t + t.T) / 2)[0] >= -_tol_bound(DEFAULT_TOL_MAP, t)


def test_optimal_coupling_blocks_and_cross_term():
    param = make_param(A3, B3, style="extreme")
    c = optimal_coupling(A3, B3, param)
    n = 3
    assert np.abs(c.data[:n, :n] - A3.data).max() <= 1e-12
    assert np.abs(c.data[n:, n:] - B3.data).max() <= 1e-12
    assert np.linalg.eigvalsh(c.data)[0] >= -1e-10
    # Monge coupling: cross block is A T^T for the corresponding map
    t = canonical_spd_map(A3, B3).t
    assert np.abs(c.data[:n, n:] - A3.data @ t.T).max() <= 1e-10
    # the trace of the cross block is the fidelity term of w2
    assert np.trace(c.data[:n, n:]) == pytest.approx(trace_fidelity(A3, B3), abs=1e-10)


def test_optimal_coupling_self_and_independent_cases():
    rng = np.random.default_rng(27)
    a = rand_psd(rng, 4)
    c = optimal_coupling(a, a, make_param(a, a, style="extreme"))
    want = np.block([[a.data, a.data], [a.data, a.data]])
    assert np.abs(c.data - want).max() <= 1e-10

    # rank goes up with the fully diffuse parameter: independent coupling
    c2 = optimal_coupling(A2, B2, make_param(A2, B2, style="scaled", s=0.0))
    assert np.abs(c2.data[:2, 2:]).max() <= 1e-12
    assert np.abs(c2.data[:2, :2] - A2.data).max() == 0.0
    assert np.abs(c2.data[2:, 2:] - B2.data).max() == 0.0


def test_dual_conjugate_identity_factors():
    eye = np.eye(3)
    y = np.array([1.0, -2.0, 0.5])
    val = dual_conjugate(eye, eye, y)
    assert val == pytest.approx(0.5 * float(y @ y), abs=1e-12)


def test_dual_conjugate_degenerate_pair_and_infinite_branch():
    g = np.diag([1.0, 0.0])
    m = np.diag([0.0, 1.0])
    # g.T m = 0: finite (value 0) exactly on null(g.T), infinite off it
    assert dual_conjugate(g, m, np.array([0.0, 3.0])) == 0.0
    assert dual_conjugate(g, m, np.array([1e-6, 0.0])) is INFINITE
    # below the membership tolerance the value is finite again
    assert dual_conjugate(g, m, np.array([1e-10, 0.0])) == 0.0


def test_dual_conjugate_rejects_misaligned_factors():
    rng = np.random.default_rng(28)
    a = rand_psd(rng, 3)
    g = green_factor(a).padded()
    with pytest.raises(InvalidParam):
        dual_conjugate(g, -g, np.zeros(3))  # g.T m negative definite
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(InvalidParam):
        dual_conjugate(g, rot @ g, np.zeros(3))  # g.T m asymmetric
    with pytest.raises(InvalidInput, match="dimensions do not match"):
        dual_conjugate(g, g[:2], np.zeros(3))
    with pytest.raises(InvalidInput, match="dimensions do not match"):
        dual_conjugate(g, g, np.zeros(2))


def test_dual_conjugate_fenchel_young_on_support():
    from bwt import green_pair

    rng = np.random.default_rng(29)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        a, b = rand_reachable_pair(rng, n)
        style = ("extreme", "zero")[int(rng.integers(0, 2))]
        g, m = green_pair(a, b, make_param(a, b, style=style))
        z = rng.standard_normal(n)
        x, y = g @ z, m @ z
        phi_x = 0.5 * float(x @ y)
        conj = dual_conjugate(g, m, y)
        assert conj is not INFINITE
        gap = phi_x + conj - float(x @ y)
        assert abs(gap) <= 1e-9 * (1 + abs(float(x @ y)))
