"""Barycenter ascent, closed forms, multicouplings, and the fixed point."""

import numpy as np
import pytest

from bwt import (
    BarycenterProblem,
    CovMatrix,
    InvalidInput,
    PreconditionFailed,
    align_green,
    barycenter,
    fixed_point_residual,
    frechet_variance,
    hierarchical_closed_form,
    multicoupling_kernel,
    numeric_rank,
    orthogonal_closed_form,
    ranges_orthogonal,
    solve_bcd,
    spectral_decompose,
)
from conftest import rand_psd

E1 = CovMatrix(np.diag([1.0, 0.0]))
E2 = CovMatrix(np.diag([0.0, 1.0]))
MIDPOINT = BarycenterProblem((E1, E2), (0.5, 0.5))


def rand_problem(rng, n, m):
    covs = tuple(rand_psd(rng, n, rank=int(rng.integers(1, n + 1))) for _ in range(m))
    w = rng.uniform(0.2, 1.0, size=m)
    return BarycenterProblem(covs, tuple(w / w.sum()))


def test_problem_validation():
    with pytest.raises(InvalidInput):
        BarycenterProblem((), ())
    with pytest.raises(InvalidInput):
        BarycenterProblem((E1,), (0.5, 0.5))
    with pytest.raises(InvalidInput):
        BarycenterProblem((E1, np.eye(2)), (0.5, 0.5))
    with pytest.raises(InvalidInput):
        BarycenterProblem((E1, CovMatrix(np.eye(3))), (0.5, 0.5))
    with pytest.raises(InvalidInput):
        BarycenterProblem((E1, E2), (1.5, -0.5))
    with pytest.raises(InvalidInput):
        BarycenterProblem((E1, E2), (0.6, 0.6))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_weights_must_be_finite(bad):
    # nan passes both "w <= 0" and the sum check; the ascent would then
    # fail inside an SVD instead of at validation
    with pytest.raises(InvalidInput, match="finite and strictly positive"):
        BarycenterProblem((E1, E2), (bad, 0.5))
    g1 = BarycenterProblem((E1,), (1.0,))
    g2 = BarycenterProblem((E2,), (1.0,))
    with pytest.raises(InvalidInput, match="finite and strictly positive"):
        hierarchical_closed_form([g1, g2], [bad, 0.5])


def assert_in_midpoint_family(res):
    a = res.a_hat.data
    assert a[0, 0] == pytest.approx(0.25, abs=1e-9)
    assert a[1, 1] == pytest.approx(0.25, abs=1e-9)
    assert abs(a[0, 1] - a[1, 0]) <= 1e-12
    s = 4.0 * a[0, 1]
    assert abs(s) <= 1.0 + 1e-9
    assert res.objective == pytest.approx(0.5, abs=1e-9)
    assert res.frechet_variance == pytest.approx(0.5, abs=1e-9)
    assert res.converged


def test_midpoint_family_default_start():
    assert_in_midpoint_family(solve_bcd(MIDPOINT))


def test_midpoint_family_random_starts():
    for seed in range(6):
        assert_in_midpoint_family(solve_bcd(MIDPOINT, seed=seed))


def test_same_seed_reproduces_result_exactly():
    r1 = solve_bcd(MIDPOINT, seed=11)
    r2 = solve_bcd(MIDPOINT, seed=11)
    assert r1.a_hat.data.tobytes() == r2.a_hat.data.tobytes()
    assert r1.objective_history == r2.objective_history


def test_history_monotone_and_factors_aligned():
    rng = np.random.default_rng(41)
    for k in range(10):
        prob = rand_problem(rng, int(rng.integers(2, 7)), int(rng.integers(2, 6)))
        res = solve_bcd(prob, seed=k)
        hist = res.objective_history
        assert len(hist) == 1 + res.iterations * prob.size
        assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
        assert res.converged
        assert hist[-1] == pytest.approx(res.objective, abs=1e-12)
        assert res.objective == hist[-1]  # the running mean's, bit for bit
        # a properly aligned family: g_hat^T g_i is symmetric PSD for each i.
        # The symmetry defect scales like the square root of the stopping
        # tolerance (the objective is quadratic around the optimum), so at
        # the default stop it sits near 1e-5.
        for g in res.greens:
            sym = res.g_hat.T @ g
            scale = max(np.abs(sym).max(), 1.0)
            assert np.abs(sym - sym.T).max() <= 1e-4 * scale
            assert np.linalg.eigvalsh((sym + sym.T) / 2)[0] >= -1e-8 * scale
        # the variance identity at a stationary family
        expect = prob.weighted_trace() - res.objective
        assert res.frechet_variance == pytest.approx(expect, abs=1e-7 * (1 + expect))


def test_tight_stop_sharpens_alignment():
    rng = np.random.default_rng(47)
    prob = rand_problem(rng, 6, 4)
    res = solve_bcd(prob, tol_obj=1e-14, max_iter=5000)
    assert res.converged
    for g in res.greens:
        sym = res.g_hat.T @ g
        scale = max(np.abs(sym).max(), 1.0)
        assert np.abs(sym - sym.T).max() <= 1e-7 * scale


def test_fixed_point_residual_small_at_bcd_output():
    rng = np.random.default_rng(42)
    for k in range(6):
        prob = rand_problem(rng, 4, 3)
        res = solve_bcd(prob, seed=k)
        assert fixed_point_residual(prob, res.a_hat) <= 1e-6 * (1 + res.a_hat.trace())


def test_fixed_point_residual_rejects_a_candidate_of_another_dimension():
    # as frechet_variance does: a bwt error, not numpy's matmul ValueError
    with pytest.raises(InvalidInput, match="dimension mismatch"):
        fixed_point_residual(MIDPOINT, CovMatrix(np.eye(3)))
    with pytest.raises(InvalidInput, match="dimension mismatch"):
        frechet_variance(MIDPOINT, CovMatrix(np.eye(3)))


@pytest.mark.parametrize("n,k,r", [(12, 4, 3), (20, 5, 8), (30, 6, 10)])
def test_default_start_leaves_the_singular_saddle(n, k, r):
    # Rank-r members all started in the same r columns would hold the ascent
    # on a rank-r saddle; the root start, whose columns span each member's
    # own range, must reach the best objective of the random starts, and a
    # barycenter of rank above r.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        prob = BarycenterProblem(tuple(rand_psd(rng, n, r) for _ in range(k)), (1.0 / k,) * k)
        res = solve_bcd(prob)
        best = max(solve_bcd(prob, seed=s).objective for s in range(3))
        assert res.objective >= best * (1 - 1e-8)
        assert numeric_rank(res.a_hat) > r


def test_commuting_family_converges_in_one_sweep():
    # members Q D_i Q^T share an eigenbasis, so their square roots are
    # already aligned: the root start is the barycenter (sum_i p_i a_i^(1/2))^2
    # and the first sweep gains nothing
    rng = np.random.default_rng(23)
    n, k = 12, 4
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    diags = rng.uniform(0.5, 2.5, size=(k, n))
    diags[0, :5] = 0.0
    diags[2, 3:7] = 0.0
    w = rng.uniform(0.2, 1.0, size=k)
    prob = BarycenterProblem(tuple(CovMatrix((q * d) @ q.T) for d in diags), tuple(w / w.sum()))
    root = q * (prob.weights @ np.sqrt(diags))
    res = solve_bcd(prob)
    assert res.converged
    assert res.iterations == 1
    assert np.abs(res.a_hat.data - root @ root.T).max() <= 1e-12


def plain_ascent(prob):
    """Block-coordinate ascent from solve_bcd's default start and with its
    stopping rule, but without Anderson steps: (greens, history, sweeps)."""
    greens = []
    for c in prob.covs:
        dec = spectral_decompose(c)
        u = dec.eigvecs[:, : dec.rank]
        greens.append((u * np.sqrt(dec.eigvals[: dec.rank])) @ u.T)
    g_hat = np.zeros((prob.n, prob.n))
    for w, g in zip(prob.weights, greens):
        g_hat += w * g
    history = [float(np.linalg.norm(g_hat) ** 2)]
    for sweeps in range(1, 501):
        start = history[-1]
        for i, (w, c) in enumerate(zip(prob.weights, prob.covs)):
            g_rest = g_hat - w * greens[i]
            greens[i] = align_green(g_rest, c).g
            g_hat = g_rest + w * greens[i]
            history.append(float(np.linalg.norm(g_hat) ** 2))
        if history[-1] - start < 1e-10 * prob.weighted_trace():
            break
    return greens, history, sweeps


@pytest.fixture
def step_calls(monkeypatch):
    """The Anderson steps solve_bcd attempts, recorded by a spy with a copy
    of each window as it was passed (solve_bcd goes on to change it)."""
    calls, step = [], barycenter._anderson_step

    def spy(problem, thins, xs, rs):
        calls.append((problem, thins, list(xs), list(rs)))
        return step(problem, thins, xs, rs)

    monkeypatch.setattr(barycenter, "_anderson_step", spy)
    return calls


def test_anderson_steps_beat_plain_ascent_on_a_singular_family(step_calls):
    rng = np.random.default_rng(12)
    prob = BarycenterProblem(tuple(rand_psd(rng, 20, 8) for _ in range(5)), (0.2,) * 5)
    _, ref_hist, ref_sweeps = plain_ascent(prob)
    res = solve_bcd(prob)
    assert step_calls
    assert res.converged
    # each sweep and each attempted step costs one SVD per member
    assert res.iterations + len(step_calls) < ref_sweeps
    assert res.objective >= ref_hist[-1] * (1 - 1e-10)
    hist = res.objective_history
    assert len(hist) == 1 + res.iterations * prob.size
    assert all(b >= a - 1e-12 for a, b in zip(hist, hist[1:]))
    assert hist[-1] == pytest.approx(res.objective, abs=1e-12)
    for g, c in zip(res.greens, prob.covs):
        assert np.abs(g @ g.T - c.data).max() <= 1e-10
        sym = res.g_hat.T @ g
        scale = max(np.abs(sym).max(), 1.0)
        assert np.abs(sym - sym.T).max() <= 1e-4 * scale
        assert np.linalg.eigvalsh((sym + sym.T) / 2)[0] >= -1e-8 * scale
    # a run cut by max_iter takes no step after its last sweep, so it too
    # ends on the objective of its last update
    for max_iter in range(1, res.iterations):
        cut = solve_bcd(prob, max_iter=max_iter)
        assert not cut.converged
        assert cut.objective == cut.objective_history[-1]


def test_anderson_window_holds_at_most_depth_plus_one_sweeps(monkeypatch, step_calls):
    # the first step waits for _ANDERSON_DEPTH + 1 plain sweeps, and no
    # window passed to a step holds more: the steps' memory bound
    rng = np.random.default_rng(12)
    prob = BarycenterProblem(tuple(rand_psd(rng, 20, 8) for _ in range(5)), (0.2,) * 5)
    updates, align = [], barycenter._align_thin

    def counted(*args):
        updates.append(len(step_calls))  # steps tried before this update
        return align(*args)

    monkeypatch.setattr(barycenter, "_align_thin", counted)
    solve_bcd(prob)
    assert step_calls
    assert updates.count(0) >= (barycenter._ANDERSON_DEPTH + 1) * prob.size
    for _, _, xs, rs in step_calls:
        assert len(xs) == len(rs) <= barycenter._ANDERSON_DEPTH + 1


def test_full_rank_family_takes_no_step(step_calls):
    # full-rank families contract fast, so no step is tried and the result
    # is the plain ascent's, byte for byte
    rng = np.random.default_rng(5)
    prob = BarycenterProblem(tuple(rand_psd(rng, 10) for _ in range(4)), (0.25,) * 4)
    ref_greens, ref_hist, ref_sweeps = plain_ascent(prob)
    res = solve_bcd(prob)
    assert not step_calls
    assert res.iterations == ref_sweeps
    assert res.objective_history == tuple(ref_hist)
    assert all(g.tobytes() == r.tobytes() for g, r in zip(res.greens, ref_greens))


def test_worse_step_is_rejected(monkeypatch):
    # a step that lowers the objective leaves the ascent exactly as without it
    rng = np.random.default_rng(12)
    prob = BarycenterProblem(tuple(rand_psd(rng, 20, 8) for _ in range(5)), (0.2,) * 5)
    windows = []

    def sweep_start(problem, thins, xs, rs):
        windows.append(list(xs))
        return list(xs[-1])  # valid factors, below the sweep that left them

    monkeypatch.setattr(barycenter, "_anderson_step", sweep_start)
    ref_greens, ref_hist, ref_sweeps = plain_ascent(prob)
    res = solve_bcd(prob)
    assert len(windows) > 1
    # a rejection drops the window back to its last sweep, so the next step
    # waits for _ANDERSON_DEPTH new sweeps
    assert all(b[0] is a[-1] for a, b in zip(windows, windows[1:]))
    assert all(len(w) == barycenter._ANDERSON_DEPTH + 1 for w in windows)
    assert res.iterations == ref_sweeps
    assert res.objective_history == tuple(ref_hist)
    assert all(g.tobytes() == r.tobytes() for g, r in zip(res.greens, ref_greens))


def test_fixed_point_is_necessary_but_not_sufficient():
    a1 = CovMatrix(np.diag([1.0, 1.0, 0.0]))
    a2 = CovMatrix(np.diag([0.0, 1.0, 1.0]))
    prob = BarycenterProblem((a1, a2), (0.5, 0.5))

    # this candidate solves the fixed-point equation exactly...
    stuck = CovMatrix(np.diag([0.25, 0.0, 0.25]))
    assert fixed_point_residual(prob, stuck) <= 1e-12
    assert frechet_variance(prob, stuck) == pytest.approx(1.5, abs=1e-12)

    # ...yet the ascent reaches a strictly better point
    res = solve_bcd(prob)
    assert res.frechet_variance == pytest.approx(0.5, abs=1e-8)
    assert np.abs(res.a_hat.data - np.diag([0.25, 1.0, 0.25])).max() <= 1e-8
    assert fixed_point_residual(prob, res.a_hat) <= 1e-8


def test_orthogonal_closed_form_exact():
    covs = (
        CovMatrix(np.diag([2.0, 0.0, 0.0])),
        CovMatrix(np.diag([0.0, 3.0, 0.0])),
        CovMatrix(np.diag([0.0, 0.0, 1.0])),
    )
    assert ranges_orthogonal(covs)
    w = (0.5, 0.3, 0.2)
    prob = BarycenterProblem(covs, w)
    res = orthogonal_closed_form(prob)
    want = np.diag([0.25 * 2.0, 0.09 * 3.0, 0.04 * 1.0])
    assert np.abs(res.a_hat.data - want).max() <= 1e-12
    assert res.objective == pytest.approx(sum(p * p * c.trace() for p, c in zip(w, covs)),
                                          abs=1e-12)
    # the ascent lands on the same value: the objective is flat over factors
    bcd = solve_bcd(prob)
    assert bcd.objective == pytest.approx(res.objective, abs=1e-9)
    assert np.abs(bcd.a_hat.data - want).max() <= 1e-8


def test_orthogonal_closed_form_requires_orthogonality():
    covs = (E1, CovMatrix(np.array([[1.0, 0.5], [0.5, 1.0]])))
    assert not ranges_orthogonal(covs)
    with pytest.raises(PreconditionFailed):
        orthogonal_closed_form(BarycenterProblem(covs, (0.5, 0.5)))


def block_cov(rng, n, lo, hi, rank):
    """A PSD matrix supported on coordinates [lo, hi)."""
    k = hi - lo
    small = rand_psd(rng, k, rank=rank)
    out = np.zeros((n, n))
    out[lo:hi, lo:hi] = small.data
    return CovMatrix(out)


def test_hierarchical_matches_flat_ascent():
    rng = np.random.default_rng(43)
    g1 = BarycenterProblem(
        tuple(block_cov(rng, 5, 0, 2, rank=2) for _ in range(3)),
        (0.2, 0.3, 0.5),
    )
    g2 = BarycenterProblem(
        tuple(block_cov(rng, 5, 2, 5, rank=int(rng.integers(1, 4))) for _ in range(2)),
        (0.4, 0.6),
    )
    outer = (0.6, 0.4)
    hier = hierarchical_closed_form([g1, g2], outer)
    assert hier.converged

    flat_covs = g1.covs + g2.covs
    flat_w = tuple(0.6 * w for w in g1.weights) + tuple(0.4 * w for w in g2.weights)
    flat = solve_bcd(BarycenterProblem(flat_covs, flat_w))
    assert hier.objective == pytest.approx(flat.objective, abs=1e-7 * (1 + flat.objective))
    assert hier.frechet_variance == pytest.approx(flat.frechet_variance,
                                                  abs=1e-6 * (1 + flat.frechet_variance))


@pytest.mark.parametrize("limits", [
    {"max_iter": -3}, {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True},
    {"max_iter": "5"}, {"tol_obj": float("nan")}, {"tol_obj": -1.0},
    {"tol_obj": float("inf")}, {"tol_obj": "1e-9"},
])
def test_solve_bcd_refuses_limits_it_cannot_honour(limits):
    # a negative count returned the start unswept, a NaN or negative
    # tolerance ran every sweep without converging, and a fractional count
    # escaped as a TypeError
    with pytest.raises(InvalidInput, match="max_iter|tol_obj"):
        solve_bcd(MIDPOINT, **limits)
    g1 = BarycenterProblem((E1,), (1.0,))
    g2 = BarycenterProblem((E2,), (1.0,))
    with pytest.raises(InvalidInput, match="max_iter|tol_obj"):
        hierarchical_closed_form([g1, g2], [0.5, 0.5], **limits)


def test_solve_bcd_accepts_zero_sweeps_and_zero_tolerance():
    # max_iter = 0 returns the start unconverged; numpy scalars are accepted
    start = solve_bcd(MIDPOINT, max_iter=0)
    assert (start.iterations, start.converged) == (0, False)
    assert solve_bcd(MIDPOINT, max_iter=np.int64(3), tol_obj=np.float64(0.0)).iterations <= 3


def test_hierarchical_validation():
    rng = np.random.default_rng(44)
    g1 = BarycenterProblem((block_cov(rng, 4, 0, 2, 2),), (1.0,))
    g2 = BarycenterProblem((block_cov(rng, 4, 2, 4, 2),), (1.0,))
    overlap = BarycenterProblem((block_cov(rng, 4, 1, 3, 2),), (1.0,))
    with pytest.raises(InvalidInput):
        hierarchical_closed_form([], [])
    with pytest.raises(InvalidInput):
        hierarchical_closed_form([g1, g2], [0.7])
    with pytest.raises(InvalidInput):
        hierarchical_closed_form([g1, g2], [0.7, 0.7])
    g3 = BarycenterProblem((block_cov(rng, 5, 0, 2, 2),), (1.0,))
    with pytest.raises(InvalidInput, match="share one dimension"):
        hierarchical_closed_form([g1, g3], [0.5, 0.5])
    with pytest.raises(PreconditionFailed):
        hierarchical_closed_form([g1, overlap], [0.5, 0.5])


def test_multicoupling_kernel_is_gram_with_marginal_blocks():
    rng = np.random.default_rng(45)
    prob = rand_problem(rng, 4, 3)
    res = solve_bcd(prob, seed=1)
    k = multicoupling_kernel(res)
    n = prob.n
    assert k.shape == (3 * n, 3 * n)
    assert np.abs(k - k.T).max() <= 1e-12
    assert np.linalg.eigvalsh((k + k.T) / 2)[0] >= -1e-10
    for i, c in enumerate(prob.covs):
        blk = k[i * n:(i + 1) * n, i * n:(i + 1) * n]
        assert np.abs(blk - c.data).max() <= 1e-10


def test_all_zero_family_short_circuits():
    z = CovMatrix(np.zeros((3, 3)))
    res = solve_bcd(BarycenterProblem((z, z), (0.5, 0.5)))
    assert res.converged
    assert res.objective == 0.0
    assert res.frechet_variance == 0.0
    assert np.abs(res.a_hat.data).max() == 0.0
    assert res.objective_history == (0.0,)


def test_all_zero_family_carries_the_family_tolerance():
    z = CovMatrix(np.zeros((3, 3)), tol_rel=1e-6)
    res = solve_bcd(BarycenterProblem((z, z), (0.5, 0.5)))
    assert res.a_hat.tol_rel == 1e-6


def test_order_bounds_on_seeded_problems():
    rng = np.random.default_rng(46)
    for k in range(12):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(2, 5))
        prob = rand_problem(rng, n, m)
        res = solve_bcd(prob, seed=k)
        mean = sum(w * c.data for w, c in zip(prob.weights, prob.covs))
        gap = np.linalg.eigvalsh((mean + mean.T) / 2 - res.a_hat.data)[0]
        assert gap >= -1e-8 * (1 + np.linalg.norm(mean))

        # 2n-th root of the determinant is superadditive along barycenters;
        # meaningful only when every member is nonsingular
        if all(np.linalg.eigvalsh(c.data)[0] > 1e-8 for c in prob.covs):
            lhs = np.prod(np.linalg.eigvalsh(res.a_hat.data)) ** (1 / (2 * n))
            rhs = sum(w * np.prod(np.linalg.eigvalsh(c.data)) ** (1 / (2 * n))
                      for w, c in zip(prob.weights, prob.covs))
            assert lhs >= rhs - 1e-8
