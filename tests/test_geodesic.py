"""Geodesics: parameter styles, the path map, interpolants, classification."""

import numpy as np
import pytest

from bwt import (
    CovMatrix,
    GeodesicParam,
    InvalidInput,
    InvalidParam,
    Unreachable,
    classify_point,
    green_pair,
    kantorovich_point,
    make_param,
    make_path,
    mccann_interpolant,
    numeric_rank,
    ot_map,
    raw_param,
    sample_path,
    schur_complement,
    w2_distance,
)
from conftest import rand_psd, rand_reachable_pair

A3 = CovMatrix(np.diag([4.0, 1.0, 0.0]))
B3 = CovMatrix(np.array([[0, 0, 0], [0, 4, 2], [0, 2, 1]], dtype=float))
C3 = CovMatrix(np.diag([0.0, 0.0, 1.0]))

A2 = CovMatrix(np.diag([1.0, 0.0]))
B2 = CovMatrix(np.diag([0.0, 1.0]))


def monge_gamma_a_to_c(t):
    """Interpolant for (A3, C3) along the deterministic map, worked by hand."""
    return np.array([
        [4 * (1 - t) ** 2, 0.0, 2 * t * (1 - t)],
        [0.0, (1 - t) ** 2, 0.0],
        [2 * t * (1 - t), 0.0, t ** 2],
    ])


def test_endpoints_are_exact_for_all_styles():
    pairs = [(A3, B3), (A3, C3), (A2, B2), (C3, A3)]
    for a, b in pairs:
        for style, s in (("zero", None), ("scaled", 0.0)):
            path = make_path(a, b, style=style, s=s)
            assert np.abs(path.gamma(0.0).data - a.data).max() <= 1e-12
            assert np.abs(path.gamma(1.0).data - b.data).max() <= 1e-12
    for a, b in pairs[:3]:
        path = make_path(a, b, style="extreme")
        assert np.abs(path.gamma(0.0).data - a.data).max() <= 1e-12
        assert np.abs(path.gamma(1.0).data - b.data).max() <= 1e-12


def test_extreme_path_matches_hand_computed_curve():
    path = make_path(A3, C3, style="extreme")
    assert path.param.kind == "monge"
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert np.abs(path.gamma(t).data - monge_gamma_a_to_c(t)).max() <= 1e-12


def test_extreme_path_equals_mccann_interpolant():
    rng = np.random.default_rng(31)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        a, b = rand_reachable_pair(rng, n)
        path = make_path(a, b, style="extreme")
        tmap = ot_map(a, b)
        for t in (0.2, 0.5, 0.9):
            gap = np.abs(path.gamma(t).data - mccann_interpolant(a, tmap, t).data).max()
            assert gap <= 1e-12 * (1 + b.trace())


def test_monge_interpolants_keep_rank_and_vanishing_complement():
    rng = np.random.default_rng(32)
    for _ in range(12):
        n = int(rng.integers(2, 7))
        a, b = rand_reachable_pair(rng, n)
        path = make_path(a, b, style="extreme")
        for t in np.linspace(0.1, 0.9, 9):
            gamma = path.gamma(float(t))
            assert numeric_rank(gamma) == numeric_rank(a)
            assert np.linalg.norm(schur_complement(a, gamma).value) <= 1e-8


def test_zero_style_midpoint_raises_rank():
    path = make_path(A2, B2, style="zero")
    assert path.param.kind == "interior"
    mid = path.gamma(0.5)
    assert np.abs(mid.data - np.diag([0.25, 0.25])).max() <= 1e-12
    assert numeric_rank(mid) == 2
    assert numeric_rank(A2) == 1


def test_scaled_family_blocks_and_midpoints():
    for s in (-1.0, -0.4, 0.0, 0.6, 1.0):
        param = make_param(A2, B2, style="scaled", s=s)
        assert np.abs(param.n12 - np.array([[s]])).max() <= 1e-12
        assert np.abs(param.m22 - np.array([[np.sqrt(1 - s * s)]])).max() <= 1e-12
        mid = kantorovich_point(A2, B2, param, 0.5)
        want = np.array([[0.25, s / 4], [s / 4, 0.25]])
        assert np.abs(mid.data - want).max() <= 1e-12
    assert make_param(A2, B2, style="scaled", s=1.0).kind == "monge"
    assert make_param(A2, B2, style="scaled", s=0.5).kind == "interior"


def test_param_validation_errors():
    with pytest.raises(InvalidParam):
        make_param(A2, B2, style="scaled")  # s missing
    with pytest.raises(InvalidParam):
        make_param(A2, B2, style="scaled", s=1.5)
    with pytest.raises(InvalidParam):
        make_param(A2, B2, style="diagonal")
    with pytest.raises(Unreachable):
        make_param(C3, A3, style="extreme")
    with pytest.raises(Unreachable):
        make_param(C3, A3, style="scaled", s=0.5)
    # diffuse members exist in the unreachable direction
    assert make_param(C3, A3, style="zero").kind == "interior"
    assert make_param(C3, A3, style="scaled", s=0.0).kind == "interior"


def test_raw_param_accepts_admissible_and_rejects_bad_blocks():
    got = raw_param(A2, B2, np.array([[0.6]]))
    ref = make_param(A2, B2, style="scaled", s=0.6)
    assert np.abs(got.n12 - ref.n12).max() <= 1e-12
    assert np.abs(got.m22 - ref.m22).max() <= 1e-12
    assert got.kind == "interior"
    assert raw_param(A2, B2, np.array([[1.0]])).kind == "monge"

    with pytest.raises(InvalidParam):
        raw_param(A2, B2, np.array([[1.5]]))  # n12.T n12 exceeds the complement
    with pytest.raises(InvalidParam):
        raw_param(A2, B2, np.zeros((2, 1)))  # wrong shape
    with pytest.raises(InvalidParam):
        # (A3, B3) has a vanishing complement: only n12 = 0 is admissible,
        # and this violates the null-range condition as well
        raw_param(A3, B3, np.array([[1.0], [0.0]]))


def test_raw_param_decides_kind_under_the_callers_tolerance():
    # n12 just short of the extreme one leaves ||m22|| = 1.4e-6: zero under
    # tol_map = 1e-4, which checked the block, but not under the default
    a = CovMatrix(np.diag([1.0, 1.0, 0.0]))
    b = CovMatrix(np.diag([1.0, 0.0, 1.0]))
    n12 = (1.0 - 1e-12) * make_param(a, b).n12
    loose = raw_param(a, b, n12, tol_map=1e-4)
    assert np.linalg.norm(loose.m22) == pytest.approx(1.4e-6, rel=0.05)
    assert loose.kind == "monge"
    assert raw_param(a, b, n12).kind == "interior"


def test_constant_speed_on_seeded_pairs_and_styles():
    rng = np.random.default_rng(33)
    ts = np.linspace(0.0, 1.0, 5)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        a, b = rand_reachable_pair(rng, n)
        d = w2_distance(a, b)
        for style, s in (("extreme", None), ("zero", None), ("scaled", 0.6)):
            path = make_path(a, b, style=style, s=s)
            pts = sample_path(path, ts)
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    dij = w2_distance(pts[i], pts[j])
                    assert abs(dij - (ts[j] - ts[i]) * d) <= 1e-7 * (1 + d)


def test_kantorovich_point_matches_path_and_sample_path():
    param = make_param(A3, C3, style="scaled", s=0.3)
    path = make_path(A3, C3, style="scaled", s=0.3)
    for t in (0.0, 0.4, 1.0):
        assert np.abs(kantorovich_point(A3, C3, param, t).data
                      - path.gamma(t).data).max() == 0.0
    pts = sample_path(path, [0.0, 0.4, 1.0])
    assert len(pts) == 3
    assert np.abs(pts[1].data - path.gamma(0.4).data).max() == 0.0


def test_green_pair_is_aligned_and_factors_the_endpoints():
    rng = np.random.default_rng(34)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        a, b = rand_reachable_pair(rng, n)
        style = ("extreme", "zero")[int(rng.integers(0, 2))]
        g, m = green_pair(a, b, make_param(a, b, style=style))
        assert np.abs(g @ g.T - a.data).max() <= 1e-10
        assert np.abs(m @ m.T - b.data).max() <= 1e-10
        gram = g.T @ m
        assert np.abs(gram - gram.T).max() <= 1e-10
        assert np.linalg.eigvalsh((gram + gram.T) / 2)[0] >= -1e-10


def test_green_pair_rejects_blocks_of_another_shape():
    prm = make_param(A3, B3)
    with pytest.raises(InvalidParam, match="shapes do not match"):
        green_pair(A3, B3, GeodesicParam(n12=np.zeros((1, 1)), m22=prm.m22, kind=prm.kind))


def test_classify_point_kinds():
    # interior of the Monge curve: an extreme point of the midpoint set
    ext = make_path(A3, C3, style="extreme")
    c = classify_point(A3, C3, ext.gamma(0.5), 0.5)
    assert c.kind == "extreme"
    assert c.rank_gamma == c.rank_a == 2
    assert c.schur_norm <= 1e-10

    # the diffuse geodesic picks up rank from null(a)
    diff = make_path(A3, C3, style="zero")
    c = classify_point(A3, C3, diff.gamma(0.5), 0.5)
    assert c.kind == "interior"
    assert c.rank_gamma == 3
    assert c.schur_norm == pytest.approx(0.25, abs=1e-10)

    # endpoints belong to every geodesic
    assert classify_point(A3, C3, A3, 0.0).kind == "extreme"
    assert classify_point(A3, C3, C3, 1.0).kind == "extreme"


def test_classify_point_rejects_non_members_and_bad_t():
    with pytest.raises(InvalidParam):
        classify_point(A3, C3, CovMatrix(np.eye(3)), 0.5)
    path = make_path(A3, C3, style="extreme")
    with pytest.raises(InvalidParam):
        # right matrix, wrong parameter: distances split at 0.5, not 0.9
        classify_point(A3, C3, path.gamma(0.5), 0.9)
    with pytest.raises(InvalidParam):
        classify_point(A3, C3, A3, -0.1)
    with pytest.raises(InvalidParam):
        path.gamma(1.5)
    with pytest.raises(InvalidParam):
        mccann_interpolant(A3, np.eye(3), 2.0)
    with pytest.raises(InvalidInput):
        mccann_interpolant(A3, np.eye(2), 0.5)


def test_mccann_interpolant_accepts_plain_matrices():
    t_mat = ot_map(A3, C3).t
    for t in (0.25, 0.75):
        got = mccann_interpolant(A3, t_mat, t)
        assert np.abs(got.data - monge_gamma_a_to_c(t)).max() <= 1e-12


def test_pd_pair_has_a_unique_geodesic():
    rng = np.random.default_rng(35)
    a, b = rand_psd(rng, 4), rand_psd(rng, 4)
    z = make_path(a, b, style="zero")
    e = make_path(a, b, style="extreme")
    assert z.param.kind == e.param.kind == "monge"
    for t in (0.3, 0.7):
        assert np.abs(z.gamma(t).data - e.gamma(t).data).max() <= 1e-12
