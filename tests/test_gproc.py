"""Discretized process kernels, Volterra factors, and the distance ladder."""

from fractions import Fraction

import numpy as np
import pytest

from bwt import (
    DiscretizedOperator,
    Grid,
    InvalidParam,
    classic_kernels,
    composite_kernel_value,
    cross_gram_certificate,
    ibm_w2_analytic,
    ibm_w2_numeric,
    mercer_composite,
    volterra_green,
)


def test_grid_midpoints_and_validation():
    g = Grid(4)
    assert np.allclose(g.points, [0.125, 0.375, 0.625, 0.875])
    assert g.weight == 0.25
    with pytest.raises(InvalidParam):
        Grid(0)
    with pytest.raises(InvalidParam):
        Grid(2.5)


def test_sizes_and_orders_are_integers_but_not_bools():
    # a bool is not a size or an order; a NumPy integer is, stored as an int
    with pytest.raises(InvalidParam, match="grid size"):
        Grid(True)
    with pytest.raises(InvalidParam, match="integration order"):
        volterra_green(True, Grid(4))
    with pytest.raises(InvalidParam, match="integration order"):
        ibm_w2_analytic(True, 2)
    g = Grid(np.int64(4))
    assert g == Grid(4) and type(g.m) is int
    assert np.array_equal(volterra_green(np.int64(2), g).mat, volterra_green(2, g).mat)
    assert ibm_w2_analytic(np.int64(1), np.int32(3)) == ibm_w2_analytic(1, 3)


def test_operator_algebra_and_grid_mismatch():
    g = Grid(10)
    v1 = volterra_green(1, g)
    assert v1.adjoint().mat.tolist() == v1.mat.T.tolist()
    assert v1.hs_norm_sq() == pytest.approx(0.01 * 55, abs=1e-15)
    with pytest.raises(InvalidParam):
        v1.compose(volterra_green(1, Grid(11)))


def test_classic_kernel_entries_and_traces():
    g = Grid(128)
    k_bm, g_bm = classic_kernels("bm", g)
    k_bb, g_bb = classic_kernels("bb", g)
    s = g.points
    assert np.abs(k_bm.mat - g.weight * np.minimum(s[:, None], s[None, :])).max() == 0.0
    assert np.abs(k_bb.mat - g.weight * (np.minimum(s[:, None], s[None, :])
                                         - s[:, None] * s[None, :])).max() == 0.0
    # midpoint sums of the diagonals: exact for bm, h^2/12 high for the bridge
    assert k_bm.trace() == 0.5
    assert k_bb.trace() == pytest.approx(1 / 6 + 1 / (12 * 128 ** 2), abs=1e-15)
    with pytest.raises(InvalidParam):
        classic_kernels("ou", g)


def test_first_volterra_factor_is_brownian_motion():
    g = Grid(37)
    assert np.array_equal(volterra_green(1, g).mat, classic_kernels("bm", g)[1].mat)
    with pytest.raises(InvalidParam):
        volterra_green(0, g)
    with pytest.raises(InvalidParam):
        volterra_green(1.5, g)


def test_factor_covariances_converge_to_kernels():
    # g g* and the discretized kernel differ by one half-cell, an O(1/m) gap
    for m in (50, 100, 200):
        g = Grid(m)
        k_bm, g_bm = classic_kernels("bm", g)
        gap = np.linalg.norm(g_bm.mat @ g_bm.mat.T - k_bm.mat)
        assert gap <= 1.0 / m
    # composing two single integrations matches double integration to O(1/m)
    gaps = []
    for m in (50, 100, 200):
        g = Grid(m)
        v1 = volterra_green(1, g)
        gaps.append(np.linalg.norm(v1.compose(v1).mat - volterra_green(2, g).mat))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[0] / gaps[1] >= 1.7


def test_analytic_values_are_exact_rationals():
    assert ibm_w2_analytic(1, 2) == float(Fraction(1, 2))
    assert ibm_w2_analytic(1, 3) == float(Fraction(41, 120))
    assert ibm_w2_analytic(2, 3) == float(Fraction(1, 12))
    assert ibm_w2_analytic(2, 2) == 0.0
    assert ibm_w2_analytic(5, 5) == 0.0
    assert ibm_w2_analytic(1, 2) == ibm_w2_analytic(2, 1)
    with pytest.raises(InvalidParam):
        ibm_w2_analytic(0, 2)
    with pytest.raises(InvalidParam):
        ibm_w2_analytic(1, 2.0)


def test_numeric_distance_frozen_value_and_convergence_order():
    # deterministic discretization, frozen against this library
    assert ibm_w2_numeric(1, 2, 200) == pytest.approx(0.209608069900352, abs=1e-7)
    # self-distance is limited by the spectral floor cutting the deep tail
    # of a kernel whose eigenvalues decay like k**-6, not by roundoff
    assert ibm_w2_numeric(3, 3, 60) <= 1e-6
    # successive-difference ratio ~2: first-order convergence to the limit
    v125 = ibm_w2_numeric(1, 2, 125)
    v250 = ibm_w2_numeric(1, 2, 250)
    v500 = ibm_w2_numeric(1, 2, 500)
    assert abs(v125 - v250) / abs(v250 - v500) >= 1.7
    # the limit is far from the closed-form expression: the symmetry
    # assumption behind that expression fails off the diagonal n = m
    assert abs(v500 - ibm_w2_analytic(1, 2)) > 0.25


def test_cross_gram_certificates():
    g = Grid(200)
    g_bm = classic_kernels("bm", g)[1]
    g_bb = classic_kernels("bb", g)[1]
    cert = cross_gram_certificate(g_bm, g_bb)
    assert cert.kind == "asymmetric"
    assert cert.asymmetry > 10 * 1e-8 * np.linalg.norm(g_bm.mat.T @ g_bb.mat)

    v1, v2 = volterra_green(1, g), volterra_green(2, g)
    assert cross_gram_certificate(v1, v2).kind == "asymmetric"
    assert cross_gram_certificate(v1, v1).kind == "psd"
    assert cross_gram_certificate(v2, v2).kind == "psd"
    flipped = DiscretizedOperator(g, -v1.mat)
    assert cross_gram_certificate(v1, flipped).kind == "symmetric_not_psd"
    with pytest.raises(InvalidParam):
        cross_gram_certificate(v1, volterra_green(1, Grid(100)))


def test_bm_bb_cross_kernel_matches_hand_integral():
    # integral of 1[u >= s] (1[u >= t] - u) du = (1 - max(s,t)) - (1 - s^2)/2
    g = Grid(200)
    g_bm = classic_kernels("bm", g)[1]
    g_bb = classic_kernels("bb", g)[1]
    got = g_bm.mat.T @ g_bb.mat / g.weight
    s = g.points
    want = (1 - np.maximum(s[:, None], s[None, :])) - (1 - s[:, None] ** 2) / 2
    assert np.abs(got - want).max() <= 1.0 / g.m


def test_mercer_composites_are_psd_with_correct_boundary_values():
    g = Grid(200)
    for which in ("k121", "k212"):
        mc = mercer_composite(g, which)
        sym = (mc.mat + mc.mat.T) / 2
        assert np.abs(mc.mat - mc.mat.T).max() <= 1e-15
        assert np.linalg.eigvalsh(sym)[0] >= -1e-12
    with pytest.raises(InvalidParam):
        mercer_composite(g, "k111")

    # spot values against the worked double integrals
    assert composite_kernel_value(g, "k121", 1.0, 1.0) == 0.0
    assert composite_kernel_value(g, "k121", 0.0, 0.0) == pytest.approx(1 / 12, abs=1e-5)
    assert composite_kernel_value(g, "k212", 0.0, 0.0) == pytest.approx(1 / 20, abs=1e-5)
    with pytest.raises(InvalidParam):
        composite_kernel_value(g, "k313", 0.0, 0.0)


def test_composite_quadrature_matches_grid_matrix():
    # at grid points the off-grid quadrature reproduces the matrix entries
    g = Grid(40)
    mc = mercer_composite(g, "k121")
    for i in (0, 13, 39):
        for j in (5, 26):
            val = composite_kernel_value(g, "k121", g.points[i], g.points[j])
            assert val == pytest.approx(mc.mat[i, j] / g.weight, abs=1e-12)


def test_pre_pushforward_between_integrated_motions():
    # the extra integration maps the lower process onto the higher one, with
    # the discretization drifting at first order
    gaps, traces = [], []
    for m in (50, 100, 200):
        g = Grid(m)
        t_op = volterra_green(1, g)
        g1 = volterra_green(1, g)
        k2 = volterra_green(2, g)
        pushed = t_op.mat @ g1.mat
        gaps.append(np.linalg.norm(pushed @ pushed.T - k2.mat @ k2.mat.T))
        traces.append(float(np.trace(g1.mat.T @ pushed)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[1] / gaps[2] >= 1.7
    # the alignment trace stays strictly positive, tending to 1/6
    for m, tr in zip((50, 100, 200), traces):
        assert tr > 0.1
        assert abs(tr - 1 / 6) <= 0.6 / m
