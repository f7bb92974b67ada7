import numpy as np
import pytest

from bwt import (
    CovMatrix,
    GreenFactor,
    InvalidInput,
    block_decompose,
    green_factor,
    numeric_rank,
    psd_function,
    schur_complement,
    schur_rank_identity,
)
from bwt.linalg import _thin_factor
from bwt.schur import _projection_route
from conftest import rand_psd, rand_rank

A3 = CovMatrix(np.diag([4.0, 1.0, 0.0]))
B3 = CovMatrix(np.array([[0, 0, 0], [0, 4, 2], [0, 2, 1]], dtype=float))
C3 = CovMatrix(np.diag([0.0, 0.0, 1.0]))


def test_block_decompose_splits_range_and_null():
    bv = block_decompose(A3, B3)
    assert bv.rank == 2
    q = np.hstack([bv.q1, bv.q2])
    assert np.linalg.norm(q.T @ q - np.eye(3)) <= 1e-12
    # q1 spans range(a): compressing a onto q2 gives zero
    assert np.linalg.norm(bv.q2.T @ A3.data @ bv.q2) <= 1e-12
    assert np.linalg.norm(bv.q1.T @ A3.data @ bv.q2) <= 1e-12
    # reassembling the blocks recovers b
    top = np.hstack([bv.b11, bv.b12])
    bot = np.hstack([bv.b21, bv.b22])
    recon = q @ np.vstack([top, bot]) @ q.T
    assert np.linalg.norm(recon - B3.data) <= 1e-12


def test_block_decompose_accepts_symmetric_indefinite_second_argument():
    ind = np.diag([1.0, -1.0, 0.5])
    bv = block_decompose(A3, ind)
    assert bv.b22.shape == (1, 1)
    with pytest.raises(InvalidInput):
        block_decompose(A3, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))
    with pytest.raises(InvalidInput, match="expected a 3x3 matrix"):
        block_decompose(A3, np.eye(2))


def test_schur_complement_hand_examples():
    # range(B) clears null(A): complement vanishes
    res = schur_complement(A3, B3)
    assert np.linalg.norm(res.value) <= 1e-10
    assert res.rank == 0
    # C sits entirely inside null(A): complement is C itself
    res2 = schur_complement(A3, C3)
    assert np.linalg.norm(res2.value - C3.data) <= 1e-10
    assert res2.rank == 1
    # over a full-rank base the complement is always zero
    full = CovMatrix(np.eye(3))
    res3 = schur_complement(full, B3)
    assert np.linalg.norm(res3.value) <= 1e-10
    assert res3.rank == 0
    # null(a) is empty: exact zeros, with no route run and no gap between them
    assert res3.value.tobytes() == np.zeros((3, 3)).tobytes()
    assert res3.path_residual == 0.0


def test_schur_complement_of_self_is_zero():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(1, 8))
        a = rand_psd(rng, n, rand_rank(rng, n))
        res = schur_complement(a, a)
        assert np.linalg.norm(res.value) <= 1e-9 * (1 + np.linalg.norm(a.data))
        assert res.rank == 0


def test_schur_complement_dual_routes_agree_on_seeded_pairs():
    rng = np.random.default_rng(22)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        a = rand_psd(rng, n, rand_rank(rng, n))
        b = rand_psd(rng, n, rand_rank(rng, n))
        res = schur_complement(a, b)
        scale = 1 + np.linalg.norm(b.data)
        assert res.path_residual <= 1e-8 * scale
        # the complement is PSD and supported on null(a)
        w = np.linalg.eigvalsh(res.value)
        assert w[0] >= -1e-9 * scale
        assert np.linalg.norm(a.data @ res.value) <= 1e-8 * scale * np.linalg.norm(a.data)


def test_schur_rank_identity_on_seeded_pairs():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(1, 10))
        a = rand_psd(rng, n, rand_rank(rng, n))
        b = rand_psd(rng, n, rand_rank(rng, n))
        lhs, rhs = schur_rank_identity(a, b)
        assert lhs == rhs
        assert lhs == numeric_rank(b) - rhs_via_direct(a, b)


def rhs_via_direct(a, b):
    # independent computation of rank(g.T b g) through the symmetric root
    w_a, u_a = np.linalg.eigh(a.data)
    live = w_a > a.tol_rel * max(w_a[-1], 0.0)
    g = u_a[:, live] * np.sqrt(w_a[live])
    mid = g.T @ b.data @ g
    w = np.linalg.eigvalsh((mid + mid.T) / 2)
    if w.size == 0 or w[-1] <= 0.0:
        return 0
    tol = max(a.tol_rel, b.tol_rel)
    return int(np.count_nonzero(w > tol * w[-1]))


def test_schur_rank_identity_hand_values():
    assert schur_rank_identity(A3, B3) == (0, 0)
    assert schur_rank_identity(A3, C3) == (1, 1)
    # a factor of the wrong size is an input error, not numpy's ValueError
    a = CovMatrix(np.diag([1.0, 1.0, 0.0]))
    with pytest.raises(InvalidInput, match="factor shape"):
        schur_rank_identity(a, a, GreenFactor(np.eye(2), 2))
    # a plain square array is a factor too, as in align_green and dual_conjugate
    assert schur_rank_identity(A3, C3, green_factor(A3).g.copy()) == (1, 1)
    with pytest.raises(InvalidInput, match="factor shape"):
        schur_rank_identity(a, a, np.eye(2))


def test_block_view_is_read_only_and_shared():
    bv = block_decompose(A3, B3)
    assert block_decompose(A3, B3) is bv
    for name in ("q1", "q2", "a11", "b11", "b12", "b21", "b22"):
        with pytest.raises(ValueError):
            getattr(bv, name)[...] = 0.0
    # a raw array is split afresh, into read-only blocks as well
    raw = block_decompose(A3, B3.data.copy())
    assert raw is not bv
    assert raw.b11.tobytes() == bv.b11.tobytes()
    with pytest.raises(ValueError):
        raw.b11[0, 0] = 1.0


def _old_projection_route(a, b):
    """Route 2 as b^(1/2) P b^(1/2) on null(a), with P from the n x n SVD of
    g^T b^(1/2) for the square spectral factor g of a."""
    tol = max(a.tol_rel, b.tol_rel)
    root = psd_function(b, "sqrt")
    _, s, vt = np.linalg.svd(green_factor(a).g.T @ root)
    cut = tol * np.sqrt(a.lam_max * b.lam_max)
    v = vt[np.count_nonzero(s > cut):].T
    q2 = block_decompose(a, b).q2
    return q2.T @ root @ v @ v.T @ root @ q2


def test_projection_route_on_thin_factors_matches_the_square_svd():
    rng = np.random.default_rng(24)
    for k in range(50):
        n = int(rng.integers(2, 10))
        # a singular, of rank 0 on every fifth pair; b of rank 0 on every seventh
        ra = 0 if k % 5 == 0 else int(rng.integers(1, n))
        rb = 0 if k % 7 == 3 else int(rng.integers(1, n + 1))
        a, b = rand_psd(rng, n, ra), rand_psd(rng, n, rb)
        scale = 1.0 + np.linalg.norm(b.data)
        new = _projection_route(a, b, block_decompose(a, b).q2)
        assert np.abs(new - _old_projection_route(a, b)).max() <= 1e-12 * scale
        assert schur_complement(a, b).path_residual <= 1e-12 * scale



def _null_basis_route(a, b, q2):
    """Route 2 as f_b N N^T f_b^T on null(a), with N the right singular
    vectors of f_a^T f_b past the cut, from its full SVD."""
    tol = max(a.tol_rel, b.tol_rel)
    f_b = _thin_factor(b)
    _, s, vt = np.linalg.svd(_thin_factor(a).T @ f_b)
    n_basis = vt[np.count_nonzero(s > tol * np.sqrt(a.lam_max * b.lam_max)):].T
    y = q2.T @ f_b @ n_basis
    p = y @ y.T
    return (p + p.T) / 2


def _offset_pair(rng, n, ra, rb):
    """a of rank ra on the first ra axes of a random basis, b of rank rb on
    rb axes of it from a random offset: f_a^T f_b has the rank of their
    overlap, below min(ra, rb) whenever b reaches past range(a)."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    k = int(rng.integers(0, n - rb + 1))
    fa = q[:, :ra] * np.sqrt(rng.uniform(0.5, 2.5, ra))
    fb = q[:, k : k + rb] @ np.linalg.qr(rng.standard_normal((rb, rb)))[0]
    fb = fb * np.sqrt(rng.uniform(0.5, 2.5, rb))
    ga, gb = fa @ fa.T, fb @ fb.T
    return CovMatrix((ga + ga.T) / 2), CovMatrix((gb + gb.T) / 2)


@pytest.mark.parametrize("order", ["ra<rb", "ra>rb", "ra=rb"])
def test_projection_route_matches_the_null_basis_of_the_full_svd(order):
    # Y Y^T - Z Z^T from the thin SVD is f_b N N^T f_b^T, on random pairs
    # and on pairs whose cross Gram is rank-deficient
    rng = np.random.default_rng({"ra<rb": 25, "ra>rb": 26, "ra=rb": 27}[order])
    for k in range(30):
        n = int(rng.integers(4, 12))
        if order == "ra<rb":
            ra = int(rng.integers(1, n - 1))
            rb = int(rng.integers(ra + 1, n + 1))
        elif order == "ra>rb":
            ra = int(rng.integers(2, n))
            rb = int(rng.integers(1, ra))
        else:
            ra = rb = int(rng.integers(1, n))
        if k % 2:
            a, b = _offset_pair(rng, n, ra, rb)
        else:
            a, b = rand_psd(rng, n, ra), rand_psd(rng, n, rb)
        assert (numeric_rank(a), numeric_rank(b)) == (ra, rb)
        q2 = block_decompose(a, b).q2
        gap = np.abs(_projection_route(a, b, q2) - _null_basis_route(a, b, q2)).max()
        assert gap <= 1e-12 * (1.0 + np.linalg.norm(b.data))
