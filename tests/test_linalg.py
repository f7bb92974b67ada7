import numpy as np
import pytest

from bwt import (
    CovMatrix,
    GreenFactor,
    InvalidInput,
    align_green,
    green_factor,
    numeric_rank,
    psd_function,
    spectral_decompose,
    trace_fidelity,
)
from conftest import rand_psd, rand_rank


def test_cov_matrix_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        CovMatrix(np.zeros((2, 3)))
    with pytest.raises(InvalidInput):
        CovMatrix(np.zeros((0, 0)))
    with pytest.raises(InvalidInput):
        CovMatrix(np.array([1.0, 2.0]))


def test_cov_matrix_rejects_nonfinite_and_asymmetric():
    with pytest.raises(InvalidInput):
        CovMatrix(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(InvalidInput):
        CovMatrix(np.array([[1.0, 0.5], [0.1, 1.0]]))


@pytest.mark.parametrize("tol_rel", [0.0, -1.0, float("nan"), float("inf")])
def test_cov_matrix_rejects_a_tolerance_that_is_not_finite_and_positive(tol_rel):
    with pytest.raises(InvalidInput, match="tol_rel must be finite and positive"):
        CovMatrix(np.diag([4.0, 1.0, 0.0]), tol_rel=tol_rel)


def test_cov_matrix_rejects_indefinite():
    with pytest.raises(InvalidInput):
        CovMatrix(np.diag([1.0, -1.0]))


def test_cov_matrix_symmetrizes_and_clamps_small_noise():
    base = np.diag([2.0, 1.0, 0.0])
    noisy = base + 3e-15 * np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    c = CovMatrix(noisy)
    assert np.array_equal(c.data, c.data.T)
    assert np.linalg.eigvalsh(c.data)[0] >= -1e-16
    assert c.trace() == pytest.approx(3.0, abs=1e-12)
    assert c.n == 3


def test_spectral_decompose_descending_rank_and_reconstruction():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        r = rand_rank(rng, n)
        a = rand_psd(rng, n, r)
        dec = spectral_decompose(a)
        assert dec.rank == r
        assert np.all(np.diff(dec.eigvals) <= 1e-12)
        recon = (dec.eigvecs * dec.eigvals) @ dec.eigvecs.T
        assert np.linalg.norm(recon - a.data) <= 1e-12 * (1 + np.linalg.norm(a.data))
        # orthonormal columns and the sign convention
        assert np.linalg.norm(dec.eigvecs.T @ dec.eigvecs - np.eye(n)) <= 1e-12
        for j in range(n):
            col = dec.eigvecs[:, j]
            assert col[np.argmax(np.abs(col))] > 0.0


def test_spectral_sign_convention_is_reproducible():
    rng = np.random.default_rng(12)
    a = rand_psd(rng, 6, 4)
    d1 = spectral_decompose(a)
    # same object decomposes to the same bits
    d2 = spectral_decompose(a)
    assert np.array_equal(d1.eigvecs, d2.eigvecs)
    assert np.array_equal(d1.eigvals, d2.eigvals)
    # a re-validated copy may differ by construction roundoff, but the live
    # columns are pinned by the sign convention
    d3 = spectral_decompose(CovMatrix(a.data.copy()))
    assert np.allclose(d1.eigvecs[:, : d1.rank], d3.eigvecs[:, : d3.rank], atol=1e-10)


def test_psd_function_identities():
    rng = np.random.default_rng(13)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        a = rand_psd(rng, n, rand_rank(rng, n))
        root = psd_function(a, "sqrt")
        pinv = psd_function(a, "pinv")
        half_inv = psd_function(a, "pinv_sqrt")
        scale = 1 + np.linalg.norm(a.data)
        assert np.linalg.norm(root @ root - a.data) <= 1e-10 * scale
        assert np.linalg.norm(a.data @ pinv @ a.data - a.data) <= 1e-9 * scale
        assert np.linalg.norm(half_inv @ half_inv - pinv) <= 1e-9 * (1 + np.linalg.norm(pinv))


def test_psd_function_unknown_name():
    a = rand_psd(np.random.default_rng(0), 3)
    with pytest.raises(InvalidInput):
        psd_function(a, "log")


def test_numeric_rank_tolerance_dependence():
    a = CovMatrix(np.diag([1.0, 1e-4, 0.0]))
    assert numeric_rank(a) == 2
    loose = CovMatrix(np.diag([1.0, 1e-4, 0.0]), tol_rel=1e-2)
    assert numeric_rank(loose) == 1
    assert numeric_rank(CovMatrix(np.zeros((3, 3)))) == 0


@pytest.mark.parametrize("method", ["spectral", "pivoted_cholesky"])
def test_green_factor_reconstructs(method):
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        a = rand_psd(rng, n, rand_rank(rng, n))
        gf = green_factor(a, method=method)
        assert gf.g.shape == (n, n)
        assert np.linalg.norm(gf.g @ gf.g.T - a.data) <= 1e-9 * (1 + np.linalg.norm(a.data))


def test_green_factor_pivoted_cholesky_structure():
    rng = np.random.default_rng(15)
    a = rand_psd(rng, 6, 3)
    g = green_factor(a, method="pivoted_cholesky").g
    # exactly rank columns carry mass
    col_norms = np.linalg.norm(g, axis=0)
    assert np.count_nonzero(col_norms > 1e-12) == 3
    with pytest.raises(InvalidInput):
        green_factor(a, method="cholesky")


def test_align_green_gram_is_psd_and_trace_maximal():
    rng = np.random.default_rng(16)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        ref = rng.standard_normal((n, n))
        a2 = rand_psd(rng, n, rand_rank(rng, n))
        g2 = align_green(ref, a2)
        assert np.linalg.norm(g2.g @ g2.g.T - a2.data) <= 1e-9 * (1 + np.linalg.norm(a2.data))
        gram = ref.T @ g2.g
        asym = np.linalg.norm(gram - gram.T)
        assert asym <= 1e-9 * (1 + np.linalg.norm(gram))
        assert np.linalg.eigvalsh((gram + gram.T) / 2)[0] >= -1e-9 * (1 + np.linalg.norm(gram))
        # no other factor of a2 does better on the alignment objective
        best = np.trace(gram)
        for _ in range(8):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            alt = g2.g @ q
            assert np.trace(ref.T @ alt) <= best + 1e-9 * (1 + abs(best))


def test_align_green_accepts_green_factor_reference():
    rng = np.random.default_rng(17)
    a1 = rand_psd(rng, 4, 2)
    a2 = rand_psd(rng, 4, 3)
    g1 = green_factor(a1)
    g2 = align_green(g1, a2)
    gram = g1.padded().T @ g2.g
    assert np.linalg.eigvalsh((gram + gram.T) / 2)[0] >= -1e-10 * (1 + np.linalg.norm(gram))
    with pytest.raises(InvalidInput):
        align_green(np.zeros((3, 3)), a2)


def test_trace_fidelity_known_values():
    a = CovMatrix(np.diag([4.0, 1.0, 0.0]))
    b = CovMatrix(np.array([[0, 0, 0], [0, 4, 2], [0, 2, 1]], dtype=float))
    assert trace_fidelity(a, b) == pytest.approx(2.0, abs=1e-12)
    assert trace_fidelity(a, a) == pytest.approx(a.trace(), abs=1e-12)
    # commuting diagonal case: sum of sqrt of products
    c = CovMatrix(np.diag([1.0, 4.0, 9.0]))
    d = CovMatrix(np.diag([4.0, 1.0, 1.0]))
    assert trace_fidelity(c, d) == pytest.approx(2.0 + 2.0 + 3.0, abs=1e-12)


def test_trace_fidelity_symmetric_exactly_and_factor_invariant():
    rng = np.random.default_rng(18)
    for _ in range(15):
        n = int(rng.integers(1, 8))
        a = rand_psd(rng, n, rand_rank(rng, n))
        b = rand_psd(rng, n, rand_rank(rng, n))
        assert trace_fidelity(a, b) == trace_fidelity(b, a)
        # independent route through the symmetric square root of a
        root = psd_function(a, "sqrt")
        mid = root @ b.data @ root
        w = np.linalg.eigvalsh((mid + mid.T) / 2)
        direct = np.sqrt(np.clip(w, 0, None)).sum()
        # the raw clipped route keeps sqrt(eps)-sized noise contributions at
        # zero eigenvalues, so agreement is ~1e-8 for singular pairs and
        # tight otherwise
        assert trace_fidelity(a, b) == pytest.approx(direct, abs=1e-7 * (1 + direct))
        if numeric_rank(a) == n and numeric_rank(b) == n:
            assert trace_fidelity(a, b) == pytest.approx(direct, abs=1e-11 * (1 + direct))


def test_green_factor_padded_roundtrip():
    g = GreenFactor(g=np.array([[1.0], [2.0]]), parent_dim=2)
    padded = g.padded()
    assert padded.shape == (2, 2)
    assert np.array_equal(padded[:, 0], [1.0, 2.0])
    assert np.array_equal(padded[:, 1], [0.0, 0.0])
