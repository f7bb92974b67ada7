import ast
from pathlib import Path

import numpy as np
import pytest

import bwt
from bwt import (
    CovMatrix,
    GreenFactor,
    InvalidInput,
    Unreachable,
    align_green,
    green_factor,
    make_path,
    numeric_rank,
    psd_function,
    spectral_decompose,
    trace_fidelity,
)
from bwt.linalg import _sym
from bwt.transport import _core
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


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
def test_sym_is_the_halved_sum_bit_for_bit(scale):
    # _sym halves in place by 0.5; it must round exactly as (m + m.T) / 2
    rng = np.random.default_rng(19)
    for n in (1, 2, 7, 40):
        m = scale * rng.standard_normal((n, n))
        assert _sym(m).tobytes() == ((m + m.T) / 2).tobytes()


def test_construction_is_idempotent():
    # data is the symmetrized input, so wrapping it again changes no byte
    rng = np.random.default_rng(0)
    for _ in range(50):
        c = rand_psd(rng, 6, 3)
        assert CovMatrix(c.data).data.tobytes() == c.data.tobytes()


def _near_cut(rng):
    """A covariance whose smallest eigenvalue sits within a relative 1e-5 of
    the default rank cut, where eigh and eigvalsh can fall on either side."""
    n = int(rng.integers(3, 9))
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.concatenate([[1.0], rng.uniform(0.5, 0.99, size=n - 2),
                           [1e-10 * (1.0 + rng.uniform(-1e-5, 1e-5))]])
    m = (q * vals) @ q.T
    return CovMatrix((m + m.T) / 2.0)


def test_one_rank_per_covariance():
    rng = np.random.default_rng(0)
    for _ in range(400):
        a = _near_cut(rng)
        r = numeric_rank(a)
        assert spectral_decompose(a).rank == r
        assert np.count_nonzero(np.any(green_factor(a).g != 0.0, axis=0)) == r
        assert np.linalg.matrix_rank(psd_function(a, "sqrt")) == r
        # the range/null split and the reachability test see the same rank,
        # so the Monge path is built or refused, never inconsistent
        try:
            make_path(a, CovMatrix(0.5 * np.eye(a.n)))
        except Unreachable:
            assert r < a.n


def test_pair_context_factors_a11_at_the_split_rank():
    # g11 comes from a's own spectrum, so near the cut it keeps every
    # direction the range/null split keeps, and it factors q1.T a q1
    # multiplied out, not only the a11 the split reads from that spectrum
    rng = np.random.default_rng(1)
    for _ in range(400):
        a = _near_cut(rng)
        core = _core(a, CovMatrix(0.5 * np.eye(a.n)))
        assert core.r == numeric_rank(a)
        g11, ig11 = np.diag(core.root), np.diag(core.iroot)
        assert np.linalg.matrix_rank(g11) == core.r
        assert np.abs(g11 @ ig11 - np.eye(core.r)).max() <= 1e-12
        q1 = core.bv.q1
        assert np.abs(g11 @ g11 - q1.T @ a.data @ q1).max() <= 1e-12


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


def test_align_green_on_singular_target_matches_the_full_svd():
    # the n x r construction against the n x n one it replaces: for a
    # generic reference the maximizer is unique, so the two agree to roundoff
    rng = np.random.default_rng(18)
    for n, r in [(2, 1), (5, 2), (8, 7), (12, 3), (30, 10)]:
        a2 = rand_psd(rng, n, r)
        ref = rng.standard_normal((n, n))
        w, u = np.linalg.eigh(a2.data)
        w = np.where(w > 1e-10 * w[-1], w, 0.0)
        root = (u * np.sqrt(w)) @ u.T
        p, _, qt = np.linalg.svd(ref.T @ root)
        want = root @ qt.T @ p.T
        got = align_green(ref, a2).g
        assert np.abs(got - want).max() <= 1e-12 * (1 + np.linalg.norm(a2.data))


def _ascending_psd_function(a, f):
    """psd_function on the ascending, unsigned eigh of ``a``: its top
    numeric_rank eigenpairs are the last ones."""
    w, u = np.linalg.eigh(a.data)
    live = slice(a.n - numeric_rank(a), None)
    fw = np.zeros_like(w)
    fw[live] = {"sqrt": np.sqrt, "pinv": lambda x: 1.0 / x,
                "pinv_sqrt": lambda x: 1.0 / np.sqrt(x)}[f](w[live])
    return (u * fw) @ u.T


def _ascending_align_green(ref, a2):
    """align_green on the ascending, unsigned eigh of ``a2``."""
    w, u = np.linalg.eigh(a2.data)
    r = numeric_rank(a2)
    if r:
        f = u[:, a2.n - r :] * np.sqrt(w[a2.n - r :])
        p, s, qt = np.linalg.svd(ref.T @ f, full_matrices=False)
        if np.count_nonzero(s > a2.tol_rel * s[0]) == r:
            return f @ qt.T @ p.T
    root = _ascending_psd_function(a2, "sqrt")
    p, _, qt = np.linalg.svd(ref.T @ root)
    return root @ qt.T @ p.T


def test_signed_spectrum_matches_the_ascending_eigh():
    # the one signed, descending spectrum against the ascending eigh that
    # psd_function and align_green read before: near-cut draws (rank n - 1 or
    # n), rank 0 and random ranks, against a generic and a zero reference
    rng = np.random.default_rng(19)
    draws = [_near_cut(rng) for _ in range(200)]
    for n in (1, 3, 8):
        draws += [CovMatrix(np.zeros((n, n))), rand_psd(rng, n),
                  rand_psd(rng, n, int(rng.integers(1, n + 1)))]
    for a in draws:
        for f in ("sqrt", "pinv", "pinv_sqrt"):
            want = _ascending_psd_function(a, f)
            assert np.abs(psd_function(a, f) - want).max() <= 1e-12 * (1 + np.linalg.norm(want))
        for ref in (rng.standard_normal((a.n, a.n)), np.zeros((a.n, a.n))):
            want = _ascending_align_green(ref, a)
            got = align_green(ref, a).g
            assert np.abs(got - want).max() <= 1e-12 * (1 + np.linalg.norm(want))


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
    with pytest.raises(InvalidInput, match="must be square"):
        align_green(np.zeros((4, 2)), a2)


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


def _threshold_spellings(tree: ast.AST):
    """The threshold forms that only bwt.linalg may spell, as (line, form):
    a 1e-300 floor, a max(..., 1.0) floor, a tol * (1 + ...) bound and a max
    over tol_rel attributes."""

    def is_one(node):
        return isinstance(node, ast.Constant) and node.value == 1

    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and node.value == 1e-300:
            yield node.lineno, "1e-300"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max":
            if len(node.args) > 1 and is_one(node.args[-1]):
                yield node.lineno, "max(..., 1.0)"
            if any(isinstance(sub, ast.Attribute) and sub.attr == "tol_rel"
                   for arg in node.args for sub in ast.walk(arg)):
                yield node.lineno, "max(...tol_rel...)"
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            for side in (node.left, node.right):
                if (isinstance(side, ast.BinOp) and isinstance(side.op, ast.Add)
                        and (is_one(side.left) or is_one(side.right))):
                    yield node.lineno, "tol * (1 + ...)"


def test_threshold_forms_are_spelled_only_in_linalg():
    # every threshold is tol * scale or linalg._tol_bound's tol * (1 + scale),
    # and work on several covariances cuts at linalg._joint_tol
    src = Path(bwt.__file__).parent
    found = [
        f"{path.name}:{line}: {form}"
        for path in sorted(src.glob("*.py")) if path.name != "linalg.py"
        for line, form in _threshold_spellings(ast.parse(path.read_text()))
    ]
    assert found == []
    # the detector sees each form
    probe = "max(a, 1e-300); max(a, 1.0); tol * (1.0 + d); max(a.tol_rel, b.tol_rel)"
    assert sorted(form for _, form in _threshold_spellings(ast.parse(probe))) == [
        "1e-300", "max(..., 1.0)", "max(...tol_rel...)", "tol * (1 + ...)"]
