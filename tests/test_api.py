"""The public surface: the exported names, their signatures, and the one
pair check every two-covariance function shares."""

import inspect

import numpy as np
import pytest

import bwt
from bwt import CovMatrix, InvalidInput

PUBLIC_NAMES = [
    "BarycenterProblem", "BarycenterResult", "BlockView", "BwtError", "CovMatrix",
    "DiscretizedOperator", "GeodesicParam", "GeodesicPath", "GramCertificate", "GreenFactor",
    "Grid", "INFINITE", "Infinite", "InvalidInput", "InvalidParam", "NoSpdMap",
    "NotInvertible", "NumericalInconsistency", "PointClass", "PreconditionFailed",
    "SchurResult", "SpdReachReport", "SpectralDecomp", "TransportMap", "Unreachable",
    "align_green", "barycenter", "block_decompose", "canonical_spd_map", "classic_kernels",
    "classify_point", "composite_kernel_value", "cross_gram_certificate", "dual_conjugate",
    "errors", "fixed_point_residual", "frechet_variance", "geodesic", "gproc", "green_factor",
    "green_pair", "hierarchical_closed_form", "ibm_w2_analytic", "ibm_w2_numeric",
    "is_reachable", "kantorovich_point", "linalg", "make_param", "make_path",
    "mccann_interpolant", "mercer_composite", "multicoupling_kernel", "numeric_rank",
    "optimal_coupling", "orthogonal_closed_form", "ot_map", "psd_function",
    "pusz_woronowicz", "ranges_orthogonal", "raw_param", "sample_path", "schur",
    "schur_complement", "schur_rank_identity", "solve_bcd", "spd_reachability",
    "spectral_decompose", "trace_fidelity", "transport", "volterra_green", "w2_distance",
]


def test_public_names_are_pinned():
    assert sorted(bwt.__all__) == PUBLIC_NAMES


#: ``str(inspect.signature(f))`` of every public callable but the exception
#: classes, which take a message alone.
SIGNATURES = {
    "BarycenterProblem": "(covs: 'tuple', weights: 'tuple') -> None",
    "BarycenterResult": (
        "(a_hat: 'CovMatrix', greens: 'tuple', g_hat: 'np.ndarray', objective: 'float', "
        "frechet_variance: 'float', iterations: 'int', converged: 'bool', "
        "objective_history: 'tuple') -> None"
    ),
    "BlockView": (
        "(q1: 'np.ndarray', q2: 'np.ndarray', a11: 'np.ndarray', b11: 'np.ndarray', "
        "b12: 'np.ndarray', b21: 'np.ndarray', b22: 'np.ndarray') -> None"
    ),
    "CovMatrix": "(data: 'np.ndarray', tol_rel: 'float' = 1e-10) -> None",
    "DiscretizedOperator": "(grid: 'Grid', mat: 'np.ndarray') -> None",
    "GeodesicParam": "(n12: 'np.ndarray', m22: 'np.ndarray', kind: 'str') -> None",
    "GeodesicPath": (
        "(a: 'CovMatrix', b: 'CovMatrix', param: 'GeodesicParam', g: 'np.ndarray', "
        "m: 'np.ndarray')"
    ),
    "GramCertificate": "(kind: 'str', min_eig: 'float', asymmetry: 'float') -> None",
    "GreenFactor": "(g: 'np.ndarray', parent_dim: 'int') -> None",
    "Grid": "(m: 'int') -> None",
    "Infinite": "()",
    "PointClass": "(kind: 'str', rank_gamma: 'int', rank_a: 'int', schur_norm: 'float') -> None",
    "SchurResult": "(value: 'np.ndarray', rank: 'int', path_residual: 'float') -> None",
    "SpdReachReport": (
        "(spd_exists: 'bool', as_unique: 'bool', schur_zero: 'bool', range_eq: 'bool', "
        "trivial_intersection: 'bool', witness: 'TransportMap | None') -> None"
    ),
    "SpectralDecomp": "(eigvals: 'np.ndarray', eigvecs: 'np.ndarray', rank: 'int') -> None",
    "TransportMap": (
        "(t: 'np.ndarray', t11: 'np.ndarray', t21: 'np.ndarray', u12: 'np.ndarray', "
        "free_blocks: 'str', residual_transport: 'float', "
        "residual_optimality: 'float') -> None"
    ),
    "align_green": "(g1, a2: 'CovMatrix') -> 'GreenFactor'",
    "block_decompose": "(a: 'CovMatrix', b) -> 'BlockView'",
    "canonical_spd_map": (
        "(a: 'CovMatrix', b: 'CovMatrix', tol_map: 'float' = 1e-08) -> 'TransportMap'"
    ),
    "classic_kernels": "(which: 'str', grid: 'Grid')",
    "classify_point": (
        "(a: 'CovMatrix', b: 'CovMatrix', gamma: 'CovMatrix', t: 'float') -> 'PointClass'"
    ),
    "composite_kernel_value": "(grid: 'Grid', which: 'str', s: 'float', t: 'float') -> 'float'",
    "cross_gram_certificate": (
        "(g1: 'DiscretizedOperator', g2: 'DiscretizedOperator') -> 'GramCertificate'"
    ),
    "dual_conjugate": "(g: 'GreenFactor', m: 'GreenFactor', y, tol_map: 'float' = 1e-08)",
    "fixed_point_residual": "(problem: 'BarycenterProblem', a_hat: 'CovMatrix') -> 'float'",
    "frechet_variance": "(problem: 'BarycenterProblem', a_hat: 'CovMatrix') -> 'float'",
    "green_factor": "(a: 'CovMatrix', method: 'str' = 'spectral') -> 'GreenFactor'",
    "green_pair": "(a: 'CovMatrix', b: 'CovMatrix', param: 'GeodesicParam')",
    "hierarchical_closed_form": (
        "(groups, outer_weights, max_iter: 'int' = 500, tol_obj: 'float | None' = None, "
        "seed: 'int | None' = None) -> 'BarycenterResult'"
    ),
    "ibm_w2_analytic": "(n: 'int', m: 'int') -> 'float'",
    "ibm_w2_numeric": "(n: 'int', m: 'int', num_points: 'int') -> 'float'",
    "is_reachable": "(a: 'CovMatrix', b: 'CovMatrix') -> 'bool'",
    "kantorovich_point": (
        "(a: 'CovMatrix', b: 'CovMatrix', param: 'GeodesicParam', t: 'float') -> 'CovMatrix'"
    ),
    "make_param": (
        "(a: 'CovMatrix', b: 'CovMatrix', style: 'str' = 'extreme', "
        "s: 'float | None' = None) -> 'GeodesicParam'"
    ),
    "make_path": (
        "(a: 'CovMatrix', b: 'CovMatrix', style: 'str' = 'extreme', "
        "s: 'float | None' = None) -> 'GeodesicPath'"
    ),
    "mccann_interpolant": "(a: 'CovMatrix', tmap, t: 'float') -> 'CovMatrix'",
    "mercer_composite": "(grid: 'Grid', which: 'str') -> 'DiscretizedOperator'",
    "multicoupling_kernel": "(result: 'BarycenterResult') -> 'np.ndarray'",
    "numeric_rank": "(a: 'CovMatrix') -> 'int'",
    "optimal_coupling": "(a: 'CovMatrix', b: 'CovMatrix', param) -> 'CovMatrix'",
    "orthogonal_closed_form": "(problem: 'BarycenterProblem') -> 'BarycenterResult'",
    "ot_map": (
        "(a: 'CovMatrix', b: 'CovMatrix', u12_policy: 'str' = 'deterministic', "
        "u12: 'np.ndarray | None' = None, free_policy: 'str' = 'symmetric_zero', "
        "tol_map: 'float' = 1e-08) -> 'TransportMap'"
    ),
    "psd_function": "(a: 'CovMatrix', f: 'str') -> 'np.ndarray'",
    "pusz_woronowicz": (
        "(a: 'CovMatrix', b: 'CovMatrix', tol_map: 'float' = 1e-08) -> 'TransportMap'"
    ),
    "ranges_orthogonal": "(covs) -> 'bool'",
    "raw_param": (
        "(a: 'CovMatrix', b: 'CovMatrix', n12: 'np.ndarray', "
        "tol_map: 'float' = 1e-08) -> 'GeodesicParam'"
    ),
    "sample_path": "(path: 'GeodesicPath', ts) -> 'list[CovMatrix]'",
    "schur_complement": "(a: 'CovMatrix', b: 'CovMatrix') -> 'SchurResult'",
    "schur_rank_identity": (
        "(a: 'CovMatrix', b: 'CovMatrix', g: 'GreenFactor | None' = None) -> 'tuple[int, int]'"
    ),
    "solve_bcd": (
        "(problem: 'BarycenterProblem', max_iter: 'int' = 500, tol_obj: 'float | None' = None, "
        "seed: 'int | None' = None) -> 'BarycenterResult'"
    ),
    "spd_reachability": (
        "(a: 'CovMatrix', b: 'CovMatrix', tol_map: 'float' = 1e-08) -> 'SpdReachReport'"
    ),
    "spectral_decompose": "(a: 'CovMatrix') -> 'SpectralDecomp'",
    "trace_fidelity": "(a: 'CovMatrix', b: 'CovMatrix') -> 'float'",
    "volterra_green": "(n: 'int', grid: 'Grid') -> 'DiscretizedOperator'",
    "w2_distance": "(a: 'CovMatrix', b: 'CovMatrix') -> 'float'",
}


def test_public_signatures_are_pinned():
    callables = {
        name for name in bwt.__all__
        if callable(obj := getattr(bwt, name))
        and not (inspect.isclass(obj) and issubclass(obj, BaseException))
    }
    assert sorted(callables) == sorted(SIGNATURES)
    for name, sig in SIGNATURES.items():
        assert str(inspect.signature(getattr(bwt, name))) == sig, name


A3 = CovMatrix(np.diag([4.0, 1.0, 0.0]))
B2 = CovMatrix(np.eye(2))

PAIR_CALLS = {
    "trace_fidelity": lambda: bwt.trace_fidelity(A3, B2),
    "w2_distance": lambda: bwt.w2_distance(A3, B2),
    "is_reachable": lambda: bwt.is_reachable(A3, B2),
    "pusz_woronowicz": lambda: bwt.pusz_woronowicz(B2, A3),
    "ot_map": lambda: bwt.ot_map(A3, B2),
    "canonical_spd_map": lambda: bwt.canonical_spd_map(A3, B2),
    "spd_reachability": lambda: bwt.spd_reachability(A3, B2),
    "schur_complement": lambda: bwt.schur_complement(A3, B2),
    "schur_rank_identity": lambda: bwt.schur_rank_identity(A3, B2),
    "make_param": lambda: bwt.make_param(A3, B2),
    "make_path": lambda: bwt.make_path(A3, B2),
    "raw_param": lambda: bwt.raw_param(A3, B2, np.zeros((2, 1))),
    "classify_point": lambda: bwt.classify_point(A3, B2, A3, 0.5),
    "optimal_coupling": lambda: bwt.optimal_coupling(A3, B2, None),
}


@pytest.mark.parametrize("name", sorted(PAIR_CALLS))
def test_pair_functions_reject_a_dimension_mismatch(name):
    dims = "2 vs 3" if name == "pusz_woronowicz" else "3 vs 2"
    with pytest.raises(InvalidInput) as exc:
        PAIR_CALLS[name]()
    assert str(exc.value) == f"dimension mismatch: {dims}"
