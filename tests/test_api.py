"""The public surface: the exported names, and the one pair check every
two-covariance function shares."""

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
