"""Command-line front end.

Subcommands: distance, map, geodesic, barycenter, gp.  Matrices are read
from JSON files of the form {"matrix": [[...]]} (CSV accepted as a
convenience) and written back in the JSON form only.  All emitted JSON is
canonical: keys sorted, fixed separators, floats with 17 significant digits,
so identical inputs and configuration produce byte-identical files.

Exit codes: 0 success, 2 input error, 3 unreachable pair, 4 no symmetric PSD
map exists, 5 numerical inconsistency detected.  Each subcommand takes only the
options it reads: --json on all five, --tol-rel (else BWT_TOL_REL, else
1e-10) on the four that read covariance files, --tol-map on ``map`` only.
``gp`` reads no tolerance.  A tolerance must be finite and positive.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import barycenter as bary
from . import geodesic as geo
from . import gproc
from .errors import (
    InvalidInput,
    InvalidParam,
    NoSpdMap,
    NotInvertible,
    NumericalInconsistency,
    PreconditionFailed,
    Unreachable,
)
from .linalg import (
    DEFAULT_TOL_REL,
    CovMatrix,
    _tol_bound,
    numeric_rank,
    spectral_decompose,
    trace_fidelity,
)
from .transport import (
    DEFAULT_TOL_MAP,
    _w2_from_fidelity,
    canonical_spd_map,
    is_reachable,
    ot_map,
    spd_reachability,
    w2_distance,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNREACHABLE = 3
EXIT_NO_SPD_MAP = 4
EXIT_INCONSISTENT = 5


# ---------------------------------------------------------------------------
# canonical JSON


def _fmt_float(x: float) -> str:
    x = float(x)
    if not np.isfinite(x):
        raise InvalidInput("cannot serialize a non-finite number")
    return format(x, ".17g")


def dumps_canonical(obj) -> str:
    """Serialize to JSON with sorted keys, fixed separators, and floats at
    17 significant digits, so equal structures give equal bytes."""
    out = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(obj))
    elif isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype == float:
        if not np.isfinite(obj).all():
            raise InvalidInput("cannot serialize a non-finite number")
        row = "[" + ",".join(["%.17g"] * obj.shape[1]) + "]"  # the nested lists' bytes
        out.append("[" + ",".join(row % tuple(r) for r in obj.tolist()) + "]")
    elif isinstance(obj, str):
        out.append('"')
        for ch in obj:
            if ch == '"':
                out.append('\\"')
            elif ch == "\\":
                out.append("\\\\")
            elif ord(ch) < 0x20:
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
    elif isinstance(obj, dict):
        out.append("{")
        for k, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise InvalidInput("JSON object keys must be strings")
            if k:
                out.append(",")
            _write_json(key, out)
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, item in enumerate(obj):
            if k:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


def write_json_file(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_canonical(obj))
        fh.write("\n")


# ---------------------------------------------------------------------------
# matrix files


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix from a JSON {"matrix": [[...]]} or CSV file."""
    if path.endswith(".csv"):
        rows = []
        with open(path, newline="") as fh:
            for rec in csv.reader(fh):
                if not rec or all(not cell.strip() for cell in rec):
                    continue
                try:
                    rows.append([float(cell) for cell in rec])
                except ValueError as exc:
                    raise InvalidInput(f"{path}: non-numeric CSV entry ({exc})")
        payload = rows
    else:
        import json

        with open(path) as fh:
            try:  # write_matrix writes -0.0 as "-0": read it back as -0.0
                doc = json.load(fh, parse_int=lambda s: -0.0 if s == "-0" else int(s))
            except ValueError as exc:
                raise InvalidInput(f"{path}: invalid JSON ({exc})")
        if not isinstance(doc, dict) or "matrix" not in doc:
            raise InvalidInput(f'{path}: expected an object with a "matrix" key')
        payload = doc["matrix"]

    try:
        mat = np.array(payload, dtype=float)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int past float range
        if isinstance(payload, list) and len({len(r) for r in payload if isinstance(r, list)}) > 1:
            raise InvalidInput(f"{path}: matrix rows differ in length; "
                               "entries must be numbers in rows of one length")
        raise InvalidInput(f"{path}: matrix entries must be numbers")
    if mat.ndim != 2 or mat.size == 0:
        raise InvalidInput(f"{path}: matrix payload must be a nonempty 2-d array")
    if not {type(x) for row in payload for x in row} <= {int, float}:  # np.array takes "0", true
        raise InvalidInput(f"{path}: matrix entries must be numbers")
    return mat


def write_matrix(path: str, mat: np.ndarray) -> None:
    write_json_file(path, {"matrix": np.asarray(mat, dtype=float)})


def _load_cov(path: str, tol_rel: float) -> CovMatrix:
    return CovMatrix(read_matrix(path), tol_rel=tol_rel)


def _emit(args, report: dict) -> None:
    if args.json:
        write_json_file(args.json, report)


# ---------------------------------------------------------------------------
# subcommands


def _positive(tol: float) -> float:
    if not 0.0 < tol < np.inf:
        raise InvalidParam("tolerances must be finite and positive")
    return tol


def _tol_rel(args) -> float:
    """--tol-rel, else BWT_TOL_REL, else the default."""
    if args.tol_rel is not None:
        return _positive(args.tol_rel)
    env = os.environ.get("BWT_TOL_REL")
    return _positive(float(env) if env else DEFAULT_TOL_REL)


def cmd_distance(args) -> int:
    tol_rel = _tol_rel(args)
    a = _load_cov(args.a, tol_rel)
    b = _load_cov(args.b, tol_rel)
    fidelity = trace_fidelity(a, b)
    d = _w2_from_fidelity(a, b, fidelity)
    report = {
        "command": "distance",
        "n": a.n,
        "rank_a": numeric_rank(a),
        "rank_b": numeric_rank(b),
        "reachable_a_to_b": is_reachable(a, b),
        "w2": d,
        "w2_squared": d * d,
        "trace_fidelity": fidelity,
    }
    for key in ("n", "rank_a", "rank_b", "reachable_a_to_b"):
        print(f"{key}: {report[key]}")
    for key in ("w2", "w2_squared", "trace_fidelity"):
        print(f"{key}: {_fmt_float(report[key])}")
    _emit(args, report)
    return EXIT_OK


def cmd_map(args) -> int:
    tol_rel, tol_map = _tol_rel(args), _positive(args.tol_map)
    a = _load_cov(args.a, tol_rel)
    b = _load_cov(args.b, tol_rel)
    spd = spd_reachability(a, b, tol_map=tol_map)
    spd_dict = {
        "spd_exists": spd.spd_exists,
        "as_unique": spd.as_unique,
        "schur_zero": spd.schur_zero,
        "range_eq": spd.range_eq,
        "trivial_intersection": spd.trivial_intersection,
    }
    report = {
        "command": "map",
        "n": a.n,
        "rank_a": numeric_rank(a),
        "rank_b": numeric_rank(b),
        "reachable": is_reachable(a, b),
        "check_only": bool(args.check_only),
        "spd": spd_dict,
        "map_file": None,
        "free_blocks": None,
        "u12_policy": None,
        "residual_transport": None,
        "residual_optimality": None,
    }

    if not args.check_only:
        if args.spd_canonical:
            # the witness is this map; without one, canonical_spd_map says why
            tmap = spd.witness
            if tmap is None:
                tmap = canonical_spd_map(a, b, tol_map=tol_map)
            report["u12_policy"] = "deterministic"
        else:
            policy = "negated" if args.u12 == "neg" else "deterministic"
            tmap = ot_map(a, b, u12_policy=policy, tol_map=tol_map)
            report["u12_policy"] = policy
        write_matrix(args.out, tmap.t)
        report["map_file"] = args.out
        report["free_blocks"] = tmap.free_blocks
        report["residual_transport"] = tmap.residual_transport
        report["residual_optimality"] = tmap.residual_optimality
        print(f"map written to {args.out}")
        print(f"residual_transport: {_fmt_float(tmap.residual_transport)}")
        print(f"residual_optimality: {_fmt_float(tmap.residual_optimality)}")

    print(f"reachable: {report['reachable']}")
    for key, val in spd_dict.items():
        print(f"spd.{key}: {val}")
    _emit(args, report)
    return EXIT_OK


def _t_tag(t: float) -> str:
    """t's file-name tag: the short "g" form where it reads back as t, else
    the shortest repr, so distinct samples never share a file."""
    tag = format(float(t), "g")
    return tag if float(tag) == t else repr(float(t))


def cmd_geodesic(args) -> int:
    tol_rel = _tol_rel(args)
    a = _load_cov(args.a, tol_rel)
    b = _load_cov(args.b, tol_rel)
    for t in args.t:
        if not 0.0 <= t <= 1.0:
            raise InvalidParam(f"t samples must lie in [0, 1], got {t}")
    path = geo.make_path(a, b, style=args.style, s=args.s)
    d = w2_distance(a, b)

    samples = []
    print(f"style: {args.style}  kind: {path.param.kind}  w2(a,b): {_fmt_float(d)}")
    print("t        rank  w2_from_a            w2_to_b              kind")
    for t in args.t:
        gamma = path.gamma(t)
        cls = geo.classify_point(a, b, gamma, t)
        d1, d2 = w2_distance(a, gamma), w2_distance(gamma, b)
        fname = f"{args.out_prefix}_t{_t_tag(t)}.json"
        write_matrix(fname, gamma.data)
        samples.append(
            {
                "t": float(t),
                "file": fname,
                "rank": cls.rank_gamma,
                "w2_from_a": d1,
                "w2_to_b": d2,
                "kind": cls.kind,
                "schur_norm": cls.schur_norm,
            }
        )
        row = samples[-1]
        print(
            f"{t:<8g} {row['rank']:<5d} {_fmt_float(row['w2_from_a']):<20} "
            f"{_fmt_float(row['w2_to_b']):<20} {row['kind']}"
        )

    report = {
        "command": "geodesic",
        "n": a.n,
        "style": args.style,
        "s": None if args.s is None else float(args.s),
        "kind": path.param.kind,
        "w2": d,
        "rank_a": numeric_rank(a),
        "rank_b": numeric_rank(b),
        "samples": samples,
    }
    _emit(args, report)
    return EXIT_OK


def _orthogonal_family_check(problem, a_hat: CovMatrix):
    """Compare a barycenter candidate against the closed-form solution family
    for mutually orthogonal ranges: the compression onto each range(a_i) must
    be p_i^2 a_i, and the cross blocks are factor Grams, whose alignment
    coefficient s is at most 1 in magnitude."""
    decs = [spectral_decompose(c) for c in problem.covs]
    comp_res = 0.0
    s_max = 0.0
    for i, (dec, w, c) in enumerate(zip(decs, problem.weights, problem.covs)):
        qi = dec.eigvecs[:, : dec.rank]
        if qi.shape[1] == 0:
            continue
        gap = qi.T @ a_hat.data @ qi - w * w * (qi.T @ c.data @ qi)
        comp_res = max(comp_res, float(np.linalg.norm(gap)))
        for j in range(i + 1, len(decs)):
            dj = decs[j]
            qj = dj.eigvecs[:, : dj.rank]
            if qj.shape[1] == 0:
                continue
            lam = float(np.sqrt(dec.eigvals[0] * dj.eigvals[0]))
            if lam <= 0.0:
                continue
            cross = float(np.linalg.svd(qi.T @ a_hat.data @ qj, compute_uv=False)[0])
            s_max = max(s_max, cross / (problem.weights[i] * problem.weights[j] * lam))
    member = comp_res <= _tol_bound(1e-8, a_hat.data) and s_max <= 1.0 + 1e-9
    return {"member": member, "s_max": s_max, "compression_residual": comp_res}


def cmd_barycenter(args) -> int:
    tol_rel = _tol_rel(args)
    covs = tuple(_load_cov(p, tol_rel) for p in args.matrices)
    if args.weights is not None:
        weights = tuple(float(w) for w in args.weights.split(","))
    else:
        weights = tuple(1.0 / len(covs) for _ in covs)
    problem = bary.BarycenterProblem(covs, weights)

    result = bary.solve_bcd(problem, max_iter=args.max_iter, seed=args.seed)
    fp_res = bary.fixed_point_residual(problem, result.a_hat)
    per_sweep = list(result.objective_history[:: problem.size])
    write_matrix(args.out, result.a_hat.data)

    print(f"barycenter written to {args.out}")
    print(f"objective: {_fmt_float(result.objective)}")
    print(f"frechet_variance: {_fmt_float(result.frechet_variance)}")
    print(f"iterations: {result.iterations}  converged: {result.converged}")
    print(f"fixed_point_residual: {_fmt_float(fp_res)}")
    for k, val in enumerate(per_sweep):
        label = "initial" if k == 0 else f"sweep {k}"
        print(f"{label}: objective {_fmt_float(val)}")

    family = None
    if bary.ranges_orthogonal(problem.covs):
        family = _orthogonal_family_check(problem, result.a_hat)
        print(f"in family |s| <= 1: {'true' if family['member'] else 'false'}")

    report = {
        "command": "barycenter",
        "n": problem.n,
        "size": problem.size,
        "weights": [float(w) for w in problem.weights],
        "objective": result.objective,
        "frechet_variance": result.frechet_variance,
        "iterations": result.iterations,
        "converged": result.converged,
        "fixed_point_residual": fp_res,
        "objective_per_sweep": per_sweep,
        "barycenter_file": args.out,
        "orthogonal_family": family,
    }
    _emit(args, report)
    return EXIT_OK


def cmd_gp(args) -> int:
    sizes = args.num_points or [500]
    rows = []
    print("n  m  points  analytic             numeric              |gap|                cross_gram")
    for num in sizes:
        analytic = gproc.ibm_w2_analytic(args.n, args.m)
        numeric = gproc.ibm_w2_numeric(args.n, args.m, num)
        grid = gproc.Grid(num)
        cert = gproc.cross_gram_certificate(
            gproc.volterra_green(args.n, grid), gproc.volterra_green(args.m, grid)
        )
        row = {
            "n": args.n,
            "m": args.m,
            "num_points": num,
            "analytic": analytic,
            "numeric": numeric,
            "abs_gap": abs(analytic - numeric),
            "cross_gram_kind": cert.kind,
        }
        rows.append(row)
        print(
            f"{args.n:<2d} {args.m:<2d} {num:<7d} {_fmt_float(analytic):<20} "
            f"{_fmt_float(numeric):<20} {_fmt_float(row['abs_gap']):<20} {cert.kind}"
        )
    report = {"command": "gp", "rows": rows}
    _emit(args, report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--json", default=None, metavar="PATH",
                        help="also write the run report as canonical JSON")
    covs = argparse.ArgumentParser(add_help=False, parents=[report])
    covs.add_argument("--tol-rel", type=float, default=None,
                      help="relative rank tolerance (default: BWT_TOL_REL or 1e-10)")

    parser = argparse.ArgumentParser(
        prog="bwt",
        description="optimal transport between centered Gaussians, "
        "singular covariances included",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", parents=[covs],
                       help="Wasserstein distance between two covariances")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("map", parents=[covs],
                       help="optimal transport map from the first covariance to the second")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--tol-map", type=float, default=DEFAULT_TOL_MAP,
                   help="residual tolerance for the map constructions")
    mode = p.add_mutually_exclusive_group()  # the first two build no map that --u12 picks
    mode.add_argument("--spd-canonical", action="store_true",
                      help="build the canonical symmetric PSD map (exit 4 if none exists)")
    mode.add_argument("--check-only", action="store_true",
                      help="report reachability and the SPD criteria without building a map")
    mode.add_argument("--u12", choices=["det", "neg"], default=None,
                      help="partial-isometry choice for the rank-increasing block (default: det)")
    p.add_argument("--out", default="tmap.json", help="output file for the map")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("geodesic", parents=[covs],
                       help="sample a Wasserstein geodesic between two covariances")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--style", choices=["extreme", "zero", "scaled"], default="extreme")
    p.add_argument("--s", type=float, default=None,
                   help="coefficient in [-1, 1]; read by, and required for, style=scaled")
    p.add_argument("--t", type=float, nargs="+", default=[0.0, 0.25, 0.5, 0.75, 1.0],
                   help="parameter values to sample")
    p.add_argument("--out-prefix", default="gamma",
                   help="prefix for the per-sample matrix files")
    p.set_defaults(func=cmd_geodesic)

    p = sub.add_parser("barycenter", parents=[covs],
                       help="Wasserstein barycenter by block-coordinate ascent")
    p.add_argument("matrices", nargs="+", help="covariance files")
    p.add_argument("--weights", default=None,
                   help="comma-separated weights (default: equal)")
    p.add_argument("--seed", type=int, default=None,
                   help="randomize the starting factors")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--out", default="barycenter.json",
                   help="output file for the barycenter")
    p.set_defaults(func=cmd_barycenter)

    p = sub.add_parser("gp", parents=[report],
                       help="integrated Brownian motion distances: closed form vs discretized")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--m", dest="num_points", type=int, action="append", metavar="POINTS",
                   help="grid size(s); repeatable (default: 500)")
    p.set_defaults(func=cmd_gp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except Unreachable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE
    except NoSpdMap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_SPD_MAP
    except NumericalInconsistency as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (InvalidInput, InvalidParam, NotInvertible, PreconditionFailed,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
