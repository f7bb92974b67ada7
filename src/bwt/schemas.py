"""JSON schemas for the files and reports the command-line tool emits.

These are plain dicts in JSON Schema vocabulary.  The library does not
validate against them at runtime; they document the output contract and the
test suite checks every emitted document against the matching schema.  Each
object is closed (no keys beyond its properties), and each key is declared
once, in :func:`_closed`, which requires every property not named optional.
"""

_NUM = {"type": "number"}
_INT = {"type": "integer"}
_BOOL = {"type": "boolean"}
_STR = {"type": "string"}


def _closed(properties: dict, optional=()) -> dict:
    """An object schema with exactly these properties, all but ``optional``
    required, in their declared order."""
    return {
        "type": "object",
        "required": [key for key in properties if key not in optional],
        "properties": properties,
        "additionalProperties": False,
    }


MATRIX_FILE = _closed({
    "matrix": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "array", "minItems": 1, "items": _NUM},
    },
    "name": _STR,
}, optional=("name",))


DISTANCE_REPORT = _closed({
    "command": {"const": "distance"},
    "n": _INT,
    "rank_a": _INT,
    "rank_b": _INT,
    "reachable_a_to_b": _BOOL,
    "w2": _NUM,
    "w2_squared": _NUM,
    "trace_fidelity": _NUM,
})


_SPD_FLAGS = _closed({
    "spd_exists": _BOOL,
    "as_unique": _BOOL,
    "schur_zero": _BOOL,
    "range_eq": _BOOL,
    "trivial_intersection": _BOOL,
})


MAP_REPORT = _closed({
    "command": {"const": "map"},
    "n": _INT,
    "rank_a": _INT,
    "rank_b": _INT,
    "reachable": _BOOL,
    "check_only": _BOOL,
    "spd": _SPD_FLAGS,
    "map_file": {"type": ["string", "null"]},
    "free_blocks": {"type": ["string", "null"]},
    "u12_policy": {"type": ["string", "null"]},
    "residual_transport": {"type": ["number", "null"]},
    "residual_optimality": {"type": ["number", "null"]},
})


GEODESIC_REPORT = _closed({
    "command": {"const": "geodesic"},
    "n": _INT,
    "style": _STR,
    "s": {"type": ["number", "null"]},
    "kind": {"enum": ["monge", "interior"]},
    "w2": _NUM,
    "rank_a": _INT,
    "rank_b": _INT,
    "samples": {
        "type": "array",
        "items": _closed({
            "t": _NUM,
            "file": _STR,
            "rank": _INT,
            "w2_from_a": _NUM,
            "w2_to_b": _NUM,
            "kind": {"enum": ["extreme", "interior"]},
            "schur_norm": _NUM,
        }),
    },
})


BARYCENTER_REPORT = _closed({
    "command": {"const": "barycenter"},
    "n": _INT,
    "size": _INT,
    "weights": {"type": "array", "items": _NUM},
    "objective": _NUM,
    "frechet_variance": _NUM,
    "iterations": _INT,
    "converged": _BOOL,
    "fixed_point_residual": _NUM,
    "objective_per_sweep": {"type": "array", "items": _NUM},
    "barycenter_file": _STR,
    "orthogonal_family": {
        "oneOf": [
            {"type": "null"},
            _closed({"member": _BOOL, "s_max": _NUM, "compression_residual": _NUM}),
        ]
    },
})


GP_REPORT = _closed({
    "command": {"const": "gp"},
    "rows": {
        "type": "array",
        "minItems": 1,
        "items": _closed({
            "n": _INT,
            "m": _INT,
            "num_points": _INT,
            "analytic": _NUM,
            "numeric": _NUM,
            "abs_gap": _NUM,
            "cross_gram_kind": {"enum": ["psd", "symmetric_not_psd", "asymmetric"]},
        }),
    },
})


REPORT_SCHEMAS = {
    "distance": DISTANCE_REPORT,
    "map": MAP_REPORT,
    "geodesic": GEODESIC_REPORT,
    "barycenter": BARYCENTER_REPORT,
    "gp": GP_REPORT,
}
