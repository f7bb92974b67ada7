"""End-to-end command-line tests: exit codes, file bytes, report schemas."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from bwt import CovMatrix, InvalidParam, make_param, schemas
from bwt.cli import InvalidInput, dumps_canonical, main, read_matrix, write_matrix
from conftest import rand_psd

A3 = [[4.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
B3 = [[0.0, 0.0, 0.0], [0.0, 4.0, 2.0], [0.0, 2.0, 1.0]]
C3 = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
A2 = [[1.0, 0.0], [0.0, 0.0]]
B2 = [[0.0, 0.0], [0.0, 1.0]]


def write_mat(tmp_path, name, rows):
    path = tmp_path / name
    path.write_text(json.dumps({"matrix": rows}))
    return str(path)


def load_mat(path):
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, schemas.MATRIX_FILE)
    return np.array(doc["matrix"], dtype=float)


def load_report(path):
    with open(path) as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, schemas.REPORT_SCHEMAS[doc["command"]])
    return doc


def test_distance_golden_pair(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    rep = str(tmp_path / "rep.json")
    assert main(["distance", a, b, "--json", rep]) == 0
    out = capsys.readouterr().out
    assert "reachable_a_to_b: True" in out
    doc = load_report(rep)
    assert doc["n"] == 3 and doc["rank_a"] == 2 and doc["rank_b"] == 1
    assert doc["w2"] == pytest.approx(math.sqrt(6.0), abs=1e-12)
    assert doc["w2_squared"] == pytest.approx(6.0, abs=1e-12)
    assert doc["trace_fidelity"] == pytest.approx(2.0, abs=1e-12)


def test_distance_input_errors(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b2 = write_mat(tmp_path, "b2.json", B2)
    assert main(["distance", a, b2]) == 2          # 3x3 vs 2x2
    assert main(["distance", a, str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["distance", a, str(bad)]) == 2
    nokey = tmp_path / "nokey.json"
    nokey.write_text('{"rows": [[1.0]]}')
    assert main(["distance", a, str(nokey)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("payload, reason", [
    ([[1.0, "x"], [0.0, 1.0]], "entries must be numbers"),
    ([[1.0, 0.0], [0.0]], "entries must be numbers"),  # ragged
    ([1.0, 0.0], "nonempty 2-d array"),
    ([[1.0, "0"], [0.0, 1.0]], "entries must be numbers"),  # numeric string
    ([[True, False], [False, True]], "entries must be numbers"),
    ([[1.0, 0.0], [0.0, 1.0, 2.0]], "rows differ in length"),
])
def test_matrix_payload_errors(tmp_path, capsys, payload, reason):
    a = write_mat(tmp_path, "a.json", A2)
    bad = write_mat(tmp_path, "bad.json", payload)
    with pytest.raises(InvalidInput, match=reason):
        read_matrix(bad)
    assert main(["distance", a, bad]) == 2
    assert reason in capsys.readouterr().err


def test_integer_entry_beyond_float_range_is_an_input_error(tmp_path, capsys):
    # numpy raises OverflowError converting it, which escaped as exit 1
    a = write_mat(tmp_path, "a.json", A2)
    big = tmp_path / "big.json"
    big.write_text('{"matrix": [[1' + "0" * 400 + ', 0], [0, 1]]}')
    with pytest.raises(InvalidInput, match="entries must be numbers"):
        read_matrix(str(big))
    assert main(["distance", a, str(big)]) == 2
    capsys.readouterr()


def test_write_matrix_formats_each_entry_as_one_float(tmp_path):
    rng = np.random.default_rng(9)
    mat = rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, size=(7, 5))
    mat[0, :] = [0.0, -0.0, 5e-324, 1e-320, 1e308]
    mat[1, :2] = [0.1, -0.1]
    path = str(tmp_path / "m.json")
    write_matrix(path, mat)
    rows = ",".join("[" + ",".join(format(x, ".17g") for x in row) + "]" for row in mat.tolist())
    assert Path(path).read_text() == '{"matrix":[' + rows + ']}\n'
    assert np.array_equal(read_matrix(path), mat)
    assert read_matrix(path).tobytes() == mat.tobytes()  # "-0" reads back as -0.0
    for bad in (np.nan, np.inf, -np.inf):
        mat[3, 2] = bad
        with pytest.raises(InvalidInput, match="non-finite"):
            write_matrix(str(tmp_path / "bad.json"), mat)
    for other in (np.ones(3), np.ones((2, 2, 2)), np.eye(2, dtype=int)):  # only matrices
        with pytest.raises(InvalidInput, match="cannot serialize"):
            dumps_canonical({"m": other})


def test_csv_inputs(tmp_path, capsys):
    a_csv = tmp_path / "a.csv"
    a_csv.write_text("1,0\n0,0\n")
    b = write_mat(tmp_path, "b.json", B2)
    assert main(["distance", str(a_csv), b]) == 0
    out = capsys.readouterr().out
    assert "w2: 1.4142135623730951" in out

    wide = tmp_path / "wide.csv"
    wide.write_text("1,0,0\n0,1,0\n")
    assert main(["distance", str(wide), b]) == 2   # not square
    text = tmp_path / "text.csv"
    text.write_text("1,zebra\n0,1\n")
    assert main(["distance", str(text), b]) == 2
    capsys.readouterr()
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1,0\n0\n")
    assert main(["distance", str(ragged), b]) == 2
    assert "rows differ in length" in capsys.readouterr().err


def test_map_spd_canonical_exact_bytes(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    out = tmp_path / "tmap.json"
    rep = str(tmp_path / "rep.json")
    assert main(["map", a, b, "--spd-canonical", "--out", str(out), "--json", rep]) == 0
    # integer-valued spectra make every step exact, down to the bytes
    assert out.read_text() == '{"matrix":[[0,0,0],[0,2,1],[0,1,0.5]]}\n'
    doc = load_report(rep)
    assert doc["u12_policy"] == "deterministic"
    assert doc["residual_transport"] == 0.0
    assert doc["spd"] == {
        "spd_exists": True,
        "as_unique": True,
        "schur_zero": True,
        "range_eq": True,
        "trivial_intersection": True,
    }
    stdout = capsys.readouterr().out
    assert "spd.spd_exists: True" in stdout


def test_map_policies_differ(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    t_det = tmp_path / "det.json"
    assert main(["map", a, b, "--out", str(t_det)]) == 0
    # the default completion zeroes the block the transport leaves free
    assert load_mat(t_det).tolist() == [[0, 0, 0], [0, 2, 1], [0, 1, 0]]

    # moving mass into a fresh direction leaves an isometry sign to choose
    a2 = write_mat(tmp_path, "a2.json", A2)
    b2 = write_mat(tmp_path, "b2.json", B2)
    t_neg = tmp_path / "neg.json"
    assert main(["map", a2, b2, "--out", str(t_det)]) == 0
    assert main(["map", a2, b2, "--u12", "neg", "--out", str(t_neg)]) == 0
    det = load_mat(t_det)
    neg = load_mat(t_neg)
    assert det.tolist() == [[0, 1], [1, 0]]
    assert neg.tolist() == [[0, -1], [-1, 0]]
    capsys.readouterr()


def test_map_exit_codes(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    c = write_mat(tmp_path, "c.json", C3)
    rep = str(tmp_path / "rep.json")
    # rank can only drop along a map: c -> a does not exist
    assert main(["map", c, a, "--out", str(tmp_path / "t.json")]) == 3
    # a -> c exists but no symmetric PSD version does
    assert main(["map", a, c, "--spd-canonical", "--out", str(tmp_path / "t.json")]) == 4
    assert main(["map", a, c, "--check-only", "--json", rep]) == 0
    doc = load_report(rep)
    assert doc["check_only"] is True
    assert doc["map_file"] is None and doc["u12_policy"] is None
    assert doc["spd"]["spd_exists"] is False
    err = capsys.readouterr().err
    assert "error:" in err


def test_map_check_only_at_tiny_scale(tmp_path, capsys):
    # no power of x below -1/2 is formed, so at this scale the check succeeds
    # and reports the flags of the scale-1 pair
    rep, rep1 = str(tmp_path / "rep.json"), str(tmp_path / "rep1.json")
    a = write_mat(tmp_path, "a.json", (np.array(A3) * 1e-156).tolist())
    b = write_mat(tmp_path, "b.json", (np.array(B3) * 1e-156).tolist())
    assert main(["map", a, b, "--check-only", "--json", rep]) == 0
    a1, b1 = write_mat(tmp_path, "a1.json", A3), write_mat(tmp_path, "b1.json", B3)
    assert main(["map", a1, b1, "--check-only", "--json", rep1]) == 0
    assert load_report(rep)["spd"] == load_report(rep1)["spd"]
    capsys.readouterr()


def test_geodesic_midpoint_exact_bytes(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A2)
    b = write_mat(tmp_path, "b.json", B2)
    rep = str(tmp_path / "rep.json")
    prefix = str(tmp_path / "g")
    rc = main(["geodesic", a, b, "--style", "zero", "--t", "0", "0.5", "1",
               "--out-prefix", prefix, "--json", rep])
    assert rc == 0
    assert (tmp_path / "g_t0.5.json").read_text() == '{"matrix":[[0.25,0],[0,0.25]]}\n'
    assert load_mat(tmp_path / "g_t0.json").tolist() == A2
    assert load_mat(tmp_path / "g_t1.json").tolist() == B2
    doc = load_report(rep)
    assert doc["kind"] == "interior"
    kinds = {s["t"]: s["kind"] for s in doc["samples"]}
    assert kinds == {0.0: "extreme", 0.5: "interior", 1.0: "extreme"}
    assert doc["samples"][1]["rank"] == 2
    half = doc["samples"][1]
    assert half["w2_from_a"] == pytest.approx(half["w2_to_b"], abs=1e-12)
    capsys.readouterr()


def test_geodesic_samples_round_trip(tmp_path, capsys):
    # a sample read back is the matrix that was classified: its file
    # rewrites to the same bytes and its distance from a is w2_from_a
    rng = np.random.default_rng(4)
    for k in range(10):
        a = write_mat(tmp_path, f"a{k}.json", rand_psd(rng, 6, 4).data.tolist())
        b = write_mat(tmp_path, f"b{k}.json", rand_psd(rng, 6, 2).data.tolist())
        rep = str(tmp_path / f"geo{k}.json")
        assert main(["geodesic", a, b, "--t", "0.25", "0.5", "0.75",
                     "--out-prefix", str(tmp_path / f"g{k}"), "--json", rep]) == 0
        for sample in load_report(rep)["samples"]:
            again = str(tmp_path / "again.json")
            write_matrix(again, CovMatrix(read_matrix(sample["file"])).data)
            assert Path(again).read_bytes() == Path(sample["file"]).read_bytes()
            dist = str(tmp_path / "dist.json")
            assert main(["distance", a, sample["file"], "--json", dist]) == 0
            assert load_report(dist)["w2"] == sample["w2_from_a"]
    capsys.readouterr()


def test_geodesic_errors(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    c = write_mat(tmp_path, "c.json", C3)
    prefix = str(tmp_path / "g")
    assert main(["geodesic", a, b, "--style", "scaled", "--out-prefix", prefix]) == 2
    assert main(["geodesic", a, b, "--t", "1.5", "--out-prefix", prefix]) == 2
    assert main(["geodesic", c, a, "--style", "extreme", "--out-prefix", prefix]) == 3
    capsys.readouterr()


def test_geodesic_close_samples_get_their_own_files(tmp_path, capsys):
    # "g" gives 0.123456 for both, so the second sample overwrote the first
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    rep = str(tmp_path / "rep.json")
    prefix = str(tmp_path / "g")
    assert main(["geodesic", a, b, "--style", "zero", "--t", "0.1234561", "0.1234564",
                 "--out-prefix", prefix, "--json", rep]) == 0
    files = [s["file"] for s in load_report(rep)["samples"]]
    assert files == [prefix + "_t0.1234561.json", prefix + "_t0.1234564.json"]
    assert read_matrix(files[0]).tobytes() != read_matrix(files[1]).tobytes()
    # tags that "g" already spells exactly keep their names
    assert main(["geodesic", a, b, "--style", "zero", "--out-prefix", prefix,
                 "--json", rep]) == 0
    names = [Path(s["file"]).name for s in load_report(rep)["samples"]]
    assert names == ["g_t0.json", "g_t0.25.json", "g_t0.5.json", "g_t0.75.json", "g_t1.json"]
    capsys.readouterr()


def test_geodesic_refuses_an_unread_coefficient(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    prefix = str(tmp_path / "g")
    assert main(["geodesic", a, b, "--style", "extreme", "--s", "0.3",
                 "--out-prefix", prefix]) == 2
    assert "only style='scaled' reads it" in capsys.readouterr().err
    assert not list(tmp_path.glob("g_t*.json"))
    with pytest.raises(InvalidParam, match="only style='scaled' reads it"):
        make_param(CovMatrix(A2), CovMatrix(B2), style="zero", s=0.5)


def test_barycenter_orthogonal_family(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A2)
    b = write_mat(tmp_path, "b.json", B2)
    out = tmp_path / "bc.json"
    rep = str(tmp_path / "rep.json")
    assert main(["barycenter", a, b, "--out", str(out), "--json", rep]) == 0
    assert "in family |s| <= 1: true" in capsys.readouterr().out
    doc = load_report(rep)
    assert doc["converged"] is True
    assert doc["objective"] == pytest.approx(0.5, abs=1e-9)
    assert doc["frechet_variance"] == pytest.approx(0.5, abs=1e-9)
    assert doc["orthogonal_family"]["member"] is True
    assert doc["orthogonal_family"]["s_max"] <= 1.0 + 1e-9
    bc = load_mat(out)
    assert bc[0, 0] == pytest.approx(0.25, abs=1e-9)
    assert bc[1, 1] == pytest.approx(0.25, abs=1e-9)


def test_barycenter_weights(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A2)
    b = write_mat(tmp_path, "b.json", B2)
    out = str(tmp_path / "bc.json")
    rep = str(tmp_path / "rep.json")
    assert main(["barycenter", a, b, "--weights", "0.25,0.75",
                 "--out", out, "--json", rep]) == 0
    assert load_report(rep)["weights"] == [0.25, 0.75]
    assert main(["barycenter", a, b, "--weights", "0.25", "--out", out]) == 2
    assert main(["barycenter", a, b, "--weights", "0.6,0.6", "--out", out]) == 2
    capsys.readouterr()
    for bad in ("nan,0.5", "inf,0.5"):
        assert main(["barycenter", a, b, "--weights", bad, "--out", out]) == 2
        assert "finite and strictly positive" in capsys.readouterr().err


def test_barycenter_refuses_a_negative_sweep_limit(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A2)
    b = write_mat(tmp_path, "b.json", B2)
    out = tmp_path / "bc.json"
    assert main(["barycenter", a, b, "--max-iter", "-1", "--out", str(out)]) == 2
    assert "max_iter" in capsys.readouterr().err
    assert not out.exists()
    assert main(["barycenter", a, b, "--max-iter", "0", "--out", str(out)]) == 0


def test_gp_table_and_report(tmp_path, capsys):
    rep = str(tmp_path / "rep.json")
    assert main(["gp", "1", "2", "--m", "80", "--m", "160", "--json", rep]) == 0
    out = capsys.readouterr().out
    assert "analytic" in out and "cross_gram" in out
    doc = load_report(rep)
    assert [r["num_points"] for r in doc["rows"]] == [80, 160]
    for row in doc["rows"]:
        assert row["analytic"] == 0.5
        assert 0.19 < row["numeric"] < 0.23
        assert row["cross_gram_kind"] == "asymmetric"

    assert main(["gp", "2", "2", "--m", "40", "--json", rep]) == 0
    capsys.readouterr()
    doc = load_report(rep)
    assert doc["rows"][0]["analytic"] == 0.0
    assert doc["rows"][0]["numeric"] <= 1e-4
    assert doc["rows"][0]["cross_gram_kind"] == "psd"

    assert main(["gp", "0", "2"]) == 2
    capsys.readouterr()


def test_gp_rejects_an_empty_grid(capsys):
    assert main(["gp", "1", "2", "--m", "0"]) == 2
    assert "grid size must be a positive integer" in capsys.readouterr().err


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    rep = str(tmp_path / "rep.json")

    monkeypatch.setenv("BWT_TOL_REL", "0.5")
    assert main(["distance", a, b, "--json", rep]) == 0
    assert load_report(rep)["rank_a"] == 1
    # an explicit flag beats the environment
    assert main(["distance", a, b, "--tol-rel", "1e-10", "--json", rep]) == 0
    assert load_report(rep)["rank_a"] == 2
    monkeypatch.setenv("BWT_TOL_REL", "-1")
    assert main(["distance", a, b]) == 2
    monkeypatch.setenv("BWT_TOL_REL", "nan")
    assert main(["distance", a, b]) == 2
    monkeypatch.delenv("BWT_TOL_REL")
    assert main(["distance", a, b, "--tol-rel", "0"]) == 2
    for bad in ("nan", "inf"):
        assert main(["distance", a, b, "--tol-rel", bad]) == 2
        assert main(["map", a, b, "--tol-map", bad, "--out", str(tmp_path / "t.json")]) == 2
    capsys.readouterr()


def test_each_subcommand_takes_only_the_tolerances_it_reads(tmp_path, capsys, monkeypatch):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    out = tmp_path / "t.json"
    for argv in (["distance", a, b], ["geodesic", a, b, "--out-prefix", str(tmp_path / "g")],
                 ["barycenter", a, b, "--out", str(out)], ["gp", "1", "2", "--m", "20"]):
        assert main(argv + ["--tol-map", "1e-8"]) == 2
    assert main(["gp", "1", "2", "--m", "20", "--tol-rel", "1e-10"]) == 2
    assert not list(tmp_path.glob("g_t*.json")) and not out.exists()
    # gp builds no covariance from a file, so no rank tolerance reaches it
    monkeypatch.setenv("BWT_TOL_REL", "nan")
    assert main(["gp", "1", "2", "--m", "20"]) == 0
    capsys.readouterr()


def test_map_refuses_flags_it_would_ignore(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A2)
    b = write_mat(tmp_path, "b.json", B2)
    out, rep = tmp_path / "t.json", tmp_path / "rep.json"
    # --spd-canonical is the one spelling of the canonical symmetric PSD map
    assert main(["map", a, b, "--free", "spd", "--out", str(out)]) == 2
    # neither mode builds the map whose isometry sign --u12 picks
    for mode in ("--spd-canonical", "--check-only"):
        for u12 in ("neg", "det"):
            argv = ["map", a, b, mode, "--u12", u12, "--out", str(out), "--json", str(rep)]
            assert main(argv) == 2
    assert not out.exists() and not rep.exists()
    capsys.readouterr()


def test_canonical_json_round_trip():
    doc = {
        "z": [1, 2.5, -0.0, True, False, None, "a\"b\\c\nnewline"],
        "a": {"nested": {"pi": math.pi, "big": 1e308, "tiny": 5e-324}},
    }
    assert json.loads(dumps_canonical(doc)) == doc
    reordered = {"a": doc["a"], "z": doc["z"]}
    assert dumps_canonical(reordered) == dumps_canonical(doc)
    with pytest.raises(InvalidInput):
        dumps_canonical({"x": float("nan")})
    with pytest.raises(InvalidInput):
        dumps_canonical({"x": float("inf")})
    with pytest.raises(InvalidInput):
        dumps_canonical({1: "non-string key"})
    with pytest.raises(InvalidInput):
        dumps_canonical({"x": object()})


def test_byte_identical_reruns(tmp_path, capsys):
    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    rep1 = tmp_path / "rep1.json"
    rep2 = tmp_path / "rep2.json"
    assert main(["distance", a, b, "--json", str(rep1)]) == 0
    first = capsys.readouterr().out
    assert main(["distance", a, b, "--json", str(rep2)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert rep1.read_bytes() == rep2.read_bytes()


def test_parser_exits(capsys):
    assert main(["--help"]) == 0
    assert main(["no-such-command"]) == 2
    assert main([]) == 2
    capsys.readouterr()


def test_import_path_loads_no_scipy(tmp_path):
    # scipy serves only green_factor(method="pivoted_cholesky"); neither
    # importing bwt nor a CLI call may pay for loading it.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = subprocess.run(
        [sys.executable, "-c",
         "import bwt, bwt.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    assert probe.stdout.strip() == "[]"

    a = write_mat(tmp_path, "a.json", A3)
    b = write_mat(tmp_path, "b.json", B3)
    call = subprocess.run([sys.executable, "-X", "importtime", "-m", "bwt.cli", "distance", a, b],
                          env=env, capture_output=True, text=True, timeout=120)
    assert call.returncode == 0, call.stderr
    assert "w2: 2.4494897427831779" in call.stdout
    imported = [line.rsplit("|", 1)[-1].strip() for line in call.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported
    assert [m for m in imported if m.split(".")[0] == "scipy"] == []
