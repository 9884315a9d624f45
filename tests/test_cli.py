import csv
import io
import json
import os
import warnings

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from khull.bodies import Ball, HalfBall, body_from_json, body_to_json, cube
from khull.cli import _write_csv, _write_json_array, main
from khull.hulls import k_hull_translations
from khull.poisson import sample_PK
from khull.zerocell import build_zero_cell


@pytest.fixture
def square_json(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({
        "kind": "polytope",
        "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
    }))
    return str(path)


@pytest.fixture
def two_points_csv(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("-1,0\n1,0\n")
    return str(path)


def test_hull_k_hull_segment(square_json, two_points_csv, tmp_path):
    out = tmp_path / "hull.json"
    code = main(["hull", "--body", square_json, "--family", "k-hull",
                 "--points", two_points_csv, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    verts = sorted(map(tuple, doc["vertices"]))
    assert np.allclose(verts, [(-1.0, 0.0), (1.0, 0.0)], atol=1e-9)


def test_hull_k_hull_ball_writes_centers(tmp_path):
    rng = np.random.default_rng(5)
    sample = 0.7 * (2 * rng.random((40, 2)) - 1)
    body = tmp_path / "disk.json"
    body.write_text(json.dumps({"kind": "ball", "radius": 1.5, "dim": 2}))
    points = tmp_path / "pts.csv"
    np.savetxt(points, sample, delimiter=",", fmt="%.17g")
    out = tmp_path / "hull.json"
    code = main(["hull", "--body", str(body), "--family", "k-hull",
                 "--points", str(points), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["exact"] is True
    assert doc["kind"] == "ball_hull"
    assert doc["radius"] == 1.5
    centers = np.array(doc["centers"])
    extreme = sample[ConvexHull(sample).vertices]
    assert sorted(map(tuple, centers)) == sorted(map(tuple, extreme))
    # The centres and the radius fix the hull.
    queries = 3 * rng.random((100, 2)) - 1.5
    np.testing.assert_array_equal(
        k_hull_translations(Ball(1.5, 2), centers).body.contains(queries),
        k_hull_translations(Ball(1.5, 2), sample).body.contains(queries))


def test_hull_unknown_family_exits_2(square_json, two_points_csv, tmp_path):
    code = main(["hull", "--body", square_json, "--family", "nonsense",
                 "--points", two_points_csv,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("family", ["k-hull", "translations-scalings"])
def test_hull_without_body_exits_2(family, two_points_csv, tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["hull", "--family", family, "--points", two_points_csv,
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: --body is required for this family\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["k-hull", "translations-scalings"])
def test_hull_lower_dimensional_body_exits_2(family, two_points_csv,
                                             tmp_path, capsys):
    body = tmp_path / "seg.json"
    body.write_text(json.dumps({"kind": "polytope",
                                "vertices": [[0, 0], [1, 1]]}))
    code = main(["hull", "--body", str(body), "--family", family,
                 "--points", two_points_csv,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "full-dimensional polytope" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("family", ["k-hull", "translations-scalings"])
def test_hull_one_dimensional_body(family, tmp_path):
    body = tmp_path / "seg.json"
    body.write_text(json.dumps({"kind": "polytope", "vertices": [[-1], [1]]}))
    points = tmp_path / "pts.csv"
    points.write_text("0.2\n-0.3\n0.5\n")
    out = tmp_path / "hull.json"
    code = main(["hull", "--body", str(body), "--family", family,
                 "--points", str(points), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert np.allclose(sorted(v[0] for v in doc["vertices"]), [-0.3, 0.5],
                       atol=1e-12)
    assert [f["normal"] for f in doc["facets"]] == [[-1.0], [1.0]]


def test_simulate_pk_csv_and_determinism(square_json, tmp_path):
    out1 = tmp_path / "m1.csv"
    out2 = tmp_path / "m2.csv"
    for out in (out1, out2):
        code = main(["simulate", "pk", "--body", square_json, "--tmax", "4",
                     "--seed", "11", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "t,eta_1,eta_2,u_1,u_2"


def _csv_writer_bytes(header, rows):
    """The bytes of a csv.writer with every float written as %.17g."""
    buf = io.StringIO(newline="")
    w = csv.writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([f"{v:.17g}" for v in row])
    return buf.getvalue().encode()


def test_simulate_pk_bytes_match_csv_writer(square_json, tmp_path):
    out = tmp_path / "marks.csv"
    assert main(["simulate", "pk", "--body", square_json, "--tmax", "20",
                 "--seed", "3", "--out", str(out)]) == 0
    s = sample_PK(body_from_json(square_json), 20.0, seed=3)
    rows = np.column_stack([s.t, s.eta, s.u]).tolist()
    assert len(rows) > 10
    assert out.read_bytes() == _csv_writer_bytes(
        ["t", "eta_1", "eta_2", "u_1", "u_2"], rows)


def test_write_csv_edge_values_match_csv_writer(tmp_path):
    rng = np.random.default_rng(0)
    array = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-300, 300,
                                                               (50, 3))
    array[0] = [np.inf, -np.inf, -0.0]
    array[1] = [1e-300, 5e-324, 0.1]
    for rows in (array, array[:0]):
        out = tmp_path / "x.csv"
        _write_csv(str(out), ["a", "b", "c"], rows)
        assert out.read_bytes() == _csv_writer_bytes(["a", "b", "c"],
                                                     rows.tolist())


def _savetxt_bytes(header, array):
    """The bytes of the earlier `np.savetxt` writer of `_write_csv`."""
    buf = io.StringIO(newline="")
    np.savetxt(buf, array, fmt="%.17g", delimiter=",",
               header=",".join(header), comments="", newline="\r\n")
    return buf.getvalue().encode()


_RNG = np.random.default_rng(12)
_BIG = _RNG.standard_normal((9000, 4)) * 10.0 ** _RNG.integers(-30, 30,
                                                              (9000, 4))
_SPECIAL = np.array([[-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf]])
CSV_CASES = {"random-9000x4": _BIG, "random-5x1": _RNG.random((5, 1)),
             "0-rows": _BIG[:0], "1-row": _BIG[:1], "special": _SPECIAL,
             "special-tiled": np.tile(_SPECIAL, (4100, 1))}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_write_csv_matches_savetxt(case, tmp_path):
    array = CSV_CASES[case]
    header = [f"c{i}" for i in range(array.shape[1])]
    out = tmp_path / "x.csv"
    _write_csv(str(out), header, array)
    assert out.read_bytes() == _savetxt_bytes(header, array)


def _zerocell_reference_bytes(body_path, window, seed):
    """The earlier list-of-dicts writer of `simulate zerocell`."""
    body = body_from_json(body_path)
    system = build_zero_cell(body, window, seed=seed)
    s = system.sample
    doc = {
        "body": body_to_json(body),
        "cone": "full",
        "window_radius": window,
        "seed": seed,
        "constraints": [
            {"normal": n, "offset": t}
            for n, t in zip(system.normals.tolist(),
                            system.offsets.tolist())],
        "marks": [
            {"t": t, "eta": eta, "u": u}
            for t, eta, u in zip(s.t.tolist(), s.eta.tolist(),
                                 s.u.tolist())],
    }
    return json.dumps(doc, indent=2, sort_keys=True).encode()


@pytest.mark.parametrize("name, body, window", [
    ("square", cube(2), 40.0),
    ("cube3", cube(3), 8.0),
    ("disk", Ball(1.0, 2), 40.0),
    ("half-ball3", HalfBall(1.0, np.array([0.0, 0.0, 1.0]), 3), 8.0),
    ("square-no-marks", cube(2), 1e-9),
])
def test_simulate_zerocell_matches_json_dumps(name, body, window, tmp_path):
    body_path = tmp_path / "body.json"
    body_path.write_text(json.dumps(body_to_json(body)))
    out = tmp_path / "cell.json"
    assert main(["simulate", "zerocell", "--body", str(body_path),
                 "--window", repr(window), "--seed", "6",
                 "--out", str(out)]) == 0
    got = out.read_bytes()
    assert got == _zerocell_reference_bytes(str(body_path), window, 6)
    if name == "square-no-marks":
        assert b'"constraints": [],\n  "marks": [],' in got
    else:
        assert len(json.loads(got)["marks"]) > 10


def test_json_array_matches_json_dumps():
    rows = np.random.default_rng(13).standard_normal((4100, 3))
    buf = io.StringIO()
    _write_json_array(buf, {"a": ["%s"] * 2, "b": "%s"}, rows)
    want = json.dumps({"x": [{"a": r[:2], "b": r[2]}
                             for r in rows.tolist()]}, indent=2)
    assert buf.getvalue() == want[want.index("["):-2]


def test_json_array_rejects_non_finite():
    rows = np.array([[1.5, np.nan, 0.1], [-0.0, np.inf, -np.inf]])
    with pytest.raises(ValueError, match="finite"):
        _write_json_array(io.StringIO(), {"a": ["%s"] * 2, "b": "%s"}, rows)


def test_simulate_pk_malformed_body_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["simulate", "pk", "--body", str(bad), "--tmax", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command, flag", [("pk", "--tmax"),
                                           ("zerocell", "--window")])
def test_simulate_non_finite_or_non_positive_size_names_the_flag(
        command, flag, value, square_json, tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["simulate", command, "--body", square_json, flag, value,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {flag} must be finite and positive, got " \
        f"{float(value)}\n"
    assert not out.exists()


def test_simulate_pk_one_dimensional_half_ball_exits_2(tmp_path, capsys):
    body = tmp_path / "half_ball1.json"
    body.write_text(json.dumps({"kind": "half_ball", "radius": 1,
                                "axis": [1.0]}))
    code = main(["simulate", "pk", "--body", str(body), "--tmax", "1",
                 "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_simulate_zerocell(square_json, tmp_path):
    out = tmp_path / "cell.json"
    code = main(["simulate", "zerocell", "--body", square_json,
                 "--window", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["constraints"]) == len(doc["marks"])
    for con in doc["constraints"]:
        assert con["offset"] > 0
        assert len(con["normal"]) == 6


def test_experiment_so2_check_passes(tmp_path):
    out = tmp_path / "rep.json"
    code = main(["experiment", "so2-square", "--n", "300", "--reps", "400",
                 "--limit-reps", "4000", "--seed", "1", "--check",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "config_hash" in doc
    assert doc["statistics"]["ks_two_sample_plus"] < 0.08


def test_experiment_box_check(tmp_path):
    code = main(["experiment", "translation-box", "--n", "500", "--reps",
                 "4000", "--seed", "1", "--check"])
    assert code == 0


def test_experiment_recession(square_json, tmp_path):
    out = tmp_path / "rec.json"
    code = main(["experiment", "recession", "--body", square_json,
                 "--cone", "translations", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["bounded"] is True


def test_experiment_recession_unbounded(tmp_path):
    ball = tmp_path / "ball.json"
    ball.write_text(json.dumps({"kind": "ball", "radius": 1.0, "dim": 2}))
    out = tmp_path / "rec.json"
    code = main(["experiment", "recession", "--body", str(ball),
                 "--cone", "full", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["bounded"] is False


def test_experiment_dual_cone_check(tmp_path):
    code = main(["experiment", "dual-cone", "--d", "2", "--n", "30000",
                 "--seed", "2", "--check"])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["--n", "1"],
    ["--d", "3", "--n", "3"],
])
def test_experiment_dual_cone_too_few_points_exits_2(argv, capsys):
    assert main(["experiment", "dual-cone"] + argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: target_points (--n) = {argv[-1]} is "
                          "too small")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["so2-square", "--n", "-5"],
    ["so2-square", "--reps", "0"],
    ["so2-square", "--limit-reps", "0"],
    ["so2-square", "--seed", "-1"],
    ["translation-box", "--n", "0"],
    ["translation-box", "--reps", "-3"],
    ["translation-box", "--seed", "-1"],
    ["dual-cone", "--n", "0"],
    ["dual-cone", "--n", "ten"],
    ["dual-cone", "--seed", "-2"],
    ["inclusion", "--body", "b.json", "--points", "p.csv", "--n", "0"],
    ["inclusion", "--body", "b.json", "--points", "p.csv", "--reps", "0"],
    ["inclusion", "--body", "b.json", "--points", "p.csv", "--seed", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_experiment_bad_size_or_seed_exits_2(argv, capsys):
    assert main(["experiment"] + argv) == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected an integer" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["pk", "zerocell"])
def test_simulate_negative_seed_exits_2(command, square_json, tmp_path,
                                        capsys):
    size = ["--tmax", "1"] if command == "pk" else ["--window", "1"]
    assert main(["simulate", command, "--body", square_json, *size,
                 "--seed", "-1", "--out", str(tmp_path / "x")]) == 2
    assert "argument --seed: expected an integer >= 0" in \
        capsys.readouterr().err


def test_samples_sidecar_deterministic(tmp_path):
    files = []
    for name in ("a.csv", "b.csv"):
        side = tmp_path / name
        code = main(["experiment", "translation-box", "--n", "200",
                     "--reps", "300", "--seed", "9",
                     "--samples-out", str(side)])
        assert code == 0
        files.append(side.read_bytes())
    assert files[0] == files[1]


def test_unknown_cone_exits_2(square_json, two_points_csv, tmp_path,
                              capsys):
    code = main(["experiment", "inclusion", "--body", square_json,
                 "--cone", "bogus", "--points", two_points_csv,
                 "--out", str(tmp_path / "x.json")])
    assert code == 2
    code = main(["experiment", "recession", "--body", square_json,
                 "--cone", "bogus", "--out", str(tmp_path / "y.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("argument --cone: invalid choice: 'bogus'") == 2
    assert not (tmp_path / "x.json").exists()
    assert not (tmp_path / "y.json").exists()


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_output_mode_follows_umask(umask, mode, square_json, tmp_path):
    out = tmp_path / "m.csv"
    old = os.umask(umask)
    try:
        assert main(["simulate", "pk", "--body", square_json, "--tmax", "1",
                     "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode


@pytest.mark.parametrize("argv,config,config_hash", [
    (["dual-cone", "--n", "3000", "--seed", "3"],
     '{"d": 2, "r_max": 1.0, "target_points": 3000}', "72b5c0ab84fd0684"),
    (["translation-box", "--n", "50", "--reps", "20", "--seed", "3"],
     '{"n": 50, "replicates": 20, "s_max": 50.0, "simulate_via_marks": '
     'false}', "c7482d3dc896a5f9"),
    (["inclusion", "--n", "20", "--reps", "10", "--seed", "3"],
     '{"cone": "skew", "n": 20, "points": [[0.5], [-1.0]], "replicates": '
     '10, "window_radius": 2.0}', "4e8db2383be02358"),
], ids=["dual-cone", "translation-box", "inclusion"])
def test_report_config_is_pinned(argv, config, config_hash, square_json,
                                 tmp_path):
    if argv[0] == "inclusion":
        points = tmp_path / "pts.csv"
        points.write_text("0.5\n-1.0\n")
        argv = argv + ["--body", square_json, "--points", str(points)]
    out = tmp_path / "rep.json"
    assert main(["experiment"] + argv + ["--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc) == ["config", "config_hash", "name",
                           "runtime_seconds", "seed", "statistics"]
    assert json.dumps(doc["config"], sort_keys=True) == config
    assert doc["config_hash"] == config_hash


BODIES = {
    "square": {"kind": "polytope",
               "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]]},
    "cube3": {"kind": "polytope",
              "vertices": [[x, y, z] for x in (-1, 1) for y in (-1, 1)
                           for z in (-1, 1)]},
    "half-ball3": {"kind": "half_ball", "radius": 1.0, "axis": [0, 0, 1]},
}


def _same_seed_outputs(tmp_path, body, argv, suffix):
    path = tmp_path / "body.json"
    path.write_text(json.dumps(BODIES[body]))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.{suffix}"
        assert main(argv[:2] + ["--body", str(path)] + argv[2:]
                    + ["--out", str(out)]) == 0
        outs.append(out.read_bytes())
    return outs


@pytest.mark.parametrize("body", sorted(BODIES))
def test_simulate_pk_same_seed_same_bytes(body, tmp_path):
    a, b = _same_seed_outputs(tmp_path, body, [
        "simulate", "pk", "--tmax", "30", "--seed", "5"], "csv")
    assert a == b
    assert len(a.splitlines()) > 10


@pytest.mark.parametrize("body", sorted(BODIES))
def test_simulate_zerocell_same_seed_same_bytes(body, tmp_path):
    a, b = _same_seed_outputs(tmp_path, body, [
        "simulate", "zerocell", "--window", "5", "--seed", "5"], "json")
    assert a == b
    doc = json.loads(a)
    assert len(doc["marks"]) == len(doc["constraints"]) > 0


# Bodies that the boundary sampler does not draw marks on.
UNSAMPLED_BODIES = {
    "HalfSpace": {"kind": "half_space",
                  "facets": [{"normal": [1, 0], "offset": 1}]},
    "PolyhedralCone": {"kind": "cone", "dim": 2,
                       "generators": [[1, 0], [0, 1]]},
}


@pytest.mark.parametrize("name", sorted(UNSAMPLED_BODIES))
@pytest.mark.parametrize("command", ["zerocell", "inclusion"])
def test_zero_cell_commands_reject_unsampled_body(command, name, tmp_path,
                                                  capsys):
    body = tmp_path / "body.json"
    body.write_text(json.dumps(UNSAMPLED_BODIES[name]))
    points = tmp_path / "pts.csv"
    points.write_text("0.3\n")
    argv = {"zerocell": ["simulate", "zerocell", "--window", "2"],
            "inclusion": ["experiment", "inclusion", "--points", str(points),
                          "--n", "10", "--reps", "2"]}[command]
    out = tmp_path / "out.json"
    assert main(argv + ["--body", str(body), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: unsupported body {name}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, field, value", [
    (kind, "radius", value) for kind in ("ball", "half_ball")
    for value in (0, -1, float("nan"), float("inf"))
] + [("ball", "dim", 0), ("half_ball", "dim", 0)])
def test_simulate_pk_invalid_ball_field_names_it(kind, field, value,
                                                 tmp_path, capsys):
    doc = {"kind": kind, "radius": 1, field: value}
    body = tmp_path / "body.json"
    body.write_text(json.dumps(doc))  # NaN and Infinity as json reads them
    out = tmp_path / "x.csv"
    assert main(["simulate", "pk", "--body", str(body), "--tmax", "1",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid body description in {body}: "
                          f"{field} must be ")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["experiment", "inclusion", "--body", "BODY"],
    ["hull", "--family", "full-affine"],
], ids=["inclusion", "hull"])
def test_empty_points_file_names_the_flag(argv, square_json, tmp_path,
                                          capsys):
    points = tmp_path / "empty.csv"
    points.write_text("")
    out = tmp_path / "x.json"
    argv = [square_json if a == "BODY" else a for a in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's empty-input warning too
        code = main(argv + ["--points", str(points), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == \
        f"error: --points file {points} has no rows\n"
    assert not out.exists()
