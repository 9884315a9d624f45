"""`import khull` loads no scipy submodule; each loads on first use."""

import json
import os
import subprocess
import sys

import pytest

import khull

SUBMODULES = ("scipy.optimize", "scipy.spatial", "scipy.linalg",
              "scipy.sparse", "scipy.stats")

PRELUDE = f"""
import json, sys
import khull, khull.cli

def loaded():
    return [m for m in {SUBMODULES!r} if m in sys.modules]

"""


def _run(code, cwd):
    """Run `code` after the prelude in a fresh interpreter; parse its last
    printed line as JSON."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(khull.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_and_ball_simulation_load_no_scipy_submodule(tmp_path):
    (tmp_path / "ball3.json").write_text(
        json.dumps({"kind": "ball", "radius": 1.0, "dim": 3}))
    out = _run("""
before = loaded()
code = khull.cli.main(["simulate", "pk", "--body", "ball3.json",
                       "--tmax", "50", "--seed", "3", "--out", "pk.csv"])
print(json.dumps([before, code, loaded()]))
""", tmp_path)
    assert out == [[], 0, []]
    rows = (tmp_path / "pk.csv").read_text().splitlines()
    assert rows[0] == "t,eta_1,eta_2,eta_3,u_1,u_2,u_3"
    assert len(rows) > 1


def test_cube_and_its_json_load_no_scipy_submodule(tmp_path):
    out = _run("""
square = khull.cube(2)
docs = [khull.body_to_json(square), khull.body_to_json(khull.cube(3))]
print(json.dumps([loaded(), square.vertices.tolist()]))
""", tmp_path)
    modules, vertices = out
    assert modules == []
    assert sorted(map(tuple, vertices)) == [(-1, -1), (-1, 1), (1, -1),
                                            (1, 1)]


@pytest.mark.parametrize("call", [
    "khull.cube(2).volume",
    "khull.Polytope.from_vertices([[1, 0], [0.5, 0.8], [-0.5, 0.8], [-1, 0],"
    " [-0.5, -0.8], [0.5, -0.8]])",
], ids=["cube-volume", "hexagon"])
def test_polytope_call_loads_scipy_spatial(call, tmp_path):
    modules = _run(f"""
{call}
print(json.dumps(loaded()))
""", tmp_path)
    assert "scipy.spatial" in modules and "scipy.optimize" not in modules


def test_lp_call_loads_scipy_optimize(tmp_path):
    out = _run("""
ball = khull.Ball(1.0, 2)
verdicts = [khull.is_bounded(ball, khull.cone_preset(name, 2))[0]
            for name in ("symmetric-traceless", "full")]
print(json.dumps([loaded(), verdicts]))
""", tmp_path)
    modules, verdicts = out
    assert "scipy.optimize" in modules
    assert verdicts == [True, False]
