import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coversphere
from coversphere import catalog
from coversphere.cli import main
from coversphere.tiling import Tiling

SRC = str(Path(coversphere.__file__).resolve().parents[1])


def python(code, seed="0"):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True).stdout


def klein_bottle():
    """The 3 x 3 square grid closed up along its columns as a torus is,
    and along its rows with a flip, (i, 3) glued to (-i, 0): a Klein
    bottle, as a tiling document.  No other edge joins an edge's two
    ends, so they name it."""
    def v(i, j):
        return (-i if j == 3 else i) % 3 * 3 + j % 3
    faces = [[v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)]
             for i in range(3) for j in range(3)]
    sides = [["%d-%d" % (min(a, b), max(a, b))
              for a, b in zip(vs, vs[1:] + vs[:1])] for vs in faces]
    return {"faces": [{"id": f, "type": "sq", "vertices": vs, "edges": es}
                      for f, (vs, es) in enumerate(zip(faces, sides))],
            "edges": [{"id": k, "status": "plain"}
                      for k in sorted({k for es in sides for k in es})]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rules_list(capsys):
    code, out, _ = run(capsys, "rules", "list")
    assert code == 0
    data = json.loads(out)
    assert [e["name"] for e in data] == sorted(e["name"] for e in data)
    assert len(data) == 6


def test_subdivide_stats(capsys):
    code, out, _ = run(capsys, "subdivide", "--rule", "torus3",
                       "--steps", "3", "--mode", "replacement",
                       "--stats", "-")
    assert code == 0
    assert json.loads(out)["face_counts"] == [6, 30, 78]


def test_subdivide_stats_of_the_start_alone(capsys):
    # one stage is the rule's start, counted with no step taken
    code, out, _ = run(capsys, "subdivide", "--rule", "nxs1", "--steps", "1",
                       "--stats", "-")
    assert code == 0
    data = json.loads(out)
    assert [data[k] for k in ("face_counts", "edge_counts", "vertex_counts")] \
        == [[14], [36], [24]]


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run(capsys, "growth", "--rule", "torus3",
                           "--steps", "5", "--mode", "subdivision")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    assert "polynomial(2)" in outs.pop()


def test_cover_stats(capsys):
    code, out, _ = run(capsys, "cover", "--spec", "cube", "--steps", "3")
    assert code == 0
    data = json.loads(out)
    assert data["cells"] == [1, 7, 25]
    assert data["all_spheres"]


@pytest.mark.parametrize("argv, n", [
    (("cover", "--spec", "cube", "--steps", "1"), 1),
    (("cover", "--spec", "cube", "--steps", "3"), 3),
    (("verify", "--rule", "torus3", "--steps", "1"), 1),
    (("verify", "--rule", "torus3", "--steps", "3"), 3),
], ids=["cover-1", "cover-3", "verify-1", "verify-3"])
def test_cover_and_verify_build_balls_up_to_steps(capsys, expand_sizes,
                                                  argv, n):
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert expand_sizes == [7, 25][:n - 1]


def test_cover_cap_bounds_the_largest_ball(capsys, expand_sizes):
    code, out, _ = run(capsys, "cover", "--spec", "prism12", "--steps", "4",
                       "--cap", "1111")
    assert code == 0
    assert json.loads(out)["cells"] == [1, 15, 137, 1111]
    assert expand_sizes == [15, 137, 1111]   # never the 8,793-cell B(5)
    code, out, err = run(capsys, "cover", "--spec", "prism12", "--steps",
                         "4", "--cap", "1110")
    assert code == 2
    assert out == ""
    assert "cell cap 1110 exceeded" in err


@pytest.mark.parametrize("steps", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("cover", "--spec", "cube"),
    ("verify", "--rule", "nxs1"),
    ("subdivide", "--rule", "torus3", "--stats", "-"),
    ("growth", "--rule", "torus3"),
], ids=lambda argv: argv[0])
def test_steps_below_one_rejected(capsys, argv, steps):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--steps", steps])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"--steps: must be at least 1, not {steps}" in out.err


def test_cayley_ac2(capsys):
    code, out, _ = run(capsys, "cayley", "--group", "Z3",
                       "--radius", "4", "--ac2")
    assert code == 0
    assert json.loads(out)["K"] == {"2": 2, "3": 2, "4": 2}


def test_cayley_cones(capsys):
    code, out, _ = run(capsys, "cayley", "--group", "Z", "--radius", "4",
                       "--cones", "--depth", "3")
    assert code == 0
    assert json.loads(out)["class_count"] == 1
    assert json.loads(out)["bucket_count"] == 2


@pytest.mark.parametrize("argv, bad", [
    (("--radius", "3", "--cones", "--depth", "-1"), "depth -1"),
    (("--radius", "-1", "--cones"), "radius -1"),
    (("--radius", "-1", "--ac2"), "radius -1"),
    (("--radius", "-1"), "radius -1"),
    # each pass checks its own radius and depth before it builds a ball
    (("--radius", "0", "--cones", "--depth", "-1"), "depth -1"),
    (("--radius", "-3", "--cones", "--depth", "1"), "radius -3"),
], ids=["depth", "cones", "ac2", "ball", "depth-at-0", "radius-not-sum"])
def test_cayley_rejects_negative_radius_or_depth(capsys, argv, bad):
    code, out, err = run(capsys, "cayley", "--group", "Z", *argv)
    assert code == 2
    assert out == ""
    what, value = bad.split()
    assert err == f"error: {what} must be non-negative, not {value}\n"


def test_cayley_rejects_ac2_with_cones(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cayley", "--group", "heis", "--radius", "3", "--ac2",
              "--cones"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "argument --cones: not allowed with argument --ac2" in out.err


def test_cli_import_leaves_networkx_unloaded():
    # nor cayley and pack, which only their commands use, nor any stage-1
    # tiling or companion spec, which are built when their rule first runs
    out = python("import sys, coversphere.cli; "
                 "from coversphere.catalog import get_rule, list_rules; "
                 "names = [n for n, *_ in list_rules()]; "
                 "print(sorted({'coversphere.cayley', 'coversphere.pack', "
                 "'networkx'} & set(sys.modules)), "
                 "[n for n in names if {'initial', 'spec'} & "
                 "vars(get_rule(n)).keys()])")
    assert out == "[] []\n"


def test_verify_parses_its_companion_spec_once(capsys, monkeypatch):
    # catalog entries keep what they parse, so the test starts from fresh
    # ones and leaves fresh ones behind
    loads = []
    load = catalog.load_gluing_spec
    monkeypatch.setattr(catalog, "load_gluing_spec",
                        lambda path: loads.append(path.name) or load(path))
    catalog._catalog.cache_clear()
    try:
        code, out, _ = run(capsys, "verify", "--rule", "nxs1", "--steps", "2")
    finally:
        catalog._catalog.cache_clear()
    assert code == 0 and json.loads(out)["equivalent"]
    assert loads == ["prism12.glue"]


@pytest.mark.parametrize("argv, builds", [
    (("cover", "--spec", "prism12", "--steps", "4"), False),
    (("verify", "--rule", "nxs1", "--steps", "2"), True),
], ids=["cover", "verify"])
def test_only_verify_builds_the_cover_spheres(capsys, monkeypatch, argv,
                                              builds):
    # cover reads each sphere's counts off the ball; verify still needs
    # the spheres to match against the rule's
    made = []
    init = Tiling.__init__

    def spy(self, *args, **kw):
        made.append(self)
        init(self, *args, **kw)

    monkeypatch.setattr(Tiling, "__init__", spy)
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert bool(made) == builds


@pytest.mark.parametrize("argv, last", [
    ("growth --rule nxs1 --steps 4", 3),
    ("subdivide --rule barycentric --steps 4 --stats -", 3),
    ("subdivide --rule barycentric --steps 4 --out -", 4),
], ids=["growth", "stats", "out"])
def test_last_rule_stage_is_counted_not_built(capsys, monkeypatch, argv,
                                              last):
    # growth and subdivide --stats count the last stage off the rule's
    # face tables; only --out, which writes it, builds it
    stages = []
    init = Tiling.__init__

    def spy(self, *args, stage=0, **kw):
        stages.append(stage)
        init(self, *args, stage=stage, **kw)

    monkeypatch.setattr(Tiling, "__init__", spy)
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    assert max(stages) == last


def test_cayley_cones_stdout_stable_across_hash_seeds():
    code = ("from coversphere.cli import main; "
            "main(['cayley', '--group', 'heis', '--radius', '6', "
            "'--cones', '--depth', '2'])")
    outputs = {python(code, seed) for seed in ("0", "1")}
    assert len(outputs) == 1
    assert json.loads(outputs.pop())["class_count"] == 24


@pytest.mark.parametrize("argv", [
    "subdivide --rule nxs1 --steps 3 --out -",
    "subdivide --rule torus3 --steps 3 --mode subdivision --out -",
    "subdivide --rule barycentric --steps 4 --stats -",
    "growth --rule nxs1 --steps 4",
    "growth --rule s2xr --steps 4",
    "cover --spec prism12 --steps 4",
    "verify --rule s2xr --steps 3",
    "verify --rule nxs1 --steps 4",
    "cayley --group sol --radius 7 --ac2",
])
def test_stdout_stable_across_hash_seeds(argv):
    code = ("from coversphere.cli import main; "
            "raise SystemExit(main(%r.split()))" % argv)
    outputs = {python(code, seed) for seed in ("0", "1")}
    assert len(outputs) == 1
    assert outputs.pop()


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--rule", "torus3", "--steps", "4")
    assert code == 0
    assert json.loads(out)["equivalent"]


def test_verify_sl2r_against_utn_cover(capsys):
    code, out, _ = run(capsys, "verify", "--rule", "sl2r", "--steps", "4")
    assert code == 0
    assert json.loads(out) == {"rule": "sl2r", "spec": "utn", "steps": 4,
                               "equivalent": True}


def test_verify_s2xr_against_s2_cover(capsys, monkeypatch):
    # every stage has two components, which walks pair without any
    # canonical form
    calls = []
    canonical_form = Tiling.canonical_form
    monkeypatch.setattr(Tiling, "canonical_form",
                        lambda t: calls.append(t) or canonical_form(t))
    code, out, _ = run(capsys, "verify", "--rule", "s2xr", "--steps", "4")
    assert code == 0
    assert json.loads(out) == {"rule": "s2xr", "spec": "s2", "steps": 4,
                               "equivalent": True}
    assert calls == []


def test_verify_reports_first_mismatched_stage(capsys, monkeypatch):
    monkeypatch.setattr("coversphere.growth.apply_replacement",
                        lambda rule, t: t)
    code, out, err = run(capsys, "verify", "--rule", "torus3", "--steps", "3")
    assert code == 1
    assert out == ""
    assert "stage 2" in err


def test_pack_roundtrip(tmp_path, capsys):
    tiling_path = tmp_path / "t.json"
    svg_path = tmp_path / "t.svg"
    code, _, _ = run(capsys, "subdivide", "--rule", "torus3", "--steps", "1",
                     "--out", str(tiling_path))
    assert code == 0
    code, out, _ = run(capsys, "pack", "--in", str(tiling_path),
                       "--svg", str(svg_path))
    assert code == 0
    data = json.loads(out)
    assert data["residual"] and data["tangency_error_ok"]
    assert len(data["circles"]) == 13
    assert svg_path.read_text().count("<circle") == 13


@pytest.mark.parametrize("doc, where", [
    ([], "JSON object"),
    ({"faces": [{"id": 0, "type": "t", "vertices": 5, "edges": [0, 1, 2]}],
      "edges": []}, "face 0: vertices"),
    ({"faces": [{"id": 3, "type": "t", "vertices": [0, 1, 2], "edges": 7}],
      "edges": []}, "face 3: edges"),
    ({"faces": 3, "edges": []}, "faces must be a list of objects"),
    ({"faces": [5], "edges": []}, "faces must be a list of objects"),
    ({"faces": [], "edges": [5]}, "edges must be a list of objects"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [[0], [1], [2]],
                 "edges": [0, 1, 2]}], "edges": []}, "face 0: vertices"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, {"k": 1}, 2]}], "edges": []}, "face 0: edges"),
    ({"faces": [{"id": [0], "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}], "edges": []}, "faces[0]: id"),
    ({"edges": []}, "missing field 'faces'"),
    ({"faces": []}, "missing field 'edges'"),
    ({"faces": [{"type": "t", "vertices": [0, 1, 2], "edges": [0, 1, 2]}],
      "edges": []}, "faces[0]: missing field 'id'"),
    ({"faces": [{"id": 4, "vertices": [0, 1, 2], "edges": [0, 1, 2]}],
      "edges": []}, "face 4: missing field 'type'"),
    ({"faces": [{"id": 4, "type": "t", "edges": [0, 1, 2]}], "edges": []},
     "face 4: missing field 'vertices'"),
    ({"faces": [{"id": 4, "type": "t", "vertices": [0, 1, 2]}], "edges": []},
     "face 4: missing field 'edges'"),
    ({"faces": [], "edges": [{"status": "plain"}]},
     "edges[0]: missing field 'id'"),
    ({"faces": [], "edges": [{"id": 2}]}, "edge 2: missing field 'status'"),
    ({"faces": [], "edges": [{"id": [2], "status": "plain"}]}, "edges[0]: id"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 0, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "face 0: repeated face id"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": 0, "status": "plain"}, {"id": 0, "status": "loaded"},
                {"id": 1, "status": "plain"}, {"id": 2, "status": "plain"}]},
     "edge 0: repeated edge record"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": 0, "status": "plain"}, {"id": 1, "status": "plain"}]},
     "face 0: edge 2 has no edge record"),
    # JSON true equals 1 in Python, so booleans are refused as keys
    ({"faces": [{"id": True, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 0, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "faces[0]: id"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, True, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "face 0: vertices entry true"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, True]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "face 1: edges entry true"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in (0, True, 2)]},
     "edges[1]: id entry true"),
    # 1.0 equals 1 in Python too, so floats are refused as names and keys
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 1.0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "face 1: edges entry 1.0"),
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1.0, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     "face 1: edges entry 1.0"),
    # a string is truthy, so "false" would mark its edge added
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain", "added": "false"}
                for e in range(3)]},
     'edge 0: added must be true or false, not "false"'),
    ({"faces": [{"id": 0, "type": ["t"], "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     'face 0: type must be a string or an int'),
    # labels are sorted, so a string and an int cannot both be labels
    ({"faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": 3, "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     'face 1: type must be a string or an int, the same kind in every '
     'face, not 3'),
    ({"stage": "1",
      "faces": [{"id": 0, "type": "t", "vertices": [0, 1, 2],
                 "edges": [0, 1, 2]},
                {"id": 1, "type": "t", "vertices": [0, 2, 1],
                 "edges": [2, 1, 0]}],
      "edges": [{"id": e, "status": "plain"} for e in range(3)]},
     'tiling: stage must be a non-negative int, not "1"'),
    (klein_bottle(), "faces 7/8 cannot be oriented compatibly"),
])
def test_pack_rejects_malformed_tiling(tmp_path, capsys, doc, where):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "pack", "--in", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and where in err
    assert "Traceback" not in err


def test_pack_locates_an_edge_whose_sides_join_different_vertices(
        tmp_path, capsys):
    # a tetrahedron 0123 whose edge 1 is side 2-3 of one face and side 1-0
    # of another
    faces = [(0, 2, 3), (0, 1, 2), (0, 3, 1), (1, 3, 2)]
    keys = [(0, 1, 2), (3, 4, 0), (2, 5, 1), (5, 3, 4)]
    path = tmp_path / "tetra.json"
    path.write_text(json.dumps({
        "faces": [{"id": i, "type": "t", "vertices": vs, "edges": es}
                  for i, (vs, es) in enumerate(zip(faces, keys))],
        "edges": [{"id": e, "status": "plain"} for e in range(6)]}))
    code, out, err = run(capsys, "pack", "--in", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: edge 1 joins 2 to 3 on one side and 1 to 0 on "
                   "the other\n")


def test_pack_rejects_a_face_the_tiling_lacks(tmp_path, capsys):
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "subdivide", "--rule", "torus3", "--steps", "1",
                     "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "pack", "--in", str(path), "--open", "999")
    assert (code, out, err) == (2, "", "error: no such face: 999\n")


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1", "0", "1e-300"])
def test_pack_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    path = tmp_path / "t.json"
    code, _, _ = run(capsys, "subdivide", "--rule", "torus3", "--steps", "1",
                     "--out", str(path))
    assert code == 0
    code, out, err = run(capsys, "pack", "--in", str(path),
                         "--tolerance", tolerance)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "tolerance" in err


CUBE_GLUE = Path(coversphere.__file__).parent / "data" / "cube.glue"


@pytest.mark.parametrize("text,message", [
    (CUBE_GLUE.read_text() + "expect-cycle 0 7 : 4\n",
     "line 16: 0-7 is not a polyhedron edge"),
    ("polyhedron empty\n", "no face lines"),
    (CUBE_GLUE.read_text().replace("polyhedron cube", "polyhedron cube x"),
     "line 3: polyhedron line has extra words 'x'"),
    (CUBE_GLUE.read_text() + "expect-cycle 0 1 : 4 junk\n",
     "line 16: expect-cycle line has extra words 'junk'"),
    (CUBE_GLUE.read_text().replace("pair Z0 Z1 : 0->4 1->5 3->7 2->6",
                                   "pair Z0 Z1 : 0->4 1->5 3->6 2->7"),
     "pairing Z0->Z1 does not map the face boundary onto the target "
     "boundary"),
    ("face A t : 0 1 2\nface B t : 0 2 3\npair A B : 0->0 1->2 2->3\n",
     "edge ['0', '1'] flanked by 1 faces"),
], ids=["non-edge", "no-faces", "polyhedron-extra-words",
        "cycle-extra-words", "twisted-pairing", "one-flank"])
def test_cover_rejects_malformed_glue(tmp_path, capsys, text, message):
    path = tmp_path / "bad.glue"
    path.write_text(text)
    code, out, err = run(capsys, "cover", "--spec", str(path), "--steps", "2")
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


@pytest.mark.parametrize("argv, message", [
    (("verify", "--rule", "barycentric"),
     "rule 'barycentric' has no companion gluing spec"),
    (("verify", "--rule", "nope"),
     "unknown rule: 'nope' (available: barycentric, nxs1, s2xr, s3, sl2r, "
     "torus3)"),
    (("cover", "--spec", "nope"), "unknown gluing spec: 'nope'"),
], ids=["no-companion", "unknown-rule", "unknown-spec"])
def test_exit_2_diagnostics_are_one_error_line(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--steps", "2")
    assert code == 2
    assert out == ""
    assert err == "error: %s\n" % message


def test_unknown_rule_diagnostic(capsys):
    code, _, err = run(capsys, "subdivide", "--rule", "minkowski",
                       "--steps", "2")
    assert code == 2
    assert "available" in err


def test_unknown_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
