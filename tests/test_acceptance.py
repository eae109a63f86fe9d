"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS line on success (directly to the real
stdout so it survives pytest capture).
"""

import json
import math
import sys
from functools import partial

import pytest

from coversphere.catalog import get_rule, load_spec
from coversphere.cayley import ac_profile, ball, cone_type_count, make_group
from coversphere.cli import main as cli_main
from coversphere.cover import CoverState, balls
from coversphere.growth import classify_growth, stage_tilings
from coversphere.pack import flower, pack, tangency_error, triangulate
from coversphere.rules import apply_replacement
from coversphere.tiling import STATUS_OF, isomorphic


def report(line):
    print(line, file=sys.__stdout__, flush=True)


@pytest.fixture(scope="module")
def nxs1_stages():
    e = get_rule("nxs1")
    stages = [e.initial]
    for _ in range(4):
        stages.append(apply_replacement(e.rule.replacement, stages[-1]))
    return stages


def test_criterion_1_torus_oracle_equivalence(cube_oracle):
    e = get_rule("torus3")
    spheres = [s.boundary_sphere() for s in balls(load_spec("cube"), 5)]
    t = e.initial
    faces = []
    for n in range(1, 6):
        faces.append(len(t.face_start))
        assert isomorphic(t, spheres[n - 1])
        assert len(t.face_start) == len(cube_oracle[n].boundary_faces)
        if n < 5:
            t = apply_replacement(e.rule.replacement, t)
    assert faces == [6, 30, 78, 150, 246]
    report("criterion 1 PASS: torus3 replacement stages 1-5 isomorphic to "
           "cube cover, faces [6, 30, 78, 150, 246]")


def test_criterion_2_loaded_bookkeeping():
    spheres = [s.boundary_sphere() for s in balls(load_spec("cube"), 3)]
    # the 30-face sphere carries the 12 loaded edges; the 8 loaded
    # vertices (the seed cube's corners) surface one expansion later,
    # on the 78-face sphere
    assert [*map(STATUS_OF.__getitem__, spheres[1].edge_marks)].count(
        "loaded") == 12
    assert len(spheres[2].loaded_vertices) == 8
    state = CoverState(load_spec("cube"))
    state.expand()  # start the burial check at stage 2
    for _n in range(2, 6):
        before = state.boundary_sphere()
        loaded_roots = {before.vertex_names[v]
                        for v in before.loaded_vertices}
        state.expand()
        after = state.boundary_sphere()
        after_roots = {state.verts.find(after.vertex_names[v])
                       for v in range(after.num_vertices)}
        assert all(state.verts.find(r) not in after_roots
                   for r in loaded_roots)
    report("criterion 2 PASS: 12 loaded edges / 8 loaded vertices as "
           "expected; loaded vertices buried at the next stage "
           "(stages 2-5)")


def test_criterion_3_growth_classification(nxs1_stages):
    def faces(rule, n, mode=None):
        return [t.num_faces for t in stage_tilings(get_rule(rule), n, mode)]
    c = classify_growth(faces("torus3", 6, "replacement"))
    assert (c.kind, c.degree) == ("polynomial", 2)
    assert c.evidence["diff_value"] == 24
    assert classify_growth(faces("s2xr", 4)).kind == "constant"
    assert classify_growth(faces("s3", 4)).kind == "empty"
    faces = [len(t.face_start) for t in nxs1_stages]
    ce = classify_growth(faces)
    assert ce.kind == "exponential"
    assert all(b / a > 1.05 for a, b in zip(faces[1:], faces[2:]))
    report(f"criterion 3 PASS: torus3 polynomial(2), s2xr constant, "
           f"s3 empty, nxs1 exponential (ratio ~{ce.ratio:.2f})")


def test_criterion_4_nxs1_validity(nxs1_stages):
    spheres = [s.boundary_sphere() for s in balls(load_spec("prism12"), 4)]
    for n in range(1, 5):
        t = nxs1_stages[n - 1]
        assert t.euler_characteristic() == 2
        assert t.is_sphere()
        assert isomorphic(t, spheres[n - 1])
    report("criterion 4 PASS: nxs1 stages 1-4 are spheres matching the "
           "prism12 cover; no flap mismatch through stage 5")


def test_criterion_6_almost_convexity():
    z3 = ac_profile(partial(ball, make_group("Z3")), 6)
    assert all(z3[n] == 2 for n in range(2, 7))
    sol = ac_profile(partial(ball, make_group("sol")), 6)
    vals = [sol[n] for n in range(2, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert sol[6] > 2
    report(f"criterion 6 PASS: Z3 K(2,n)=2 for n<=6; sol K(2,n) "
           f"nondecreasing with K(2,6)={sol[6]} > 2")


def test_criterion_7_cone_types():
    z3 = partial(ball, make_group("Z3"))
    z4 = cone_type_count(z3, 4, 2).class_count
    z5 = cone_type_count(z3, 5, 2).class_count
    assert z4 == z5
    heis = partial(ball, make_group("heis"))
    counts = {n: cone_type_count(heis, n, 2).class_count
              for n in range(3, 9)}
    assert counts[8] > counts[4]
    report(f"criterion 7 PASS: Z3 depth-2 classes stabilize at {z4} "
           f"(radii 4-5); heis grows {counts[4]} -> {counts[8]} "
           f"(radii 4 -> 8)")


def test_criterion_8_circle_packing():
    hexr = pack(flower(6)).radius["c"]
    assert abs(hexr - 1.0) <= 1e-9
    expect = 1.0 / math.sin(math.pi / 5) - 1.0
    assert abs(pack(flower(5)).radius["c"] - expect) <= 1e-6
    e = get_rule("torus3")
    t = e.initial
    shipped = [get_rule("barycentric").initial, t]
    for _ in range(2):
        t = apply_replacement(e.rule.replacement, t)
        shipped.append(t)
    for s in shipped:
        label = pack(triangulate(s, 0))
        assert label.residual <= 1e-8
        assert tangency_error(label) <= 1e-6
    report("criterion 8 PASS: hex flower r=1 (1e-9), 5-flower matches "
           "scalar solve (1e-6), shipped packings residual <=1e-8 / "
           "tangency <=1e-6")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    tiling_path = tmp_path / "t.json"
    assert cli_main(["subdivide", "--rule", "torus3", "--steps", "1",
                     "--out", str(tiling_path)]) == 0
    capsys.readouterr()
    examples = [
        ["rules", "list"],
        ["subdivide", "--rule", "torus3", "--steps", "3",
         "--mode", "replacement", "--stats", "-"],
        ["cover", "--spec", "cube", "--steps", "3"],
        ["growth", "--rule", "torus3", "--steps", "5",
         "--mode", "subdivision"],
        ["growth", "--rule", "s2xr", "--steps", "4"],
        ["cayley", "--group", "Z3", "--radius", "4", "--ac2"],
        ["cayley", "--group", "Z", "--radius", "4", "--cones",
         "--depth", "3"],
        ["cayley", "--group", "heis", "--radius", "3"],
        ["verify", "--rule", "torus3", "--steps", "3"],
        ["pack", "--in", str(tiling_path), "--svg",
         str(tmp_path / "t.svg")],
    ]
    for argv in examples:
        runs = []
        for _ in range(2):
            assert cli_main(list(argv)) == 0
            runs.append(capsys.readouterr().out)
            if "--svg" in argv:
                runs[-1] += (tmp_path / "t.svg").read_text()
        assert runs[0] == runs[1], f"nondeterministic output: {argv}"
        if "--svg" not in argv:
            json.loads(runs[0])
    report(f"criterion 9 PASS: {len(examples)} CLI examples byte-identical "
           "across repeated runs")
