import math
import random

import pytest

from coversphere import pack as packmod
from coversphere.catalog import get_rule
from coversphere.growth import stage_tilings
from coversphere.pack import (PackError, PackingProblem, flower, pack,
                              render_svg, tangency_error, triangulate)
from coversphere.tiling import Tiling


@pytest.mark.parametrize("k", range(3, 13))
def test_flower_closed_form_radius(k):
    # interior radius r solves 2k*arcsin(1/(1+r)) = 2*pi; r = 1 for k = 6
    label = pack(flower(k))
    expect = 1.0 / math.sin(math.pi / k) - 1.0
    assert label.radius["c"] == pytest.approx(expect, abs=1e-9)


def test_seven_flower_radius_exceeds_one():
    assert pack(flower(7)).radius["c"] > 1.0


def test_cube_triangulation():
    t = get_rule("torus3").initial
    p = triangulate(t, 0)
    assert len(p.triangles) == 20
    assert len(p.boundary) == 4


def test_tetrahedron_no_starring():
    t = get_rule("barycentric").initial
    p = triangulate(t, 0)
    assert len(p.triangles) == 3
    assert all(not isinstance(v, tuple) for v in p.vertices)


def test_torus_input_rejected():
    sq = ("sq", ["a", "a", "a", "a"], ["e1", "e2", "e1", "e2"])
    torus = Tiling([sq])
    with pytest.raises(PackError):
        triangulate(torus, 0)


def test_shipped_stages_pack_within_tolerance():
    e = get_rule("torus3")
    for t in stage_tilings(e, 3, "replacement"):
        label = pack(triangulate(t, 0))
        assert label.residual <= 1e-8
        assert tangency_error(label) <= 1e-6


@pytest.mark.parametrize("stage", [4, 5])
def test_torus3_replacement_stage_packs_fast(stage):
    # stage 4 is the benchmark's pack input; plain uniform-neighbour
    # sweeps need 5,800 there and 9,961 at stage 5
    t = list(stage_tilings(get_rule("torus3"), stage, "replacement"))[-1]
    label = pack(triangulate(t, 0))
    assert label.residual <= 1e-8
    assert tangency_error(label) <= 1e-6
    # laid out from triangle 0, Newton's radii keep this near 1e-13
    assert tangency_error(label) <= 1e-10
    assert all(r > 0 for r in label.radius.values())
    assert label.iterations <= 1000


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1.0, 0.0,
                                       1e-300])
def test_bad_tolerance_rejected(tolerance):
    with pytest.raises(PackError, match="tolerance"):
        pack(flower(6), tolerance)


def test_tolerance_floor_scales_with_valence():
    # the floor is k*2*pi*eps: 8.4e-15 at valence 6, 1.7e-14 at 12
    assert pack(flower(6), 1e-14).residual <= 1e-14
    with pytest.raises(PackError, match="below 1.7e-14"):
        pack(flower(12), 1e-14)
    assert pack(flower(12), 2e-14).residual <= 2e-14


def test_symmetric_input_symmetric_radii():
    label = pack(flower(8))
    petals = [label.radius[f"p{i}"] for i in range(8)]
    assert all(r == 1.0 for r in petals)
    # cube minus a face has a 4-fold symmetry: radii come in multiplets
    t = get_rule("torus3").initial
    label = pack(triangulate(t, 0))
    from collections import Counter
    sizes = Counter(round(r, 7) for r in label.radius.values())
    assert all(m % 4 == 0 or m == 1 for m in sizes.values())


def test_svg_output():
    label = pack(flower(6))
    svg = render_svg(label)
    assert svg.count("<circle") == 7
    assert svg.startswith("<?xml")
    assert render_svg(label) == svg


def test_empty_label_rejected():
    p = flower(6)
    from coversphere.pack import PackingLabel
    with pytest.raises(PackError):
        render_svg(PackingLabel(p, {v: 1.0 for v in p.vertices}))


def torus3_stage2_system(seed):
    """torus3 stage 2 minus face 0, its ``_Pattern``, and radii with
    interior ones spread over [1/e, e]."""
    t = list(stage_tilings(get_rule("torus3"), 2, "replacement"))[-1]
    p = triangulate(t, 0)
    order, pat = packmod._index(p)
    rng = random.Random(seed)
    r = [math.exp(rng.uniform(-1.0, 1.0)) if v in p.interior else 1.0
         for v in order]
    return p, order, pat, r


def test_angle_sums_equal_the_per_vertex_loop():
    p, order, pat, r = torus3_stage2_system(1)
    radius = dict(zip(order, r))
    for v, theta in zip(order, packmod._angle_sums(r, pat)):
        # the loop the layered sums replace, in the same order
        total = 0.0
        for u, w in p.tris_at[v]:
            rv, ru, rw = radius[v], radius[u], radius[w]
            total += math.asin(math.sqrt(ru * rw / ((rv + ru) * (rv + rw))))
        assert theta == 2.0 * total


def test_jacobian_matches_central_differences():
    _, _, pat, r = torus3_stage2_system(2)
    n = pat.bounds[0]
    d, c = packmod._jacobian(r, pat)
    jac = [[0.0] * n for _ in range(n)]
    for v in range(n):
        jac[v][v] = -d[v]
    for v, col, x in zip(pat.v, pat.cols, c):
        if col < n:
            jac[v][col] = x
    h = 1e-5
    for w in range(n):
        up, down = r[:], r[:]
        up[w] *= math.exp(h)
        down[w] *= math.exp(-h)
        column = [(a - b) / (2 * h) for a, b in
                  zip(packmod._angle_sums(up, pat),
                      packmod._angle_sums(down, pat))]
        assert column == pytest.approx([row[w] for row in jac], abs=1e-8)
    for v in range(n):
        for w in range(v):
            assert jac[v][w] == pytest.approx(jac[w][v], rel=1e-12)
    assert sum(x != 0.0 for row in jac for x in row) > 3 * n


def test_nxs1_stage_2_packs_in_few_newton_steps():
    # 409 interior vertices; Gauss-Seidel sweeps needed hundreds
    t = list(stage_tilings(get_rule("nxs1"), 2, "replacement"))[-1]
    label = pack(triangulate(t, 0))
    assert label.residual <= 1e-8
    assert tangency_error(label) <= 1e-6
    assert tangency_error(label) <= 1e-10
    assert label.iterations <= 10


def test_no_convergence_is_an_error(monkeypatch):
    monkeypatch.setattr(packmod, "MAX_STEPS", 2)
    t = list(stage_tilings(get_rule("torus3"), 2, "replacement"))[-1]
    with pytest.raises(PackError, match=r"^no convergence after 2 Newton "
                       r"steps \(residual [0-9.e-]+\)$"):
        pack(triangulate(t, 0))


def test_open_flower_rejected():
    # c's triangles fan from p0 to p3 without closing up
    tris = [("c", f"p{i}", f"p{i + 1}") for i in range(3)]
    with pytest.raises(PackError, match="^interior vertex 'c' has an open "
                       "flower$"):
        PackingProblem(["c", "p0", "p1", "p2", "p3"], tris,
                       {"p0", "p1", "p2", "p3"})
