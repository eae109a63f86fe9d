import gc
import tracemalloc

import pytest

from coversphere import catalog
from coversphere.cover import balls
from coversphere.rules import apply_replacement
from coversphere.tiling import Tiling, TilingError, isomorphic


def cube_faces():
    # unit cube surface, vertices = corner bitmasks
    quads = [
        (0, 1, 3, 2), (4, 5, 7, 6),
        (0, 1, 5, 4), (2, 3, 7, 6),
        (0, 2, 6, 4), (1, 3, 7, 5),
    ]
    return [("sq", q) for q in quads]


def test_cube_is_sphere():
    t = Tiling(cube_faces())
    assert (t.num_vertices, t.num_edges, t.num_faces) == (8, 12, 6)
    assert t.euler_characteristic() == 2
    assert t.is_sphere()


def test_orientation_makes_twins_antiparallel():
    t = Tiling(cube_faces())
    for e in range(t.num_edges):
        h1 = t.edge_half[e]
        h2 = t.h_twin[h1]
        assert t.h_origin[h1] == t.h_origin[t.h_next[h2]]
        assert t.h_origin[h2] == t.h_origin[t.h_next[h1]]


def test_torus_square():
    # one square with opposite sides identified
    t = Tiling([("sq", ("v", "v", "v", "v"), ("e1", "e2", "e1", "e2"))])
    assert (t.num_vertices, t.num_edges, t.num_faces) == (1, 2, 1)
    assert t.euler_characteristic() == 0
    assert not t.is_sphere()


def test_rejects_open_surface():
    with pytest.raises(TilingError):
        Tiling([("sq", (0, 1, 2, 3))])


def test_rejects_face_with_two_vertices():
    with pytest.raises(TilingError, match="face 0"):
        Tiling([("t", (0, 1))])


def test_rejects_edge_cycle_of_other_length():
    with pytest.raises(TilingError, match="face 0"):
        Tiling([("t", (0, 1, 2), ("a", "b"))])


def test_rejects_three_faces_on_edge():
    with pytest.raises(TilingError):
        Tiling([("t", (0, 1, 2)), ("t", (0, 1, 3)), ("t", (0, 1, 4)),
                ("t", (2, 3, 4))])


def test_rejects_split_vertex():
    # two squares glued along two opposite edges: an annulus, not closed
    with pytest.raises(TilingError):
        Tiling([("sq", (0, 1, 2, 3), ("a", "x", "b", "y")),
                ("sq", (1, 0, 3, 2), ("a", "y2", "b", "x2"))])


def test_edge_status_and_loaded_vertices():
    faces = cube_faces()
    t = Tiling(faces)
    status = {t.edge_keys[e]: "plain" for e in range(t.num_edges)}
    # load every edge at vertex 0: (0,1), (0,2), (0,4)
    for e in range(t.num_edges):
        u, v = t.edge_endpoints(e)
        names = {t.vertex_names[u], t.vertex_names[v]}
        if 0 in names:
            status[t.edge_keys[e]] = "loaded"
    t2 = Tiling(faces, edge_status=status)
    assert len(t2.edges_with_status("loaded")) == 3
    loaded = {t2.vertex_names[v] for v in t2.loaded_vertices}
    assert loaded == {0}


def test_json_roundtrip_preserves_structure():
    faces = cube_faces()
    t = Tiling(faces, stage=3)
    t.edge_status[0] = "loaded"
    t.edge_status[1] = "fragile"
    t.edge_added[2] = True
    text = t.to_json()
    u = Tiling.from_json(text)
    assert u.stage == 3
    assert sorted(u.edge_status) == sorted(t.edge_status)
    assert sum(u.edge_added) == 1
    assert isomorphic(t, u)
    # deterministic serialization
    assert Tiling.from_json(text).to_json() == u.to_json()


def test_isomorphic_relabeled_cube():
    t = Tiling(cube_faces())
    relabeled = [("sq", tuple(v + 10 for v in q)) for _, q in cube_faces()]
    u = Tiling(relabeled)
    assert isomorphic(t, u)


def test_not_isomorphic_when_status_differs():
    t = Tiling(cube_faces())
    u = Tiling(cube_faces())
    u.edge_status[0] = "loaded"
    assert not isomorphic(t, u)


def test_not_isomorphic_different_labels():
    t = Tiling(cube_faces())
    faces = cube_faces()
    faces[0] = ("top", faces[0][1])
    u = Tiling(faces)
    assert not isomorphic(t, u)


def test_components_and_disjoint_iso():
    two = Tiling(cube_faces() +
                 [("t", ("a", "b", "c")), ("t", ("a", "c", "b"))])
    assert not two.is_connected()
    assert len(two.components()) == 2
    assert two.euler_characteristic() == 4
    one = two.restrict(two.components()[0])
    assert one.is_sphere()
    # Disconnected tilings fall back to comparing canonical forms.
    shuffled = Tiling([(two.face_labels[f],
                        [("x", v) for v in two.face_vertices(f)])
                       for f in reversed(range(two.num_faces))])
    assert isomorphic(two, shuffled)

    # Same counts and the same label multiset, but the components pair
    # the labels differently: {a,a,a,a}+{b,b,b,b} against twice {a,a,b,b}.
    def tetras(*labels):
        return Tiling([(lab, [(c, v) for v in vs])
                       for c, labs in enumerate(labels)
                       for lab, vs in zip(labs, [(0, 1, 2), (0, 2, 3),
                                                 (0, 3, 1), (1, 3, 2)])])
    split, mixed = tetras("aaaa", "bbbb"), tetras("aabb", "aabb")
    assert sorted(split.face_labels) == sorted(mixed.face_labels)
    assert not isomorphic(split, mixed)
    assert isomorphic(split, tetras("bbbb", "aaaa"))


def nxs1_stage4():
    entry = catalog.get_rule("nxs1")
    t = entry.initial
    for _ in range(3):
        t = apply_replacement(entry.rule.replacement, t)
    return t


def prism12_sphere4():
    *_, state = balls(catalog.load_spec("prism12"), 4)
    return state.boundary_sphere()


@pytest.mark.parametrize("make, flipped", [(nxs1_stage4, 996),
                                           (prism12_sphere4, 5215)])
def test_face_reads_follow_h_next(make, flipped):
    # The contiguous-range reads against a walk of h_next, on tilings
    # where orienting flipped many faces.
    t = make()
    walked_back = 0
    for f in range(t.num_faces):
        walk = [t.face_start[f]]
        while t.h_next[walk[-1]] != walk[0]:
            walk.append(t.h_next[walk[-1]])
        walked_back += walk[1] != walk[0] + 1
        assert t.face_halfedges(f) == walk
        assert t.face_vertices(f) == [t.h_origin[h] for h in walk]
        assert t.face_edges(f) == [t.h_edge[h] for h in walk]
    assert walked_back == flipped


def traced_build(build):
    """(result, traced bytes it holds, traced peak while it was built)."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = build()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held - base, peak - base


def nxs1_stage3():
    entry = catalog.get_rule("nxs1")
    t = entry.initial
    for _ in range(2):
        t = apply_replacement(entry.rule.replacement, t)
    return entry.rule.replacement, t


def test_rule_stage_is_compact_while_built_and_held():
    # A stage held in flat int tables takes about 80 traced bytes per
    # half-edge and peaks near 190 while built; int tables kept as lists
    # take about 218 and 560, over both bounds.
    rule, t = nxs1_stage3()
    out, held, peak = traced_build(lambda: apply_replacement(rule, t))
    half_edges = len(out.h_face)
    assert out.num_faces == 10382
    assert held <= 100 * half_edges
    assert peak <= 400 * half_edges


def test_cover_sphere_is_compact_when_held():
    *_, state = balls(catalog.load_spec("prism12"), 4)
    out, held, _ = traced_build(state.boundary_sphere)
    assert out.num_faces == 10382
    assert held <= 100 * len(out.h_face)
