import gc
import json
import random
import re
import tracemalloc
from array import array
from itertools import accumulate, zip_longest

import pytest

from coversphere import catalog
from coversphere.cover import balls
from coversphere.growth import stage_tilings
from coversphere.rules import (_replaced_faces, apply_replacement,
                               apply_subdivision)
from coversphere.tiling import (ADDED, STATUSES, FaceTables, Tiling,
                                TilingError, isomorphic, mark)
from test_cli import python
from test_isomorphism import square_torus


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


@pytest.mark.parametrize("tables, message", [
    ((["t"], [2], [0, 1], [0, 1], bytearray(2), 2),
     "face 0: fewer than 3 boundary vertices"),
    ((["t", "t"], [3, 3], [0, 1, 2], [0, 1, 2], bytearray(3), 3),
     "face tables disagree: faces of 6 sides in all, 3 vertex names, 3 "
     "edge keys"),
], ids=["short-face", "sides"])
def test_rejects_inconsistent_face_tables(tables, message):
    with pytest.raises(TilingError) as exc:
        Tiling(FaceTables(*tables))
    assert str(exc.value) == message


def test_first_bad_face_is_reported_first():
    # A short face is reported before a later face's misfit edge cycle.
    with pytest.raises(TilingError) as exc:
        Tiling([("t", (0, 1)), ("t", (0, 1, 2), ("a", "b"))])
    assert str(exc.value) == "face 0: fewer than 3 boundary vertices"


def test_rejects_three_faces_on_edge():
    with pytest.raises(TilingError) as exc:
        Tiling([("t", (0, 1, 2)), ("t", (0, 1, 3)), ("t", (0, 1, 4)),
                ("t", (2, 3, 4))])
    assert str(exc.value) == ("edge [0, 1] bounds 3 face sides; closed "
                              "surfaces need exactly 2")
    # Int key 5 is a side of faces 0, 1 and 2, so the pairing pass meets
    # its third side before the last face; the message counts every side,
    # given one by one or as tables.
    keys = [5, 1, 2, 5, 3, 4, 5, 7, 8, 6, 1, 3]
    message = "edge 5 bounds 3 face sides; closed surfaces need exactly 2"
    faces = [("t", (0, 1, 2), keys[i:i + 3]) for i in range(0, 12, 3)]
    for given in (faces, FaceTables(["t"] * 4, array("i", [3] * 4),
                                    array("i", [0, 1, 2] * 4),
                                    array("i", keys), bytearray(9), 3)):
        with pytest.raises(TilingError) as exc:
            Tiling(given)
        assert str(exc.value) == message


def test_one_sided_key_is_named_as_the_producer_gave_it():
    # Key 12 has one side.  That shows only at side 7, which makes a
    # seventh edge of 12 sides, once sides 0-6 were renumbered in place;
    # the message still names and counts the producer's key, not an
    # edge id.
    keys = [10, 11, 12, 10, 13, 14, 15, 16, 17, 16, 11, 13]
    with pytest.raises(TilingError) as exc:
        Tiling(FaceTables(["t"] * 4, array("i", [3] * 4),
                          array("i", [0, 1, 2] * 4), array("i", keys),
                          bytearray(18), 3))
    assert str(exc.value) == ("edge 12 bounds 1 face sides; closed surfaces "
                              "need exactly 2")


@pytest.mark.parametrize("names, keys, message", [
    ([0, 1, 2] * 3, [0, 1, 2, 2, 1, 9, 0, 3, 3],
     "edge key 9 is outside the declared range(4)"),
    ([0, 1, 2] * 3, [0, 1, 2, 2, 1, -1, 0, 3, 3],
     "edge key -1 is outside the declared range(4)"),
    ([0, 1, 2, 2, 1, 2 ** 31 - 1, 0, 1, 2], [0] * 9,
     "vertex name 2147483647 is outside the declared range(3)"),
    ([0, 1, -2 ** 31, 0, 1, 2, 0, 1, 2], [0] * 9,
     "vertex name -2147483648 is outside the declared range(3)"),
    # a name out of range is reported before a key, and either before a
    # key with three sides, though the numbering pass meets those first
    ([0, 1, 2, 0, 1, 2, 0, 1, 5], [0, -1, 2, 2, 1, 0, 0, 3, 3],
     "vertex name 5 is outside the declared range(3)"),
    ([0, 1, 2] * 3, [0, 1, 2, 0, 1, 2, 0, 3, 9],
     "edge key 9 is outside the declared range(4)"),
], ids=["key-above", "key-negative", "name-above", "name-negative",
        "name-before-key", "range-before-sides"])
def test_rejects_ints_outside_the_declared_range(names, keys, message):
    # The lookup tables are sized by the declared ranges (3 names, 4
    # keys), never by a name or key read from the tables: the largest
    # int32 must not make a table of 2**31 entries.
    tables = FaceTables(["t"] * 3, array("i", [3] * 3), array("i", names),
                        array("i", keys), bytearray(4), 3)
    exc, _, peak = traced_build(lambda: pytest.raises(TilingError, Tiling,
                                                      tables))
    assert str(exc.value) == message
    assert peak < 10_000


SIDE_COUNT = ("from coversphere.tiling import Tiling, TilingError\n"
              "try:\n"
              "    Tiling([('t', ['a', 'b', 'c'])])\n"
              "except TilingError as exc:\n"
              "    print(exc)\n")


def test_side_count_message_stable_across_hash_seeds():
    outputs = {python(SIDE_COUNT, seed) for seed in ("1", "2", "3")}
    assert outputs == {"edge ['a', 'b'] bounds 1 face sides; closed "
                       "surfaces need exactly 2\n"}


# A tetrahedron abcd whose key 'x' is side c-d of face acd and side b-a of
# face adb; key 'y' takes the two sides left over.
MISJOINED_TETRA = [("t", "acd", ("ac", "x", "ad")),
                   ("t", "abc", ("y", "bc", "ac")),
                   ("t", "adb", ("ad", "bd", "x")),
                   ("t", "bdc", ("bd", "y", "bc"))]
# Key 'x' is the loop side a-a of the first face and side a-c of the second.
MISJOINED_LOOP = [("t", "aab", ("x", "y", "z")),
                  ("t", "bac", ("y", "x", "w")),
                  ("t", "cab", ("w", "z", "v")),
                  ("t", "acb", ("u", "v", "u"))]


@pytest.mark.parametrize("faces, message", [
    (MISJOINED_TETRA,
     "edge 'x' joins 'c' to 'd' on one side and 'b' to 'a' on the other"),
    (MISJOINED_LOOP,
     "edge 'x' joins 'a' to 'a' on one side and 'a' to 'c' on the other"),
], ids=["sides", "loop-side"])
def test_rejects_an_edge_whose_sides_join_different_vertices(faces, message):
    with pytest.raises(TilingError, match="^%s$" % re.escape(message)):
        Tiling(faces)


def test_rejects_split_vertex():
    # two squares glued along two opposite edges: an annulus, not closed
    with pytest.raises(TilingError):
        Tiling([("sq", (0, 1, 2, 3), ("a", "x", "b", "y")),
                ("sq", (1, 0, 3, 2), ("a", "y2", "b", "x2"))])


def test_rejects_a_vertex_in_two_rotation_orbits():
    # two tetrahedra sharing vertex 3: V - E + F = 7 - 12 + 8 = 3, while
    # two spheres would give 4
    tetra = [("t", c) for c in ((0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3))]
    faces = tetra + [("t", [v + 3 for v in c]) for _, c in tetra]
    with pytest.raises(TilingError, match=r"^inconsistent rotation: vertex "
                       r"3 appears in two rotation orbits$"):
        Tiling(faces)
    # a 4x4 torus with (2, 2) renamed (0, 0), which is no neighbour of it
    merged = [(label, [(0, 0) if v == (2, 2) else v for v in cycle], keys)
              for label, cycle, keys in square_torus(4, 4)]
    with pytest.raises(TilingError, match=r"vertex \(0, 0\) appears in two"):
        Tiling(merged)


def test_rotation_walk_runs_only_off_euler_equality(monkeypatch):
    # V - E + F = 2 * components proves every rotation orbit; a torus
    # (0, not 2) still walks them
    walked = []
    validate = Tiling._validate
    monkeypatch.setattr(Tiling, "_validate",
                        lambda t: walked.append(t.num_faces) or validate(t))
    Tiling(cube_faces())
    assert walked == []
    Tiling(square_torus(3, 3))
    assert walked == [9]


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
    assert t2.edge_marks.count(mark("loaded")) == 3
    loaded = {t2.vertex_names[v] for v in t2.loaded_vertices}
    assert loaded == {0}


def test_unknown_status_is_the_first_in_edge_order():
    keys = Tiling(cube_faces()).edge_keys
    # the dict lists the later edge first; the error names the earlier
    status = {keys[5]: ["loaded"], keys[2]: "bent"}
    with pytest.raises(TilingError, match=r"^unknown edge status 'bent'$"):
        Tiling(cube_faces(), edge_status=status)
    with pytest.raises(TilingError,
                       match=r"^unknown edge status \['loaded'\]$"):
        Tiling(cube_faces(), edge_status={keys[5]: ["loaded"]})


def test_json_roundtrip_preserves_structure():
    faces = cube_faces()
    keys = Tiling(faces).edge_keys
    t = Tiling(faces, stage=3,
               edge_status={keys[0]: "loaded", keys[1]: "fragile"},
               added_edges=[keys[2]])
    text = t.to_json()
    u = Tiling.from_json(text)
    assert u.stage == 3
    assert sorted(u.edge_marks) == sorted(t.edge_marks)
    assert sum(m >= ADDED for m in u.edge_marks) == 1
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
    u = Tiling(cube_faces(), edge_status={t.edge_keys[0]: "loaded"})
    assert not isomorphic(t, u)


def test_edge_marks_cannot_be_assigned():
    t = Tiling(cube_faces())
    with pytest.raises(TypeError):
        t.edge_marks[0] = ADDED


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
    # Disconnected tilings are decided by pairing their components.
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
    three = tetras("aaaa", "bbbb", "aabb")
    assert isomorphic(three, tetras("aabb", "aaaa", "bbbb"))
    assert not isomorphic(three, tetras("aabb", "aabb", "aabb"))


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
    assert sum(t.face_flipped) == flipped
    walked_back = 0
    for f in range(t.num_faces):
        walk = [t.face_start[f]]
        while t.h_next[walk[-1]] != walk[0]:
            walk.append(t.h_next[walk[-1]])
        walked_back += walk[1] != walk[0] + 1
        assert t._face_read(range(len(t.h_face)), f) == walk
        assert t.face_vertices(f) == [t.h_origin[h] for h in walk]
        assert t.face_edges(f) == [t.h_edge[h] for h in walk]
    assert walked_back == flipped


def test_stage_tables_hold_no_h_next_until_read():
    # Orienting keeps one flip byte per face; the walk tables are built
    # from them only when first read.
    *_, rule = stage_tilings(catalog.get_rule("nxs1"), 3, "replacement")
    *_, state = balls(catalog.load_spec("prism12"), 3)
    for t in (rule, state.boundary_sphere()):
        assert "h_next" not in vars(t) and "h_prev" not in vars(t)
        assert t.h_next[t.h_prev[5]] == 5
        assert "h_next" in vars(t)


SAME_TABLES = ("face_labels", "face_start", "face_component", "h_face",
               "h_next", "h_prev", "h_twin", "h_origin", "h_edge",
               "edge_half", "vertex_names", "edge_keys", "edge_marks",
               "stage", "num_components")


@pytest.mark.parametrize("grow, built", [
    (lambda: stage_tilings(catalog.get_rule("nxs1"), 4, "replacement"), 3),
    (lambda: (s.boundary_sphere()
              for s in balls(catalog.load_spec("prism12"), 4)), 4),
    (lambda: stage_tilings(catalog.get_rule("torus3"), 3, "subdivision"), 2),
], ids=["nxs1", "prism12", "torus3-subdivision"])
def test_table_path_matches_per_face_path(monkeypatch, grow, built):
    # Every stage the rules and the cover hand over as flat tables equals
    # the tiling built from the same faces given one by one.  A Tiling
    # renumbers the names and keys it is handed, so copies are recorded.
    calls = []
    init = Tiling.__init__

    def recorded(t, faces, **kw):
        if isinstance(faces, FaceTables):
            calls.append((faces._replace(names=faces.names[:],
                                         keys=faces.keys[:]), kw, t))
        init(t, faces, **kw)

    catalog.list_rules()    # builds the catalog's initial tilings first
    monkeypatch.setattr(Tiling, "__init__", recorded)
    [*grow()]
    assert len(calls) == built
    for (labels, sizes, names, keys, marks, num_names), kw, got in calls:
        assert max(names) < num_names and max(keys) < len(marks)
        starts = accumulate(sizes, initial=0)
        want = Tiling([(label, [*names[s:s + n]], [*keys[s:s + n]])
                       for label, s, n in zip(labels, starts, sizes)],
                      edge_status={k: STATUSES[m & 3]
                                   for k, m in enumerate(marks)},
                      added_edges=[k for k, m in enumerate(marks)
                                   if m & ADDED], **kw)
        for name in SAME_TABLES:
            assert getattr(got, name) == getattr(want, name), name
        # a producer's names and keys fit its array('i') tables, so their
        # tables by id are 4-byte too; faces given one by one keep 8-byte
        # int names
        for table, code in ((got.vertex_names, "i"), (got.edge_keys, "i"),
                            (want.vertex_names, "q"), (want.edge_keys, "q")):
            assert isinstance(table, array) and table.typecode == code
        # numbering by first appearance, as dict.fromkeys orders its keys
        assert got.vertex_names == array("i", dict.fromkeys(names))
        edge_keys = dict.fromkeys(keys)
        assert got.edge_keys == array("i", edge_keys)
        edge_id = dict(zip(edge_keys, range(len(edge_keys))))
        assert got.h_edge == array("i", map(edge_id.__getitem__, keys))


def test_names_are_int_arrays_only_when_all_ints():
    t = Tiling(cube_faces())
    assert t.vertex_names == array("q", [0, 1, 3, 2, 4, 5, 7, 6])
    assert isinstance(t.edge_keys, list)       # frozensets of two ends
    pillow = [("t", "abc"), ("t", "acb")]
    assert Tiling(pillow).vertex_names == ["a", "b", "c"]
    # A bool is not an int name, and 2**63 does not fit in 64 bits.
    for odd in (True, 2 ** 63):
        u = Tiling([("t", (odd, 2, 3)), ("t", (odd, 3, 2))])
        assert u.vertex_names == [odd, 2, 3]
    data = json.loads(Tiling(pillow).to_json())
    data["faces"][0]["vertices"][0] = 2 ** 70
    data["faces"][1]["vertices"][0] = 2 ** 70
    assert Tiling.from_dict(data).vertex_names == [2 ** 70, 1, 2]


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
    # A stage held in flat int tables, with one mark byte per edge, one
    # flip byte per face, ``h_next`` and ``h_prev`` built only when read
    # and 4-byte names and keys, takes about 27.5 traced bytes per
    # half-edge (35 with ``h_next`` stored and 8-byte names and keys, 40
    # with ``h_prev`` built with the stage too, 48 with statuses and added
    # marks kept as two lists) and peaks near 29 while built from flat
    # face tables with byte marks renumbered in place, where ``_orient``
    # holds its per-face tables.  The peak was near 34 (40, 46) while
    # zipping renamed through int-keyed dicts checked by a set, and
    # ``_orient`` stacked boxed face ids; 64 with the ids in tables of
    # their own and scratch copies to orient.  Numbering through
    # int-keyed dicts and handing statuses over as a dict peaked near
    # 100, per face tuples near 180, and int tables kept as lists take
    # about 218 and 560, over every bound.
    rule, t = nxs1_stage3()
    out, held, peak = traced_build(lambda: apply_replacement(rule, t))
    half_edges = len(out.h_face)
    assert out.num_faces == 10382
    assert held <= 100 * half_edges
    assert peak <= 400 * half_edges
    assert held <= 60 * half_edges
    assert peak <= 130 * half_edges
    assert peak <= 77 * half_edges
    assert held <= 44 * half_edges
    assert peak <= 52 * half_edges
    assert held <= 37 * half_edges
    assert peak <= 43 * half_edges
    assert held <= 28 * half_edges
    assert peak <= 35 * half_edges
    assert peak <= 31 * half_edges


def test_zipping_is_compact_while_built():
    # Zipping renames through a 4-byte table over the span of the zipped
    # ints, checked for shared ints by a byte per int, and peaks about 7
    # traced bytes per output half-edge above the face tables it returns;
    # with a set of the pairs and two int-keyed {second: first} dicts it
    # peaked about 20 above them.
    rule, t = nxs1_stage3()
    tables, held, peak = traced_build(lambda: _replaced_faces(rule, t))
    half_edges = len(tables.names)
    assert peak - held <= 10 * half_edges


def test_cover_sphere_is_compact_when_held():
    # About 25 traced bytes per half-edge held and 27.5 at the peak, in
    # ``_orient``'s per-face tables.  The peak was 30, in the numbering
    # pass, while ``h_face`` was built before it and ``_orient`` stacked
    # boxed face ids (32 and 36 with ``h_next`` stored and 8-byte names
    # and keys, 36 and 40 with ``h_prev`` built with the stage too, 45
    # held with statuses and added marks kept as two lists, 58 at the
    # peak with the ids in tables of their own and scratch copies to
    # orient, 97 with int-keyed dicts numbering names and keys and
    # holding statuses).
    *_, state = balls(catalog.load_spec("prism12"), 4)
    out, held, peak = traced_build(state.boundary_sphere)
    half_edges = len(out.h_face)
    assert out.num_faces == 10382
    assert held <= 100 * half_edges
    assert held <= 60 * half_edges
    assert peak <= 130 * half_edges
    assert peak <= 70 * half_edges
    assert held <= 40 * half_edges
    assert peak <= 46 * half_edges
    assert held <= 34 * half_edges
    assert peak <= 38 * half_edges
    assert held <= 26 * half_edges
    assert peak <= 32 * half_edges
    assert peak <= 29 * half_edges


def test_subdivision_stage_is_compact_while_built():
    # Numbering each split edge's segments and inner vertices when a face
    # first splits it peaks near 60 traced bytes per half-edge; planning
    # the whole stage first, with every face's dihedral image and every
    # split edge's key and vertex lists kept for a second pass, peaked
    # near 94.
    entry = catalog.get_rule("barycentric")
    *_, t = stage_tilings(entry, 4)
    out, _, peak = traced_build(
        lambda: apply_subdivision(entry.rule.subdivision, t))
    half_edges = len(out.h_face)
    assert out.num_faces == 5184
    assert peak <= 85 * half_edges
    assert peak <= 70 * half_edges


def twin_components(t):
    """Components by breadth-first search over faces joined by h_twin."""
    comp = [None] * t.num_faces
    comps = []
    for root in range(t.num_faces):
        if comp[root] is not None:
            continue
        comp[root] = len(comps)
        queue = [root]
        for f in queue:
            for h in range(len(t.h_face)):
                g = t.h_face[t.h_twin[h]]
                if t.h_face[h] == f and comp[g] is None:
                    comp[g] = len(comps)
                    queue.append(g)
        comps.append(sorted(queue))
    return comps


def loaded_by_definition(t):
    """The vertices all of whose edges are loaded."""
    unloaded = set()
    for e in range(t.num_edges):
        if STATUSES[t.edge_marks[e] & 3] != "loaded":
            unloaded.update(t.edge_endpoints(e))
    return set(range(t.num_vertices)) - unloaded


def with_random_status(t, seed):
    rng = random.Random(seed)
    status = {k: rng.choice(["plain", "loaded", "loaded", "fragile"])
              for k in t.edge_keys}
    faces = [(t.face_labels[f],
              [t.vertex_names[v] for v in t.face_vertices(f)],
              [t.edge_keys[e] for e in t.face_edges(f)])
             for f in range(t.num_faces)]
    return Tiling(faces, edge_status=status)


def interleave(a, b):
    return [f for pair in zip_longest(a, b) for f in pair if f is not None]


def tagged_torus(p, q, tag):
    return square_torus(p, q, lambda i, j: (tag, i, j))


# For p = 1 every horizontal edge of the p x q square torus is a loop, so
# its faces meet only across loop edges.
CUBE_AND_TORUS = cube_faces() + tagged_torus(1, 3, "t")
CONNECTIVITY_CASES = {
    "torus-1x1": square_torus(1, 1),
    "torus-1x2": square_torus(1, 2),
    "torus-1x5": square_torus(1, 5),
    "torus-3x1": square_torus(3, 1),
    "torus-3x4": square_torus(3, 4),
    "cube+torus": CUBE_AND_TORUS,
    "torus+cube": tagged_torus(1, 3, "t") + cube_faces(),
    "cube-torus-interleaved": interleave(tagged_torus(1, 3, "t"),
                                         cube_faces()),
    "two-tori": interleave(tagged_torus(1, 4, "a"), tagged_torus(2, 2, "b")),
}


@pytest.mark.parametrize("name", sorted(CONNECTIVITY_CASES))
def test_components_match_a_twin_search(name):
    t = Tiling(CONNECTIVITY_CASES[name])
    comps = twin_components(t)
    assert t.components() == comps
    assert t.is_connected() == (len(comps) == 1)
    assert t.loaded_vertices == loaded_by_definition(t) == set()


def test_loaded_vertices_are_computed_on_first_read():
    t = with_random_status(Tiling(cube_faces()), 3)
    assert "loaded_vertices" not in t.__dict__
    assert t.loaded_vertices == loaded_by_definition(t)
    assert "loaded_vertices" in t.__dict__


@pytest.mark.parametrize("seed", range(6))
def test_loaded_vertices_match_the_definition(seed):
    cube = with_random_status(Tiling(cube_faces()), seed)
    _, stage3 = nxs1_stage3()
    nxs1 = with_random_status(stage3, seed)
    for t in (cube, nxs1):
        assert t.loaded_vertices == loaded_by_definition(t)
    # a random status set at stage 3 leaves some vertices loaded
    assert nxs1.loaded_vertices


def test_every_edge_loaded_loads_every_vertex():
    t = Tiling(CUBE_AND_TORUS)
    u = Tiling(CUBE_AND_TORUS,
               edge_status={k: "loaded" for k in t.edge_keys})
    assert u.loaded_vertices == set(range(u.num_vertices))


def loop_strip():
    """A torus of three rows of two triangles.  A row's triangles meet
    across non-loop edges; rows meet only across loop edges.  Row 1 lists
    its top triangle first, reversed (face 2), then its bottom one (face
    3), so the loop edge from face 1 reaches face 3 before face 2 roots
    their orientation component."""
    def bottom(j):
        return ("t", (j, j, (j + 1) % 3), (("h", j), ("v", j), ("d", j)))

    def top(j):
        return ("t", (j, (j + 1) % 3, (j + 1) % 3),
                (("d", j), ("h", (j + 1) % 3), ("v", j)))

    def reverse(face):
        label, vs, es = face
        return label, (vs[0],) + vs[:0:-1], es[::-1]
    return [bottom(0), top(0), reverse(top(1)), bottom(1), top(2),
            reverse(bottom(2))]


def test_loop_edges_join_components_but_not_orientations():
    # Each orientation component keeps its lowest face's input cycle:
    # faces 3 and 5 are flipped, faces 2 and 4 are not.
    t = Tiling(loop_strip())
    assert t.components() == [[0, 1, 2, 3, 4, 5]]
    assert t.euler_characteristic() == 0
    assert list(t.h_next) == [1, 2, 0, 4, 5, 3, 7, 8, 6, 11, 9, 10,
                              13, 14, 12, 17, 15, 16]
    assert list(t.h_origin) == [0, 0, 1, 0, 1, 1, 1, 2, 2, 1, 2, 1,
                                2, 0, 0, 0, 2, 2]
