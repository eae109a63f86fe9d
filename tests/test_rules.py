import importlib.resources as resources
import json
import re
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coversphere.cover import balls
from coversphere.gluing import parse_gluing
from coversphere.rules import (
    Pattern, RuleError, _match_pattern, _rename, _search, _zipped,
    apply_replacement, apply_subdivision, load_rule, strip_added_edges,
)
from coversphere.tiling import Tiling, isomorphic


def load_data(name):
    return (resources.files("coversphere") / "data" / name).read_text()


@pytest.fixture(scope="module")
def torus3():
    return load_rule(load_data("torus3.json"))


@pytest.fixture(scope="module")
def cube_series():
    return [state.boundary_sphere() for state in
            balls(parse_gluing(load_data("cube.glue")), 6)]


TETRA = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]


def tetra():
    return Tiling([("t", cycle) for cycle in TETRA])


# -- replacement mode ---------------------------------------------------


def test_torus3_replacement_matches_cover(torus3, cube_series):
    t = cube_series[0]
    counts = [t.num_faces]
    for n in range(1, 6):
        t = apply_replacement(torus3.replacement, t)
        counts.append(t.num_faces)
        assert t.is_sphere()
        assert t.stage == n + 1
        assert isomorphic(t, cube_series[n])
    assert counts == [6, 30, 78, 150, 246, 366]


def test_torus3_group_census(torus3, cube_series):
    from coversphere.rules import _loaded_groups
    sizes = sorted(len(g) for g in _loaded_groups(cube_series[2]))
    # 78 faces: 8 corner stars, 24 pairs, 6 singles
    assert sizes.count(3) == 8
    assert sizes.count(2) == 24
    assert sizes.count(1) == 6


def test_replacement_rejects_unmatched_faces(torus3):
    t = tetra()
    with pytest.raises(RuleError, match=re.escape(
            "no pattern of rule torus3 matches the group of faces [0] "
            "(labels ['t'])")):
        apply_replacement(torus3.replacement, t)


def face_pattern(label, cycles, *, region=("a", "b", "c"), to=None,
                 flaps=(), edges=()):
    """A pattern that replaces one face ``region`` labelled ``label`` by
    the template ``cycles``, every rim side given new status ``to``."""
    rim = [[u, v] for u, v in zip(region, region[1:] + region[:1])]
    return {"name": label,
            "region": [{"label": label, "cycle": list(region)}],
            "boundary": [{"ends": e, "status": "any",
                          **({"to": to} if to else {})} for e in rim],
            "template": {"faces": [{"label": label, "cycle": c}
                                   for c in cycles],
                         "edges": [{"ends": e, "status": s}
                                   for e, s in edges]},
            "flaps": [{"face": f, "chain": c} for f, c in flaps]}


SPLIT_TRI = [["a", "b", "d"], ["b", "c", "a", "d"]]      # a disk, rim abc
FAN_TRI = [["a", "b", "d"], ["b", "c", "d"], ["c", "a", "d"]]
QUAD = ("a", "b", "c", "d")


@pytest.mark.parametrize("patterns, faces, message", [
    ([face_pattern("t", [QUAD[:3]], to="loaded"),
      face_pattern("u", [QUAD[:3]], to="fragile")],
     [("t", (0, 1, 2)), ("u", (0, 2, 1))],
     "groups flanking edge 2 prescribe different statuses"),
    ([face_pattern("t", [QUAD[:3]], flaps=[(0, [["a", "b"]])])],
     tetra(), "collapse flap mismatch: fragile chain [0] has 1 flaps"),
    ([face_pattern("t", [QUAD[:3]], flaps=[(0, [["a", "b"]])]),
      face_pattern("u", SPLIT_TRI, flaps=[(1, [["c", "a"]])])],
     [("t", (0, 1, 2)), ("u", (0, 2, 1))],
     "collapse flap mismatch: flap faces of different sizes"),
    ([face_pattern("t", SPLIT_TRI, flaps=[(0, [["b", "c"]])])],
     [("t", (0, 1, 2)), ("t", (0, 2, 1))],
     "collapse flap mismatch: chain not on flap face"),
    ([face_pattern("t", [QUAD], region=QUAD,
                   flaps=[(0, [["b", "c"], ["d", "a"]])]),
      face_pattern("u", [QUAD], region=QUAD,
                   flaps=[(0, [["a", "b"], ["c", "d"]])])],
     [("t", (0, 1, 2, 3)), ("u", (0, 3, 2, 1))],
     "collapse flap mismatch: flap boundaries cannot be aligned"),
    ([face_pattern("t", FAN_TRI, flaps=[(0, [["a", "b"]])],
                   edges=[(["a", "d"], "loaded")]),
      face_pattern("u", FAN_TRI, flaps=[(2, [["c", "a"]])],
                   edges=[(["a", "d"], "fragile")])],
     [("t", (0, 1, 2)), ("u", (0, 2, 1))],
     "collapse flap mismatch: identified edges carry different statuses"),
], ids=["prescriptions", "lone-flap", "flap-sizes", "chain-off-flap",
        "unaligned", "zipped-statuses"])
def test_replacement_rejects_inconsistent_groups(patterns, faces, message):
    rule = load_rule({"name": "zip", "replacement": {"patterns": patterns}})
    t = faces if isinstance(faces, Tiling) else Tiling(faces)
    with pytest.raises(RuleError) as exc:
        apply_replacement(rule.replacement, t)
    assert str(exc.value) == message


LONE_FLAP = face_pattern("f", [QUAD[:3]], flaps=[(0, [["a", "b"]])])


@pytest.mark.parametrize("patterns, labels, message", [
    ([LONE_FLAP, face_pattern("v", [QUAD[:3]])], "fvvw",
     "no pattern of rule zip matches the group of faces [3] "
     "(labels ['w'])"),
    ([LONE_FLAP, face_pattern("t", [QUAD[:3]], to="loaded"),
      face_pattern("u", [QUAD[:3]], to="fragile"),
      face_pattern("v", [QUAD[:3]])], "ftuv",
     "groups flanking edge 4 prescribe different statuses"),
], ids=["unmatched", "prescriptions"])
def test_group_errors_precede_flap_errors(patterns, labels, message):
    """Face 0's flap has no partner, yet a later group's error is the
    one raised: every group is placed before any flap is zipped."""
    rule = load_rule({"name": "zip", "replacement": {"patterns": patterns}})
    with pytest.raises(RuleError) as exc:
        apply_replacement(rule.replacement, Tiling([*zip(labels, TETRA)]))
    assert str(exc.value) == message


def test_zipping_renames_old_vertices_everywhere():
    """Two faces of an octahedron across edge 12 are whole flaps: zipping
    them joins old vertex S to N and old edges S1, S2 to N1, N2, which
    the six kept faces must then name, though no template made them."""
    n, s = "N", "S"
    rule = load_rule({"name": "zip", "replacement": {"patterns": [
        LONE_FLAP, face_pattern("k", [QUAD[:3]])]}})
    t = Tiling([("f", (1, 2, n)), ("f", (2, 1, s)),
                ("k", (n, 2, 3)), ("k", (n, 3, 4)), ("k", (n, 4, 1)),
                ("k", (s, 3, 2)), ("k", (s, 4, 3)), ("k", (s, 1, 4))])
    out = apply_replacement(rule.replacement, t)
    zipped = Tiling([
        ("k", (n, 2, 3), ("N2", "23", "N3")),
        ("k", (n, 3, 4), ("N3", "34", "N4")),
        ("k", (n, 4, 1), ("N4", "41", "N1")),
        ("k", (n, 3, 2), ("S3", "23", "N2")),
        ("k", (n, 4, 3), ("S4", "34", "S3")),
        ("k", (n, 1, 4), ("N1", "41", "S4"))])
    assert (out.num_vertices, out.num_edges, out.num_faces) == (5, 9, 6)
    assert isomorphic(out, zipped)
    assert t.vertex_names.index(n) in out.vertex_names


def zip_rule(*patterns):
    return load_rule({"name": "zip", "replacement": {
        "patterns": list(patterns)}}).replacement


def test_later_pattern_of_a_shape_wins_when_the_first_fails():
    """Both patterns have the shape ('t',); the first asks for a loaded
    side, so every face of the plain tetrahedron goes to the second."""
    strict = face_pattern("t", SPLIT_TRI)
    strict["boundary"][0]["status"] = "loaded"
    out = apply_replacement(zip_rule(strict, face_pattern("t", FAN_TRI)),
                            tetra())
    assert (out.num_vertices, out.num_edges, out.num_faces) == (8, 18, 12)


# A sphere of five faces whose quad 0 meets vertex a twice: its sides
# a-b and b-a are the two edges of a digon split into triangles 1 and 2
# by vertex d, and a-c and c-a likewise by vertex f.
PINCHED = [("q", "abac", ("ab1", "ab2", "ac1", "ac2")),
           ("t", "bad", ("ab1", "ad", "bd")),
           ("t", "abd", ("ab2", "bd", "ad")),
           ("t", "caf", ("ac1", "af", "cf")),
           ("t", "acf", ("ac2", "cf", "af"))]


@pytest.mark.parametrize("faces, statuses, message", [
    # a group of two faces, though every pattern has one
    (TETRA, {frozenset((0, 1)): "loaded"},
     "no pattern of rule zip matches the group of faces [0, 2] "
     "(labels ['t', 't'])"),
    # a one-face group of a label a pattern has, but of another size
    ([QUAD, QUAD[::-1]], {},
     "no pattern of rule zip matches the group of faces [0] "
     "(labels ['t'])"),
], ids=["two-faces", "other-size"])
def test_group_shape_without_pattern(faces, statuses, message):
    t = Tiling([("t", cycle) for cycle in faces], edge_status=statuses)
    with pytest.raises(RuleError) as exc:
        apply_replacement(zip_rule(face_pattern("t", [QUAD[:3]])), t)
    assert str(exc.value) == message


def test_one_face_group_repeating_a_vertex_is_not_matched():
    t = Tiling([(label, tuple(cycle), keys) for label, cycle, keys
                in PINCHED])
    assert t.is_sphere() and t.face_vertices(0)[0] == t.face_vertices(0)[2]
    rule = zip_rule(face_pattern("q", [QUAD], region=QUAD),
                    face_pattern("t", [QUAD[:3]]))
    with pytest.raises(RuleError) as exc:
        apply_replacement(rule, t)
    assert str(exc.value) == ("no pattern of rule zip matches the group of "
                              "faces [0] (labels ['q'])")


def region_pattern(region, boundary):
    """A pattern that keeps the region of (label, cycle) pairs as it is;
    ``boundary`` maps each region side, as a two-letter string, to the
    status it must have."""
    faces = [{"label": label, "cycle": list(cycle)}
             for label, cycle in region]
    return Pattern(name="p", region=faces, faces=faces, boundary=[
        {"ends": list(ends), "status": status}
        for ends, status in boundary.items()])


# Two triangles that share side b-c, with a fourth vertex d
KITE = [("t", "abc"), ("t", "cbd")]
KITE_SIDES = ("ab", "ca", "bd", "dc")


@pytest.mark.parametrize("status, matched", [("plain", True),
                                             ("fragile", False)])
def test_group_embedding_is_checked_for_boundary_status(status, matched):
    # the search embeds the kite in two faces of the tetrahedron; only
    # then is side a-b, plain in the tiling, checked against the pattern
    pat = region_pattern(KITE, dict.fromkeys(KITE_SIDES, "any") | {
        "ab": status})
    t = Tiling([("t", cycle) for cycle in TETRA],
               edge_status={frozenset((0, 2)): "loaded"})
    assert _search(pat, t, [0, 1])[0] is not None
    assert (_match_pattern(pat, t, [0, 1]) is not None) == matched


def test_search_takes_no_vertex_twice():
    # a sphere of two triangles has three vertices: the kite's fourth
    # vertex d would be one its first face already took
    pat = region_pattern(KITE, dict.fromkeys(KITE_SIDES, "any"))
    t = Tiling([("t", "xyz"), ("t", "xzy")],
               edge_status={frozenset("yz"): "loaded"})
    assert _search(pat, t, [0, 1]) == (None, None, None)


def test_search_backtracks_to_a_later_first_face():
    # Fan X-Y-Z about the north pole of an octahedron, faces listed Y, X,
    # Z.  The region's first face, a t next to a t, first binds Y, whose
    # other t neighbour X has no u next to it; the search must undo Y
    # and try X, with Y free again for the region's second face.
    t = Tiling([("t", "N23"), ("t", "N12"), ("u", "N34"), ("w", "N41"),
                ("w", "S21"), ("w", "S32"), ("w", "S43"), ("w", "S14")],
               edge_status={frozenset("N2"): "loaded",
                            frozenset("N3"): "loaded"})
    pat = region_pattern([("t", "npq"), ("t", "nqr"), ("u", "nrs")],
                         dict.fromkeys(("np", "pq", "qr", "rs", "sn"), "any"))
    sigma, edge_of = _match_pattern(pat, t, [0, 1, 2])
    assert [t.vertex_names[v] for v in sigma] == list("N1234")


# Two quads f = (u, v, w, x) and g = (w, v, u, y) share the two-key
# chain u-v-w; quad h closes the sphere.  Each of f and g becomes a flap
# on that chain, with a new vertex e, and a kept quad.
QUADS = [("f", "uvwx"), ("g", "wvuy"), ("h", "xwyu")]
TWO_KEY = [["a", "b", "c", "e"], ["c", "d", "a", "e"]]


def zip_case(case, way):
    """The input, rule and expected output of a zip along a one-key or a
    two-key chain, where the second flap's template cycle runs along the
    chain the ``way`` the first flap's does, or the opposite way as the
    faces they come from do."""
    if case == "one-key":
        # tetrahedron faces 0 = (0, 1, 2) and 2 = (0, 3, 1) meet at 0-1
        t = Tiling([*zip("fkgk", TETRA)])
        first, flaps = FAN_TRI, ([(0, [["a", "b"]])], [(2, [["c", "a"]])])
        region = QUAD[:3]
        kept = [face_pattern("k", [QUAD[:3]])]
        expected = [("k", (0, 2, 3)), ("k", (1, 3, 2)), ("f", (1, 2, "d")),
                    ("f", (2, 0, "d")), ("g", (3, 1, "d")), ("g", (0, 3, "d"))]
    else:
        t = Tiling([(label, tuple(cycle)) for label, cycle in QUADS])
        first, flaps = TWO_KEY, ([(0, [["a", "b"], ["b", "c"]])],) * 2
        region = QUAD
        kept = [face_pattern("h", [QUAD], region=QUAD)]
        expected = [("f", tuple("wxue")), ("g", tuple("uywe")),
                    ("h", tuple("xwyu"))]
    flap = flaps[1][0][0]
    second = [c[::-1] if f == flap and way == "same" else c
              for f, c in enumerate(first)]
    rule = zip_rule(face_pattern("f", first, region=region, flaps=flaps[0]),
                    face_pattern("g", second, region=region, flaps=flaps[1]),
                    *kept)
    return t, rule, Tiling(expected)


@pytest.mark.parametrize("case", ["one-key", "two-key"])
def test_flap_chains_zip_either_way_round(case):
    """A flap is aligned with its partner by a rotation or a reflection,
    so the zipped stage is the same whether the second flap's template
    cycle runs along the chain the way the first's does or against it."""
    outs = []
    for way in ("opposite", "same"):
        t, rule, expected = zip_case(case, way)
        out = apply_replacement(rule, t)
        assert (out.num_vertices, out.num_edges, out.num_faces) == (
            expected.num_vertices, expected.num_edges, expected.num_faces)
        assert isomorphic(out, expected)
        outs.append(out.to_json())
    assert outs[0] == outs[1]


def test_chain_as_long_as_its_flap():
    """Each face of a pillow is a whole flap, its chain all three edges:
    the two flaps align at every vertex and zip away, leaving no face."""
    whole = face_pattern("f", [QUAD[:3]],
                         flaps=[(0, [["a", "b"], ["b", "c"], ["c", "a"]])])
    out = apply_replacement(zip_rule(whole),
                            Tiling([("f", (0, 1, 2)), ("f", (0, 2, 1))]))
    assert (out.num_vertices, out.num_edges, out.num_faces) == (0, 0, 0)


def first_dihedral_alignment(c1, k1, c2, k2, chain):
    """The alignment as a two-level ``_dihedral`` search finds it: the
    first image of the second flap that puts the chain first, with the
    first image of the first flap anchored at its first vertex that puts
    the same keys first and ends them at the same vertex."""
    from coversphere.rules import _dihedral
    n = len(chain)
    return next(((c1r, k1r, c2r, k2r) for c2r, k2r in _dihedral(c2, k2)
                 if set(chain).issuperset(k2r[:n])
                 for c1r, k1r in _dihedral(c1, k1, (0, c2r[0]))
                 if k1r[:n] == k2r[:n] and c1r[n] == c2r[n]), None)


@pytest.mark.parametrize("size", [3, 4, 6])
@pytest.mark.parametrize("n", [1, 2])
def test_flap_alignment_is_the_first_of_the_dihedral_search(size, n):
    """Flap 2 runs 0, 1, ... with its chain first; flap 1 shares the
    chain's keys and vertices, has new ones elsewhere, and is flap 2
    rotated, reversed or both.  Only the images that put a chain first
    are read, yet the one picked is the first the full search meets."""
    from coversphere.rules import _aligned
    c2, k2 = list(range(size)), [10 + i for i in range(size)]
    chain = k2[:n]
    for shift in range(size):
        for reverse in (False, True):
            c1 = [v if v <= n else 100 + v for v in c2]
            k1 = [k if i < n else 200 + i for i, k in enumerate(k2)]
            if reverse:     # side i still joins vertices i and i + 1
                c1, k1 = c1[:1] + c1[:0:-1], k1[::-1]
            c1, k1 = c1[shift:] + c1[:shift], k1[shift:] + k1[:shift]
            marks = [bytes(k in chain for k in keys) for keys in (k1, k2)]
            (*_, read_v1, read_k1), (*_, read_v2, read_k2) = _aligned(
                c1, k1, marks[0], c2, k2, marks[1], n)
            assert (read_v1(c1), read_k1(k1), read_v2(c2), read_k2(k2)) == \
                tuple(map(tuple, first_dihedral_alignment(c1, k1, c2, k2,
                                                          chain)))


@pytest.mark.parametrize("pairs, moved", [
    ([1, 2, 3, 4], {2: 1, 4: 3}),
    # A~B, B~C: B's class, of two, takes C
    ([1, 2, 2, 3], {2: 1, 3: 1}),
    # the larger class keeps its root, though 7 comes first
    ([5, 6, 7, 5], {6: 5, 7: 5}),
    # two classes of two: the root of the first int's class wins
    ([1, 2, 3, 4, 4, 2], {1: 3, 2: 3, 4: 3}),
], ids=["disjoint", "chain", "by-size", "tie"])
def test_zipped_roots(pairs, moved):
    assert zipped_as_dict(array("i", pairs)) == moved


def zipped_as_dict(pairs):
    """``_zipped``'s renaming table read back as {moved int: its root}."""
    lo, table = _zipped(pairs)
    return {lo + i: r - 1 for i, r in enumerate(table) if r}


def reference_roots(pairs):
    """{x: the root of its class} for each int x that is not a root, once
    ``pairs`` are united in order by size, a tie keeping the first int's
    root, with each class listed whole in a dict."""
    root, members = {}, {}
    for a, b in zip(pairs[::2], pairs[1::2]):
        ra, rb = root.get(a, a), root.get(b, b)
        if ra == rb:
            continue
        if len(members.get(ra, [ra])) < len(members.get(rb, [rb])):
            ra, rb = rb, ra
        members[ra] = members.pop(ra, [ra]) + members.pop(rb, [rb])
        for x in members[ra]:
            root[x] = ra
    return {x: r for x, r in root.items() if x != r}


FIRST_NEW = 20


@st.composite
def renamings(draw):
    """Pairs of ints, some sharing an int and some naming an old one
    (below ``FIRST_NEW``), and a table whose new ints sit only at the
    positions listed in ``sides``."""
    ints = st.integers(0, 40) if draw(st.booleans()) else \
        st.integers(FIRST_NEW, 40)
    pairs = draw(st.lists(st.tuples(ints, ints), max_size=12))
    table = draw(st.lists(st.integers(0, 40), max_size=30))
    sides = [h for h, x in enumerate(table)
             if x >= FIRST_NEW or draw(st.booleans())]
    return [x for pair in pairs for x in pair], table, sides


@given(renamings())
def test_zipped_renaming_matches_a_dict_reference(case):
    pairs, table, sides = case
    moved = reference_roots(pairs)
    assert zipped_as_dict(array("i", pairs)) == moved
    renamed = array("i", table)
    _rename(renamed, _zipped(array("i", pairs)), FIRST_NEW, iter(sides))
    assert renamed.tolist() == [moved.get(x, x) for x in table]


# -- subdivision mode ---------------------------------------------------


def subdivision_stages(rule, start, n):
    out = [start]
    for _ in range(n - 1):
        out.append(apply_subdivision(rule.subdivision, out[-1]))
    return out


def test_torus3_subdivision_refines(torus3, cube_series):
    """Each stage is a finer sphere that keeps every vertex of the last."""
    stages = subdivision_stages(torus3, cube_series[0], 5)
    for coarse, fine in zip(stages, stages[1:]):
        assert fine.is_sphere()
        assert fine.stage == coarse.stage + 1
        assert fine.num_faces > coarse.num_faces
        assert set(coarse.vertex_names) < set(fine.vertex_names)


def test_torus3_subdivision_projects_to_cover(torus3, cube_series):
    """Dropping the added lines recovers the plain boundary spheres."""
    stages = subdivision_stages(torus3, cube_series[0], 5)
    for i in range(5):
        merged = strip_added_edges(stages[i], relabel="sq")
        assert merged.num_faces == cube_series[i].num_faces
        assert isomorphic(merged, cube_series[i])


def test_torus3_single_square_counts(torus3):
    # a single plain square (as a pillow, to stay closed) -> 5 quads a side
    t = Tiling([("sq", ("a", "b", "c", "d")), ("sq", ("a", "d", "c", "b"))])
    out = apply_subdivision(torus3.subdivision, t)
    assert out.num_faces == 10
    assert set(out.face_labels) == {"sq"}


def test_barycentric_counts():
    rule = load_rule(load_data("barycentric.json"))
    out = apply_subdivision(rule.subdivision, tetra())
    assert out.num_faces == 24
    out2 = apply_subdivision(rule.subdivision, out)
    assert out2.num_faces == 144


def test_barycentric_matches_hand_built():
    """Stage 2 of the barycentric demo is the barycentric subdivision of
    the tetrahedron, built here face by face: a centre and the midpoints
    of the three sides give six triangles."""
    from coversphere.catalog import get_rule
    entry = get_rule("barycentric")
    t = entry.initial
    faces = []
    for f in range(t.num_faces):
        vs = [t.vertex_names[v] for v in t.face_vertices(f)]
        z = ("centre", f)
        for a, b in zip(vs, vs[1:] + vs[:1]):
            m = ("mid",) + tuple(sorted((a, b)))
            faces += [("t", (a, m, z)), ("t", (m, b, z))]
    hand = Tiling(faces, stage=2)
    assert hand.num_faces == 24
    assert isomorphic(hand, apply_subdivision(entry.rule.subdivision, t))


def test_subdivision_rejects_unknown_label():
    rule = load_rule(load_data("barycentric.json"))
    t = Tiling([("sq", ("a", "b", "c", "d")), ("sq", ("a", "d", "c", "b"))])
    with pytest.raises(RuleError, match=re.escape(
            "no tile type of rule barycentric matches face 0 (label 'sq', "
            "statuses ['plain', 'plain', 'plain', 'plain'])")):
        apply_subdivision(rule.subdivision, t)


KEEP_ALL = {"plain": "plain", "loaded": "loaded", "fragile": "fragile"}
PLAIN, LOADED = {"status": "plain"}, {"status": "loaded"}


def tri_data(boundary, cycles, *, match=None, transition=KEEP_ALL,
             size=3, out_label="t"):
    """A one-tile subdivision rule on faces labelled t."""
    return {"name": "small", "subdivision": {
        "default_transition": transition,
        "tiles": [{"name": "tri", "label": "t", "size": size,
                   "match": [None] * size if match is None else match,
                   "boundary": boundary,
                   "template": {"faces": [{"label": out_label, "cycle": c}
                                          for c in cycles]}}]}}


def test_matcher_and_boundary_compile_to_marks():
    # {} or null admits any edge; an entry without "added" asks for an
    # edge that is not added, and one without "status" admits any status.
    # A mark is the status's index in STATUSES, plus 4 for an added edge.
    rule = load_rule(tri_data(
        ["default", {"set": {"status": "loaded"}},
         {"split": [PLAIN, {"added": True}]}],
        [["v0", "v1", "v2", "e2.1"]],
        match=[{}, {"status": "plain"}, {"added": True}]))
    tile, = rule.subdivision.tiles
    assert tile.match == [None, {0}, {4, 5, 6}]
    assert tile.boundary == [None, 1, bytes([0, 4])]
    # the default transition keeps every status and the added bit; 255
    # marks a byte that is no mark
    table = rule.subdivision.default_transition
    assert [*table[:8]] == [0, 1, 2, 255, 4, 5, 6, 255]
    assert set(table[8:]) == {255}


@pytest.mark.parametrize("boundary, cycles, message", [
    # a face and its neighbour run an asymmetric split in opposite ways
    ([{"split": [PLAIN, LOADED]}] * 3,
     [["v0", "e0.1", "v1", "e1.1", "v2", "e2.1"]],
     "adjacent templates disagree on the subdivision of edge 2"),
    ([{"split": [PLAIN, PLAIN]}, "default", "default"],
     [["v0", "e0.1", "v1", "v2"]],
     "adjacent templates disagree on the subdivision of edge 0"),
    ([{"set": LOADED}, {"set": PLAIN}, {"set": PLAIN}],
     [["v0", "v1", "v2"]],
     "adjacent templates disagree on the new status of edge 2"),
    # faces 1-3 each split an edge face 0 or 1 kept, but a new-status
    # conflict on face 3 is what is reported: split-versus-kept is only
    # checked once every face is placed
    ([{"split": [PLAIN, PLAIN]}, {"set": LOADED}, {"set": PLAIN}],
     [["v0", "e0.1", "v1", "v2"]],
     "adjacent templates disagree on the new status of edge 1"),
], ids=["split-split", "split-kept", "new-status",
        "new-status-after-split-kept"])
def test_subdivision_rejects_disagreeing_neighbours(boundary, cycles,
                                                    message):
    rule = load_rule(tri_data(boundary, cycles))
    with pytest.raises(RuleError, match=re.escape(message)):
        apply_subdivision(rule.subdivision, tetra())


# -- identity and empty rules -------------------------------------------


def test_s2xr_identity():
    rule = load_rule(load_data("s2xr.json"))
    spec = parse_gluing(load_data("s2.glue"))
    t = next(balls(spec, 1)).boundary_sphere()
    for n in range(4):
        t2 = apply_replacement(rule.replacement, t)
        assert t2.num_faces == t.num_faces == 4
        assert isomorphic(t2, t)
        t = t2


def test_s3_empty():
    rule = load_rule(load_data("s3.json"))
    t = Tiling([])
    for _ in range(3):
        t = apply_replacement(rule.replacement, t)
        assert t.num_faces == 0


# -- checks at load ------------------------------------------------------


def test_builtin_rules_validate():
    data = resources.files("coversphere") / "data"
    names = [load_rule(path.read_text()).name
             for path in sorted(data.iterdir()) if path.name.endswith(".json")]
    assert names == ["barycentric", "nxs1", "s2xr", "s3", "torus3"]


def one_pattern(region, faces, *, boundary=None, flaps=()):
    """A one-pattern replacement rule; the boundary defaults to the
    sides of a single region triangle a, b, c."""
    if boundary is None:
        boundary = [["a", "b"], ["b", "c"], ["c", "a"]]
    return {"name": "bad", "replacement": {"patterns": [{
        "name": "p", "region": region,
        "boundary": [{"ends": e, "status": "any"} for e in boundary],
        "template": {"faces": faces}, "flaps": list(flaps)}]}}


TRI = [{"label": "t", "cycle": ["a", "b", "c"]}]


def rule_with_bent_status(where):
    """A small rule whose only unknown status, "bent", is at ``where``."""
    bent = {"status": "bent"}
    if where in ("match", "set", "split", "transition", "transition-key",
                 "tile-edge"):
        data = tri_data(
            [{"set": bent} if where == "set" else
             {"split": [bent, PLAIN]} if where == "split" else "default",
             "default", "default"],
            [["v0", "e0.1", "v1", "v2"] if where == "split" else
             ["v0", "v1", "v2"]],
            match=[bent if where == "match" else None, None, None],
            transition={"plain": "bent"} if where == "transition" else
            {**KEEP_ALL, "bent": "plain"} if where == "transition-key" else
            KEEP_ALL)
        if where == "tile-edge":
            data["subdivision"]["tiles"][0]["template"]["edges"] = [
                {"ends": ["v0", "v1"], **bent}]
        return data
    data = one_pattern(TRI, TRI)
    pat = data["replacement"]["patterns"][0]
    if where == "internal":
        pat["internal"] = [{"ends": ["a", "b"], **bent}]
    elif where == "pattern-edge":
        pat["template"]["edges"] = [{"ends": ["a", "b"], **bent}]
    else:
        pat["boundary"][0][where] = "bent"
    return data


@pytest.mark.parametrize("where", [
    "match", "set", "split", "transition", "transition-key", "tile-edge",
    "status", "to", "internal", "pattern-edge"])
def test_load_names_the_rule_of_an_unknown_status(where):
    data = rule_with_bent_status(where)
    with pytest.raises(RuleError, match=r"^rule %s: unknown edge status "
                       r"'bent'$" % data["name"]):
        load_rule(data)


def test_validate_flags_small_template():
    bad = one_pattern(TRI, [{"label": "t", "cycle": ["a", "b"]}])
    with pytest.raises(RuleError,
                       match="pattern p: face with fewer than three"):
        load_rule(bad)


def test_validate_flags_uncoverable_labels():
    bad = one_pattern([{"label": "black", "cycle": ["a", "b", "c"]}],
                      [{"label": "white", "cycle": ["a", "b", "c"]}])
    with pytest.raises(RuleError, match=re.escape(
            "pattern set cannot cover faces labeled ['white'] produced by "
            "its own templates")):
        load_rule(bad)


def test_validate_flags_non_disk_template():
    bad = one_pattern(TRI, TRI + TRI)
    with pytest.raises(RuleError, match=re.escape(
            "pattern p: boundary edge ['a', 'b'] not covered exactly once")):
        load_rule(bad)


# A triangle with a triangular hole: its rim is covered once, but
# V - E + F = 6 - 9 + 3.
ANNULUS = [["v0", "v1", "b", "a"], ["v1", "v2", "c", "b"],
           ["v2", "v0", "a", "c"]]
PILLOW = TRI + [{"label": "t", "cycle": ["a", "c", "b"]}]


@pytest.mark.parametrize("data, message", [
    (tri_data(["default"] * 2, [["v0", "v1"]], size=2),
     "tile tri: template boundary has fewer than three vertices"),
    (tri_data(["default"] * 3, [["v0", "v1", "v2"]], match=[None] * 2),
     "tile tri: matcher/boundary length differs from tile size"),
    (tri_data(["default"] * 3, [["v0", "v1", "v2"]] * 2),
     "tile tri: boundary edge ['v0', 'v1'] not covered exactly once"),
    (tri_data(["default"] * 3, ANNULUS),
     "tile tri: template is not a disk (V-E+F = 0)"),
    (tri_data(["default"] * 3, [["v0", "v1", "v2"]], out_label="u"),
     "tile set cannot cover faces labeled ['u'] produced by its own "
     "templates"),
    (one_pattern(PILLOW, TRI, boundary=[]),
     "pattern p: closed template is not a closed surface (edge ['a', 'b'] "
     "bounds 1 face sides; closed surfaces need exactly 2)"),
    (one_pattern(TRI, TRI, flaps=[{"face": 1, "chain": [["a", "b"]]}]),
     "pattern p: flap face index out of range"),
    (one_pattern([{"label": "t", "cycle": ["a", "b", "c"]},
                  {"label": "t", "cycle": ["a", "c", "d"]}],
                 [{"label": "t", "cycle": ["a", "b", "c", "d"]}],
                 boundary=[["a", "b"], ["b", "c"], ["c", "d"], ["d", "a"]],
                 flaps=[{"face": 0, "chain": [["a", "c"]]}]),
     "pattern p: flap chain edge ['a', 'c'] is not a region boundary edge"),
], ids=["small-tile", "lengths", "tile-cover", "tile-disk", "tile-labels",
        "closed", "flap-face", "flap-chain"])
def test_load_rejects_bad_forms(data, message):
    with pytest.raises(RuleError, match=re.escape(message)):
        load_rule(data)


def test_load_lists_every_problem_of_a_form():
    bad = one_pattern([{"label": "black", "cycle": ["a", "b", "c"]}],
                      [{"label": "white", "cycle": ["a", "b"]}])
    with pytest.raises(RuleError) as exc:
        load_rule(bad)
    assert str(exc.value) == (
        "rule bad: pattern p: face with fewer than three vertices; "
        "pattern p: boundary edge ['a', 'b'] not covered exactly once; "
        "pattern set cannot cover faces labeled ['white'] produced by its "
        "own templates")


@pytest.mark.parametrize("match, transition, missing", [
    (None, {"plain": "plain"}, "fragile or loaded"),
    ([LOADED] * 3, {"plain": "plain", "fragile": "plain"}, "loaded"),
], ids=["any", "loaded"])
def test_load_rejects_a_kept_status_without_transition(match, transition,
                                                       missing):
    bad = tri_data(["default"] * 3, [["v0", "v1", "v2"]], match=match,
                   transition=transition)
    with pytest.raises(RuleError, match=re.escape(
            "rule small: tile tri: no transition declared for surviving "
            "%s edges on side 0;" % missing)):
        load_rule(bad)


@pytest.mark.parametrize("rule, mode", [("nxs1", "replacement"),
                                        ("torus3", "subdivision")])
def test_dihedral_alignments(rule, mode):
    from coversphere.catalog import get_rule
    from coversphere.growth import stage_tilings
    from coversphere.rules import _dihedral
    *_, t = stage_tilings(get_rule(rule), 3, mode)
    for f in range(t.num_faces):
        vs, es = t.face_vertices(f), t.face_edges(f)
        n = len(vs)
        alignments = list(_dihedral(vs, es))
        assert len(alignments) == 2 * n
        assert len({(tuple(a), tuple(b)) for a, b in alignments}) == 2 * n
        for avs, aes in alignments:
            for i in range(n):
                assert set(t.edge_endpoints(aes[i])) == \
                    {avs[i], avs[(i + 1) % n]}


@pytest.mark.parametrize("vs", [[0, 1, 2, 3], [0, 1, 2, 1, 3],
                                list(range(12))])
def test_dihedral_anchor_filters_in_order(vs):
    # The anchored images are the unanchored ones with vertex x at
    # position p, in the same order; vertex 1 repeats in the pentagon.
    from coversphere.rules import _dihedral
    es = [10 + i for i in range(len(vs))]
    images = list(_dihedral(vs, es))
    for p in range(len(vs)):
        for x in set(vs):
            assert list(_dihedral(vs, es, (p, x))) == \
                [(a, b) for a, b in images if a[p] == x]


@pytest.mark.parametrize("shift", [1, 2, 3])
def test_rotated_region_cycles_match_alike(shift):
    # Rotating the later region faces' cycles moves their anchors off
    # position 0; each such face shares an edge with an earlier one, so
    # its image, and the replaced stage, stay the same.
    from coversphere.catalog import get_rule
    data = json.loads(load_data("nxs1.json"))
    for pat in data["replacement"]["patterns"]:
        for face in pat["region"][1:]:
            face["cycle"] = face["cycle"][shift:] + face["cycle"][:shift]
    rotated = load_rule(data)
    assert any(f[2] is not None and f[2][0] != 0
               for pat in rotated.replacement.patterns
               for f in pat.region_faces)
    entry = get_rule("nxs1")
    t = u = entry.initial
    for _ in range(2):
        t = apply_replacement(entry.rule.replacement, t)
        u = apply_replacement(rotated.replacement, u)
    assert u.to_json() == t.to_json()
