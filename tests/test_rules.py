import importlib.resources as resources
import json

import pytest

from coversphere.cover import sphere_series
from coversphere.gluing import parse_gluing
from coversphere.rules import (
    RuleError, apply_replacement, apply_subdivision, load_rule,
    strip_added_edges, validate_rule,
)
from coversphere.tiling import Tiling, isomorphic


def load_data(name):
    return (resources.files("coversphere") / "data" / name).read_text()


@pytest.fixture(scope="module")
def torus3():
    return load_rule(load_data("torus3.json"))


@pytest.fixture(scope="module")
def cube_series():
    return sphere_series(parse_gluing(load_data("cube.glue")), 6)


def tetra():
    return Tiling([("t", (0, 1, 2)), ("t", (0, 2, 3)),
                   ("t", (0, 3, 1)), ("t", (1, 3, 2))])


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
    with pytest.raises(RuleError):
        apply_replacement(torus3.replacement, t)


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
    with pytest.raises(RuleError):
        apply_subdivision(rule.subdivision, t)


# -- identity and empty rules -------------------------------------------


def test_s2xr_identity():
    rule = load_rule(load_data("s2xr.json"))
    spec = parse_gluing(load_data("s2.glue"))
    t = sphere_series(spec, 1)[0]
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


# -- validation ----------------------------------------------------------


def test_builtin_rules_validate(torus3):
    for name in ("torus3.json", "barycentric.json", "s2xr.json", "s3.json"):
        assert validate_rule(load_rule(load_data(name))) == []


def test_validate_flags_small_template():
    bad = {
        "name": "bad",
        "replacement": {"patterns": [{
            "name": "p",
            "region": [{"label": "t", "cycle": ["a", "b", "c"]}],
            "boundary": [{"ends": ["a", "b"], "status": "any"},
                         {"ends": ["b", "c"], "status": "any"},
                         {"ends": ["c", "a"], "status": "any"}],
            "template": {"faces": [{"label": "t", "cycle": ["a", "b"]}]},
        }]},
    }
    diags = validate_rule(load_rule(bad))
    assert any("fewer than three" in d for d in diags)


def test_validate_flags_uncoverable_labels():
    bad = {
        "name": "bad",
        "replacement": {"patterns": [{
            "name": "p",
            "region": [{"label": "black", "cycle": ["a", "b", "c"]}],
            "boundary": [{"ends": ["a", "b"], "status": "any"},
                         {"ends": ["b", "c"], "status": "any"},
                         {"ends": ["c", "a"], "status": "any"}],
            "template": {"faces": [{"label": "white",
                                    "cycle": ["a", "b", "c"]}]},
        }]},
    }
    diags = validate_rule(load_rule(bad))
    assert any("cannot cover" in d for d in diags)


def test_validate_flags_non_disk_template():
    bad = {
        "name": "bad",
        "replacement": {"patterns": [{
            "name": "p",
            "region": [{"label": "t", "cycle": ["a", "b", "c"]}],
            "boundary": [{"ends": ["a", "b"], "status": "any"},
                         {"ends": ["b", "c"], "status": "any"},
                         {"ends": ["c", "a"], "status": "any"}],
            "template": {"faces": [{"label": "t", "cycle": ["a", "b", "c"]},
                                   {"label": "t", "cycle": ["a", "b", "c"]}]},
        }]},
    }
    assert validate_rule(load_rule(bad)) != []


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
