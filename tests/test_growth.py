import re
from array import array
from itertools import chain

import pytest

from coversphere import growth
from coversphere.catalog import get_rule, list_rules
from coversphere.growth import (GrowthError, classify_growth, growth_report,
                                stage_counts, stage_tilings)
from coversphere.tiling import FaceTables, Tiling, _flatten, certified_counts
from test_cover import _counts_or_error
from test_isomorphism import square_torus
from test_tiling import MISJOINED_TETRA


def face_counts(entry, n, mode=None):
    return [t.num_faces for t in stage_tilings(entry, n, mode)]


def test_quadratic_series():
    c = classify_growth([6, 30, 78, 150, 246, 366])
    assert c.kind == "polynomial" and c.degree == 2
    assert c.evidence["diff_value"] == 24


def test_constant_and_empty():
    assert classify_growth([5, 5, 5, 5]).kind == "constant"
    assert classify_growth([0, 0, 0, 0]).kind == "empty"


def test_eventually_constant():
    assert classify_growth([7, 9, 5, 5, 5, 5]).kind == "constant"


def test_exponential_ratio():
    c = classify_growth([2, 6, 18, 54, 162])
    assert c.kind == "exponential"
    assert c.ratio == pytest.approx(3.0)


def test_too_short_rejected():
    with pytest.raises(GrowthError):
        classify_growth([1, 2, 3])


@pytest.mark.parametrize("series, last", [
    ([0, 0, 0, 5], []),             # no term after a positive one
    ([2, 0, 2, 0, 2], [0.0, 0.0]),  # each positive term drops to zero
])
def test_no_growth_ratio_rejected(series, last):
    with pytest.raises(GrowthError) as err:
        classify_growth(series)
    assert str(err.value) == "no growth ratio exists: last ratios %s" % last


def test_torus3_polynomial_for_every_window():
    e = get_rule("torus3")
    faces = face_counts(e, 6, "replacement")
    assert faces == [6, 30, 78, 150, 246, 366]
    for n in (4, 5, 6):
        c = classify_growth(faces[:n])
        assert (c.kind, c.degree) == ("polynomial", 2)


def test_s2xr_constant_s3_empty():
    assert classify_growth(face_counts(get_rule("s2xr"), 4)).kind \
        == "constant"
    assert face_counts(get_rule("s3"), 4) == [0, 0, 0, 0]
    assert classify_growth(face_counts(get_rule("s3"), 4)).kind == "empty"


def test_nxs1_exponential():
    rep = growth_report(get_rule("nxs1"), 5)
    assert rep.faces == [14, 158, 1310, 10382, 81806]
    assert rep.classification.kind == "exponential"
    assert rep.classification.ratio > 1.05


def test_report_mode_mismatch():
    with pytest.raises(GrowthError):
        face_counts(get_rule("nxs1"), 3, "subdivision")
    with pytest.raises(GrowthError):
        growth_report(get_rule("nxs1"), 3, "subdivision")


def face_tables(t):
    """A tiling's faces as new ``FaceTables``, by vertex and edge id."""
    faces = range(t.num_faces)
    return FaceTables(
        [*t.face_labels], array("i", map(len, map(t.face_vertices, faces))),
        array("i", chain.from_iterable(map(t.face_vertices, faces))),
        array("i", chain.from_iterable(map(t.face_edges, faces))),
        bytearray(t.edge_marks), t.num_vertices)


@pytest.mark.parametrize("name, mode", [
    (name, mode) for name, _, modes in list_rules() for mode in modes])
def test_certified_counts_match_the_tiling(name, mode):
    # Every catalog stage 1-5 certifies its counts, and they are the
    # Tiling's: stages 1-4 as the tables of the built stage, and stages
    # 2-5 as the tables the rule's step makes.  A Tiling consumes its
    # tables, so each side gets tables of its own.
    entry = get_rule(name)
    rule, _, faces = growth._steps(entry, mode)
    for t in stage_tilings(entry, 4, mode):
        for make in (lambda: face_tables(t), lambda: faces(rule, t)):
            assert certified_counts(make()) == Tiling(make()).counts


def int_tables(keys):
    """Four triangles with names 0, 1, 2 and the given int keys."""
    return FaceTables(["t"] * 4, array("i", [3] * 4),
                      array("i", [0, 1, 2] * 4), array("i", keys),
                      bytearray(max(keys) + 1), 3)


TETRA = [("t", c) for c in ((0, 2, 1), (0, 1, 3), (1, 2, 3), (2, 0, 3))]
# TETRA's names and keys as tables: ints numbered by first appearance
TETRA_NAMES = [0, 1, 2, 0, 2, 3, 2, 1, 3, 1, 0, 3]
TETRA_KEYS = [0, 1, 2, 2, 3, 4, 1, 5, 3, 0, 4, 5]


def tetra_tables(labels=4, sizes=(3, 3, 3, 3), names=TETRA_NAMES,
                 keys=TETRA_KEYS, marks=bytes(6)):
    """TETRA's ``FaceTables``, any of whose tables a case may replace."""
    return FaceTables(["t"] * labels, array("i", sizes), array("i", names),
                      array("i", keys), bytearray(marks), 4)


@pytest.mark.parametrize("make, want", [
    (lambda: face_tables(Tiling(square_torus(4, 4))), (16, 32, 16, 1)),
    # two tetrahedra that share the name of vertex 3
    (lambda: _flatten(TETRA + [("t", [v + 3 for v in c])
                               for _, c in TETRA])[0], "two rotation orbits"),
    (lambda: _flatten(MISJOINED_TETRA)[0], "joins"),
    (lambda: int_tables([5, 1, 2, 5, 3, 4, 5, 7, 8, 6, 1, 3]),
     "edge 5 bounds 3 face sides"),
    (lambda: int_tables([10, 11, 12, 10, 13, 14, 15, 16, 17, 16, 11, 13]),
     "edge 12 bounds 1 face sides"),
    # a sphere cut by the loop side a-a, b inside it and c outside
    (lambda: _flatten([("t", "aab", "xyy"), ("t", "aac", "xww")])[0],
     (2, 3, 3, 1)),
    (lambda: tetra_tables(sizes=(2, 4, 3, 3)),
     "face 0: fewer than 3 boundary vertices"),
    (lambda: tetra_tables(labels=5), "face tables disagree: 5 face labels"),
    (lambda: tetra_tables(keys=TETRA_KEYS[:-1]),
     "face tables disagree: 4 face labels, 4 faces of 12 sides in all, 12 "
     "vertex names, 11 edge keys"),
    (lambda: tetra_tables(names=[-1, *TETRA_NAMES[1:]]),
     r"vertex name -1 is outside the declared range\(4\)"),
    (lambda: tetra_tables(names=[4, *TETRA_NAMES[1:]]),
     r"vertex name 4 is outside the declared range\(4\)"),
    (lambda: tetra_tables(keys=[-1, *TETRA_KEYS[1:]]),
     r"edge key -1 is outside the declared range\(6\)"),
    (lambda: tetra_tables(keys=[6, *TETRA_KEYS[1:]]),
     r"edge key 6 is outside the declared range\(6\)"),
    (lambda: tetra_tables(marks=[3, 0, 0, 0, 0, 0]), "unknown edge mark 3"),
], ids=["torus", "shared-vertex", "misjoined", "three-sides", "one-side",
        "loop", "short-face", "labels", "lengths", "negative-name",
        "name-range", "negative-key", "key-range", "unknown-mark"])
def test_uncertified_last_stage_is_counted_by_its_tiling(monkeypatch, make,
                                                         want):
    # Tables the certificate cannot vouch for are built as a Tiling, so
    # the last stage gets the Tiling's counts or raises its error.
    assert certified_counts(make()) is None
    expected = _counts_or_error(lambda: Tiling(make()).counts)
    if isinstance(want, tuple):
        assert expected == want
    else:
        assert re.search(want, expected)
    monkeypatch.setattr(growth, "_replaced_faces", lambda rule, t: make())
    assert _counts_or_error(
        lambda: [*stage_counts(get_rule("nxs1"), 2)][-1]) == expected
