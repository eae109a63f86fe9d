import importlib.resources as resources
import re

import pytest

from coversphere.gluing import GluingError, parse_gluing


def load_text(name):
    return (resources.files("coversphere") / "data" / name).read_text()


def load(name):
    return parse_gluing(load_text(name))


def test_cube_spec_loads():
    spec = load("cube.glue")
    assert len(spec.faces) == 6
    assert len(spec.cycle) == 12
    assert all(L == 4 for L in spec.cycle)


def test_shell_spec_loads():
    spec = load("s2.glue")
    assert len(spec.faces) == 4
    assert all(L == 2 for L in spec.cycle)


def test_rejects_wrong_expected_cycle():
    text = """
polyhedron bad
face I1 t : a b c
face I2 t : a c b
face O1 t : d e f
face O2 t : d f e
pair I1 O1 : a->d b->e c->f
pair I2 O2 : a->d c->f b->e
expect-cycle a b : 3
"""
    message = "line 9: edge (a,b): expected cycle length 3, got 2"
    with pytest.raises(GluingError, match="^%s$" % re.escape(message)):
        parse_gluing(text)


def test_rejects_expected_cycle_off_the_polyhedron_edges():
    # 0-7 is a diagonal of the cube, not an edge; the error names the line
    # and the pair in the order written, whatever the hash seed.
    text = load_text("cube.glue") + "expect-cycle 0 7 : 4\n"
    lineno = text.count("\n")
    with pytest.raises(GluingError,
                       match="^line %d: 0-7 is not a polyhedron edge$"
                       % lineno):
        parse_gluing(text)


TRIANGLES = "polyhedron bad\nface A t : 0 1 2\nface B t : 0 2 1\n"
# the cube with the Z0 -> Z1 map sending the edge 1-3 to the diagonal 5-6
TWISTED_CUBE = load_text("cube.glue").replace(
    "pair Z0 Z1 : 0->4 1->5 3->7 2->6", "pair Z0 Z1 : 0->4 1->5 3->6 2->7")
# two triangles that share only the edge 0-2
ONE_FLANK = "face A t : 0 1 2\nface B t : 0 2 3\npair A B : 0->0 1->2 2->3\n"


@pytest.mark.parametrize("text, message", [
    (TRIANGLES, "face A has no pair line"),
    (TRIANGLES + "pair A B : 0->0 1->2 2->1\npair C D : 0->0 1->2 2->1",
     "pair line names undeclared face C"),
    (TRIANGLES.replace("B t", "B u") + "pair A B : 0->0 1->2 2->1",
     "paired faces A/B have different labels"),
    (TRIANGLES + "pair A B : 0->0 1->0 2->1",
     "pairing A->B is not a vertex bijection"),
    ("face A t : 0 1 2\npair A A : 0->1 1->2 2->0",
     "pairing A->A is not involutive"),
    (TWISTED_CUBE, "pairing Z0->Z1 does not map the face boundary onto the "
                   "target boundary"),
    (ONE_FLANK, "edge ['0', '1'] flanked by 1 faces"),
    # a pairing that reverses an edge on itself after one loop
    (TRIANGLES + "pair A B : 0->1 1->0 2->2",
     "ill-defined identification on edge ['0', '1']: the gluings around it "
     "swap its endpoints"),
], ids=["unpaired", "undeclared", "labels", "bijection", "involutive", "boundary",
        "one-flank", "swap"])
def test_rejects_inconsistent_gluing(text, message):
    with pytest.raises(GluingError, match="^%s$" % re.escape(message)):
        parse_gluing(text)


def test_rejects_spec_without_faces():
    with pytest.raises(GluingError, match="no face"):
        parse_gluing("polyhedron empty\n")


@pytest.mark.parametrize("line, message", [
    # the cycle 0 1 3 2 0 has the vertex set of the square it replaces,
    # so only the parser can tell the two apart
    ("face Z0 sq : 0 1 3 2 0", "face Z0 repeats vertex 0"),
    ("face Z0 sq : 0 1", "face Z0 has fewer than 3 vertices"),
])
def test_rejects_degenerate_face(line, message):
    lines = load_text("cube.glue").splitlines()
    lineno = lines.index("face Z0 sq : 0 1 3 2") + 1
    lines[lineno - 1] = line
    with pytest.raises(GluingError,
                       match="^line %d: %s$" % (lineno, message)):
        parse_gluing("\n".join(lines))


@pytest.mark.parametrize("text, message", [
    ("polyhedron", "line 1: polyhedron line has no name"),
    ("polyhedron c\nface T", "line 2: face line has no label"),
    ("polyhedron c\nface T : 0 1 2", "line 2: face line has no label"),
    ("polyhedron c\npair T", "line 2: pair line has no second face"),
    ("polyhedron c\npair T B : 0-4",
     "line 2: pair T B: vertex map '0-4' is not u->v"),
    ("polyhedron c\npair T B : 0->4->5",
     "line 2: pair T B: vertex map '0->4->5' is not u->v"),
    ("polyhedron c\nexpect-cycle 0 1 :",
     "line 2: expect-cycle line has no cycle length"),
    ("polyhedron c\nexpect-cycle 0 1 : x",
     "line 2: expect-cycle 0 1: cycle length 'x' is not an integer"),
    ("polyhedron cube extra words",
     "line 1: polyhedron line has extra words 'extra words'"),
    ("polyhedron c\nexpect-cycle 0 1 : 4 junk",
     "line 2: expect-cycle line has extra words 'junk'"),
    ("polyhedron c\nfoo", "line 2: unknown directive 'foo'"),
    ("face T sq 0 1 3", "line 1: expected ':'"),
    ("face A t : 0 1 2\nface A t : 0 2 3", "line 2: duplicate face A"),
    ("polyhedron c\nface A t : 0 1 2\npair A B :\npair C A :",
     "line 4: face A paired twice"),
], ids=["polyhedron", "face", "face-no-label", "pair", "pair-dash",
        "pair-two-arrows", "cycle-no-length", "cycle-bad-length",
        "polyhedron-extra-words", "cycle-extra-words", "unknown-directive",
        "no-colon", "duplicate-face", "paired-twice"])
def test_rejects_missing_or_malformed_field(text, message):
    with pytest.raises(GluingError, match="^%s$" % re.escape(message)):
        parse_gluing(text)
