"""Face-pairing descriptions of closed 3-manifolds.

A gluing spec is one or more polyhedra (here always one) with faces given
as labeled vertex cycles, plus a pairing that matches faces in involutive
pairs and records the exact vertex correspondence.  Text format::

    polyhedron cube
    face T sq : 0 1 3 2
    face B sq : 4 5 7 6
    pair T B : 0->4 1->5 3->7 2->6
    expect-cycle 0 1 : 4

``pair`` lines list the full vertex correspondence of the first face onto
the second; the inverse pairing is added automatically.  ``expect-cycle``
lines assert the edge-orbit length of the cover edge through the given
polyhedron edge and are checked at load time.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class GluingError(ValueError):
    pass


@dataclass
class Face:
    name: str
    label: str
    vertices: tuple


@dataclass
class GluingSpec:
    name: str
    faces: dict = field(default_factory=dict)        # name -> Face
    pairings: dict = field(default_factory=dict)     # name -> (name, vmap)
    expected_cycles: list = field(default_factory=list)  # (line, u, v, n)

    # derived
    edge_cycle: dict = field(default_factory=dict)   # frozenset edge -> int

    def face_of_edge(self, edge):
        """The two (face, position) slots flanking a polyhedron edge."""
        out = []
        for f in self.faces.values():
            n = len(f.vertices)
            for i in range(n):
                if {f.vertices[i], f.vertices[(i + 1) % n]} == set(edge):
                    out.append((f.name, i))
        return out

    def edges(self):
        seen = set()
        for f in self.faces.values():
            n = len(f.vertices)
            for i in range(n):
                e = frozenset((f.vertices[i], f.vertices[(i + 1) % n]))
                seen.add(e)
        return sorted(seen, key=sorted)

    def other_face(self, face_name, edge):
        pair = [fn for fn, _ in self.face_of_edge(edge)]
        a, b = pair
        return b if a == face_name else a


def _walk_edge_orbit(spec: GluingSpec, edge, start_face):
    """Follow an edge around the manifold edge it projects to.

    Starting at (edge, face) we repeatedly apply the face pairing and cross
    to the other face of the image edge.  The walk must return to the start
    with the identity correspondence on the edge's endpoints; the number of
    steps is the cycle length (= polyhedra glued around the cover edge).
    """
    u0, v0 = sorted(edge, key=repr)
    face, u, v = start_face, u0, v0
    steps = 0
    while True:
        target, vmap = spec.pairings[face]
        u2, v2 = vmap[u], vmap[v]
        face2 = spec.other_face(target, (u2, v2))
        face, u, v = face2, u2, v2
        steps += 1
        if face == start_face and {u, v} == {u0, v0}:
            if (u, v) != (u0, v0):
                raise GluingError(
                    "ill-defined identification on edge %r: the gluings "
                    "around it swap its endpoints" % (sorted(edge, key=repr),))
            return steps
        if steps > 10000:
            raise GluingError("edge orbit fails to close")


def validate(spec: GluingSpec):
    if not spec.faces:
        raise GluingError("no face lines")
    names = set(spec.faces)
    if spec.pairings.keys() != names:
        raise GluingError("every face needs exactly one pairing")
    for a, (b, vmap) in spec.pairings.items():
        fa, fb = spec.faces[a], spec.faces[b]
        if fa.label != fb.label:
            raise GluingError("paired faces %s/%s have different labels" % (a, b))
        if set(vmap) != set(fa.vertices) or set(vmap.values()) != set(fb.vertices):
            raise GluingError("pairing %s->%s is not a vertex bijection" % (a, b))
        back, backmap = spec.pairings[b]
        if back != a or any(backmap[v] != u for u, v in vmap.items()):
            raise GluingError("pairing %s->%s is not involutive" % (a, b))
        # adjacency must be preserved
        n = len(fa.vertices)
        ea = {frozenset((fa.vertices[i], fa.vertices[(i + 1) % n]))
              for i in range(n)}
        m = len(fb.vertices)
        eb = {frozenset((fb.vertices[i], fb.vertices[(i + 1) % m]))
              for i in range(m)}
        if {frozenset(map(vmap.get, e)) for e in ea} != eb:
            raise GluingError(
                "pairing %s->%s does not map the face boundary onto the "
                "target boundary" % (a, b))
    # each polyhedron edge flanked by exactly two face slots
    for e in spec.edges():
        slots = spec.face_of_edge(e)
        if len(slots) != 2:
            raise GluingError(
                "edge %r flanked by %d faces" % (sorted(e, key=repr),
                                                 len(slots)))
    # compute and check cycle lengths
    for e in spec.edges():
        start = spec.face_of_edge(e)[0][0]
        spec.edge_cycle[frozenset(e)] = _walk_edge_orbit(spec, e, start)
    for lineno, u, v, length in spec.expected_cycles:
        got = spec.edge_cycle.get(frozenset((u, v)))
        if got is None:
            raise GluingError("line %d: %s-%s is not a polyhedron edge"
                              % (lineno, u, v))
        if got != length:
            raise GluingError(
                "line %d: edge (%s,%s): expected cycle length %d, got %d"
                % (lineno, u, v, length, got))


# per directive, its fixed fields; a face's vertices and a pair's vertex
# maps follow them
_HEADS = {
    "polyhedron": ("name",),
    "face": ("face name", "label", ":"),
    "pair": ("first face", "second face", ":"),
    "expect-cycle": ("first vertex", "second vertex", ":", "cycle length"),
}


def _head(tokens):
    """A line's directive and fixed fields, each checked present."""
    kind = tokens[0]
    if kind not in _HEADS:
        raise GluingError("unknown directive %r" % kind)
    names = _HEADS[kind]
    head = tokens[1:len(names) + 1]
    for i, field_name in enumerate(names):
        if field_name == ":":
            if head[i:i + 1] != [":"]:
                raise GluingError("expected ':'")
        elif i >= len(head) or head[i] == ":":
            raise GluingError("%s line has no %s" % (kind, field_name))
    return kind, head


def parse_gluing(text: str, name: str = "") -> GluingSpec:
    spec = GluingSpec(name=name)
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        try:
            kind, head = _head(tokens)
            rest = tokens[len(head) + 1:]
            if rest and kind in ("polyhedron", "expect-cycle"):
                raise GluingError("%s line has extra words %r"
                                  % (kind, " ".join(rest)))
            if kind == "polyhedron":
                spec.name = head[0]
            elif kind == "face":
                fname, label, _ = head
                verts = tuple(rest)
                if fname in spec.faces:
                    raise GluingError("duplicate face %s" % fname)
                if len(verts) < 3:
                    raise GluingError("face %s has fewer than 3 vertices"
                                      % fname)
                for i, v in enumerate(verts):
                    if v in verts[:i]:
                        raise GluingError("face %s repeats vertex %s"
                                          % (fname, v))
                spec.faces[fname] = Face(fname, label, verts)
            elif kind == "pair":
                a, b, _ = head
                vmap = {}
                for tok in rest:
                    u, arrow, v = tok.partition("->")
                    if not (u and arrow and v) or "->" in v:
                        raise GluingError(
                            "pair %s %s: vertex map %r is not u->v"
                            % (a, b, tok))
                    vmap[u] = v
                if a in spec.pairings or (b in spec.pairings and b != a):
                    raise GluingError("face paired twice")
                spec.pairings[a] = (b, vmap)
                if b != a:
                    spec.pairings[b] = (a, {v: u for u, v in vmap.items()})
            else:
                u, v, _, length = head
                if not length.isdecimal():
                    raise GluingError("expect-cycle %s %s: cycle length %r "
                                      "is not an integer" % (u, v, length))
                spec.expected_cycles.append((lineno, u, v, int(length)))
        except GluingError as exc:
            raise GluingError("line %d: %s" % (lineno, exc)) from exc
    validate(spec)
    return spec


def load_gluing_spec(path) -> GluingSpec:
    with open(path) as fh:
        return parse_gluing(fh.read())
