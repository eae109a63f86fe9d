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
    """A parsed spec and, once ``validate`` has run, its int tables.

    Vertices are numbered by first appearance in the face cycles and edges
    in order of their sorted endpoint names.  Faces keep the order of
    ``faces``; a face's position i is its edge from vertex i to i + 1.
    ``turn[f][i]`` is the (face, position) that crossing f's pairing at
    position i leads to in the next cell around that edge: the flank of
    ``edge_image[f][i]`` that is not in ``target[f]``.
    """
    name: str
    faces: dict = field(default_factory=dict)        # name -> Face
    pairings: dict = field(default_factory=dict)     # name -> (name, vmap)
    expected_cycles: list = field(default_factory=list)  # (line, u, v, n)

    # derived by validate
    vertices: list = field(default_factory=list)     # vertex -> name
    face_verts: list = field(default_factory=list)   # face -> vertices
    face_edges: list = field(default_factory=list)   # face -> edges
    vert_image: list = field(default_factory=list)   # face -> paired vertices
    edge_image: list = field(default_factory=list)   # face -> paired edges
    target: list = field(default_factory=list)       # face -> paired face
    flank: list = field(default_factory=list)        # edge -> 2 (face, pos)
    turn: list = field(default_factory=list)         # face -> next (face, pos)
    cycle: list = field(default_factory=list)        # edge -> cycle length


def _walk_edge_orbit(spec: GluingSpec, edge, ends):
    """Follow an edge around the manifold edge it projects to.

    Starting at the edge's first flank slot we repeatedly ``turn`` into
    the next cell around it.  The walk must return to the start with the
    identity correspondence on the edge's endpoints; the number of steps
    is the cycle length (= polyhedra glued around the cover edge).
    """
    start = f, i = spec.flank[edge][0]
    u0 = u = spec.face_verts[f][i]      # one endpoint, followed along
    for steps in range(1, 10001):
        vs = spec.face_verts[f]
        u = spec.vert_image[f][i if vs[i] == u else (i + 1) % len(vs)]
        f, i = spec.turn[f][i]
        if (f, i) == start:
            if u != u0:
                raise GluingError(
                    "ill-defined identification on edge %r: the gluings "
                    "around it swap its endpoints" % (sorted(ends, key=repr),))
            return steps
    raise GluingError("edge orbit fails to close")


def validate(spec: GluingSpec):
    """Check the spec and fill in its int tables (see GluingSpec)."""
    if not spec.faces:
        raise GluingError("no face lines")
    for name in spec.pairings:
        if name not in spec.faces:
            raise GluingError("pair line names undeclared face %s" % name)
    for name in spec.faces:
        if name not in spec.pairings:
            raise GluingError("face %s has no pair line" % name)
    faces = list(spec.faces.values())
    vindex = {}
    for f in faces:
        for u in f.vertices:
            vindex.setdefault(u, len(vindex))
    rims = [[frozenset(e) for e in zip(f.vertices,
                                       f.vertices[1:] + f.vertices[:1])]
            for f in faces]
    eindex = {e: i for i, e in enumerate(
        sorted({e for rim in rims for e in rim}, key=sorted))}
    findex = {name: i for i, name in enumerate(spec.faces)}
    spec.vertices = list(vindex)
    spec.face_verts = [[vindex[u] for u in f.vertices] for f in faces]
    spec.face_edges = [[eindex[e] for e in rim] for rim in rims]
    spec.target = [0] * len(faces)
    spec.vert_image = [None] * len(faces)
    spec.edge_image = [None] * len(faces)
    for a, (b, vmap) in spec.pairings.items():
        fa, fb = spec.faces[a], spec.faces[b]
        if fa.label != fb.label:
            raise GluingError("paired faces %s/%s have different labels" % (a, b))
        if set(vmap) != set(fa.vertices) or set(vmap.values()) != set(fb.vertices):
            raise GluingError("pairing %s->%s is not a vertex bijection" % (a, b))
        back, backmap = spec.pairings[b]
        if back != a or any(backmap[v] != u for u, v in vmap.items()):
            raise GluingError("pairing %s->%s is not involutive" % (a, b))
        # adjacency must be preserved: a's edges map onto b's
        f = findex[a]
        image = [eindex.get(frozenset(map(vmap.get, e))) for e in rims[f]]
        if set(image) != set(spec.face_edges[findex[b]]):
            raise GluingError(
                "pairing %s->%s does not map the face boundary onto the "
                "target boundary" % (a, b))
        spec.target[f] = findex[b]
        spec.vert_image[f] = [vindex[vmap[u]] for u in fa.vertices]
        spec.edge_image[f] = image
    # each polyhedron edge flanked by exactly two face slots
    spec.flank = [[] for _ in eindex]
    for f, es in enumerate(spec.face_edges):
        for i, e in enumerate(es):
            spec.flank[e].append((f, i))
    for e, slots in zip(eindex, spec.flank):
        if len(slots) != 2:
            raise GluingError(
                "edge %r flanked by %d faces" % (sorted(e, key=repr),
                                                 len(slots)))
    spec.turn = [[next(fi for fi in spec.flank[g] if fi[0] != spec.target[f])
                  for g in image] for f, image in enumerate(spec.edge_image)]
    # compute and check cycle lengths
    spec.cycle = [_walk_edge_orbit(spec, e, ends)
                  for e, ends in enumerate(eindex)]
    for lineno, u, v, length in spec.expected_cycles:
        e = eindex.get(frozenset((u, v)))
        if e is None:
            raise GluingError("line %d: %s-%s is not a polyhedron edge"
                              % (lineno, u, v))
        if spec.cycle[e] != length:
            raise GluingError(
                "line %d: edge (%s,%s): expected cycle length %d, got %d"
                % (lineno, u, v, length, spec.cycle[e]))


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
                for f in (a, b):
                    if f in spec.pairings:
                        raise GluingError("face %s paired twice" % f)
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
