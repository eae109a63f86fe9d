"""Half-edge combinatorial maps for closed surface tilings.

A Tiling is an immutable rotation-system representation of a tiling of a
closed surface.  Faces carry a type label, edges carry a status in
{"plain", "loaded", "fragile"} plus an ``added`` marker for edges that were
drawn onto a tiling rather than inherited from a cell structure, both in
one byte, the edge's mark, and a vertex is loaded when every edge at it
is.  Everything is stored with dense integer ids, in flat int arrays, so
that construction is deterministic and a stage-sized tiling stays compact.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from functools import cached_property
from itertools import accumulate, compress, count, repeat
from operator import add, mul, not_, sub
from struct import Struct
from typing import NamedTuple

from .unionfind import UnionFind

PLAIN = "plain"
LOADED = "loaded"
FRAGILE = "fragile"
STATUSES = (PLAIN, LOADED, FRAGILE)     # a mark's low two bits index this
ADDED = 4               # the mark bit of an added edge
MARKS = bytes([0, 1, 2, 4, 5, 6])       # every valid mark
# per byte: the status of the mark it is, None if it is no mark
STATUS_OF = (*STATUSES, None) * 2 + (None,) * 248
# ``translate`` tables, per mark: 1 for a loaded edge; the status's rank
# over sorted(STATUSES), times 2, plus 1 for an added edge
IS_LOADED = bytes(s == LOADED for s in STATUS_OF)
_EDGE_DIGIT = bytes(2 * sorted(STATUSES).index(s) + bool(m & ADDED) if s
                    else 0 for m, s in enumerate(STATUS_OF))
_INT = Struct("i")      # one array('i') entry


class TilingError(ValueError):
    pass


def mark(status, added=False):
    """An edge's byte in ``FaceTables.marks``: its status's index in
    ``STATUSES``, plus ``ADDED`` for an added edge."""
    if status not in STATUSES:
        raise TilingError("unknown edge status %r" % (status,))
    return STATUSES.index(status) | (ADDED if added else 0)


class FaceTables(NamedTuple):
    """A tiling's faces as flat tables: per face its label and its size,
    and per side, face after face in cycle order, the name of its first
    vertex and its edge key.  Names are ints in ``range(num_names)`` and
    keys ints in ``range(len(marks))``, ranges the producer declares;
    ``marks`` holds one ``mark`` per key.  ``new()`` gives empty tables
    for a producer to fill: ``array('i')`` for the ints, and a zeroed
    ``bytearray`` of marks, all plain, for ``num_keys`` keys.  A
    ``Tiling`` consumes the ``names`` and ``keys`` it is handed, writing
    vertex and edge ids over them in place."""
    labels: list
    sizes: array
    names: array
    keys: array
    marks: bytearray
    num_names: int

    @classmethod
    def new(cls, num_names=0, num_keys=0):
        return cls([], array("i"), array("i"), array("i"),
                   bytearray(num_keys), num_names)


class Tiling:
    """An immutable tiling of a closed surface (possibly disconnected).

    Faces are given as ``(label, vertices)`` or ``(label, vertices, edges)``
    sequences, with ``edge_status`` and ``added_edges`` keyed by edge key,
    or as ``FaceTables``, which carry the edges' marks.  A face sequence's
    vertex names and edge keys can be any hashable values; the constructor
    numbers them by first appearance into ``FaceTables``, so either way
    the tiling is built from int tables, owns their ``labels`` list as
    ``face_labels`` and keeps one mark per edge, in the ``bytes``
    ``edge_marks``.  It consumes the ``names`` and ``keys`` tables: they
    are renumbered in place into ``h_origin`` and ``h_edge``, so that a
    stage is built in little more than the memory it keeps (at stage 4,
    nxs1 peaks at about 29 traced bytes per half-edge and holds 27.5,
    prism12 about 27.5 and 25).  Without ``edges``, side i's key is the
    unordered pair of its endpoints; keys must be given whenever two
    distinct edges share both endpoints (e.g. the square model of the
    torus).  Face f's half-edges are the contiguous ids
    ``face_start[f]..``, side i of the input cycle being
    ``face_start[f] + i``; a face flipped to orient the surface keeps that
    start and walks its sides backwards, and its byte in the
    ``bytearray`` ``face_flipped`` is 1.

    The half-edge tables use the usual conventions: ``next`` walks around
    a face, ``twin`` jumps across an edge, and ``next(twin(h))`` walks the
    rotation around the origin vertex of ``h``.  A vertex is loaded when
    every edge at it is loaded; ``loaded_vertices`` is computed on first
    read.  Components are labelled at construction:
    ``face_component[f]`` numbers face f's component by lowest face id,
    and there are ``num_components`` of them.

    The int tables ``face_start``, ``face_component``, ``h_face``,
    ``h_twin``, ``h_origin``, ``h_edge`` and ``edge_half``, and ``h_next``
    and ``h_prev``, which are built from ``face_start`` and
    ``face_flipped`` on first read, are ``array('i')``: four bytes an
    entry, no int objects, nothing for the cyclic garbage collector to
    walk.  ``vertex_names`` and ``edge_keys`` list the names and keys by
    id: an ``array('i')`` for ``FaceTables``, whose ``array('i')`` tables
    bound them; for faces given one by one, an ``array('q')`` when all
    are ints, else a list.
    """

    def __init__(self, faces, *, stage=0, edge_status=None, added_edges=None):
        if isinstance(faces, FaceTables):
            tables, vertex_names, edge_keys = faces, None, None
        else:
            tables, vertex_names, edge_keys = _flatten(faces, edge_status,
                                                       added_edges)
        labels, sizes, names, keys, marks, num_names = tables
        if min(sizes, default=3) < 3:
            raise _short_face([n < 3 for n in sizes].index(True))
        if not sum(sizes) == len(names) == len(keys):
            raise TilingError(
                "face tables disagree: faces of %d sides in all, %d vertex "
                "names, %d edge keys" % (sum(sizes), len(names), len(keys)))
        # A negative int would index the lookup tables below from their
        # end; one past its range stops the numbering pass there.
        if min(names, default=0) < 0 or min(keys, default=0) < 0:
            _check_ranges(tables)
        self.stage = stage
        self.face_labels = labels
        self.face_start = array("i", accumulate(sizes, initial=0))
        self.face_start.pop()

        # One pass numbers names and keys by first appearance, through
        # lookup tables indexed by the name or key, writes each side's
        # vertex id and edge id over its name and key, and pairs each
        # key's two sides.  It stops at a key's third side, and at a name
        # or key past the end of its lookup table.  Failing those, every
        # key has two sides exactly when there are half as many edges as
        # sides; a key with one side makes more, which overflows ``half``.
        # Whichever stops it, an int out of its range is reported first
        # (the ids written so far are in range, as their ints were), else
        # the key ``_unpaired`` finds, once the sides renumbered so far
        # get their keys back.
        n = len(keys)
        # The two lookup tables are views of one block, so that freeing
        # them leaves one hole, which ``h_face``, built next, can reuse.
        ids = memoryview(array("i", [-1]) * (num_names + len(marks)))
        vid, eid = ids[:num_names], ids[num_names:]
        # tables made by repeating one entry are sized exactly
        twin = array("i", [-1]) * n
        half = array("i", [0]) * (n // 2)      # per edge: its first side
        # per vertex its name and per edge its key, which indexes ``marks``
        name_ints, key_ints = array("i"), array("i")
        nv = ne = 0
        try:
            for h, k, v in zip(count(), keys, names):
                x = vid[v]
                if x < 0:
                    vid[v] = x = nv
                    nv += 1
                    name_ints.append(v)
                e = eid[k]
                if e < 0:
                    half[ne] = h
                    eid[k] = e = ne
                    ne += 1
                    key_ints.append(k)
                else:
                    g = half[e]
                    if twin[g] >= 0:
                        ne = -1
                        break
                    twin[g], twin[h] = h, g
                names[h] = x
                keys[h] = e
        except IndexError:
            ne = -1
        if 2 * ne != n:
            _check_ranges(tables)
            for i in range(h):
                keys[i] = key_ints[keys[i]]
            raise _side_count_error(keys, _unpaired(keys, len(marks)),
                                    edge_keys)
        del vid, eid, ids
        self.h_face = face = array("i")
        # face f's id once per side, appended as the bytes of its entries
        for run in map(mul, map(_INT.pack, range(len(sizes))), sizes):
            face.frombytes(run)
        self.vertex_names = vertex_names or name_ints
        self.edge_keys = edge_keys or key_ints
        self.h_edge, self.h_twin = keys, twin
        self.edge_half = half       # per edge: one side; h_twin the other
        self._orient(names)

        self.edge_marks = bytes(map(marks.__getitem__, key_ints))
        for c in self.edge_marks.translate(None, MARKS):
            raise TilingError("unknown edge mark %d" % c)
        # Every vertex has at least one rotation orbit, and <next, twin>
        # makes each component a closed orientable surface, on which
        # orbits - E + F is at most 2.  So V - E + F = 2 * components
        # leaves no vertex a second orbit, and the walk can be skipped.
        if self.euler_characteristic() != 2 * self.num_components:
            self._validate()

    # -- construction -------------------------------------------------

    def _orient(self, origin):
        """Set ``face_flipped`` and ``h_origin``, flipping the faces needed
        for twin half-edges to run antiparallel, and label each face with
        its connected component.

        ``origin``, which becomes ``h_origin``, gives each side's first
        vertex along its input cycle, so a side ends where the next side of
        its face's run starts, the last side where the first one does.
        Works component by component (DFS from the lowest face id), each
        root keeping its input orientation.  Loop edges give no orientation
        information: the DFS does not cross them, and the components they
        join are merged afterwards.  An edge is checked from the first of
        its faces to be popped; from the other it would pass the same
        tests: its two sides must join the same two vertices, and their
        faces must be flipped so that the sides run antiparallel.
        """
        start, twin, face = self.face_start, self.h_twin, self.h_face
        stops = self._face_stops()
        flip = bytearray(len(start))
        comp = array("i", [-1]) * len(start)   # -1 until a face is reached
        done = bytearray(len(start))
        loops = []      # half-edges whose loop edge the DFS did not cross
        n = 0
        for root in range(len(start)):
            if comp[root] >= 0:
                continue
            comp[root] = n
            stack = array("i", [root])
            while stack:
                f = stack.pop()
                flipped = flip[f]
                s, e = start[f], stops[f]
                for h in range(s, e):
                    t = twin[h]
                    g = face[t]
                    if done[g]:
                        continue
                    a, c = origin[h], origin[t]
                    b = origin[h + 1 if h + 1 < e else s]
                    d = origin[t + 1 if t + 1 < stops[g] else start[g]]
                    same = a == c and b == d
                    if not (same or a == d and b == c):
                        names = self.vertex_names
                        raise TilingError(
                            "edge %r joins %r to %r on one side and %r to "
                            "%r on the other" % (
                                _key_name(self.edge_keys[self.h_edge[h]]),
                                names[a], names[b], names[c], names[d]))
                    if a == b:
                        loops.append(h)
                        continue
                    # Sides running the same way need opposite flips.
                    want = flipped ^ same
                    if comp[g] < 0:
                        flip[g], comp[g] = want, n
                        stack.append(g)
                    elif flip[g] != want:
                        raise TilingError(
                            "inconsistent rotation system: faces %d/%d "
                            "cannot be oriented compatibly" % (f, g))
                done[f] = 1
            n += 1
        # A flipped face walks back, so each side starts at its old end.
        for f in compress(range(len(flip)), flip):
            s, e = start[f], stops[f]
            origin[s:e] = origin[s + 1:e] + origin[s:s + 1]
        self.face_flipped, self.h_origin = flip, origin
        self.face_component, self.num_components = _merge_components(
            comp, n, [(comp[face[h]], comp[face[twin[h]]]) for h in loops])

    def _validate(self):
        # Each vertex's half-edges must form a single rotation orbit.  An
        # orbit never leaves its vertex: _orient made twins antiparallel.
        origin, nxt, twin = self.h_origin, self.h_next, self.h_twin
        seen = bytearray(len(origin))
        placed = bytearray(len(self.vertex_names))
        for h0, v in enumerate(origin):
            if seen[h0]:
                continue
            if placed[v]:
                raise TilingError(
                    "inconsistent rotation: vertex %r appears in two "
                    "rotation orbits" % (self.vertex_names[v],))
            placed[v] = 1
            h = h0
            while not seen[h]:
                seen[h] = 1
                h = nxt[twin[h]]

    # -- basic queries ------------------------------------------------

    @cached_property
    def h_next(self):
        """Per half-edge, the one after it around its face.  Built on
        first read, from ``face_start`` and ``face_flipped``, as only the
        isomorphism code, colour refinement, ``_validate`` and
        ``rules.strip_added_edges`` walk faces by it."""
        return self._face_steps(0)

    @cached_property
    def h_prev(self):
        """The inverse of ``h_next``: per half-edge, the one before it
        around its face.  Built on first read, as only the isomorphism
        code walks faces backwards."""
        return self._face_steps(1)

    def _face_steps(self, back):
        """Per half-edge, the next side in its face's run, the last one
        wrapping round to the first; with ``back``, the side before, the
        first wrapping round to the last.  A flipped face's run is walked
        the other way, by rotating its entries two places."""
        start, stops = self.face_start, self._face_stops()
        d = -1 if back else 1
        step = array("i", range(d, len(self.h_face) + d))
        lasts = map(sub, stops, repeat(1))
        for h, x in zip(start, lasts) if back else zip(lasts, start):
            step[h] = x
        for f in compress(count(), self.face_flipped):
            s, e = start[f], stops[f]
            k = s + 2 if back else e - 2
            step[s:e] = step[k:e] + step[s:k]
        return step

    def _face_stops(self):
        """Per face, one past its last half-edge."""
        stops = self.face_start[1:]
        stops.append(len(self.h_face))
        return stops

    @cached_property
    def loaded_vertices(self):
        """The vertices every edge at which is loaded: all but the origins
        of the half-edges of other edges.  Those origins are marked in a
        ``bytearray``: a set of every vertex took about 47 traced bytes a
        flag, the peak of a first ``isomorphic`` call."""
        loaded = self.edge_marks.translate(IS_LOADED)
        other = bytearray(self.num_vertices)
        for v in compress(self.h_origin,
                          map(not_, map(loaded.__getitem__, self.h_edge))):
            other[v] = 1
        return set(compress(count(), map(not_, other)))

    @property
    def num_faces(self):
        return len(self.face_labels)

    @property
    def num_edges(self):
        return len(self.edge_half)

    @property
    def num_vertices(self):
        return len(self.vertex_names)

    def _face_read(self, table, f):
        """Face f's entries of a per-half-edge table, in ``h_next`` order
        from ``face_start[f]``: its contiguous run, walked backwards after
        the first entry if the face was flipped."""
        start = self.face_start
        s = start[f]
        stop = start[f + 1] if f + 1 < len(start) else len(table)
        if self.face_flipped[f]:
            return [table[s], *table[stop - 1:s:-1]]
        return [*table[s:stop]]

    def face_vertices(self, f):
        return self._face_read(self.h_origin, f)

    def face_edges(self, f):
        return self._face_read(self.h_edge, f)

    def edge_endpoints(self, e):
        h = self.edge_half[e]
        return (self.h_origin[h], self.h_origin[self.h_twin[h]])

    def edge_faces(self, e):
        h = self.edge_half[e]
        return (self.h_face[h], self.h_face[self.h_twin[h]])

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces

    def is_connected(self):
        return self.num_components == 1

    @property
    def counts(self):
        """(faces, edges, vertices, components)."""
        return (self.num_faces, self.num_edges, self.num_vertices,
                self.num_components)

    def is_sphere(self):
        return is_sphere_counts(self.counts)

    def components(self):
        """Face index lists of the connected components, by lowest face id."""
        comps = [[] for _ in range(self.num_components)]
        for f, c in enumerate(self.face_component):
            comps[c].append(f)
        return comps

    # -- serialization ------------------------------------------------

    def to_dict(self):
        faces = [{"id": f, "type": label, "vertices": self.face_vertices(f),
                  "edges": self.face_edges(f)}
                 for f, label in enumerate(self.face_labels)]
        edges = [{"id": e, "status": STATUS_OF[m],
                  "endpoints": [*self.edge_endpoints(e)]}
                 for e, m in enumerate(self.edge_marks)]
        for rec, m in zip(edges, self.edge_marks):
            if m & ADDED:
                rec["added"] = True
        vertices = [{"id": v, "loaded": v in self.loaded_vertices}
                    for v in range(self.num_vertices)]
        return {"stage": self.stage, "faces": faces, "edges": edges,
                "vertices": vertices}

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise TilingError("a tiling must be a JSON object, not %s"
                              % type(data).__name__)
        for key in ("faces", "edges"):
            if key not in data:
                raise TilingError("tiling: missing field %r" % key)
            if not (isinstance(data[key], list)
                    and all(isinstance(r, dict) for r in data[key])):
                raise TilingError("%s must be a list of objects" % key)
        stage = data.get("stage", 0)
        if type(stage) is not int or stage < 0:
            raise TilingError("tiling: stage must be a non-negative int, "
                              "not %s" % json.dumps(stage))
        ids = set()
        kinds = (str, int)  # the first face's type fixes the kind for all
        for i, f in enumerate(data["faces"]):
            _require(f, "face", i, ("id", "type", "vertices", "edges"))
            if not isinstance(f["id"], int) or isinstance(f["id"], bool):
                raise TilingError("faces[%d]: id must be an int, not %s"
                                  % (i, json.dumps(f["id"])))
            if f["id"] in ids:
                raise TilingError("face %d: repeated face id" % f["id"])
            ids.add(f["id"])
            # labels are sorted, and true or 1.0 would merge with 1
            if type(f["type"]) not in kinds:
                raise TilingError("face %d: type must be a string or an int, "
                                  "the same kind in every face, not %s"
                                  % (f["id"], json.dumps(f["type"])))
            kinds = (type(f["type"]),)
            for key in ("vertices", "edges"):
                _scalars(f[key], "face %d: %s" % (f["id"], key))
        status = {}
        added = set()
        for i, e in enumerate(data["edges"]):
            _require(e, "edge", i, ("id", "status"))
            _scalars([e["id"]], "edges[%d]: id" % i)
            if e["id"] in status:
                raise TilingError("edge %s: repeated edge record"
                                  % json.dumps(e["id"]))
            status[e["id"]] = e["status"]
            flag = e.get("added", False)
            if not isinstance(flag, bool):
                raise TilingError("edge %s: added must be true or false, "
                                  "not %s" % (json.dumps(e["id"]),
                                              json.dumps(flag)))
            if flag:
                added.add(e["id"])
        # to_dict writes a record for every edge, so a missing one is an
        # error rather than a plain edge.
        for f in data["faces"]:
            for k in f["edges"]:
                if k not in status:
                    raise TilingError("face %d: edge %s has no edge record"
                                      % (f["id"], json.dumps(k)))
        faces = sorted(data["faces"], key=lambda r: r["id"])
        return cls([(f["type"], f["vertices"], f["edges"]) for f in faces],
                   stage=stage, edge_status=status, added_edges=added)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    # -- isomorphism ---------------------------------------------------

    def canonical_form(self):
        if self.num_faces == 0:
            return ("empty",)
        comps = self.components()
        if len(comps) > 1:
            return ("disjoint",) + tuple(sorted(
                self.restrict(comp).canonical_form() for comp in comps))
        for (colours,), (counts,) in _wl_colours([self]):
            pass
        root = _root_colour(counts)
        digit = self.edge_marks.translate(_EDGE_DIGIT)
        keys = [*zip(map(self.face_labels.__getitem__, self.h_face),
                     map(digit.__getitem__, self.h_edge))]
        return min(tuple(_bfs(self, r, m, keys))
                   for r, c in enumerate(colours) if c == root
                   for m in (False, True))

    def restrict(self, face_ids):
        """Sub-tiling spanned by the given faces (must be edge-closed)."""
        names, marks = self.vertex_names, self.edge_marks
        faces = [(self.face_labels[f], [*map(names.__getitem__,
                                              self.face_vertices(f))],
                  self.face_edges(f)) for f in face_ids]
        edges = {e for *_, es in faces for e in es}
        return Tiling(faces, stage=self.stage,
                      edge_status={e: STATUS_OF[marks[e]] for e in edges},
                      added_edges=[e for e in edges if marks[e] & ADDED])


def is_sphere_counts(counts):
    """Whether a closed surface with these (faces, edges, vertices,
    components) is one sphere: non-empty, connected, V - E + F = 2."""
    faces, edges, vertices, components = counts
    return faces > 0 and components == 1 and vertices - edges + faces == 2


def _merge_components(comp, n, crossings):
    """Per face its component, and the count, once the ``n`` components of
    ``comp`` that a pair in ``crossings`` joins are merged.  Components
    stay numbered by their lowest face id."""
    uf = UnionFind(n)
    for a, b in crossings:
        uf.union(a, b)
    roots = [*map(uf.find, range(n))]
    if roots == [*range(n)]:
        return comp, n
    dense = defaultdict(count().__next__)
    renumber = [*map(dense.__getitem__, roots)]
    return array("i", map(renumber.__getitem__, comp)), len(dense)


def _flatten(faces, edge_status=None, added_edges=None):
    """``FaceTables`` of faces given one by one, with the names and keys,
    any hashable values, numbered by first appearance, and the names and
    the keys in that order (see ``_name_table``).  Each key's mark comes
    from ``edge_status`` (plain if it has none) and ``added_edges``.  A
    short face or a misfit edge cycle is reported in face order, then an
    unknown status in key order."""
    labels, sizes, names, keys = [], array("i"), array("i"), array("i")
    vid = defaultdict(count().__next__)
    eid = defaultdict(count().__next__)
    for fi, face in enumerate(faces):
        label, vs, es = face if len(face) == 3 else (*face, None)
        n = len(vs)
        if n < 3:
            raise _short_face(fi)
        if es is None:
            es = map(frozenset, zip(vs, [*vs[1:], vs[0]]))
        elif len(es) != n:
            raise TilingError(
                "face %d: edge cycle length %d differs from vertex cycle "
                "length %d" % (fi, len(es), n))
        labels.append(label)
        sizes.append(n)
        names.extend(map(vid.__getitem__, vs))
        keys.extend(map(eid.__getitem__, es))
    added = set(added_edges or ())
    marks = bytearray(map(mark, map((edge_status or {}).get, eid,
                                    repeat(PLAIN)),
                          map(added.__contains__, eid)))
    return (FaceTables(labels, sizes, names, keys, marks, len(vid)),
            _name_table(vid), _name_table(eid))


def _short_face(f):
    return TilingError("face %d: fewer than 3 boundary vertices" % f)


def _name_table(names):
    """The names in order: an ``array('q')`` when every one is an int that
    fits, else a list."""
    if set(map(type, names)) <= {int}:
        try:
            return array("q", names)
        except OverflowError:
            pass
    return list(names)


def _check_ranges(tables):
    """Raise for the first vertex name outside ``range(num_names)``, else
    the first edge key outside the range of the marks, if any."""
    for ints, n, what in ((tables.names, tables.num_names, "vertex name"),
                          (tables.keys, len(tables.marks), "edge key")):
        for i in ints:
            if not 0 <= i < n:
                raise TilingError("%s %d is outside the declared range(%d)"
                                  % (what, i, n))


def _side_count_error(keys, k, key_names=None):
    """Key k of the key table ``keys`` bounds other than two sides; it is
    named by ``key_names``, if given, else by itself."""
    return TilingError(
        "edge %r bounds %d face sides; closed surfaces need exactly 2"
        % (_key_name(k if key_names is None else key_names[k]),
           keys.count(k)))


def _unpaired(keys, num_keys):
    """The key the pairing pass reports when sides do not pair up: the
    first to reach a third side, else the first with one side."""
    seen = bytearray(num_keys)
    for k in keys:
        if seen[k] == 2:
            return k
        seen[k] += 1
    return next(k for k in keys if seen[k] == 1)


def _key_name(key):
    """An edge key as messages show it: a vertex-named key by its ends
    sorted by repr, so the text does not depend on the hash seed."""
    return sorted(key, key=repr) if isinstance(key, frozenset) else key


def _require(record, kind, i, fields):
    """Raise unless a faces/edges record has every field in ``fields``."""
    for key in fields:
        if key not in record:
            where = ("%s %s" % (kind, json.dumps(record["id"]))
                     if "id" in record else "%ss[%d]" % (kind, i))
            raise TilingError("%s: missing field %r" % (where, key))


def _scalars(values, where):
    """Raise unless ``values`` is a list of JSON scalars (names or keys).

    Booleans and floats are refused too: Python equates ``true`` and
    ``1.0`` with ``1``, so one would silently stand for the other.
    """
    if not isinstance(values, list):
        raise TilingError("%s must be a list" % where)
    for v in values:
        if isinstance(v, (list, dict, bool, float)):
            raise TilingError("%s entry %s is not a name or key"
                              % (where, json.dumps(v)))


def _relabel(signatures):
    """Dense colours for lists of signatures, ordered by sorted signature:
    one ``array('i')`` per list, and the number of colours.  Each list in
    ``signatures`` is dropped from it once its colours are made."""
    palette = sorted(set().union(*signatures))
    index = dict(zip(palette, count()))
    colours = []
    for i in range(len(signatures)):
        colours.append(array("i", [*map(index.__getitem__, signatures[i])]))
        signatures[i] = None
    return colours, len(palette)


def _wl_colours(tilings):
    """Weisfeiler-Leman colour refinement of flags on one joint palette.

    Each round adds to a flag's colour the colours of its twin and,
    unordered, of its next and prev flags, starting from the packed ints
    of ``_first_signatures``.  Nothing depends on orientation or on the
    order of ids, so every isomorphism, mirror images included, preserves
    the colours of every round.  Colours are renumbered each round into
    dense ints by sorted signature, which keeps them independent of string
    hashing and equal across tilings and processes.

    Yields a list of colour arrays (``array('i')``) and a list of class
    histograms (Counters), one of each per tiling: first for the starting
    colours, then after each round that refines the partition, until it
    is stable.
    """
    colours, classes = _relabel(_first_signatures(tilings))
    while True:
        yield colours, [Counter(c) for c in colours]
        k, kk = classes, classes * classes
        refined, classes = _relabel([
            [(x * k + y) * kk + (p * k + q if p < q else q * k + p)
             for x, y, p, q in zip(c, map(c.__getitem__, t.h_twin),
                                   map(c.__getitem__, t.h_next),
                                   map(c.__getitem__, t.h_prev))]
            # as lists: each flag's colour boxed once, not once per read
            for t, c in zip(tilings, map(array.tolist, colours))])
        if classes == k:
            return
        colours = refined


def _first_signatures(tilings):
    """Per tiling, per flag, its first signature packed into one int, in
    an ``array('q')``.

    The signature is, in order of significance: the flag's face label and
    size, its edge status and added mark, and the ``2*degree + loaded``
    codes of its two ends taken as (min, max).  Each part is a digit of a
    mixed-radix int whose radix is taken over all the tilings at once: a
    face digit ranks (label, size) pairs, an end digit ranks end codes,
    and the edge digit (``_EDGE_DIGIT``) is the status's rank over
    ``sorted(STATUSES)`` times 2 plus the added mark.  So the ints sort as
    the tuples of parts would.  Ranks rather than raw sizes and degrees keep
    every int below 16 * flags**2 (the flags of all the tilings), so below
    2**63 up to about 7e8 flags.  Face, edge and vertex parts are built once
    per face, edge and vertex and read per flag through ``map``."""
    faces, _ = _relabel([[*zip(t.face_labels, _face_sizes(t))]
                         for t in tilings])
    ends, nv = _relabel([_end_codes(t) for t in tilings])
    sigs = []
    for t, face, end in zip(tilings, faces, ends):
        origin, half = t.h_origin, t.edge_half
        edge_part = [
            (c * nv + (x if x < y else y)) * nv + (y if x < y else x)
            for c, x, y in zip(
                t.edge_marks.translate(_EDGE_DIGIT),
                map(end.__getitem__, map(origin.__getitem__, half)),
                map(end.__getitem__, map(origin.__getitem__,
                                         map(t.h_twin.__getitem__, half))))]
        face_part = [*map(mul, face, repeat(6 * nv * nv))]
        sigs.append(array("q", map(add, map(face_part.__getitem__, t.h_face),
                                   map(edge_part.__getitem__, t.h_edge))))
        del edge_part, face_part    # freed before the next tiling's
    return sigs


def _face_sizes(t):
    """Per face its number of sides."""
    return map(sub, t._face_stops(), t.face_start)


def _end_codes(t):
    """Per vertex ``2*degree + loaded``."""
    code = [0] * t.num_vertices
    for v in t.h_origin:
        code[v] += 2
    for v in t.loaded_vertices:
        code[v] += 1
    return code


def _root_colour(counts):
    """The smallest class of a histogram, ties broken by lowest colour."""
    return min(counts, key=lambda c: (counts[c], c))


def _bfs(t, root, mirror, keys):
    """Flag codes of t in breadth-first order from ``root``, for
    ``Tiling.canonical_form``.

    The moves are ``next``, or ``prev`` for the mirror image, and ``twin``.
    Each flag, in the order it is reached, yields the visit positions of
    its two moves and its key.  Two connected tilings with as many flags
    give equal codes exactly when matching flags by position is a
    key-preserving isomorphism between the two roots.
    """
    step, twin = (t.h_prev if mirror else t.h_next), t.h_twin
    order = [-1] * len(step)
    order[root] = 0
    queue = [root]
    for h in queue:         # grows while it is read
        x, y = step[h], twin[h]
        if order[x] < 0:
            order[x] = len(queue)
            queue.append(x)
        if order[y] < 0:
            order[y] = len(queue)
            queue.append(y)
        yield order[x], order[y], keys[h]


def isomorphic(a: Tiling, b: Tiling, seed=None, vertex_map=None) -> bool:
    """Label- and status-preserving isomorphism (mirror images allowed).

    The map must preserve face labels, edge statuses, added edges and
    loaded vertices.  A disconnected a is split into its components, which
    ``_pair_components`` matches with those of b, so every walk of a is of
    a connected tiling.  For a connected a, a ``seed``, a vertex of a and
    a vertex of b, is tried first (``_seeded_match``); if no walk from it
    matches, or without one, ``_colour_match`` searches by colour.  Both
    fill one flag map, so given a list ``vertex_map``, a connected match
    sets it to per vertex of a its image in b, read off that map;
    otherwise the list is left as it is.
    """
    if a.counts != b.counts:
        return False
    if not a.h_face:
        return True
    if a.num_components > 1:
        return _pair_components(a, b)
    image = array("i", [-1]) * len(a.h_face)
    match = ((seed and _seeded_match(a, b, *seed, image))
             or _colour_match(a, b, image))
    if match is None:
        return False
    if vertex_map is not None:
        vertex_map[:] = _vertex_images(a, b, match[1], image)
    return True


def _colour_match(a, b, image):
    """A flag of b and an orientation, ``(start, mirror)``, to which a
    root flag of connected a walks in full, found by colour; else None.

    After each round of joint refinement, one root flag of a, from its
    smallest colour class, is walked onto b from the flags of that colour,
    in both orientations, until one walk matches in full or the failed
    walks spend the budget of a round, a's flag count; only then is the
    partition refined once more.  At stability the remaining candidates
    are walked with no budget.  Every isomorphism keeps the colours of
    every round, so the round at which a walk matches changes no verdict.
    """
    for (ca, cb), (ha, hb) in _wl_colours([a, b]):
        if ha != hb:
            return None
        colour = _root_colour(ha)
        root = ca.index(colour)
        candidates = ((s, m) for s, c in enumerate(cb) if c == colour
                      for m in (False, True))
        match = _walks(a, b, root, candidates, image, len(image))
        if match is not False:
            return match
    return _walks(a, b, root, candidates, image)


def _seeded_match(a, b, u, v, image):
    """A flag of b and an orientation, ``(start, mirror)``, to which a's
    first flag at vertex u walks in full, so that u goes to vertex v; else
    None, or False once the budget of a round of ``_colour_match`` is
    spent.  The candidates are the flags at v, around its rotation, each
    in both orientations (for a mirror map, the flag whose far end is v).
    """
    def rotation(start):
        first = start
        while True:
            yield start, False
            yield b.h_twin[start], True
            start = b.h_next[b.h_twin[start]]
            if start == first:
                return
    return _walks(a, b, a.h_origin.index(u), rotation(b.h_origin.index(v)),
                  image, len(image))


def _walks(a, b, root, candidates, image, budget=float("inf")):
    """The first candidate ``(start, mirror)`` onto which ``_extend``
    walks a from root in full, leaving the map in ``image``; None once the
    candidates run out, or False once the failed walks have spent
    ``budget``, each one more than the flags it matched."""
    flags = len(image)
    taken = bytearray(len(b.h_face))
    for start, mirror in candidates:
        matched = _extend(a, b, root, start, mirror, image, taken)
        if matched == flags:
            return start, mirror
        budget -= matched + 1
        if budget <= 0:
            return False
    return None


def _extend(a, b, root, start, mirror, image, taken):
    """How many flags of connected a the map sending root to start takes
    onto b, breadth first by ``next`` and ``twin`` (``prev`` and ``twin``
    in b for a mirror map), before it first fails to keep them, a face
    label or an edge mark, or reaches a flag of b twice: all of them
    exactly when it is an isomorphism, b having as many flags and
    components.  Keeping marks, it keeps loaded vertices, so no colours
    are needed.  A flag reached by ``next`` shares its face with the flag
    it came from, and one reached by ``twin`` its edge, so each is checked
    for its edge mark or its face label alone.  ``image``, -1 per flag of
    a on entry, holds the map after a full match; ``taken``, 0 per flag of
    b on entry, marks its images, so a failed walk stops where b's walk
    closes up before a's does.  A failed walk resets both at the flags it
    reached, and so costs only those.  The map and the queue are
    ``array('i')``: as lists of boxed ints they took about 72 bytes a
    flag, and set ``verify``'s peak at stage 6.
    """
    label_a, label_b = a.face_labels, b.face_labels
    face_a, face_b, edge_a, edge_b = a.h_face, b.h_face, a.h_edge, b.h_edge
    mark_a, mark_b = a.edge_marks, b.edge_marks
    step_a, twin_a, twin_b = a.h_next, a.h_twin, b.h_twin
    step_b = b.h_prev if mirror else b.h_next
    if (label_a[face_a[root]] != label_b[face_b[start]]
            or mark_a[edge_a[root]] != mark_b[edge_b[start]]):
        return 0
    image[root] = start
    taken[start] = 1
    queue = array("i", [root])
    for h in queue:         # grows while it is read
        g = image[h]
        x, y = step_a[h], step_b[g]
        z = image[x]
        if z < 0:
            if taken[y] or mark_a[edge_a[x]] != mark_b[edge_b[y]]:
                break
            image[x] = y
            taken[y] = 1
            queue.append(x)
        elif z != y:
            break
        x, y = twin_a[h], twin_b[g]
        z = image[x]
        if z < 0:
            if taken[y] or label_a[face_a[x]] != label_b[face_b[y]]:
                break
            image[x] = y
            taken[y] = 1
            queue.append(x)
        elif z != y:
            break
    else:
        return len(queue)
    matched = queue.index(h)
    for h in queue:
        taken[image[h]] = 0
        image[h] = -1
    return matched


def _vertex_images(a, b, mirror, image):
    """Per vertex of a, its image in b under the flag map ``image``: where
    the flags at it are sent, or, for a mirror map, their far ends."""
    if mirror:
        image = map(b.h_twin.__getitem__, image)
    out = [0] * a.num_vertices
    origin = b.h_origin
    for v, g in zip(a.h_origin, image):
        out[v] = origin[g]
    return out


def _pair_components(a, b):
    """Whether the components of a match those of b in isomorphic pairs,
    given equal face, edge and vertex counts.

    Each component of a takes the first remaining piece of b isomorphic to
    it.  Isomorphism is an equivalence relation, so the pieces one
    component accepts form one class, any of them will do, and no pairing
    ever needs undoing.  The counts match, so no piece is left over.  For
    C components this makes at most C(C+1)/2 connected comparisons.
    """
    pieces = [b.restrict(c) for c in b.components()]
    for comp in a.components():
        part = a.restrict(comp)
        for i, piece in enumerate(pieces):
            if isomorphic(part, piece):
                del pieces[i]
                break
        else:
            return False
    return True
