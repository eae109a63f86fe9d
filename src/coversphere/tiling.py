"""Half-edge combinatorial maps for closed surface tilings.

A Tiling is an immutable rotation-system representation of a tiling of a
closed surface.  Faces carry a type label, edges carry a status in
{"plain", "loaded", "fragile"} plus an ``added`` marker for edges that were
drawn onto a tiling rather than inherited from a cell structure, and
vertices may be flagged as loaded.  Everything is stored with dense integer
ids so that construction is deterministic.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

PLAIN = "plain"
LOADED = "loaded"
FRAGILE = "fragile"
STATUSES = (PLAIN, LOADED, FRAGILE)


class TilingError(ValueError):
    pass


@dataclass(frozen=True)
class FaceSpec:
    """Input description of one face: a label and its boundary walk.

    ``edges`` may be None, in which case edge identities are inferred by
    matching endpoint pairs; it must be given explicitly whenever two
    distinct edges share both endpoints (e.g. the square model of the
    torus).  Edge keys can be any hashable values.
    """

    label: str
    vertices: tuple
    edges: tuple | None = None


def face_spec(label, vertices, edges=None):
    vertices = tuple(vertices)
    if edges is not None:
        edges = tuple(edges)
        if len(edges) != len(vertices):
            raise TilingError("edge cycle length differs from vertex cycle")
    return FaceSpec(label, vertices, edges)


class Tiling:
    """An immutable tiling of a closed surface (possibly disconnected).

    The half-edge arrays use the usual conventions: ``next`` walks around a
    face, ``twin`` jumps across an edge, and ``next(twin(h))`` walks the
    rotation around the origin vertex of ``h``.
    """

    def __init__(self, faces: Sequence[FaceSpec], *, stage: int = 0,
                 edge_status: Mapping | None = None,
                 added_edges: Iterable | None = None,
                 flag_loaded_vertices: bool = True):
        self.stage = stage
        specs = [f if isinstance(f, FaceSpec) else face_spec(*f) for f in faces]
        for f in specs:
            if len(f.vertices) < 3:
                raise TilingError(
                    "face with fewer than 3 boundary vertices: %r" % (f,))
        self._build(specs, dict(edge_status or {}), set(added_edges or ()))
        if flag_loaded_vertices:
            self._flag_loaded_vertices()
        self._validate()

    # -- construction -------------------------------------------------

    def _build(self, specs, status_by_key, added_keys):
        # Vertex ids: dense, in order of first appearance.
        vid = {}
        for f in specs:
            for v in f.vertices:
                if v not in vid:
                    vid[v] = len(vid)
        self.vertex_names = list(vid)

        # Half-edges, one per face side.
        sides = []           # (face_index, position, vkey_from, vkey_to, edge_key)
        inferred = {}
        for fi, f in enumerate(specs):
            n = len(f.vertices)
            for p in range(n):
                a, b = f.vertices[p], f.vertices[(p + 1) % n]
                if f.edges is not None:
                    key = f.edges[p]
                else:
                    key = ("~", a, b) if repr(a) <= repr(b) else ("~", b, a)
                sides.append((fi, p, a, b, key))
                inferred.setdefault(key, []).append(len(sides) - 1)

        for key, hs in inferred.items():
            if len(hs) != 2:
                raise TilingError(
                    "edge %r bounds %d face sides; closed surfaces need "
                    "exactly 2" % (key, len(hs)))

        H = len(sides)
        self.h_face = [s[0] for s in sides]
        self.h_next = [0] * H
        self.h_twin = [0] * H
        self.h_edge = [0] * H
        self.h_origin = [0] * H

        # Orient face cycles consistently (flip whole faces as needed).
        flip = self._orient(specs, sides, inferred)

        face_halfedges = {}
        for hid, (fi, p, a, b, key) in enumerate(sides):
            face_halfedges.setdefault(fi, []).append(hid)
        self.face_start = []
        for fi, f in enumerate(specs):
            hs = face_halfedges[fi]
            n = len(hs)
            order = hs if not flip[fi] else [hs[0]] + hs[:0:-1]
            # After flipping, side p runs from vertex p+1 back to vertex p.
            for i, hid in enumerate(order):
                self.h_next[hid] = order[(i + 1) % n]
            for hid in hs:
                fi2, p, a, b, key = sides[hid]
                self.h_origin[hid] = vid[b] if flip[fi] else vid[a]
            self.face_start.append(order[0])

        edge_ids = {}
        self.edges = []       # list of (halfedge, halfedge)
        self.edge_keys = []
        for key, hs in inferred.items():
            eid = len(self.edges)
            edge_ids[key] = eid
            self.edges.append(tuple(hs))
            self.edge_keys.append(key)
            for h in hs:
                self.h_edge[h] = eid
            self.h_twin[hs[0]] = hs[1]
            self.h_twin[hs[1]] = hs[0]

        self.face_labels = [f.label for f in specs]
        self.edge_status = []
        for eid in range(len(self.edges)):
            st = status_by_key.get(self.edge_keys[eid], PLAIN)
            if st not in STATUSES:
                raise TilingError("unknown edge status %r" % (st,))
            self.edge_status.append(st)
        self.edge_added = [self.edge_keys[e] in added_keys
                           for e in range(len(self.edges))]
        self.loaded_vertices = set()

        self.h_prev = [0] * H
        for h in range(H):
            self.h_prev[self.h_next[h]] = h

    def _orient(self, specs, sides, inferred):
        """Choose a flip flag per face making twin half-edges antiparallel.

        Works component by component (BFS from the lowest face id).  Loop
        edges give no orientation information and are skipped.
        """
        nfaces = len(specs)
        flip = [None] * nfaces
        adj = {}
        for key, (h1, h2) in inferred.items():
            f1, _, a1, b1, _ = sides[h1]
            f2, _, a2, b2, _ = sides[h2]
            if a1 == b1 or a2 == b2:
                continue  # loop edge: no constraint derivable
            # Same direction means one of the two faces must be flipped.
            same = (a1, b1) == (a2, b2)
            adj.setdefault(f1, []).append((f2, same))
            adj.setdefault(f2, []).append((f1, same))
        for root in range(nfaces):
            if flip[root] is not None:
                continue
            flip[root] = False
            stack = [root]
            while stack:
                f = stack.pop()
                for g, same in adj.get(f, ()):
                    want = flip[f] if not same else (not flip[f])
                    if flip[g] is None:
                        flip[g] = want
                        stack.append(g)
                    elif flip[g] != want:
                        raise TilingError(
                            "inconsistent rotation system: faces %d/%d cannot "
                            "be oriented compatibly" % (f, g))
        return flip

    def _flag_loaded_vertices(self):
        for v in range(len(self.vertex_names)):
            hs = self.vertex_halfedges(v)
            if hs and all(self.edge_status[self.h_edge[h]] == LOADED
                          for h in hs):
                self.loaded_vertices.add(v)

    def _validate(self):
        # Rotation orbits must be in bijection with declared vertices.
        H = len(self.h_face)
        seen = [False] * H
        self._vertex_orbit_count = 0
        orbit_of_vertex = {}
        for h0 in range(H):
            if seen[h0]:
                continue
            self._vertex_orbit_count += 1
            v = self.h_origin[h0]
            if v in orbit_of_vertex:
                raise TilingError(
                    "inconsistent rotation: vertex %r appears in two "
                    "rotation orbits" % (self.vertex_names[v],))
            orbit_of_vertex[v] = True
            h = h0
            while not seen[h]:
                seen[h] = True
                if self.h_origin[h] != v:
                    raise TilingError("corrupt rotation orbit")
                h = self.h_next[self.h_twin[h]]
        for v, name in enumerate(self.vertex_names):
            if v not in orbit_of_vertex:
                raise TilingError("dangling vertex %r" % (name,))
        for v in self.loaded_vertices:
            for h in self.vertex_halfedges(v):
                if self.edge_status[self.h_edge[h]] != LOADED:
                    raise TilingError(
                        "vertex flagged loaded but has a non-loaded edge")

    # -- basic queries ------------------------------------------------

    @property
    def num_faces(self):
        return len(self.face_labels)

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_vertices(self):
        return len(self.vertex_names)

    def face_halfedges(self, f):
        out = []
        h = self.face_start[f]
        while True:
            out.append(h)
            h = self.h_next[h]
            if h == self.face_start[f]:
                return out

    def face_vertices(self, f):
        return [self.h_origin[h] for h in self.face_halfedges(f)]

    def face_edges(self, f):
        return [self.h_edge[h] for h in self.face_halfedges(f)]

    def vertex_halfedges(self, v):
        if not hasattr(self, "_vh"):
            vh = [[] for _ in range(len(self.vertex_names))]
            for h in range(len(self.h_face)):
                vh[self.h_origin[h]].append(h)
            self._vh = vh
        return self._vh[v]

    def vertex_degree(self, v):
        return len(self.vertex_halfedges(v))

    def edge_endpoints(self, e):
        h = self.edges[e][0]
        return (self.h_origin[h], self.h_origin[self.h_twin[h]])

    def edge_faces(self, e):
        return tuple(self.h_face[h] for h in self.edges[e])

    def edges_with_status(self, status):
        return [e for e in range(self.num_edges)
                if self.edge_status[e] == status]

    def euler_characteristic(self):
        return self.num_vertices - self.num_edges + self.num_faces

    def is_connected(self):
        if self.num_faces == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            f = stack.pop()
            for h in self.face_halfedges(f):
                g = self.h_face[self.h_twin[h]]
                if g not in seen:
                    seen.add(g)
                    stack.append(g)
        return len(seen) == self.num_faces

    def is_sphere(self):
        return (self.num_faces > 0 and self.is_connected()
                and self.euler_characteristic() == 2)

    def components(self):
        """Face index sets of the connected components, by lowest face id."""
        seen = set()
        comps = []
        for root in range(self.num_faces):
            if root in seen:
                continue
            comp = {root}
            stack = [root]
            while stack:
                f = stack.pop()
                for h in self.face_halfedges(f):
                    g = self.h_face[self.h_twin[h]]
                    if g not in comp:
                        comp.add(g)
                        stack.append(g)
            seen |= comp
            comps.append(sorted(comp))
        return comps

    # -- serialization ------------------------------------------------

    def to_dict(self):
        faces = []
        for f in range(self.num_faces):
            faces.append({
                "id": f,
                "type": self.face_labels[f],
                "vertices": [int(v) for v in self.face_vertices(f)],
                "edges": [int(e) for e in self.face_edges(f)],
            })
        edges = []
        for e in range(self.num_edges):
            u, v = self.edge_endpoints(e)
            rec = {"id": e, "status": self.edge_status[e],
                   "endpoints": [int(u), int(v)]}
            if self.edge_added[e]:
                rec["added"] = True
            edges.append(rec)
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
            if not (isinstance(data[key], list)
                    and all(isinstance(r, dict) for r in data[key])):
                raise TilingError("%s must be a list of objects" % key)
        specs = []
        for f in sorted(data["faces"], key=lambda r: r["id"]):
            for key in ("vertices", "edges"):
                if not isinstance(f[key], list):
                    raise TilingError("face %r: %s must be a list"
                                      % (f["id"], key))
            specs.append(face_spec(f["type"], f["vertices"], f["edges"]))
        status = {}
        added = set()
        for e in data["edges"]:
            status[e["id"]] = e["status"]
            if e.get("added"):
                added.add(e["id"])
        return cls(specs, stage=data.get("stage", 0), edge_status=status,
                   added_edges=added)

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    # -- isomorphism ---------------------------------------------------

    def _canonical_from(self, root, mirror):
        """BFS relabeling of the flag graph starting at ``root``.

        Traversal uses (next, twin) moves, or (prev, twin) for the mirror
        image, where a half-edge's far end plays the part of its origin.
        Returns an encoding tuple that two tilings share exactly when a
        label- and status-preserving isomorphism maps one root flag to the
        other.
        """
        step = self.h_prev if mirror else self.h_next
        vertex = _flag_vertex(self, mirror)
        order = {root: 0}
        queue = [root]
        out = []
        i = 0
        while i < len(queue):
            h = queue[i]
            i += 1
            for nh in (step[h], self.h_twin[h]):
                if nh not in order:
                    order[nh] = len(order)
                    queue.append(nh)
            e = self.h_edge[h]
            out.append((order[step[h]], order[self.h_twin[h]],
                        self.face_labels[self.h_face[h]],
                        self.edge_status[e], self.edge_added[e],
                        vertex[h] in self.loaded_vertices))
        if len(order) != len(self.h_face):
            out.append(("disconnected", len(order)))
        return tuple(out)

    def canonical_form(self):
        if self.num_faces == 0:
            return ("empty",)
        if not self.is_connected():
            keys = sorted(
                self.restrict(comp).canonical_form() for comp in
                self.components())
            return ("disjoint",) + tuple(keys)
        for colours, in _wl_colours([self]):
            pass
        root = _root_colour(colours)
        roots = [h for h, c in enumerate(colours) if c == root]
        return min(self._canonical_from(r, m)
                   for r in roots for m in (False, True))

    def restrict(self, face_ids):
        """Sub-tiling spanned by the given faces (must be edge-closed)."""
        specs = []
        status = {}
        added = set()
        for f in face_ids:
            vs = [self.vertex_names[v] for v in self.face_vertices(f)]
            es = self.face_edges(f)
            specs.append(face_spec(self.face_labels[f], vs, tuple(es)))
            for e in es:
                status[e] = self.edge_status[e]
                if self.edge_added[e]:
                    added.add(e)
        return Tiling(specs, stage=self.stage, edge_status=status,
                      added_edges=added)


def _flag_vertex(t, mirror):
    """Per flag, the vertex a label-preserving map must respect.

    A mirror map reverses every half-edge, so there a flag's far end
    stands where its origin stands in the unmirrored map.
    """
    return [t.h_origin[h] for h in t.h_twin] if mirror else t.h_origin


def _relabel(signatures):
    """Dense colours for lists of signatures, ordered by sorted signature."""
    palette = sorted(set().union(*signatures))
    index = {s: i for i, s in enumerate(palette)}
    return [[index[s] for s in sig] for sig in signatures], len(palette)


def _wl_colours(tilings):
    """Weisfeiler-Leman colour refinement of flags on one joint palette.

    A flag starts from its face label and size, its edge status and added
    mark, and the (degree, loaded) pairs of its two ends taken unordered.
    Each round adds the colours of its twin and, unordered, of its next and
    prev flags.  Nothing depends on orientation or on the order of ids, so
    every isomorphism, mirror images included, preserves colours.  Colours
    are renumbered each round into dense ints by sorted signature, which
    keeps them independent of string hashing and equal across tilings and
    processes.

    Yields a list of colour lists, one per tiling, after each round that
    refines the partition; the last yield is stable.
    """
    signatures = []
    for t in tilings:
        size = [0] * t.num_faces
        for f in t.h_face:
            size[f] += 1
        degree = [0] * t.num_vertices
        for v in t.h_origin:
            degree[v] += 1
        ends = [(degree[v], v in t.loaded_vertices)
                for v in range(t.num_vertices)]
        sig = []
        for h, f in enumerate(t.h_face):
            e = t.h_edge[h]
            x, y = ends[t.h_origin[h]], ends[t.h_origin[t.h_twin[h]]]
            sig.append((t.face_labels[f], size[f], t.edge_status[e],
                        t.edge_added[e]) + ((x, y) if x <= y else (y, x)))
        signatures.append(sig)
    colours, classes = _relabel(signatures)
    while True:
        yield colours
        k, kk = classes, classes * classes
        signatures = [
            [(x * k + y) * kk + (p * k + q if p < q else q * k + p)
             for x, y, p, q in zip(c, [c[h] for h in t.h_twin],
                                   [c[h] for h in t.h_next],
                                   [c[h] for h in t.h_prev])]
            for t, c in zip(tilings, colours)]
        refined, classes = _relabel(signatures)
        if classes == k:
            return
        colours = refined


def _root_colour(colours):
    """The colour of the smallest class, ties broken by lowest colour."""
    counts = Counter(colours)
    return min(counts, key=lambda c: (counts[c], c))


def _walk(a, b, keys_a, keys_b, r, s, mirror):
    """Grow the flag map ``r -> s`` breadth-first from a into b.

    ``next`` in a goes to ``next`` in b, or to ``prev`` for a mirror image,
    and ``twin`` to ``twin``.  Every mapped pair must agree on its key.
    Returns False at the first clash and True once every flag is mapped
    bijectively.
    """
    a_next, a_twin = a.h_next, a.h_twin
    b_step, b_twin = (b.h_prev if mirror else b.h_next), b.h_twin
    fwd = [-1] * len(a_next)
    inv = [-1] * len(b_step)
    fwd[r], inv[s] = s, r
    queue = [r]
    i = 0
    while i < len(queue):
        h = queue[i]
        i += 1
        g = fwd[h]
        if keys_a[h] != keys_b[g]:
            return False
        for x, y in ((a_next[h], b_step[g]), (a_twin[h], b_twin[g])):
            m = fwd[x]
            if m < 0:
                if inv[y] >= 0:
                    return False
                fwd[x], inv[y] = y, x
                queue.append(x)
            elif m != y:
                return False
    return len(queue) == len(fwd)


def isomorphic(a: Tiling, b: Tiling) -> bool:
    """Label- and status-preserving isomorphism (mirror images allowed).

    The map must preserve face labels, edge statuses, added edges and
    loaded vertices.  Connected tilings are refined jointly; then one root
    flag of a, from its smallest colour class, is walked against every
    flag of b with the same colour, in both orientations.
    """
    if (a.num_faces, a.num_edges, a.num_vertices) != \
            (b.num_faces, b.num_edges, b.num_vertices):
        return False
    if sorted(a.face_labels) != sorted(b.face_labels):
        return False
    if sorted(a.edge_status) != sorted(b.edge_status):
        return False
    if not (a.is_connected() and b.is_connected()):
        return a.canonical_form() == b.canonical_form()
    for ca, cb in _wl_colours([a, b]):
        if Counter(ca) != Counter(cb):
            return False
    # A key packs a flag's colour, which fixes its face label, edge status
    # and added mark, with whether its vertex is loaded.
    keys_a = [2 * c + (v in a.loaded_vertices)
              for c, v in zip(ca, _flag_vertex(a, False))]
    keys_b = {m: [2 * c + (v in b.loaded_vertices)
                  for c, v in zip(cb, _flag_vertex(b, m))]
              for m in (False, True)}
    root = _root_colour(ca)
    r = ca.index(root)
    return any(_walk(a, b, keys_a, keys_b[m], r, s, m)
               for s, c in enumerate(cb) if c == root
               for m in (False, True))


# -- refinement witnesses ----------------------------------------------


@dataclass
class RefinementWitness:
    """Maps from a coarse tiling into a finer one.

    vertex_map: coarse vertex id -> fine vertex id
    edge_map:   coarse edge id -> ordered chain of fine edge ids
    face_map:   coarse face id -> set of fine face ids
    """

    vertex_map: dict = field(default_factory=dict)
    edge_map: dict = field(default_factory=dict)
    face_map: dict = field(default_factory=dict)


def refinement_check(coarse: Tiling, fine: Tiling,
                     witness: RefinementWitness) -> bool:
    """True iff the witness embeds coarse into fine cell-by-cell.

    The coarse 1-skeleton must map to edge-disjoint simple paths in the
    fine 1-skeleton, and the fine faces must partition into disk regions,
    one per coarse face, each bounded exactly by the images of that coarse
    face's boundary edges.  Raises TilingError for witnesses referencing
    unknown ids; an incomplete or non-embedding witness just yields False.
    """
    for v, w in witness.vertex_map.items():
        if not (0 <= v < coarse.num_vertices) or not (0 <= w < fine.num_vertices):
            raise TilingError("witness references unknown vertex id")
    for e, chain in witness.edge_map.items():
        if not (0 <= e < coarse.num_edges):
            raise TilingError("witness references unknown edge id")
        for fe in chain:
            if not (0 <= fe < fine.num_edges):
                raise TilingError("witness references unknown edge id")
    for f, fs in witness.face_map.items():
        if not (0 <= f < coarse.num_faces):
            raise TilingError("witness references unknown face id")
        for ff in fs:
            if not (0 <= ff < fine.num_faces):
                raise TilingError("witness references unknown face id")

    # Totality and injectivity of the vertex map.
    if set(witness.vertex_map) != set(range(coarse.num_vertices)):
        return False
    if len(set(witness.vertex_map.values())) != coarse.num_vertices:
        return False
    if set(witness.edge_map) != set(range(coarse.num_edges)):
        return False
    if set(witness.face_map) != set(range(coarse.num_faces)):
        return False

    # Each coarse edge becomes a simple path between the mapped endpoints;
    # the paths are pairwise edge-disjoint.  Chains may be listed in either
    # direction.
    def walk(chain, start):
        at = start
        verts = [at]
        for fe in chain:
            a, b = fine.edge_endpoints(fe)
            if a == at:
                at = b
            elif b == at:
                at = a
            else:
                return None
            verts.append(at)
        return verts

    used = set()
    for e in range(coarse.num_edges):
        chain = witness.edge_map[e]
        if not chain:
            return False
        if len(set(chain)) != len(chain) or used & set(chain):
            return False
        used |= set(chain)
        u, v = coarse.edge_endpoints(e)
        verts = (walk(chain, witness.vertex_map[u])
                 or walk(chain[::-1], witness.vertex_map[u]))
        if verts is None or verts[-1] != witness.vertex_map[v]:
            return False
        if len(set(verts)) != len(verts) and not (
                u == v and verts[0] == verts[-1]
                and len(set(verts[:-1])) == len(verts) - 1):
            return False

    # Fine faces partition into one region per coarse face.
    owner = {}
    for f, fs in witness.face_map.items():
        if not fs:
            return False
        for ff in fs:
            if ff in owner:
                return False
            owner[ff] = f
    if len(owner) != fine.num_faces:
        return False

    # Region boundaries must consist exactly of that face's edge chains.
    for f in range(coarse.num_faces):
        expected = set()
        for e in coarse.face_edges(f):
            expected |= set(witness.edge_map[e])
        boundary = set()
        for ff in witness.face_map[f]:
            for h in fine.face_halfedges(ff):
                g = fine.h_face[fine.h_twin[h]]
                if owner[g] != f:
                    boundary.add(fine.h_edge[h])
        if boundary != expected:
            return False
    return True
