"""Universal-cover balls built from one polyhedron and a face pairing.

B(1) is a single copy of the polyhedron.  Each expansion attaches a new
cell to every still-open boundary face and then folds: whenever the cells
around a cover edge reach that edge's cycle length, the two open faces
flanking it are glued to each other.  ``boundary_sphere`` returns the
boundary of the resulting cell complex as a Tiling whose edge statuses
record how close each boundary edge is to being surrounded (loaded = one
cell short, fragile = two short); ``boundary_counts`` counts its faces,
edges, vertices and components off the ball, and builds that Tiling only
when the counts cannot certify a closed surface.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import compress, repeat
from operator import lt

from .gluing import GluingSpec
from .tiling import (FRAGILE, LOADED, FaceTables, Tiling, mark,
                     union_of_spheres)
from .unionfind import UnionFind

_LOADED, _FRAGILE = mark(LOADED), mark(FRAGILE)


class CoverError(ValueError):
    pass


class CoverState:
    """A ball in the universal cover, keyed by dense ints.

    Polyhedron vertices, edges and faces are numbered as in the spec's
    tables, which ``gluing.validate`` fills in.  Cell c's copy of
    polyhedron vertex v is the key ``c*NV + v`` of ``verts``, and its copy
    of polyhedron edge e the key ``c*NE + e`` of ``edges``.  Face slot
    ``c*F + f`` is cell c's face f; ``slot_partner``, an ``array('i')``
    like the union-finds' tables, holds the slot it is glued to, or -1
    while it is open.  With a ``cap``, attaching a cell past ``cap`` cells
    raises CoverError, so no ball ever holds more.
    """

    def __init__(self, spec: GluingSpec, cap: int | None = None):
        self.spec = spec
        self.cap = cap
        self.F = len(spec.faces)
        self.NV, self.NE = len(spec.vertices), len(spec.cycle)
        self.num_cells = 0
        self.slot_partner = array("i")
        self._open_cell = array("i", [-1]) * self.F    # a new cell's slots
        self.verts = UnionFind(0)
        self.edges = UnionFind(0)
        self._new_cell()
        self.stage = 1

    def _new_cell(self):
        """Add one unglued cell and return its id."""
        c = self.num_cells
        if self.cap is not None and c >= self.cap:
            raise CoverError("cell cap %d exceeded" % self.cap)
        self.num_cells += 1
        self.verts.add(self.NV)
        self.edges.add(self.NE)
        self.slot_partner += self._open_cell
        return c

    def open_slots(self):
        """The open slots in slot order, read lazily: a slot glued before
        it is reached is passed over, and one added meanwhile not reached."""
        partner = self.slot_partner
        return compress(range(len(partner)), map(lt, partner, repeat(0)))

    # -- gluing ---------------------------------------------------------

    def _glue(self, s1, s2, work):
        """Identify slot s1's face with slot s2's face via the pairing,
        and queue each edge class the gluing brings to its cycle length."""
        spec = self.spec
        c1, f1 = divmod(s1, self.F)
        c2, f2 = divmod(s2, self.F)
        if spec.target[f1] != f2:
            names = list(spec.faces)
            raise CoverError(
                "folding mismatch: faces %s and %s meet along the boundary "
                "but are not paired" % (names[f1], names[f2]))
        self.slot_partner[s1] = s2
        self.slot_partner[s2] = s1
        union = self.verts.union
        b1, b2 = c1 * self.NV, c2 * self.NV
        for u, w in zip(spec.face_verts[f1], spec.vert_image[f1]):
            union(b1 + u, b2 + w)
        find, union, size = self.edges.find, self.edges.union, self.edges.size
        b1, b2 = c1 * self.NE, c2 * self.NE
        for e, g in zip(spec.face_edges[f1], spec.edge_image[f1]):
            r1, r2 = find(b1 + e), find(b2 + g)
            if r1 == r2:
                continue
            root = union(r1, r2)
            if size[root] > spec.cycle[e]:
                raise CoverError(
                    "edge incidence %d exceeds cycle length %d"
                    % (size[root], spec.cycle[e]))
            if size[root] == spec.cycle[e]:
                work.append(root)

    def _open_flanking_slots(self, edge_root):
        """The open face slots around an edge class, each with the
        position of the class's edge in that face, in slot order: the
        ends of the walks from the root's two flanks through glued slots,
        ``turn`` by ``turn``.  A walk back to its start finds the chain
        of cells closed, with no open face."""
        spec, partner, F = self.spec, self.slot_partner, self.F
        cell, e = divmod(edge_root, self.NE)
        out = {}
        for f, i in spec.flank[e]:
            s = cell * F + f
            start = s, i
            for _ in range(spec.cycle[e]):
                if partner[s] < 0:
                    out.setdefault(s, i)
                    break
                f, i = spec.turn[f][i]
                s = partner[s] // F * F + f
                if (s, i) == start:
                    return []
            else:
                raise CoverError("edge walk passes its cycle length %d"
                                 % spec.cycle[e])
        return sorted(out.items())

    def _fold_fixpoint(self, work):
        """Fold each queued edge class: glue its two open flanking faces.

        A queued class is at its cycle length, so it never grows again and
        its root stays put; it may have been closed by an earlier fold."""
        spec, vfind = self.spec, self.verts.find
        while work:
            slots = self._open_flanking_slots(work.popleft())
            if not slots:
                continue
            if len(slots) != 2:
                raise CoverError(
                    "folding mismatch: saturated edge flanked by %d open "
                    "faces" % len(slots))
            (s1, i), (s2, _) = slots
            c1, f1 = divmod(s1, self.F)
            c2, f2 = divmod(s2, self.F)
            # sanity: the shared edge's endpoints must already agree under
            # the pairing, otherwise the identification is ill-defined
            vs, img = spec.face_verts[f1], spec.vert_image[f1]
            b1, b2 = c1 * self.NV, c2 * self.NV
            for j in (i, (i + 1) % len(vs)):
                if vfind(b1 + vs[j]) != vfind(b2 + img[j]):
                    names = list(spec.faces)
                    raise CoverError(
                        "folding mismatch: inconsistent edge endpoints at "
                        "fold of %s/%s" % (names[f1], names[f2]))
            self._glue(s1, s2, work)

    def expand(self):
        """Attach one layer of cells: B(n) -> B(n+1)."""
        work = deque()
        for s in self.open_slots():
            c2 = self._new_cell()
            self._glue(s, c2 * self.F + self.spec.target[s % self.F], work)
            self._fold_fixpoint(work)
        self.stage += 1
        return self

    # -- boundary extraction ---------------------------------------------

    def boundary_sphere(self) -> Tiling:
        """S(n): each open slot's face, named by cover vertex and edge
        classes, with each loaded (one cell short of its cycle) or fragile
        (two short) edge given that status.  The names and keys are the
        classes' roots, ints below ``num_cells*NV`` and ``num_cells*NE``.

        A key whose parent is a root is named by that parent, as ``find``
        would name it; only a deeper key calls ``find``.  In the balls of
        the bundled specs every parent is a root.
        """
        vfind, efind = self.verts.find, self.edges.find
        vparent, eparent = self.verts.parent, self.edges.parent
        size, cycle = self.edges.size, self.spec.cycle
        F, NV, NE = self.F, self.NV, self.NE
        face_verts, face_edges = self.spec.face_verts, self.spec.face_edges
        face_labels = [f.label for f in self.spec.faces.values()]
        tables = FaceTables.new(self.num_cells * NV, self.num_cells * NE)
        labels, sizes, names, keys, marks, _ = tables
        for s in self.open_slots():
            cell, fi = divmod(s, F)
            vb, eb = cell * NV, cell * NE
            labels.append(face_labels[fi])
            sizes.append(len(face_verts[fi]))
            # a face's names go into a list first: appending one int to
            # an array costs three times what appending to a list does
            vs = []
            for u in face_verts[fi]:
                root = vparent[vb + u]
                if vparent[root] != root:
                    root = vfind(vb + u)
                vs.append(root)
            names.fromlist(vs)
            es = []
            for e in face_edges[fi]:
                root = eparent[eb + e]
                if eparent[root] != root:
                    root = efind(eb + e)
                es.append(root)
                gap = cycle[e] - size[root]
                if gap == 1:
                    marks[root] = _LOADED
                elif gap == 2:
                    marks[root] = _FRAGILE
            keys.fromlist(es)
        return Tiling(tables, stage=self.stage)

    def boundary_counts(self):
        """S(n)'s (faces, edges, vertices, components), as
        ``boundary_sphere`` would count them, without building it.

        Each open slot is a face; its sides are named by class root, by
        ``boundary_sphere``'s rule, and two faces that share an edge root
        are joined.  When ``union_of_spheres`` certifies the counts, they
        are those of a union of spheres, which the Tiling would accept
        with the same counts: the members of a cover edge class join the
        same two vertex classes, since ``_glue`` unites edges with their
        endpoints, and the Euler bound that lets ``Tiling`` skip
        ``_validate`` leaves no vertex a second rotation orbit and no
        component another surface.  Otherwise the counts are read off
        ``boundary_sphere()``, which reports what is wrong.
        """
        vfind, efind = self.verts.find, self.edges.find
        vparent, eparent = self.verts.parent, self.edges.parent
        F, NV, NE = self.F, self.NV, self.NE
        face_verts, face_edges = self.spec.face_verts, self.spec.face_edges
        seen = bytearray(self.num_cells * NV)      # per vertex root
        sides = bytearray(self.num_cells * NE)     # per edge root, to 3
        first = array("i", [0]) * (self.num_cells * NE)   # its first face
        faces = UnionFind(self.slot_partner.count(-1))
        union = faces.union
        for f, s in enumerate(self.open_slots()):
            cell, fi = divmod(s, F)
            vb, eb = cell * NV, cell * NE
            for u in face_verts[fi]:
                root = vparent[vb + u]
                if vparent[root] != root:
                    root = vfind(vb + u)
                seen[root] = 1
            for e in face_edges[fi]:
                root = eparent[eb + e]
                if eparent[root] != root:
                    root = efind(eb + e)
                n = sides[root]
                if not n:
                    first[root] = f
                    sides[root] = 1
                elif n < 3:
                    sides[root] = n + 1
                    union(first[root], f)
        counts = union_of_spheres(sides, seen.count(1), faces)
        if counts is None:
            del seen, sides, first, faces
            return self.boundary_sphere().counts
        return counts


def balls(spec: GluingSpec, stages: int, cap: int | None = None):
    """Yield the ball B(1), ..., B(stages), one shared CoverState.

    B(n) is expanded to B(n+1) only when the next ball is requested, so
    no ball beyond B(stages) is ever built, and none past ``cap`` cells.
    """
    if stages < 1:
        raise CoverError("stages must be at least 1, not %d" % stages)
    state = CoverState(spec, cap)
    yield state
    for _ in range(stages - 1):
        yield state.expand()
