"""Subdivision and replacement rules on labeled tilings.

A subdivision rule carries tile types: a matcher (face label plus the
edge marks admitted around the boundary) together with a template disk
that replaces the face, possibly subdividing some boundary edges.  A
replacement rule instead first combines faces into groups (connected
components under shared loaded edges), matches each group against a region
pattern, substitutes the pattern's template, and finally zips flap faces
together across fragile edges.

Rules are plain JSON data; see the bundled files under data/.  On load
their statuses are compiled to edge marks, the only form the engines read.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache
from itertools import accumulate, compress, count
from operator import itemgetter
from struct import Struct

from .tiling import (ADDED, IS_LOADED, LOADED, MARKS, PLAIN, STATUS_OF,
                     STATUSES, FaceTables, Tiling, TilingError, mark)
from .unionfind import UnionFind

ANY = "any"
_NO_MARK = 0xFF         # a byte that is no mark
_STATUS_CODE = bytes(m & 3 for m in range(256))  # per mark: its status code
_LOADED_CODE = STATUSES.index(LOADED)


class RuleError(ValueError):
    pass


# ---------------------------------------------------------------------
# rule data model


@dataclass
class TileType:
    """A face matcher and the template disk that replaces the face.

    Per boundary position, ``match`` holds None, which admits any edge,
    or the set of marks it admits; ``boundary`` holds None to keep the
    edge under the default transition, the mark to keep it with, or the
    ``bytes`` of the marks of the segments to split it into.  On load the
    template is compiled against the symbolic rim (corners ``v<i>``, split
    points ``e<i>.<j>``): ``rim`` and ``rim_sides`` give the order in which
    ``template.instantiate`` takes the rim's vertex ids and edge keys.
    """
    name: str
    label: str
    size: int
    match: list
    boundary: list
    faces: list                 # template faces: {label, cycle of names}
    interior_edges: dict = field(default_factory=dict)   # frozenset -> mark

    def __post_init__(self):
        self.rim = []
        for i, d in enumerate(self.boundary):
            self.rim.append("v%d" % i)
            if isinstance(d, bytes):
                self.rim += ["e%d.%d" % (i, j) for j in range(1, len(d))]
        self.rim_sides = _sides(self.rim)
        self.template = Template(self.faces, self.rim, self.rim_sides,
                                 self.interior_edges)

    def problems(self, transition):
        """Diagnostics for this tile type under a transition table."""
        where = "tile %s" % self.name
        diags = []
        if len(self.rim) < 3:
            diags.append("%s: template boundary has fewer than three "
                         "vertices" % where)
        if len(self.match) != self.size or len(self.boundary) != self.size:
            return diags + ["%s: matcher/boundary length differs from "
                            "tile size" % where]
        _check_template_disk(self.faces, self.rim_sides, where, diags)
        for i, (admits, d) in enumerate(zip(self.match, self.boundary)):
            if d is not None:
                continue
            missing = sorted({STATUS_OF[m] for m in admits or MARKS
                              if transition[m] == _NO_MARK})
            if missing:
                diags.append("%s: no transition declared for surviving %s "
                             "edges on side %d"
                             % (where, " or ".join(missing), i))
        return diags


@dataclass
class SubdivisionRule:
    """Tile types, checked on build, and the default transition."""
    name: str
    tiles: list
    default_transition: bytes   # per mark: a surviving edge's new mark

    def __post_init__(self):
        _raise_problems(
            self.name, [d for tile in self.tiles
                        for d in tile.problems(self.default_transition)],
            "tile set", [f["label"] for tile in self.tiles
                         for f in tile.faces],
            [tile.label for tile in self.tiles])


@dataclass
class Pattern:
    """A region of faces to match, and the template that replaces it.

    On load the region is compiled to int tables.  Its ``shape`` is the
    sorted tuple of its face labels.  Its vertex names are numbered in
    ``vertex_syms`` and its sides in ``edge_syms``, both by first
    appearance, so each region face first binds a contiguous run of each;
    ``_match_pattern`` binds them into two flat lists.  Per region face,
    ``region_faces`` holds its label and size; its anchor, the first cycle
    position whose vertex an earlier face binds, with that vertex's number
    (or None); the positions of its new vertices and edges with the runs
    of numbers they bind; readers of its whole cycle and sides; and the
    positions of its new edges that a later face has, each with that
    face's label and size.  ``read_checked`` reads the numbers of
    the edges whose status code (a mark's low two bits) is checked, and
    ``checked_statuses`` holds the codes; ``read_internal`` reads the
    internal edges' numbers, and each of ``flap_chains``, in ``flaps``
    order, the numbers of a flap's chain; ``boundary_to`` pairs edge
    numbers with a new mark; and ``template`` takes bound vertex ids and
    edge keys in this numbering and holds the flaps out.
    """
    name: str
    region: list                # {label, cycle of names}
    boundary: list              # {ends, status, to}
    faces: list                 # template faces
    edges: dict = field(default_factory=dict)       # frozenset -> mark
    flaps: list = field(default_factory=list)       # {face, chain: [ends, …]}
    internal: dict = field(default_factory=dict)    # frozenset -> required status

    def __post_init__(self):
        vid, eid, uses = {}, {}, Counter()
        shapes = [(f["label"], len(f["cycle"])) for f in self.region]
        region_sides = [_sides(f["cycle"]) for f in self.region]
        last = {e: j for j, sides in enumerate(region_sides) for e in sides}
        self.region_faces = []
        for j, f in enumerate(self.region):
            nv, ne = len(vid), len(eid)
            cyc = [vid.setdefault(nm, len(vid)) for nm in f["cycle"]]
            sides = [eid.setdefault(e, len(eid)) for e in region_sides[j]]
            uses.update(sides)
            anchor = next(((i, v) for i, v in enumerate(cyc) if v < nv),
                          None)
            self.region_faces.append((
                f["label"], len(cyc), anchor,
                _picker(map(cyc.index, range(nv, len(vid)))),
                slice(nv, len(vid)),
                _picker(map(sides.index, range(ne, len(eid)))),
                slice(ne, len(eid)), _picker(cyc), _picker(sides),
                [(sides.index(i), shapes[last[e]]) for e, i in eid.items()
                 if i >= ne and last[e] != j]))
        self.vertex_syms, self.edge_syms = list(vid), list(eid)
        self.shape = tuple(sorted(f["label"] for f in self.region))
        # one region face, whose names are distinct
        self.whole_face = len(self.region) == 1 and \
            len(vid) == len(self.region[0]["cycle"])
        # symbolic edges appearing in two region faces are internal
        self.internal_edges = [e for e, k in uses.items() if k == 2]
        internal = dict.fromkeys(self.internal_edges, mark(LOADED))
        internal.update((self._region_edge(eid, e, "internal"), mark(want))
                        for e, want in self.internal.items())
        self.boundary_req = {frozenset(b["ends"]): b for b in self.boundary}
        declared = set(self.boundary_req)
        actual = {self.edge_syms[e] for e, k in uses.items() if k == 1}
        if declared != actual:
            raise RuleError(
                "pattern %s: boundary declaration does not match the region "
                "boundary" % self.name)
        checks = list(internal.items()) + [
            (eid[sym], mark(req["status"]))
            for sym, req in self.boundary_req.items()
            if req.get("status", ANY) != ANY]
        self.read_checked = _picker(i for i, _ in checks)
        self.checked_statuses = bytes(want for _, want in checks)
        self.read_internal = _picker(self.internal_edges)
        self.boundary_to = [(eid[sym], mark(req["to"]))
                            for sym, req in self.boundary_req.items()
                            if req.get("to") is not None]
        self.flap_chains = [_picker([self._region_edge(eid, e, "flap")
                                     for e in fl["chain"]])
                            for fl in self.flaps]
        self.template = Template(
            self.faces, self.vertex_syms,
            [sym if sym in self.boundary_req else None
             for sym in self.edge_syms], self.edges,
            [fl["face"] for fl in self.flaps])

    def _region_edge(self, eid, ends, what):
        try:
            return eid[frozenset(ends)]
        except KeyError:
            raise RuleError("pattern %s: %s edge %r is not a region edge"
                            % (self.name, what, sorted(ends))) from None

    def problems(self):
        """Diagnostics for this pattern as part of a rule.  (A pattern
        built on its own, as a probe, need not pass them.)"""
        where = "pattern %s" % self.name
        diags = ["%s: face with fewer than three vertices" % where
                 for f in self.region + self.faces if len(f["cycle"]) < 3]
        _check_template_disk(self.faces, self.boundary_req, where, diags)
        for flap in self.flaps:
            if not (0 <= flap["face"] < len(self.faces)):
                diags.append("%s: flap face index out of range" % where)
            diags += ["%s: flap chain edge %r is not a region boundary edge"
                      % (where, sorted(ends)) for ends in flap["chain"]
                      if frozenset(ends) not in self.boundary_req]
        return diags


@dataclass
class ReplacementRule:
    """Patterns, checked on build, tried in order on each group.

    ``by_shape`` lists the patterns of each region shape in rule order:
    a group is offered only the patterns of its own shape."""
    name: str
    patterns: list

    def __post_init__(self):
        _raise_problems(
            self.name, [d for pat in self.patterns for d in pat.problems()],
            "pattern set", [f["label"] for pat in self.patterns
                            for f in pat.faces],
            [f["label"] for pat in self.patterns for f in pat.region])
        self.by_shape = {}
        for pat in self.patterns:
            self.by_shape.setdefault(pat.shape, []).append(pat)


def _check_template_disk(faces, boundary_syms, where, diags):
    """The template faces plus a virtual outer face must form a sphere.

    A disk's rim sides are checked in the order ``boundary_syms`` lists
    them; a template without rim must be a closed surface itself.
    """
    if not boundary_syms:
        try:
            Tiling([(f["label"], f["cycle"]) for f in faces])
        except Exception as exc:
            diags.append("%s: closed template is not a closed surface (%s)"
                         % (where, exc))
        return
    sides = Counter(e for f in faces for e in _sides(f["cycle"]))
    for e in boundary_syms:
        if sides[e] != 1:
            diags.append("%s: boundary edge %r not covered exactly once"
                         % (where, sorted(e)))
            return
    chi = len({v for f in faces for v in f["cycle"]}) - len(sides) + len(faces)
    if chi != 1:
        diags.append("%s: template is not a disk (V-E+F = %d)" % (where, chi))


def _raise_problems(name, diags, what, out_labels, in_labels):
    """Raise one RuleError naming rule ``name`` and listing ``diags``,
    and the template labels (of the tile or pattern set ``what``) that
    no input face carries."""
    orphans = set(out_labels).difference(in_labels)
    if orphans:
        diags.append("%s cannot cover faces labeled %s produced by its own "
                     "templates" % (what, sorted(orphans)))
    if diags:
        raise RuleError("rule %s: %s" % (name, "; ".join(diags)))


@dataclass
class Rule:
    """A named rule bundle: subdivision and/or replacement form."""
    name: str
    subdivision: SubdivisionRule | None = None
    replacement: ReplacementRule | None = None


def _sides(cycle):
    """Symbolic sides of a closed cycle; side i joins cycle[i], cycle[i+1]."""
    return [*map(frozenset, zip(cycle, cycle[1:] + cycle[:1]))]


class Template:
    """Template faces compiled to index tables, once per rule.

    The template's vertices are the ``bound`` names, then the names only
    the template has, numbered by first appearance; its sides are the
    ``sides`` symbols (None marks a position the template may not reuse),
    then its new sides.  The faces listed in ``flaps`` are held out: they
    still number their names and sides, but are read apart from the
    others.  Per kept face, ``labels`` and ``sizes`` hold its label and
    size; two ``_packer`` functions read every kept face's vertex ids and
    edge keys, in one run, off those two numberings, and two more the
    flaps' cycles, whose sizes ``flap_sizes`` holds.  ``rim_named`` and
    ``rim_keyed`` list the kept sides, counted along that run, that name
    a new vertex or carry a new side that a flap also has.  ``new_marks``
    holds the new sides' marks, from ``edge_marks``, else plain.
    """

    def __init__(self, faces, bound, sides, edge_marks, flaps=()):
        vid = defaultdict(count(len(bound)).__next__, zip(bound, count()))
        eid = defaultdict(count(len(sides)).__next__,
                          ((s, i) for i, s in enumerate(sides)
                           if s is not None))
        cycles = [f["cycle"] for f in faces]
        vcodes = [[vid[v] for v in cyc] for cyc in cycles]
        # instantiate reads the edge keys after all the vertex ids
        nvid = len(vid)
        ecodes = [[nvid + eid[s] for s in _sides(cyc)] for cyc in cycles]
        self.new_vertices = nvid - len(bound)
        self.new_marks = bytes(edge_marks.get(sym, 0)      # 0: plain
                               for sym, i in eid.items() if i >= len(sides))
        # an index out of range is left to Pattern.problems to report
        held = [f for f in flaps if 0 <= f < len(faces)]
        kept = [f for f in range(len(faces)) if f not in held]
        vs = [v for f in kept for v in vcodes[f]]
        es = [e for f in kept for e in ecodes[f]]
        flap_vs = [v for f in held for v in vcodes[f]]
        flap_es = [e for f in held for e in ecodes[f]]
        self.labels = [faces[f]["label"] for f in kept]
        self.sizes = array("i", [len(cycles[f]) for f in kept])
        self.flap_sizes = array("i", [len(cycles[f]) for f in held])
        self.read_vertices, self.read_edges, self.read_flap_vertices, \
            self.read_flap_edges = map(_packer, (vs, es, flap_vs, flap_es))
        rim_v = {v for v in flap_vs if v >= len(bound)}
        rim_e = {e for e in flap_es if e >= nvid + len(sides)}
        self.rim_named = [*compress(count(), map(rim_v.__contains__, vs))]
        self.rim_keyed = [*compress(count(), map(rim_e.__contains__, es))]

    def instantiate(self, vertices, edges, nv, tables, held=None):
        """Append the kept faces to the ``FaceTables`` ``tables``, and the
        flaps' sizes, vertex ids and edge keys to those of ``held``.

        ``vertices`` and ``edges`` give the bound names' ids and the bound
        sides' keys, in the template's numbering.  New vertices take the
        next ints from ``nv``, and new edges the next keys of the marks,
        to which their marks are appended.  Returns the next vertex int.
        """
        labels, sizes, names, keys, marks, _ = tables
        ne = len(marks)
        ints = [*vertices, *range(nv, nv + self.new_vertices),
                *edges, *range(ne, ne + len(self.new_marks))]
        labels += self.labels
        sizes += self.sizes
        names.frombytes(self.read_vertices(ints))
        keys.frombytes(self.read_edges(ints))
        marks += self.new_marks
        if self.flap_sizes:
            held.sizes.extend(self.flap_sizes)
            held.names.frombytes(self.read_flap_vertices(ints))
            held.keys.frombytes(self.read_flap_edges(ints))
        return nv + self.new_vertices


def _picker(idx):
    """A function that reads the entries at ``idx`` off a list, as a
    tuple.  (An itemgetter of one index returns the entry itself.)"""
    idx = tuple(idx)
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i, = idx
        return lambda seq: (seq[i],)
    return lambda seq: ()


def _packer(idx):
    """A function that reads the entries at ``idx`` off a list of ints
    as the bytes of an ``array('i')`` of them: packing them is quicker
    than making an array of the tuple ``_picker`` reads."""
    idx = tuple(idx)
    pick, pack = _picker(idx), Struct("%di" % len(idx)).pack
    return lambda seq: pack(*pick(seq))


@cache
def _images(n):
    """The n rotations, then the n reflections, of an n-gon, as index
    tables: per image, the positions its vertices are read from (n + 1
    of them, the last wrapping round to the first), those its edges are
    read from, and a reader of each.  Rotation r starts at vertex r;
    reflection r runs vs[r], vs[r-1], ... with es[r-1], es[r-2], ..."""
    rows = [(range(r, r + n + 1), range(r, r + n)) for r in range(n)] + [
        (range(r, r - n - 1, -1), range(r - 1, r - n - 1, -1))
        for r in range(n)]
    images = []
    for v, e in rows:
        vp, ep = [i % n for i in v], [i % n for i in e]
        images.append((vp, ep, _picker(vp[:n]), _picker(ep)))
    return images


@cache
def _heads(n):
    """Per set of an n-gon's edge positions, given as the ``bytes`` with
    a 1 at each of them, the images of ``_images(n)`` that read those
    edges first, in order."""
    heads = {}
    for image in _images(n):
        mask = bytearray(n)
        for i in image[1]:
            mask[i] = 1
            heads.setdefault(bytes(mask), []).append(image)
    return heads


def _dihedral(vs, es, anchor=None):
    """The n rotations, then the n reflections, of a face's cycles.

    Yields (vertices, edges) tuples in which edge i joins vertex i and
    vertex i+1, as it does in ``vs`` and ``es``.  With ``anchor = (p, x)``
    it yields, in the same order, only the images with vertex x at
    position p.
    """
    n = len(vs)
    images = _images(n)
    if anchor is not None:
        p, x = anchor
        hits = [i for i, v in enumerate(vs) if v == x]
        images = [images[r] for r in sorted((i - p) % n for i in hits)] + [
            images[n + r] for r in sorted((i + p) % n for i in hits)]
    for _, _, read_v, read_e in images:
        yield read_v(vs), read_e(es)


def _mark(rec):
    """A ``{status, added}`` record's mark; plain and not added by default."""
    return mark(rec.get("status", PLAIN), rec.get("added", False))


def _admits(rec):
    """A matcher entry as the set of marks it admits, None for any edge.
    Without "status" it admits any status; without "added", no added edge."""
    if rec:
        status = rec.get("status", ANY)
        return frozenset(mark(s, rec.get("added", False))
                         for s in (STATUSES if status == ANY else [status]))


def _edge_marks(items):
    return {frozenset(rec["ends"]): _mark(rec) for rec in items or ()}


def _directive(d):
    """A boundary directive ("default", set or split) as a
    ``TileType.boundary`` entry."""
    d = d if isinstance(d, dict) else {}
    if "split" in d:
        return bytes(map(_mark, d["split"]))
    return _mark(d["set"]) if "set" in d else None


def _transition(declared):
    """``default_transition`` as a ``translate`` table: per mark, the mark of
    its status's declared new status and its added bit, else ``_NO_MARK``.
    A key that is no status raises as an unknown value does."""
    for status in declared:
        mark(status)
    return bytes(mark(declared[s], m & ADDED) if s in declared else _NO_MARK
                 for m, s in enumerate(STATUS_OF))


def load_rule(data) -> Rule:
    """A rule from its JSON data; raises RuleError, naming the rule and
    listing every problem, if a form fails its checks, or naming the
    first unknown edge status met while its statuses become marks."""
    if isinstance(data, str):
        data = json.loads(data)
    name = data["name"]
    sub = rep = None
    try:
        if "subdivision" in data:
            s = data["subdivision"]
            tiles = [TileType(
                name=t["name"], label=t["label"], size=t["size"],
                match=[*map(_admits, t["match"])],
                boundary=[_directive(d) for d in
                          t.get("boundary", ["default"] * t["size"])],
                faces=t["template"]["faces"],
                interior_edges=_edge_marks(t["template"].get("edges")),
            ) for t in s["tiles"]]
            sub = SubdivisionRule(
                name, tiles, _transition(s.get("default_transition", {})))
        if "replacement" in data:
            rep = ReplacementRule(name, [Pattern(
                name=p["name"], region=p["region"],
                boundary=p.get("boundary", []),
                faces=p["template"]["faces"],
                edges=_edge_marks(p["template"].get("edges")),
                flaps=p.get("flaps", []),
                internal={frozenset(i["ends"]): i["status"]
                          for i in p.get("internal", [])},
            ) for p in data["replacement"]["patterns"]])
    except TilingError as exc:      # from ``mark``: an unknown status
        raise RuleError("rule %s: %s" % (name, exc)) from None
    return Rule(name, sub, rep)


def load_rule_file(path) -> Rule:
    with open(path) as fh:
        return load_rule(fh.read())


# ---------------------------------------------------------------------
# subdivision


def apply_subdivision(rule: SubdivisionRule, t: Tiling):
    """Replace every face by its tile-type template, in one pass.

    A split edge's segments and inner vertices take their keys and ints
    when a face first splits it, in canonical orientation (from its lower
    vertex id); later faces are checked against that split.  New vertices
    are numbered from ``t.num_vertices`` and new edge keys from
    ``t.num_edges`` upward; surviving edges keep their ids as keys.
    """
    # edge id -> (segment marks in canonical orientation, first segment
    # key, first inner vertex)
    splits = {}
    # a surviving edge's new mark, _NO_MARK until a face sets it
    tables = FaceTables.new()._replace(
        marks=bytearray([_NO_MARK]) * t.num_edges)
    marks, old = tables.marks, t.edge_marks
    moved = old.translate(rule.default_transition)
    nv = t.num_vertices

    for f in range(t.num_faces):
        vs = t.face_vertices(f)
        es = t.face_edges(f)
        n = len(vs)
        chosen = next((
            (tile, avs, aes) for tile in rule.tiles
            if tile.label == t.face_labels[f] and tile.size == n
            for avs, aes in _dihedral(vs, es)
            if all(admits is None or old[e] in admits
                   for admits, e in zip(tile.match, aes))), None)
        if chosen is None:
            raise RuleError(
                "no tile type of rule %s matches face %d (label %r, "
                "statuses %r)" % (rule.name, f, t.face_labels[f],
                                  [STATUS_OF[old[e]] for e in es]))
        tile, avs, aes = chosen

        rim_vs, rim_es = [], []
        for u, v, e, m in zip(avs, avs[1:] + avs[:1], aes, tile.boundary):
            rim_vs.append(u)
            if isinstance(m, bytes):
                k = len(m)
                # -1: the face traverses against canonical orientation
                step = -1 if u > v else 1
                m = m[::step]
                if e not in splits:
                    splits[e] = m, len(marks), nv
                    marks += m
                    nv += k - 1
                segs, ke, kv = splits[e]
                if segs != m:
                    raise RuleError(
                        "adjacent templates disagree on the subdivision of "
                        "edge %d" % e)
                rim_vs += range(kv, kv + k - 1)[::step]
                rim_es += range(ke, ke + k)[::step]
            else:
                m = moved[e] if m is None else m
                if marks[e] not in (_NO_MARK, m):
                    raise RuleError(
                        "adjacent templates disagree on the new status of "
                        "edge %d" % e)
                marks[e] = m
                rim_es.append(e)
        nv = tile.template.instantiate(rim_vs, rim_es, nv, tables)

    # checked in the order the split edges were first met
    for e in splits:
        if marks[e] != _NO_MARK:
            raise RuleError(
                "adjacent templates disagree on the subdivision of edge "
                "%d" % e)
        marks[e] = 0        # a split edge's key is not handed over

    return Tiling(tables._replace(num_names=nv), stage=t.stage + 1)


# ---------------------------------------------------------------------
# replacement


def _loaded_groups(t: Tiling):
    """Partition face ids into components connected by loaded edges, in
    order of lowest face, each face list ascending."""
    uf = UnionFind(t.num_faces)
    for e in compress(count(), t.edge_marks.translate(IS_LOADED)):
        uf.union(*t.edge_faces(e))
    groups = {}
    for f in range(t.num_faces):
        groups.setdefault(uf.find(f), []).append(f)
    return list(groups.values())


def _match_pattern(pat: Pattern, t: Tiling, group):
    """Map pattern region onto the group; returns (sigma, edge_of) or None.

    sigma[i] is the tiling vertex id of ``pat.vertex_syms[i]`` and
    edge_of[j] the tiling edge id of ``pat.edge_syms[j]``.  The first
    embedding found, trying group faces in order and each face's dihedral
    images in ``_dihedral`` order, is the one checked; no other is tried.
    The group must have the pattern's ``shape``.
    """
    marks = t.edge_marks
    if pat.whole_face:
        # its first image binds a face with distinct vertices: the face,
        # whose sides are the region's edges in order, none internal
        g, = group
        sigma, edge_of = t.face_vertices(g), t.face_edges(g)
        if len(sigma) != len(pat.vertex_syms) or \
                len(set(sigma)) < len(sigma):
            return None
        codes = bytes(map(marks.__getitem__, edge_of)).translate(_STATUS_CODE)
        if _LOADED_CODE in codes or \
                bytes(pat.read_checked(codes)) != pat.checked_statuses:
            return None
        return sigma, edge_of
    sigma, edge_of, sides = _search(pat, t, group)
    if sigma is None or bytes(map(marks.__getitem__, pat.read_checked(
            edge_of))).translate(_STATUS_CODE) != pat.checked_statuses:
        return None
    # every loaded edge of the group's faces must be a mapped internal
    # edge (both faces of a loaded edge are in its group)
    loaded = compress(sides, bytes(map(marks.__getitem__, sides)).translate(
        IS_LOADED))
    return (sigma, edge_of) if set(pat.read_internal(edge_of)).issuperset(
        loaded) else None


def _search(pat, t, group):
    """``_match_pattern``'s first embedding of any region but one face
    with distinct names, by search: (sigma, edge_of, the group's sides in
    face order), or three Nones."""
    labels = t.face_labels
    faces = [(g, labels[g], t.face_vertices(g), t.face_edges(g))
             for g in group]

    # one search state: region face idx binds the vertex and edge symbols
    # its slices number, and a failed image's values are overwritten
    sigma = [None] * len(pat.vertex_syms)
    edge_of = [None] * len(pat.edge_syms)
    taken, used = set(), set()
    shape = {g: (glabel, len(vs)) for g, glabel, vs, _ in faces}
    edge_faces = t.edge_faces

    def extend(idx):
        if idx == len(faces):
            return True
        (label, n, anchor, fresh_v, v_slots, fresh_e, e_slots, read_v,
         read_e, ahead) = pat.region_faces[idx]
        if anchor is not None:
            anchor = anchor[0], sigma[anchor[1]]
        for g, glabel, vs, es in faces:
            if g in used or glabel != label or len(vs) != n:
                continue
            for avs, aes in _dihedral(vs, es, anchor):
                # an image whose edge a later face must have, but no
                # unused group face of its label and size has, fails
                # before anything is bound
                if ahead and any(
                        all(f == g or f in used or shape.get(f) != want
                            for f in edge_faces(aes[p]))
                        for p, want in ahead):
                    continue
                # new vertices must be distinct and not yet taken; then
                # every position must read back its image's vertex and edge
                vals = fresh_v(avs)
                if not taken.isdisjoint(vals) or len(set(vals)) < len(vals):
                    continue
                sigma[v_slots] = vals
                edge_of[e_slots] = fresh_e(aes)
                if read_v(sigma) != avs or read_e(edge_of) != aes:
                    continue
                taken.update(vals)
                used.add(g)
                if extend(idx + 1):
                    return True
                taken.difference_update(vals)
                used.discard(g)
        return False

    found = extend(0)
    # extend refers to itself through its closure: dropping it frees the
    # search state now rather than in the cyclic garbage collector
    del extend
    if not found:
        return None, None, None
    return sigma, edge_of, [e for *_, es in faces for e in es]


def apply_replacement(rule: ReplacementRule, t: Tiling):
    """Combine faces into groups along loaded edges and replace each group.

    Flap faces declared by the matched patterns are zipped in pairs across
    shared fragile-edge chains: both faces are removed and their remaining
    boundaries identified.  New vertices are numbered from
    ``t.num_vertices`` and new edge keys from ``t.num_edges`` upward, so
    old and new keys share one numbering.
    """
    return Tiling(_replaced_faces(rule, t), stage=t.stage + 1)


_DROP = 8       # an old key's mark bit: its old status, not its new one
# an old key's first mark: its old status, to be dropped
_OLD = bytes(m & 3 | _DROP for m in range(256))
# the marks handed over: a dropped old status becomes plain
_HANDED = bytes(0 if m & _DROP else m for m in range(256))


def _replaced_faces(rule, t):
    """The output faces of ``apply_replacement`` as ``FaceTables``.

    An old key's new status is the one its groups prescribe, else plain,
    and a new key's the template's.  The zipping compares statuses as a
    mark's low two bits, and reads an old key that no group prescribes
    by its old status, which ``_DROP`` marks to be dropped after.

    Flap faces never enter the output tables: each template writes their
    sizes, names and keys to ``held``, and the zipping reads them there.
    Per template that held flaps out, ``templates`` lists it and
    ``bases`` the first side it wrote.  Every other table the replacement
    and the zipping need is local here, so all of them are freed before
    the output Tiling is built.
    """
    tables, held = FaceTables.new(), FaceTables.new()
    labels, sizes, names, keys, marks, _ = tables
    marks += t.edge_marks.translate(_OLD)
    by_chain = {}       # sorted old edge ids -> the flaps' numbers in held
    bases, templates = array("i"), []
    nv = t.num_vertices
    face_labels, by_shape = t.face_labels, rule.by_shape

    for group in _loaded_groups(t):
        glabels = [*map(face_labels.__getitem__, group)]
        for pat in by_shape.get(tuple(sorted(glabels)), ()):
            m = _match_pattern(pat, t, group)
            if m:
                break
        else:
            raise RuleError(
                "no pattern of rule %s matches the group of faces %r "
                "(labels %r)" % (rule.name, group, glabels))
        sigma, edge_of = m

        for i, to in pat.boundary_to:
            e = edge_of[i]
            if not marks[e] & _DROP and marks[e] != to:
                raise RuleError(
                    "groups flanking edge %d prescribe different statuses"
                    % e)
            marks[e] = to

        if pat.flap_chains:
            bases.append(len(names))
            templates.append(pat.template)
        flap = len(held.sizes)
        nv = pat.template.instantiate(sigma, edge_of, nv, tables, held)
        for flap, chain in enumerate(pat.flap_chains, flap):
            by_chain.setdefault(tuple(sorted(chain(edge_of))), []).append(
                flap)

    # -- zip flaps across fragile chains --------------------------------
    # Each pair of flaps is checked and aligned in chain order, and the
    # vertex and key pairs it identifies are listed, to be united after.
    # Every listed key pair carries one status, so every class of keys
    # does: a pair already in one class passes the status check as well.
    starts = array("i", accumulate(held.sizes, initial=0))
    rim_v, rim_k = held.names, held.keys
    vpairs, kpairs = array("i"), array("i")
    for chain_key, pair in sorted(by_chain.items()):
        if len(pair) != 2:
            raise RuleError(
                "collapse flap mismatch: fragile chain %r has %d flaps"
                % (list(chain_key), len(pair)))
        j1, j2 = pair
        s1, e1, s2, e2 = starts[j1], starts[j1 + 1], starts[j2], starts[j2 + 1]
        if e1 - s1 != e2 - s2:
            raise RuleError(
                "collapse flap mismatch: flap faces of different sizes")
        c1, c2 = rim_v[s1:e1], rim_v[s2:e2]
        k1, k2 = rim_k[s1:e1], rim_k[s2:e2]
        n, on_chain = len(chain_key), chain_key.__contains__
        on1, on2 = bytes(map(on_chain, k1)), bytes(map(on_chain, k2))
        if on1.count(1) != n or on2.count(1) != n:
            raise RuleError("collapse flap mismatch: chain not on flap face")
        aligned = _aligned(c1, k1, on1, c2, k2, on2, n)
        if aligned is None:
            raise RuleError(
                "collapse flap mismatch: flap boundaries cannot be aligned")
        (*_, read_v1, read_k1), (*_, read_v2, read_k2) = aligned
        for a, b in zip(read_v1(c1), read_v2(c2)):
            if a != b:
                vpairs.append(a)
                vpairs.append(b)
        for a, b in zip(read_k1(k1), read_k2(k2)):
            if a != b:
                if marks[a] & 3 != marks[b] & 3:
                    raise RuleError(
                        "collapse flap mismatch: identified edges carry "
                        "different statuses")
                kpairs.append(a)
                kpairs.append(b)
    del by_chain

    # Zipped vertices and keys are renamed to the roots of their classes.
    # A new one is named only by the template that made it, on the sides
    # that template lists in ``rim_named`` or ``rim_keyed``.  The root key
    # takes a member's new status and added mark.
    vmoved, kmoved = _zipped(vpairs), _zipped(kpairs)
    lo, moved = kmoved
    # Every moved key is in a pair; merging one twice changes nothing.
    for k in kpairs:
        root = moved[k - lo] - 1
        if root >= 0 and not marks[k] & _DROP:
            marks[root] = (marks[root] | marks[k]) & ~_DROP
    placed = [*zip(bases, templates)]
    _rename(names, vmoved, t.num_vertices,
            (side + h for side, tp in placed for h in tp.rim_named))
    _rename(keys, kmoved, t.num_edges,
            (side + h for side, tp in placed for h in tp.rim_keyed))
    return tables._replace(marks=marks.translate(_HANDED), num_names=nv)


def _aligned(c1, k1, on1, c2, k2, on2, n):
    """The images of two flaps' cycles that zip them: the first, in
    ``_dihedral`` order of the second flap and then of the first, that
    put each flap's n chain edges (marked by ``on1``, ``on2`` as in
    ``_heads``) first, on the same keys, running between the same vertex
    ids.  Only those images are read, through their index tables.  None
    if there are none."""
    heads = _heads(len(c1))
    firsts = heads.get(on1, ())
    for second in heads.get(on2, ()):
        vp, ep, *_ = second
        x, y, head = c2[vp[0]], c2[vp[n]], [k2[i] for i in ep[:n]]
        for first in firsts:
            vp, ep, *_ = first
            if c1[vp[0]] == x and c1[vp[n]] == y and \
                    [k1[i] for i in ep[:n]] == head:
                return first, second
    return None


def _zipped(pairs):
    """``(lo, moved)``: the renaming that unites the ints ``pairs`` lists
    two by two, in that order, as in a ``UnionFind``.  ``moved`` spans the
    ints from ``lo``, the least of them, to the greatest: int x's entry
    ``moved[x - lo]`` is 0 if x is a root or in no pair, else 1 + the
    root of its class.  When no int is in two pairs, each class is one
    pair, whose first int union by size makes the root: then each second
    int moves to its first.  Else the classes are united in a
    ``UnionFind`` over a dense numbering of only these ints."""
    lo = min(pairs, default=0)
    span = max(pairs, default=-1) - lo + 1
    moved = array("i", [0]) * span
    seen = bytearray(span)      # marks the ints met, until one comes again
    firsts = iter(pairs)
    for a, b in zip(firsts, firsts):
        if seen[a - lo] or seen[b - lo] or a == b:
            break
        seen[a - lo] = seen[b - lo] = 1
        moved[b - lo] = a + 1
    else:
        return lo, moved
    moved = array("i", [0]) * span
    ints = [*dict.fromkeys(pairs)]
    dense = map(dict(zip(ints, count())).__getitem__, pairs)
    uf = UnionFind(len(ints))
    for x, y in zip(dense, dense):
        uf.union(x, y)
    for x, r in uf.non_roots().items():
        moved[ints[x] - lo] = ints[r] + 1
    return lo, moved


def _rename(table, zipped, first_new, sides):
    """Write each entry x of ``table`` that the ``_zipped`` renaming
    ``zipped`` moves over with its root.  If all the moved x are new
    ints, at least ``first_new``, only the positions ``sides`` yields are
    read; an old one may be anywhere."""
    lo, moved = zipped
    hi = lo + len(moved)
    if any(moved[:max(first_new - lo, 0)]):
        sides = range(len(table))
    for h in sides:
        x = table[h]
        if lo <= x < hi:
            root = moved[x - lo] - 1
            if root >= 0:
                table[h] = root


# ---------------------------------------------------------------------
# helpers


def strip_added_edges(t: Tiling, relabel=None) -> Tiling:
    """Merge faces across added edges, recovering the unsubdivided tiling."""
    marks = t.edge_marks
    if not any(m & ADDED for m in marks):
        return t
    # walk each merged region's boundary, skipping over added edges
    done = bytearray(len(t.h_face))
    tables = FaceTables.new(t.num_vertices)._replace(marks=marks)
    for h0 in range(len(t.h_face)):
        if done[h0] or marks[t.h_edge[h0]] & ADDED:
            continue
        n = len(tables.names)
        h = h0
        while not done[h]:
            done[h] = 1
            tables.names.append(t.h_origin[h])
            tables.keys.append(t.h_edge[h])
            h = t.h_next[h]
            while marks[t.h_edge[h]] & ADDED:
                h = t.h_next[t.h_twin[h]]
        tables.labels.append(relabel or t.face_labels[t.h_face[h0]])
        tables.sizes.append(len(tables.names) - n)
    return Tiling(tables, stage=t.stage)
