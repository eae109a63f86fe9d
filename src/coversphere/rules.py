"""Subdivision and replacement rules on labeled tilings.

A subdivision rule carries tile types: a matcher (face label plus the
status/added pattern around the boundary) together with a template disk
that replaces the face, possibly subdividing some boundary edges.  A
replacement rule instead first combines faces into groups (connected
components under shared loaded edges), matches each group against a region
pattern, substitutes the pattern's template, and finally zips flap faces
together across fragile edges.

Rules are plain JSON data; see the bundled files under data/.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .tiling import Tiling, RefinementWitness, face_spec
from .unionfind import UnionFind

ANY = "any"


class RuleError(ValueError):
    pass


# ---------------------------------------------------------------------
# rule data model


@dataclass
class TileType:
    name: str
    label: str
    size: int
    match: list                 # per boundary position: {status, added} or None
    boundary: list              # per position: "default" | {"set": …} | {"split": […]}
    faces: list                 # template faces: {label, cycle of names}
    interior_edges: dict = field(default_factory=dict)   # frozenset -> {status, added}


@dataclass
class SubdivisionRule:
    name: str
    tiles: list
    default_transition: dict    # old status -> new status for surviving edges


@dataclass
class Pattern:
    name: str
    region: list                # {label, cycle of names}
    boundary: list              # {ends, status, to}
    faces: list                 # template faces
    edges: dict = field(default_factory=dict)       # frozenset -> {status, added}
    flaps: list = field(default_factory=list)       # {face, chain: [ends, …]}
    internal: dict = field(default_factory=dict)    # frozenset -> required status

    def __post_init__(self):
        # symbolic edges appearing in two region faces are internal
        count = {}
        for f in self.region:
            cyc = f["cycle"]
            for i in range(len(cyc)):
                e = frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))
                count[e] = count.get(e, 0) + 1
        self.internal_edges = {e for e, k in count.items() if k == 2}
        for e in self.internal_edges:
            self.internal.setdefault(e, "loaded")
        self.boundary_req = {frozenset(b["ends"]): b for b in self.boundary}
        declared = set(self.boundary_req)
        actual = {e for e, k in count.items() if k == 1}
        if declared != actual:
            raise RuleError(
                "pattern %s: boundary declaration does not match the region "
                "boundary" % self.name)


@dataclass
class ReplacementRule:
    name: str
    patterns: list


@dataclass
class Rule:
    """A named rule bundle: subdivision and/or replacement form."""
    name: str
    subdivision: SubdivisionRule | None = None
    replacement: ReplacementRule | None = None


def _edge_attrs(items):
    out = {}
    for rec in items or ():
        out[frozenset(rec["ends"])] = {
            "status": rec.get("status", "plain"),
            "added": bool(rec.get("added", False)),
        }
    return out


def load_rule(data) -> Rule:
    if isinstance(data, str):
        data = json.loads(data)
    name = data["name"]
    sub = rep = None
    if "subdivision" in data:
        s = data["subdivision"]
        tiles = []
        for t in s["tiles"]:
            tiles.append(TileType(
                name=t["name"], label=t["label"], size=t["size"],
                match=[m if m else None for m in t["match"]],
                boundary=t.get("boundary", ["default"] * t["size"]),
                faces=t["template"]["faces"],
                interior_edges=_edge_attrs(t["template"].get("edges")),
            ))
        sub = SubdivisionRule(name, tiles,
                              s.get("default_transition", {}))
    if "replacement" in data:
        r = data["replacement"]
        pats = []
        for p in r["patterns"]:
            pats.append(Pattern(
                name=p["name"], region=p["region"],
                boundary=p.get("boundary", []),
                faces=p["template"]["faces"],
                edges=_edge_attrs(p["template"].get("edges")),
                flaps=p.get("flaps", []),
                internal={frozenset(i["ends"]): i["status"]
                          for i in p.get("internal", [])},
            ))
        rep = ReplacementRule(name, pats)
    return Rule(name, sub, rep)


def load_rule_file(path) -> Rule:
    with open(path) as fh:
        return load_rule(fh.read())


# ---------------------------------------------------------------------
# subdivision


def _canonical_chain(e, k):
    """Segment keys and interior vertex names of edge e split into k parts,
    oriented from the smaller endpoint id."""
    segs = [("seg", e, j) for j in range(k)]
    verts = [("sv", e, j) for j in range(1, k)]
    return segs, verts


def apply_subdivision(rule: SubdivisionRule, t: Tiling):
    """Replace every face by its tile-type template.

    Returns (tiling, witness); the witness records how the input embeds in
    the output (vertex map, per-edge chains, per-face regions).
    """
    split_plan = {}      # edge id -> list of segment attrs (canonical orient.)
    new_status = {}      # edge key -> {status, added}
    face_plans = []

    for f in range(t.num_faces):
        label = t.face_labels[f]
        vs = t.face_vertices(f)
        es = t.face_edges(f)
        n = len(vs)
        statuses = None
        chosen = None
        for tile in rule.tiles:
            if tile.label != label or tile.size != n:
                continue
            for refl in (False, True):
                for r in range(n):
                    if not refl:
                        avs = [vs[(r + i) % n] for i in range(n)]
                        aes = [es[(r + i) % n] for i in range(n)]
                    else:
                        avs = [vs[(r - i) % n] for i in range(n)]
                        aes = [es[(r - i - 1) % n] for i in range(n)]
                    ok = True
                    for i, want in enumerate(tile.match):
                        if want is None:
                            continue
                        e = aes[i]
                        if want.get("status", ANY) not in (ANY,
                                                           t.edge_status[e]):
                            ok = False
                            break
                        if bool(want.get("added", False)) != t.edge_added[e]:
                            ok = False
                            break
                    if ok:
                        chosen = (tile, avs, aes)
                        break
                if chosen:
                    break
            if chosen:
                break
        if chosen is None:
            raise RuleError(
                "no tile type of rule %s matches face %d (label %r, "
                "statuses %r)" % (rule.name, f, label,
                                  [t.edge_status[e] for e in es]))
        tile, avs, aes = chosen
        face_plans.append((f, tile, avs, aes))

        for i, directive in enumerate(tile.boundary):
            e = aes[i]
            if isinstance(directive, dict) and "split" in directive:
                attrs = directive["split"]
                u, v = avs[i], avs[(i + 1) % n]
                if u > v:   # face traverses against canonical orientation
                    attrs = attrs[::-1]
                attrs = [{"status": a.get("status", "plain"),
                          "added": bool(a.get("added", False))}
                         for a in attrs]
                if e in split_plan and split_plan[e] != attrs:
                    raise RuleError(
                        "adjacent templates disagree on the subdivision of "
                        "edge %d" % e)
                split_plan[e] = attrs
            else:
                if isinstance(directive, dict) and "set" in directive:
                    attrs = {"status": directive["set"]["status"],
                             "added": bool(directive["set"].get("added",
                                                                False))}
                else:
                    old = t.edge_status[e]
                    if old not in rule.default_transition:
                        raise RuleError(
                            "no transition declared for surviving %s edge "
                            "%d" % (old, e))
                    attrs = {"status": rule.default_transition[old],
                             "added": t.edge_added[e]}
                if e in new_status and new_status[e] != attrs:
                    raise RuleError(
                        "adjacent templates disagree on the new status of "
                        "edge %d" % e)
                new_status[e] = attrs

    for e in split_plan:
        if e in new_status:
            raise RuleError(
                "adjacent templates disagree on the subdivision of edge "
                "%d" % e)

    # instantiate templates
    specs = []
    status = {}
    added = set()
    face_ranges = {}
    for f, tile, avs, aes in face_plans:
        n = tile.size
        names = {}
        for i in range(n):
            names["v%d" % i] = avs[i]
        side_keys = {}      # frozenset of instantiated names -> edge key
        for i in range(n):
            e = aes[i]
            u, v = avs[i], avs[(i + 1) % n]
            if e in split_plan:
                k = len(split_plan[e])
                segs, ivs = _canonical_chain(e, k)
                if u > v:
                    segs, ivs = segs[::-1], ivs[::-1]
                for j, nm in enumerate(ivs, start=1):
                    names["e%d.%d" % (i, j)] = nm
                chain = [u] + ivs + [v]
                for j in range(k):
                    side_keys[frozenset((chain[j], chain[j + 1]))] = segs[j]
            else:
                side_keys[frozenset((u, v))] = e
        start = len(specs)
        for tf in tile.faces:
            cyc = []
            for nm in tf["cycle"]:
                if nm not in names:
                    names[nm] = ("iv", f, nm)
                cyc.append(names[nm])
            keys = []
            m = len(cyc)
            for i in range(m):
                pair = frozenset((cyc[i], cyc[(i + 1) % m]))
                if pair in side_keys:
                    keys.append(side_keys[pair])
                else:
                    key = ("ie", f, frozenset((tf["cycle"][i],
                                               tf["cycle"][(i + 1) % m])))
                    keys.append(key)
                    sym = frozenset((tf["cycle"][i], tf["cycle"][(i + 1) % m]))
                    attrs = tile.interior_edges.get(
                        sym, {"status": "plain", "added": False})
                    status[key] = attrs["status"]
                    if attrs["added"]:
                        added.add(key)
            specs.append(face_spec(tf["label"], cyc, keys))
        face_ranges[f] = range(start, len(specs))

    for e, attrs in new_status.items():
        status[e] = attrs["status"]
        if attrs["added"]:
            added.add(e)
    for e, attrs_list in split_plan.items():
        segs, _ = _canonical_chain(e, len(attrs_list))
        for seg, a in zip(segs, attrs_list):
            status[seg] = a["status"]
            if a["added"]:
                added.add(seg)

    out = Tiling(specs, stage=t.stage + 1, edge_status=status,
                 added_edges=added)

    key_to_id = {k: i for i, k in enumerate(out.edge_keys)}
    name_to_id = {nm: i for i, nm in enumerate(out.vertex_names)}
    w = RefinementWitness()
    for v in range(t.num_vertices):
        if v in name_to_id:
            w.vertex_map[v] = name_to_id[v]
    for e in range(t.num_edges):
        if e in split_plan:
            segs, _ = _canonical_chain(e, len(split_plan[e]))
            w.edge_map[e] = [key_to_id[s] for s in segs]
        elif e in key_to_id:
            w.edge_map[e] = [key_to_id[e]]
    for f, rng in face_ranges.items():
        w.face_map[f] = set(rng)
    return out, w


# ---------------------------------------------------------------------
# replacement


def _loaded_groups(t: Tiling):
    """Partition face ids into components connected by loaded edges."""
    uf = UnionFind(t.num_faces)
    for e in range(t.num_edges):
        if t.edge_status[e] == "loaded":
            uf.union(*t.edge_faces(e))
    groups = {}
    for f in range(t.num_faces):
        groups.setdefault(uf.find(f), []).append(f)
    return [sorted(g) for g in sorted(groups.values())]


def _match_pattern(pat: Pattern, t: Tiling, group):
    """Map pattern region onto the group; returns (sigma, edge_of) or None.

    sigma maps symbolic vertex names to tiling vertex ids; edge_of maps
    symbolic edges (frozensets of names) to tiling edge ids.
    """
    if len(pat.region) != len(group):
        return None

    def face_alignments(pf, g):
        cyc = pf["cycle"]
        n = len(cyc)
        if pf["label"] != t.face_labels[g]:
            return
        vs = t.face_vertices(g)
        es = t.face_edges(g)
        if len(vs) != n:
            return
        for refl in (False, True):
            for r in range(n):
                if not refl:
                    avs = [vs[(r + i) % n] for i in range(n)]
                    aes = [es[(r + i) % n] for i in range(n)]
                else:
                    avs = [vs[(r - i) % n] for i in range(n)]
                    aes = [es[(r - i - 1) % n] for i in range(n)]
                yield avs, aes

    def extend(idx, sigma, edge_of, used):
        if idx == len(pat.region):
            return sigma, edge_of
        pf = pat.region[idx]
        cyc = pf["cycle"]
        n = len(cyc)
        for g in group:
            if g in used:
                continue
            for avs, aes in face_alignments(pf, g):
                s2 = dict(sigma)
                ok = True
                for nm, v in zip(cyc, avs):
                    if s2.get(nm, v) != v:
                        ok = False
                        break
                    s2[nm] = v
                if not ok:
                    continue
                if len(set(s2.values())) != len(s2):
                    continue
                e2 = dict(edge_of)
                for i in range(n):
                    sym = frozenset((cyc[i], cyc[(i + 1) % n]))
                    if e2.get(sym, aes[i]) != aes[i]:
                        ok = False
                        break
                    e2[sym] = aes[i]
                if not ok:
                    continue
                res = extend(idx + 1, s2, e2, used | {g})
                if res:
                    return res
        return None

    res = extend(0, {}, {}, frozenset())
    if not res:
        return None
    sigma, edge_of = res
    for sym, want in pat.internal.items():
        if t.edge_status[edge_of[sym]] != want:
            return None
    for sym, req in pat.boundary_req.items():
        want = req.get("status", ANY)
        if want not in (ANY, t.edge_status[edge_of[sym]]):
            return None
    # every loaded edge interior to the group must be part of the pattern
    mapped_internal = {edge_of[sym] for sym in pat.internal_edges}
    gset = set(group)
    for f in group:
        for e in t.face_edges(f):
            if t.edge_status[e] == "loaded" and set(t.edge_faces(e)) <= gset:
                if e not in mapped_internal:
                    return None
    return sigma, edge_of


def apply_replacement(rule: ReplacementRule, t: Tiling, with_witness=False):
    """Combine faces into groups along loaded edges and replace each group.

    Flap faces declared by the matched patterns are zipped in pairs across
    shared fragile-edge chains: both faces are removed and their remaining
    boundaries identified.  New vertices are numbered from
    ``t.num_vertices`` and new edge keys from ``t.num_edges`` upward, so
    old and new keys share one union-find.
    """
    specs = []          # (label, [names], [keys])
    status = {}
    added = set()
    flap_records = []   # (spec index, chain of old edge ids)
    boundary_to = {}    # old edge id -> prescribed new status
    group_faces = {}    # group index -> spec indices
    survivors_v = set()
    survivors_e = set()
    nv, ne = t.num_vertices, t.num_edges

    for gid, group in enumerate(_loaded_groups(t)):
        matched = None
        for pat in rule.patterns:
            m = _match_pattern(pat, t, group)
            if m:
                matched = (pat, m[0], m[1])
                break
        if not matched:
            raise RuleError(
                "no pattern of rule %s matches the group of faces %r "
                "(labels %r)" % (rule.name, group,
                                 [t.face_labels[f] for f in group]))
        pat, sigma, edge_of = matched

        for sym, req in pat.boundary_req.items():
            e = edge_of[sym]
            to = req.get("to")
            if to is None:
                continue
            if boundary_to.get(e, to) != to:
                raise RuleError(
                    "groups flanking edge %d prescribe different statuses"
                    % e)
            boundary_to[e] = to
            survivors_e.add(e)

        names = dict(sigma)
        new_keys = {}
        start = len(specs)
        for tf in pat.faces:
            cyc = []
            for nm in tf["cycle"]:
                if nm not in names:
                    names[nm] = nv
                    nv += 1
                cyc.append(names[nm])
            keys = []
            m = len(cyc)
            for i in range(m):
                sym = frozenset((tf["cycle"][i], tf["cycle"][(i + 1) % m]))
                if sym in pat.boundary_req:
                    keys.append(edge_of[sym])
                elif sym in new_keys:
                    keys.append(new_keys[sym])
                else:
                    new_keys[sym] = ne
                    keys.append(ne)
                    attrs = pat.edges.get(sym,
                                          {"status": "plain", "added": False})
                    status[ne] = attrs["status"]
                    if attrs["added"]:
                        added.add(ne)
                    ne += 1
            specs.append((tf["label"], cyc, keys))
        group_faces[gid] = list(range(start, len(specs)))
        survivors_v |= set(sigma.values())

        for flap in pat.flaps:
            chain = [edge_of[frozenset(ends)] for ends in flap["chain"]]
            flap_records.append((start + flap["face"], chain))

    for e, to in boundary_to.items():
        status[e] = to

    # -- zip flaps across fragile chains --------------------------------
    by_chain = {}
    for idx, chain in flap_records:
        by_chain.setdefault(frozenset(chain), []).append(idx)
    vert_uf = UnionFind(nv)
    key_uf = UnionFind(ne)
    dead = set()
    for chain_key, idxs in sorted(by_chain.items(), key=lambda kv: sorted(kv[0])):
        if len(idxs) != 2:
            raise RuleError(
                "collapse flap mismatch: fragile chain %r has %d flaps"
                % (sorted(chain_key), len(idxs)))
        (l1, c1, k1), (l2, c2, k2) = specs[idxs[0]], specs[idxs[1]]
        if len(c1) != len(c2):
            raise RuleError(
                "collapse flap mismatch: flap faces of different sizes")
        n = len(c1)
        # rotate both cycles so the shared chain occupies the same leading
        # positions, traversed in opposite directions (book closing)
        p1 = [i for i in range(n) if k1[i] in chain_key]
        p2 = [i for i in range(n) if k2[i] in chain_key]
        if len(p1) != len(chain_key) or len(p2) != len(chain_key):
            raise RuleError("collapse flap mismatch: chain not on flap face")
        # align by matching shared vertex ids along the chain
        aligned = False
        for r2 in range(n):
            c2r = [c2[(r2 + i) % n] for i in range(n)]
            k2r = [k2[(r2 + i) % n] for i in range(n)]
            for refl in (True, False):
                for r1 in range(n):
                    if refl:
                        c1r = [c1[(r1 - i) % n] for i in range(n)]
                        k1r = [k1[(r1 - i - 1) % n] for i in range(n)]
                    else:
                        c1r = [c1[(r1 + i) % n] for i in range(n)]
                        k1r = [k1[(r1 + i) % n] for i in range(n)]
                    if k1r[:len(chain_key)] == k2r[:len(chain_key)] and \
                            all(k in chain_key
                                for k in k2r[:len(chain_key)]) and \
                            c1r[0] == c2r[0] and \
                            c1r[len(chain_key)] == c2r[len(chain_key)]:
                        aligned = (c1r, k1r, c2r, k2r)
                        break
                if aligned:
                    break
            if aligned:
                break
        if not aligned:
            raise RuleError(
                "collapse flap mismatch: flap boundaries cannot be aligned")
        c1r, k1r, c2r, k2r = aligned
        for a, b in zip(c1r, c2r):
            vert_uf.union(a, b)
        for a, b in zip(k1r, k2r):
            if key_uf.find(a) != key_uf.find(b):
                sa = status.get(a, t.edge_status[a] if a < t.num_edges
                                else None)
                sb = status.get(b, t.edge_status[b] if b < t.num_edges
                                else None)
                if sa != sb:
                    raise RuleError(
                        "collapse flap mismatch: identified edges carry "
                        "different statuses")
                key_uf.union(a, b)
        dead.add(idxs[0])
        dead.add(idxs[1])

    vfind, kfind = vert_uf.find, key_uf.find
    final = []
    fmap = {}
    for i, (label, cyc, ks) in enumerate(specs):
        if i in dead:
            continue
        fmap[i] = len(final)
        final.append(face_spec(label, [vfind(v) for v in cyc],
                               [kfind(k) for k in ks]))
    rstatus = {kfind(k): s for k, s in status.items()}
    radded = {kfind(k) for k in added}

    out = Tiling(final, stage=t.stage + 1, edge_status=rstatus,
                 added_edges=radded)
    if not with_witness:
        return out

    key_to_id = {k: i for i, k in enumerate(out.edge_keys)}
    name_to_id = {nm: i for i, nm in enumerate(out.vertex_names)}
    w = RefinementWitness()
    for v in range(t.num_vertices):
        v2 = vfind(v)
        if v in survivors_v and v2 in name_to_id:
            w.vertex_map[v] = name_to_id[v2]
    for e in survivors_e:
        e2 = kfind(e)
        if e2 in key_to_id:
            w.edge_map[e] = [key_to_id[e2]]
    groups = _loaded_groups(t)
    for gid, group in enumerate(groups):
        if len(group) == 1:     # only single-face groups map unambiguously
            ids = {fmap[i] for i in group_faces[gid] if i in fmap}
            w.face_map[group[0]] = ids
    return out, w


# ---------------------------------------------------------------------
# validation


def _check_template_disk(faces, boundary_syms, where, diags):
    """The template faces plus a virtual outer face must form a sphere."""
    if not boundary_syms:
        # closed template: must itself be a closed surface
        try:
            Tiling([face_spec(f["label"], f["cycle"]) for f in faces])
        except Exception as exc:
            diags.append("%s: closed template is not a closed surface (%s)"
                         % (where, exc))
        return
    sides = {}
    for f in faces:
        cyc = f["cycle"]
        for i in range(len(cyc)):
            e = frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))
            sides[e] = sides.get(e, 0) + 1
    for e in boundary_syms:
        if sides.get(e, 0) != 1:
            diags.append("%s: boundary edge %r not covered exactly once"
                         % (where, sorted(e)))
            return
    V = len({v for f in faces for v in f["cycle"]})
    E = len(sides)
    F = len(faces)
    if V - E + F != 1:
        diags.append("%s: template is not a disk (V-E+F = %d)"
                     % (where, V - E + F))


def validate_rule(rule: Rule):
    """Diagnostics for a rule; an empty list means no violations found."""
    diags = []
    if rule.subdivision:
        for tile in rule.subdivision.tiles:
            where = "tile %s" % tile.name
            nsplit = sum(len(d["split"]) - 1 for d in tile.boundary
                         if isinstance(d, dict) and "split" in d)
            if tile.size + nsplit < 3:
                diags.append("%s: template boundary has fewer than three "
                             "vertices" % where)
            if len(tile.match) != tile.size or len(tile.boundary) != tile.size:
                diags.append("%s: matcher/boundary length differs from tile "
                             "size" % where)
                continue
            # boundary symbols after splitting
            bsyms = set()
            corners = ["v%d" % i for i in range(tile.size)]
            for i, d in enumerate(tile.boundary):
                u, v = corners[i], corners[(i + 1) % tile.size]
                if isinstance(d, dict) and "split" in d:
                    chain = [u] + ["e%d.%d" % (i, j)
                                   for j in range(1, len(d["split"]))] + [v]
                    for j in range(len(chain) - 1):
                        bsyms.add(frozenset(chain[j:j + 2]))
                else:
                    bsyms.add(frozenset((u, v)))
            _check_template_disk(tile.faces, bsyms, where, diags)
        out_labels = {f["label"] for tile in rule.subdivision.tiles
                      for f in tile.faces}
        in_labels = {tile.label for tile in rule.subdivision.tiles}
        orphans = out_labels - in_labels
        if orphans:
            diags.append("tile set cannot cover faces labeled %s produced "
                         "by its own templates" % sorted(orphans))
    if rule.replacement:
        for pat in rule.replacement.patterns:
            where = "pattern %s" % pat.name
            for f in pat.region + pat.faces:
                if len(f["cycle"]) < 3:
                    diags.append("%s: face with fewer than three vertices"
                                 % where)
            _check_template_disk(pat.faces, set(pat.boundary_req), where,
                                 diags)
            for flap in pat.flaps:
                if not (0 <= flap["face"] < len(pat.faces)):
                    diags.append("%s: flap face index out of range" % where)
                for ends in flap["chain"]:
                    sym = frozenset(ends)
                    if sym not in pat.boundary_req:
                        diags.append("%s: flap chain edge %r is not a "
                                     "region boundary edge"
                                     % (where, sorted(ends)))
        out_labels = {f["label"] for pat in rule.replacement.patterns
                      for f in pat.faces}
        in_labels = {f["label"] for pat in rule.replacement.patterns
                     for f in pat.region}
        orphans = out_labels - in_labels
        if orphans:
            diags.append("pattern set cannot cover faces labeled %s produced "
                         "by its own templates" % sorted(orphans))
    return diags


# ---------------------------------------------------------------------
# helpers


def strip_added_edges(t: Tiling, relabel=None) -> Tiling:
    """Merge faces across added edges, recovering the unsubdivided tiling."""
    if not any(t.edge_added):
        return t
    # walk each merged region's boundary, skipping over added edges
    done = set()
    specs = []
    status = {}
    for h0 in range(len(t.h_face)):
        if h0 in done or t.edge_added[t.h_edge[h0]]:
            continue
        cyc, keys = [], []
        h = h0
        while True:
            if h in done:
                break
            done.add(h)
            cyc.append(t.h_origin[h])
            keys.append(t.h_edge[h])
            status[t.h_edge[h]] = t.edge_status[t.h_edge[h]]
            h = t.h_next[h]
            while t.edge_added[t.h_edge[h]]:
                h = t.h_next[t.h_twin[h]]
        label = relabel or t.face_labels[t.h_face[h0]]
        specs.append(face_spec(label, cyc, keys))
    return Tiling(specs, stage=t.stage, edge_status=status)
