#!/usr/bin/env python3
"""Derive replacement templates for the dodecagonal-prism rule.

For each kind of combination group appearing on the prism12 boundary
spheres, this finds one instance, expands the cover by one stage, and reads
off what the covering cell contributes to the next boundary: the template
faces (in terms of the region's boundary vertices plus fresh ones), the
status every surviving region edge receives, and which faces get folded
away across fragile edges (the collapse flaps).  The output is the pattern
list used in data/nxs1.json.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coversphere.cover import CoverState                    # noqa: E402
from coversphere.gluing import load_gluing_spec             # noqa: E402
from coversphere.rules import Pattern, _loaded_groups, _match_pattern  # noqa: E402
from coversphere.tiling import STATUSES                      # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/coversphere/data"

B12 = ["u%d" % i for i in range(1, 13)]

PROBES = [
    # (pattern name, stage to probe at, region faces)
    ("triple", 3, [
        {"label": "B", "cycle": ["a", "v", "b"] + B12[:9]},
        {"label": "A", "cycle": ["v", "a", "ya", "w"]},
        {"label": "A", "cycle": ["b", "v", "w", "yb"]},
    ]),
    ("ab_pair", 2, [
        {"label": "A", "cycle": ["x1", "x2", "y2", "y1"]},
        {"label": "B", "cycle": ["x2", "x1"] + B12[:10]},
    ]),
    ("aa_pair", 2, [
        {"label": "A", "cycle": ["p", "q", "s", "r"]},
        {"label": "A", "cycle": ["q", "x", "y", "s"]},
    ]),
    ("a_single", 1, [
        {"label": "A", "cycle": ["p", "q", "s", "r"]},
    ]),
    ("b_single", 1, [
        {"label": "B", "cycle": B12},
    ]),
]


def status_of(t, e):
    """Edge e's status, read off its mark."""
    return STATUSES[t.edge_marks[e] & 3]


def loose_pattern(name, region):
    count = {}
    for f in region:
        cyc = f["cycle"]
        for i in range(len(cyc)):
            e = frozenset((cyc[i], cyc[(i + 1) % len(cyc)]))
            count[e] = count.get(e, 0) + 1
    boundary = [{"ends": sorted(e), "status": "any"}
                for e, k in sorted(count.items(), key=lambda kv: sorted(kv[0]))
                if k == 1]
    return Pattern(name=name, region=region, boundary=boundary,
                   faces=[], edges={}, flaps=[])


def probe(state_factory, name, stage, region):
    state = state_factory()
    for _ in range(stage - 1):
        state.expand()
    t = state.boundary_sphere()
    pat = loose_pattern(name, region)
    groups = _loaded_groups(t)
    hit = None
    for group in groups:
        if tuple(sorted(t.face_labels[f] for f in group)) != pat.shape:
            continue
        m = _match_pattern(pat, t, group)
        if m:
            hit = (group, *m)
            break
    if not hit:
        return None
    group, sigma, edge_of = hit
    sigma = dict(zip(pat.vertex_syms, sigma))
    edge_of = dict(zip(pat.edge_syms, edge_of))

    slots = sorted(state.open_slots())
    group_slots = [slots[f] for f in group]
    old_cells = state.num_cells
    old_edge_root = {sym: t.edge_keys[e] for sym, e in edge_of.items()}
    old_status = {sym: status_of(t, e) for sym, e in edge_of.items()}
    name_root = {nm: t.vertex_names[v] for nm, v in sigma.items()}

    state.expand()
    t2 = state.boundary_sphere()
    cells = {state.slot_partner[s] // state.F for s in group_slots}
    assert len(cells) == 1, "group covered by %d cells" % len(cells)
    c2 = cells.pop()

    # vertex naming at the new stage
    vname = {}
    for nm, root in name_root.items():
        vname[state.verts.find(root)] = nm
    fresh = iter("n%d" % i for i in range(1, 100))

    def name_of(root):
        if root not in vname:
            vname[root] = next(fresh)
        return vname[root]

    spec = state.spec
    template_faces = []
    flaps = []
    new_edges = {}
    slots2 = sorted(state.open_slots())
    k2id = {k: i for i, k in enumerate(t2.edge_keys)}

    # survivors: new status of each region boundary edge
    boundary_out = []
    for sym in sorted(pat.boundary_req, key=sorted):
        root = state.edges.find(old_edge_root[sym])
        rec = {"ends": sorted(sym), "status": old_status[sym]}
        if root in k2id:
            rec["to"] = status_of(t2, k2id[root])
        else:
            rec["to"] = None    # folded away
        boundary_out.append(rec)

    fragile_roots = {state.edges.find(old_edge_root[sym]): sorted(sym)
                     for sym in pat.boundary_req
                     if old_status[sym] == "fragile"}

    for fi, fc in enumerate(spec.faces.values()):
        s = c2 * state.F + fi
        cyc = [name_of(state.verts.find(c2 * state.NV + u))
               for u in spec.face_verts[fi]]
        eroots = [state.edges.find(c2 * state.NE + e)
                  for e in spec.face_edges[fi]]
        if s in slots2:     # still open: a proper template face
            template_faces.append({"label": fc.label, "cycle": cyc})
            for i, r in enumerate(eroots):
                if r in k2id:
                    pair = tuple(sorted((cyc[i], cyc[(i + 1) % len(cyc)])))
                    new_edges[pair] = status_of(t2, k2id[r])
            continue
        partner_cell = state.slot_partner[s] // state.F
        if partner_cell < old_cells or partner_cell == c2:
            continue        # the attachment to the covered group itself
        # folded onto another new cell: a collapse flap
        chain = [fragile_roots[r] for r in eroots if r in fragile_roots]
        assert chain, "fold without a fragile region edge"
        template_faces.append({"label": fc.label, "cycle": cyc})
        flaps.append({"face": len(template_faces) - 1, "chain": chain})

    region_syms = {tuple(sorted(b["ends"])) for b in boundary_out}
    edges_out = [{"ends": list(pair), "status": st}
                 for pair, st in sorted(new_edges.items())
                 if pair not in region_syms and st != "plain"]

    return {
        "name": name,
        "region": region,
        "boundary": boundary_out,
        "template": {"faces": template_faces, "edges": edges_out},
        "flaps": flaps,
    }


def main():
    spec = load_gluing_spec(DATA / "prism12.glue")
    out = []
    for name, stage, region in PROBES:
        rec = probe(lambda: CoverState(spec), name, stage, region)
        if rec is None:
            print("no instance found for", name, file=sys.stderr)
            continue
        out.append(rec)
    print(json.dumps(out, indent=2))


if __name__ == "__main__":
    main()
