"""Command-line front end.

All statistics are emitted as JSON with sorted keys so identical
invocations produce byte-identical output.
"""

import argparse
import functools
import itertools
import json
import sys
from array import array

# cayley and pack are imported by their own commands, so no other
# command compiles them
from . import catalog, growth
from .cover import balls
from .gluing import load_gluing_spec
from .rules import apply_replacement  # noqa: F401 (the bench reads it)
from .tiling import Tiling, is_sphere_counts, isomorphic


def _emit(obj, path):
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _write(text, path):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {n}")
    return n


def _load_spec(name_or_path):
    if name_or_path.endswith(".glue"):
        return load_gluing_spec(name_or_path)
    return catalog.load_spec(name_or_path)


def _cmd_rules(args):
    _emit([{"name": n, "geometry": g, "modes": list(m)}
           for n, g, m in catalog.list_rules()], "-")
    return 0


def _cmd_subdivide(args):
    entry = catalog.get_rule(args.rule)
    mode = entry.resolve_mode(args.mode)
    faces, edges, verts = [], [], []
    for t in growth.stage_tilings(entry, args.steps, mode):
        faces.append(t.num_faces)
        edges.append(t.num_edges)
        verts.append(t.num_vertices)
    if args.stats:
        _emit({"rule": entry.name, "mode": mode, "steps": args.steps,
               "face_counts": faces, "edge_counts": edges,
               "vertex_counts": verts}, args.stats)
    if args.out:
        _write(t.to_json(), args.out)
    return 0


def _cmd_cover(args):
    spec = _load_spec(args.spec)
    cells, faces, spheres = [], [], []
    for state in balls(spec, args.steps, args.cap):
        counts = state.boundary_counts()
        cells.append(state.num_cells)
        faces.append(counts[0])
        spheres.append(is_sphere_counts(counts))
    _emit({"spec": spec.name or args.spec, "steps": args.steps,
           "cells": cells, "face_counts": faces,
           "all_spheres": all(spheres)}, args.stats)
    return 0


def _cmd_growth(args):
    entry = catalog.get_rule(args.rule)
    rep = growth.growth_report(entry, args.steps, args.mode)
    _emit({"rule": rep.name, "mode": rep.mode,
           "face_counts": rep.faces, "edge_counts": rep.edges,
           "vertex_counts": rep.vertices,
           "classification": str(rep.classification),
           "evidence": rep.classification.evidence}, "-")
    return 0


def _cmd_cayley(args):
    from . import cayley
    g = cayley.make_group(args.group)
    build = functools.partial(cayley.ball, g, cap=args.cap)
    if args.ac2:
        table = cayley.ac_profile(build, args.radius)
        _emit({"group": g.name, "m": 2,
               "K": {str(n): table[n] for n in sorted(table)}}, "-")
        return 0
    if args.cones:
        rep = cayley.cone_type_count(build, args.radius, args.depth)
        _emit({"group": rep.group, "radius": rep.radius,
               "depth": rep.depth, "class_count": rep.class_count,
               "class_sizes": rep.class_sizes,
               "bucket_count": rep.bucket_count}, "-")
        return 0
    bd = build(args.radius)
    _emit({"group": g.name, "radius": args.radius,
           "ball_sizes": [bd.ball_size(k)
                          for k in range(args.radius + 1)]}, "-")
    return 0


def _cmd_pack(args):
    from . import pack as packmod
    with open(args.infile) as fh:
        t = Tiling.from_json(fh.read())
    label = packmod.pack(packmod.triangulate(t, args.open),
                         tolerance=args.tolerance)
    if args.svg:
        _write(packmod.render_svg(label), args.svg)
    rows = [{"vertex": str(v), "radius": round(label.radius[v], 9),
             "x": round(label.center[v][0], 9),
             "y": round(label.center[v][1], 9)}
            for v in sorted(label.center, key=str)]
    _emit({"residual": label.residual <= args.tolerance,
           "tangency_error_ok": packmod.tangency_error(label) <= 1e-6,
           "circles": rows}, args.stats)
    return 0


def _cmd_verify(args):
    entry = catalog.get_rule(args.rule)
    # a flat zip, cover before rule: enumerate(zip(...)) peaked higher
    stages = zip(itertools.count(1), balls(entry.spec, args.steps),
                 growth.stage_tilings(entry, args.steps))
    names = []      # per vertex of the last rule stage: its image's name
    for stage, state, t in stages:
        sphere = state.boundary_sphere()
        images = []
        if not isomorphic(t, sphere, _seed(t, names, sphere),
                          images if stage < args.steps else None):
            print(f"stage {stage}: rule output does not match cover "
                  f"({t.num_faces} vs {sphere.num_faces} faces)",
                  file=sys.stderr)
            return 1
        names = array("q", map(sphere.vertex_names.__getitem__, images))
    _emit({"rule": entry.name, "spec": entry.companion,
           "steps": args.steps, "equivalent": True}, "-")
    return 0


def _seed(t, names, sphere):
    """Where to seed rule stage t's match with the cover's sphere: a
    vertex of each, or None.  ``names`` gives, per vertex of the last
    rule stage, the cover name of its image in the last match.  A rule
    stage names a vertex that survives from the last stage by its id
    there, and the cover keeps a vertex's name, so a survivor should map
    to the vertex of the sphere with its image's name.  The seed is the
    first vertex of the sphere named so, with its survivor."""
    if not names:
        return None
    kept = {names[u]: v for v, u in enumerate(t.vertex_names)
            if u < len(names)}
    w = next(itertools.compress(itertools.count(), map(
        kept.__contains__, sphere.vertex_names)), None)
    return None if w is None else (kept[sphere.vertex_names[w]], w)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="coversphere",
        description="Subdivision/replacement rules on boundary spheres "
                    "of glued-polyhedron covers.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rules", help="catalog operations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(fn=_cmd_rules)

    p = sub.add_parser("subdivide", help="run a rule for N steps")
    p.add_argument("--rule", required=True)
    p.add_argument("--steps", type=positive_int, required=True)
    p.add_argument("--mode", choices=["replacement", "subdivision"])
    p.add_argument("--stats", help="stats JSON path or '-'")
    p.add_argument("--out", help="final-stage tiling JSON path or '-'")
    p.set_defaults(fn=_cmd_subdivide)

    p = sub.add_parser("cover", help="grow a cover from a gluing spec")
    p.add_argument("--spec", required=True,
                   help="bundled spec name or .glue path")
    p.add_argument("--steps", type=positive_int, required=True)
    p.add_argument("--stats", default="-")
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="exit 2 as soon as a ball would pass CAP cells; "
                        "no ball built holds more")
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("growth", help="classify a rule's face-count growth")
    p.add_argument("--rule", required=True)
    p.add_argument("--steps", type=positive_int, required=True)
    p.add_argument("--mode", choices=["replacement", "subdivision"])
    p.set_defaults(fn=_cmd_growth)

    p = sub.add_parser("cayley", help="Cayley-graph experiments")
    p.add_argument("--group", required=True)
    p.add_argument("--radius", type=int, required=True)
    which = p.add_mutually_exclusive_group()
    which.add_argument("--ac2", action="store_true",
                       help="almost-convexity table K(2, n)")
    which.add_argument("--cones", action="store_true",
                       help="approximate cone-type count")
    p.add_argument("--depth", type=int, default=2)
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="exit 2 if a ball, with the sphere past it that "
                        "it names, would pass CAP elements")
    p.set_defaults(fn=_cmd_cayley)

    p = sub.add_parser("pack", help="circle-pack a tiling JSON file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--open", type=int, default=0)
    p.add_argument("--svg")
    p.add_argument("--stats", default="-")
    p.add_argument("--tolerance", type=float, default=1e-8)
    p.set_defaults(fn=_cmd_pack)

    p = sub.add_parser("verify",
                       help="check a rule against its companion cover")
    p.add_argument("--rule", required=True)
    p.add_argument("--steps", type=positive_int, required=True)
    p.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
