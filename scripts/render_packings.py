#!/usr/bin/env python3
"""Circle-pack successive stages of a rule and write SVG figures."""

import argparse
import pathlib

from coversphere.catalog import get_rule
from coversphere.growth import stage_tilings
from coversphere.pack import pack, render_svg, tangency_error, triangulate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--rule", default="torus3")
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--open", type=int, default=0,
                    help="face removed before packing")
    ap.add_argument("--outdir", default="figures")
    args = ap.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    entry = get_rule(args.rule)
    for i, t in enumerate(stage_tilings(entry, args.steps), start=1):
        label = pack(triangulate(t, args.open))
        path = outdir / f"{args.rule}_stage{i}.svg"
        path.write_text(render_svg(label))
        print(f"{path}  faces={t.num_faces} "
              f"circles={len(label.center)} residual={label.residual:.2e} "
              f"tangency={tangency_error(label):.2e}")


if __name__ == "__main__":
    main()
