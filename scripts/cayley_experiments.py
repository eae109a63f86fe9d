#!/usr/bin/env python3
"""Almost-convexity profiles and cone-type censuses for the built-in groups."""

import argparse

from coversphere.cayley import ac_profile, ball, cone_type_count, make_group


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=int, default=6)
    ap.add_argument("--cone-radius", type=int, default=8)
    ap.add_argument("--depth", type=int, default=2)
    args = ap.parse_args()

    print("ball sizes")
    for name in ("Z", "Z3", "heis", "sol"):
        bd = ball(make_group(name), args.radius)
        print(f"  {name:<5}",
              [bd.ball_size(k) for k in range(args.radius + 1)])

    print(f"\nK(2, n) profiles, n = 2..{args.radius}")
    for name in ("Z", "Z3", "heis", "sol"):
        table = ac_profile(make_group(name), args.radius)
        print(f"  {name:<5}", [table[n] for n in sorted(table)])

    print(f"\ndepth-{args.depth} cone-type class counts, "
          f"n = 2..{args.cone_radius}")
    for name in ("Z", "Z3", "heis"):
        g = make_group(name)
        counts = [cone_type_count(g, n, args.depth).class_count
                  for n in range(2, args.cone_radius + 1)]
        print(f"  {name:<5}", counts)


if __name__ == "__main__":
    main()
