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

    # one B(radius) per group gives both its sizes and its K(2, n)
    balls = {name: ball(make_group(name), args.radius)
             for name in ("Z", "Z3", "heis", "sol")}
    print("ball sizes")
    for name, bd in balls.items():
        print(f"  {name:<5}",
              [bd.ball_size(k) for k in range(args.radius + 1)])

    print(f"\nK(2, n) profiles, n = 2..{args.radius}")
    for name, bd in balls.items():
        table = ac_profile(lambda r, bd=bd: bd, args.radius)
        print(f"  {name:<5}", [table[n] for n in sorted(table)])

    print(f"\ndepth-{args.depth} cone-type class counts, "
          f"n = 2..{args.cone_radius}")
    for name in ("Z", "Z3", "heis"):
        # cone types at radius n read B(n + depth); the largest ball
        # holds every smaller one with the same ids, so one serves all n
        bd = ball(make_group(name), args.cone_radius + args.depth)
        counts = [cone_type_count(lambda r, bd=bd: bd, n,
                                  args.depth).class_count
                  for n in range(2, args.cone_radius + 1)]
        print(f"  {name:<5}", counts)


if __name__ == "__main__":
    main()
