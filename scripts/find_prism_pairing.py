#!/usr/bin/env python3
"""Search for a side-face pairing of the dodecagonal prism.

We want an involution sigma on the 12 side squares (no fixed faces, with an
optional horizontal flip per pair) such that, together with top<->bottom
gluing, every vertical edge has cycle length 3 (four dodecagon vertex
classes of size 3) and every horizontal edge has cycle length 4.  To let
the same sigma serve the one-third-turn variant (top glued to bottom
rotated by 4), we only consider sigma commuting with i -> i+4.

Writes data/prism12.glue and data/utn.glue with the lexicographically
first valid configuration.
"""

import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from coversphere.gluing import GluingError, parse_gluing  # noqa: E402
from coversphere.unionfind import UnionFind  # noqa: E402

DATA = pathlib.Path(__file__).resolve().parents[1] / "src/coversphere/data"


def glue_text(sigma, flips, twist):
    lines = ["polyhedron prism12" if twist == 0 else "polyhedron utn"]
    lines.append("face T B : " + " ".join("t%d" % i for i in range(12)))
    lines.append("face D B : " + " ".join("b%d" % i for i in range(12)))
    for i in range(12):
        j = (i + 1) % 12
        lines.append("face S%d A : t%d t%d b%d b%d" % (i, i, j, j, i))
    lines.append("pair T D : " + " ".join(
        "t%d->b%d" % (i, (i + twist) % 12) for i in range(12)))
    for i in range(12):
        j = sigma[i]
        if j < i:
            continue
        i1, j1 = (i + 1) % 12, (j + 1) % 12
        if not flips[i]:
            m = [(i, j), (i1, j1)]
        else:
            m = [(i, j1), (i1, j)]
        lines.append("pair S%d S%d : " % (i, j) + " ".join(
            ["t%d->t%d" % p for p in m] + ["b%d->b%d" % p for p in m]))
    lines.append("expect-cycle t0 b0 : 3")
    lines.append("expect-cycle t0 t1 : 4")
    lines.append("expect-cycle b0 b1 : 4")
    return "\n".join(lines) + "\n"


def vertex_classes(sigma, flips):
    """Orbits of top vertices under the side pairings."""
    uf = UnionFind(12)
    for i in range(12):
        j = sigma[i]
        i1, j1 = (i + 1) % 12, (j + 1) % 12
        pairs = [(i, j), (i1, j1)] if not flips[i] else [(i, j1), (i1, j)]
        for a, b in pairs:
            uf.union(a, b)
    return sorted(uf.size[x] for x in range(12) if uf.find(x) == x)


def candidates():
    # sigma commuting with i -> i+4: determined by sigma on {0,1,2,3}
    for imgs in itertools.product(range(12), repeat=4):
        sigma = [0] * 12
        ok = True
        for r in range(3):
            for i in range(4):
                sigma[(i + 4 * r) % 12] = (imgs[i] + 4 * r) % 12
        for i in range(12):
            if sigma[i] == i or sigma[sigma[i]] != i:
                ok = False
                break
        if not ok:
            continue
        # flips constant on +4 orbits of pairs
        base_pairs = sorted({tuple(sorted((i, sigma[i]))) for i in range(4)})
        for bits in itertools.product((False, True), repeat=len(base_pairs)):
            flips = [False] * 12
            for (i, j), bit in zip(base_pairs, bits):
                for r in range(3):
                    a, b = (i + 4 * r) % 12, (j + 4 * r) % 12
                    flips[a] = flips[b] = bit
            yield sigma, flips


def main():
    for sigma, flips in candidates():
        if vertex_classes(sigma, flips) != [3, 3, 3, 3]:
            continue
        texts = {}
        ok = True
        for name, twist in (("prism12", 0), ("utn", 4)):
            text = glue_text(sigma, flips, twist)
            try:
                parse_gluing(text)
            except GluingError:
                ok = False
                break
            texts[name] = text
        if not ok:
            continue
        print("found: sigma =", sigma)
        print("       flips =", flips)
        for name, text in texts.items():
            path = DATA / (name + ".glue")
            path.write_text(text)
            print("wrote", path)
        return 0
    print("no valid pairing found")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
