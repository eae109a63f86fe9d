"""Euclidean circle packing of triangulated disk complexes.

A sphere tiling minus one face gives a disk; non-triangular faces are
star-triangulated with a barycenter vertex.  Boundary radii are fixed at
1.  Interior radii are solved over vertex-indexed lists by Gauss-Seidel
sweeps of the uniform-neighbour update, accelerated by Collins and
Stephenson's superstep, then centers are laid out breadth-first by circle
intersection from a triangle deep inside the disk.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass, field

from .tiling import Tiling

DEFAULT_TOL = 1e-8
MAX_ITER = 10 ** 6
TWO_PI = 2.0 * math.pi
SETTLED = 0.1
SVG_STROKE = "black"
SVG_WIDTH = 640


class PackError(ValueError):
    pass


@dataclass
class PackingProblem:
    vertices: list              # sorted vertex ids
    triangles: list             # consistently oriented (a, b, c) triples
    boundary: set               # vertices with fixed radius

    def __post_init__(self):
        self.tris_at = {v: [] for v in self.vertices}
        for tri in self.triangles:
            for i, v in enumerate(tri):
                self.tris_at[v].append((tri[(i + 1) % 3], tri[(i + 2) % 3]))
        self.interior = [v for v in self.vertices if v not in self.boundary]
        for v in self.interior:
            if len(self.tris_at[v]) < 3:
                raise PackError(f"interior vertex {v!r} has valence < 3")


@dataclass
class PackingLabel:
    problem: PackingProblem
    radius: dict
    center: dict = field(default_factory=dict)
    residual: float = 0.0
    iterations: int = 0


def flower(k: int) -> PackingProblem:
    """One interior vertex surrounded by k boundary petals."""
    if k < 3:
        raise PackError("flower needs at least 3 petals")
    verts = ["c"] + [f"p{i}" for i in range(k)]
    tris = [("c", f"p{i}", f"p{(i + 1) % k}") for i in range(k)]
    return PackingProblem(sorted(verts), tris, set(verts) - {"c"})


def triangulate(t: Tiling, removed_face: int) -> PackingProblem:
    if not t.is_sphere():
        raise PackError("packing input must be a sphere tiling")
    if removed_face not in range(t.num_faces):
        raise PackError(f"no such face: {removed_face}")
    boundary = set(t.face_vertices(removed_face))
    verts = set()
    tris = []
    for f in range(t.num_faces):
        if f == removed_face:
            continue
        cyc = t.face_vertices(f)
        verts.update(cyc)
        if len(cyc) == 3:
            tris.append(tuple(cyc))
        else:
            bary = ("bary", f)
            verts.add(bary)
            for i, v in enumerate(cyc):
                tris.append((v, cyc[(i + 1) % len(cyc)], bary))
    return PackingProblem(sorted(verts, key=str), tris, boundary)


def _angle_sum(r, v, petals):
    """Angle sum at v of its triangles (v, u, w), from the radii in r."""
    rv = r[v]
    theta = 0.0
    for u, w in petals:
        ru, rw = r[u], r[w]
        theta += math.asin(math.sqrt(ru * rw / ((rv + ru) * (rv + rw))))
    return 2.0 * theta


def _worst_error(r, flowers):
    return max(abs(_angle_sum(r, v, petals) - TWO_PI)
               for v, petals, _ in flowers)


def _sweep(r, flowers):
    """One Gauss-Seidel sweep of uniform-neighbour updates, in place.

    Each interior radius is set so that, were all its petals of one
    radius, its angle sum would be exactly 2*pi.  Returns the worst and
    the root-sum-square angle-sum error seen before each update.
    """
    worst = squares = 0.0
    for v, petals, gain in flowers:
        theta = _angle_sum(r, v, petals)
        err = abs(theta - TWO_PI)
        squares += err * err
        if err > worst:
            worst = err
        beta = math.sin(theta / (2 * len(petals)))
        r[v] *= beta / (1.0 - beta) * gain
    return worst, math.sqrt(squares)


def _superstep(r, last, flowers, fact):
    """Extrapolate the radii along their last change, in place.

    While sweeps shrink the error by a steady factor ``fact``, the
    remaining radius change is about ``fact / (1 - fact)`` times the last
    one.  The step is capped so no radius loses more than half of itself,
    then halved until the worst error drops; a step below one sweep's
    change is not worth taking, and the radii are left as they were.
    """
    change = [a - b for a, b in zip(r, last)]
    step = fact / (1.0 - fact)
    for x, dx in zip(r, change):
        if dx < 0.0:
            step = min(step, -0.5 * x / dx)
    base = r[:]
    before = _worst_error(r, flowers)
    while step >= 1.0:
        r[:] = [x + step * dx for x, dx in zip(base, change)]
        if _worst_error(r, flowers) < before:
            return
        step /= 2.0
    r[:] = base


def _solve(r, flowers, tolerance):
    """Sweep r until within tolerance; return the residual and sweeps."""
    facts = []
    err = None
    for it in range(1, MAX_ITER + 1):
        last = r[:]
        worst, new_err = _sweep(r, flowers)
        if worst <= tolerance:
            return worst, it
        if err:
            facts = facts[-2:] + [new_err / err]
        err = new_err
        # settled: three ratios agree, which pins fact/(1-fact) to 10%
        fact = facts[-1] if len(facts) == 3 else 1.0
        if fact < 1.0 and all(abs(f - fact) < SETTLED * (1.0 - fact)
                              for f in facts[:2]):
            _superstep(r, last, flowers, fact)
            facts = []
            err = None
    raise PackError(f"no convergence after {MAX_ITER} sweeps "
                    f"(residual {worst:.3e})")


def pack(p: PackingProblem, tolerance=DEFAULT_TOL) -> PackingLabel:
    """Radii and centers with every interior angle sum within tolerance.

    Sweeps run until the worst ``|theta - 2*pi|`` of a sweep is at most
    ``tolerance``; ``iterations`` counts them.  Once the ratio of
    successive sweeps' errors has settled, a superstep (Collins &
    Stephenson, "A circle packing algorithm", 2003) jumps ahead.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise PackError(f"tolerance must be finite and positive, "
                        f"not {tolerance}")
    # an angle sum of k terms near 2*pi carries about k*2*pi*eps of
    # rounding, so no sweep can be trusted to get closer than that
    k_max = max((len(p.tris_at[v]) for v in p.interior), default=0)
    floor = k_max * TWO_PI * sys.float_info.epsilon
    if tolerance < floor:
        raise PackError(f"tolerance {tolerance:g} is below {floor:.1e}, "
                        f"the rounding floor of an angle sum at valence "
                        f"{k_max}")
    index = {v: i for i, v in enumerate(p.vertices)}
    flowers = []
    for v in p.interior:
        delta = math.sin(math.pi / len(p.tris_at[v]))
        flowers.append((index[v],
                        [(index[u], index[w]) for u, w in p.tris_at[v]],
                        (1.0 - delta) / delta))
    r = [1.0] * len(p.vertices)
    worst, sweeps = _solve(r, flowers, tolerance) if flowers else (0.0, 0)
    label = PackingLabel(p, dict(zip(p.vertices, r)), residual=worst,
                         iterations=sweeps)
    _layout(label)
    return label


def _place_third(a, b, c, center, radius):
    ax, ay = center[a]
    bx, by = center[b]
    d = math.hypot(bx - ax, by - ay)
    ra, rb = radius[a] + radius[c], radius[b] + radius[c]
    x = (d * d + ra * ra - rb * rb) / (2 * d)
    y2 = ra * ra - x * x
    y = math.sqrt(max(y2, 0.0))
    ux, uy = (bx - ax) / d, (by - ay) / d
    # keep (a, b, c) counterclockwise
    center[c] = (ax + x * ux - y * uy, ay + x * uy + y * ux)


def _root_triangle(p: PackingProblem) -> int:
    """A triangle at the vertex farthest from the boundary (first in order).

    Each residual angle error turns everything laid out after it, so the
    breadth-first layout starts deep inside, where every circle is fewest
    steps from the root (CirclePack's "alpha" vertex).
    """
    depth = dict.fromkeys(p.boundary, 0)
    level = list(p.boundary)
    while level:
        nxt = []
        for v in level:
            for pair in p.tris_at[v]:
                for u in pair:
                    if u not in depth:
                        depth[u] = depth[v] + 1
                        nxt.append(u)
        level = nxt
    alpha = max(p.vertices, key=lambda v: depth.get(v, 0))
    return next(i for i, tri in enumerate(p.triangles) if alpha in tri)


def _layout(label: PackingLabel):
    p, radius = label.problem, label.radius
    if not p.triangles:
        raise PackError("empty packing: nothing to lay out")
    center = label.center
    by_edge = {}
    for idx, tri in enumerate(p.triangles):
        for i in range(3):
            by_edge.setdefault(frozenset((tri[i], tri[(i + 1) % 3])),
                               []).append(idx)
    root = _root_triangle(p)
    a, b, c = p.triangles[root]
    center[a] = (0.0, 0.0)
    center[b] = (radius[a] + radius[b], 0.0)
    _place_third(a, b, c, center, radius)
    done = {root}
    q = deque([root])
    while q:
        idx = q.popleft()
        tri = p.triangles[idx]
        for i in range(3):
            edge = frozenset((tri[i], tri[(i + 1) % 3]))
            for j in by_edge[edge]:
                if j in done:
                    continue
                t2 = p.triangles[j]
                placed = [v for v in t2 if v in center]
                if len(placed) >= 2:
                    done.add(j)
                    q.append(j)
                    if len(placed) == 2:
                        k = next(i2 for i2, v in enumerate(t2)
                                 if v not in center)
                        _place_third(t2[(k + 1) % 3], t2[(k + 2) % 3],
                                     t2[k], center, radius)


def tangency_error(label: PackingLabel) -> float:
    worst = 0.0
    for tri in label.problem.triangles:
        for i in range(3):
            u, w = tri[i], tri[(i + 1) % 3]
            ux, uy = label.center[u]
            wx, wy = label.center[w]
            gap = math.hypot(wx - ux, wy - uy) \
                - (label.radius[u] + label.radius[w])
            worst = max(worst, abs(gap))
    return worst


def render_svg(label: PackingLabel) -> str:
    if not label.center:
        raise PackError("empty packing label")
    xs = [label.center[v][0] for v in label.center]
    ys = [label.center[v][1] for v in label.center]
    rs = [label.radius[v] for v in label.center]
    pad = max(rs)
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" '
        f'viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">',
    ]
    for v in sorted(label.center, key=str):
        x, y = label.center[v]
        lines.append(
            f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{label.radius[v]:.6f}" '
            f'fill="none" stroke="{SVG_STROKE}" '
            f'stroke-width="{max(rs) / 100:.6f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
