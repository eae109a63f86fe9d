"""Euclidean circle packing of triangulated disk complexes.

A sphere tiling minus one face gives a disk; non-triangular faces are
star-triangulated with a barycenter vertex.  Radii are solved by the
uniform-neighbor angle-sum iteration with fixed unit boundary radii, then
centers are laid out breadth-first by circle intersection.
"""

import math
from collections import deque
from dataclasses import dataclass, field

from .tiling import Tiling

DEFAULT_TOL = 1e-8
MAX_ITER = 10 ** 6


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


def _angle(rv, ru, rw):
    x = (ru * rw) / ((rv + ru) * (rv + rw))
    return 2.0 * math.asin(math.sqrt(x))


def _angle_sum(p, radius, v):
    return sum(_angle(radius[v], radius[u], radius[w])
               for u, w in p.tris_at[v])


def pack(p: PackingProblem, tolerance=DEFAULT_TOL) -> PackingLabel:
    radius = {v: 1.0 for v in p.vertices}
    if not p.interior:
        label = PackingLabel(p, radius)
        _layout(label)
        return label
    target = 2.0 * math.pi
    for it in range(1, MAX_ITER + 1):
        worst = 0.0
        for v in p.interior:
            k = len(p.tris_at[v])
            theta = _angle_sum(p, radius, v)
            worst = max(worst, abs(theta - target))
            # uniform-neighbor update: pretend all petals share one
            # radius, solve for the radius giving angle sum exactly 2*pi
            beta = math.sin(theta / (2 * k))
            rhat = radius[v] * beta / (1.0 - beta)
            delta = math.sin(math.pi / k)
            radius[v] = rhat * (1.0 - delta) / delta
        if worst <= tolerance:
            label = PackingLabel(p, radius, residual=worst, iterations=it)
            _layout(label)
            return label
    raise PackError(f"no convergence after {MAX_ITER} sweeps "
                    f"(residual {worst:.3e})")


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
    a, b, c = p.triangles[0]
    center[a] = (0.0, 0.0)
    center[b] = (radius[a] + radius[b], 0.0)
    _place_third(a, b, c, center, radius)
    done = {0}
    q = deque([0])
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


def render_svg(label: PackingLabel, stroke="black", width=640) -> str:
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'viewBox="{x0:.6f} {y0:.6f} {x1 - x0:.6f} {y1 - y0:.6f}">',
    ]
    for v in sorted(label.center, key=str):
        x, y = label.center[v]
        lines.append(
            f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{label.radius[v]:.6f}" '
            f'fill="none" stroke="{stroke}" '
            f'stroke-width="{max(rs) / 100:.6f}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
