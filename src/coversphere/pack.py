"""Euclidean circle packing of triangulated disk complexes.

A sphere tiling minus one face gives a disk; non-triangular faces are
star-triangulated with a barycenter vertex.  Boundary radii are fixed at
1.  Interior radii are solved by Newton steps in log radii, each a
sparse linear solve by Jacobi-preconditioned conjugate gradients over
flat index lists; then centers are laid out breadth-first by circle
intersection from the complex's first triangle.
"""

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import zip_longest
from operator import add, mul, sub, truediv
from typing import NamedTuple

from .tiling import Tiling

DEFAULT_TOL = 1e-8
MAX_STEPS = 100
MIN_STEP = 2.0 ** -30
TWO_PI = 2.0 * math.pi
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
            petals = self.tris_at[v]
            if len(petals) < 3:
                raise PackError(f"interior vertex {v!r} has valence < 3")
            # closed: each neighbour is once a first, once a second petal
            firsts = {u for u, _ in petals}
            if len(firsts) < len(petals) or firsts != {w for _, w in petals}:
                raise PackError(f"interior vertex {v!r} has an open flower")


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


class _Pattern(NamedTuple):
    """Flat index lists over the corners of the interior vertices.

    Interior vertices come first in the radius list, ``n`` of them, in
    order of falling degree, so row v of the Jacobian is radius index v.
    Each has one corner (v, u, w) per triangle, in a closed flower, so
    one per neighbour u: its Jacobian entry (v, u) sums the triangles
    ``t1`` = (v, u, w) and ``t2`` = (v, x, u) holding edge vu, and sits
    in column ``cols`` = u, or ``n`` for a boundary u.  The lists run
    layer by layer: layer k holds corner k of every vertex of degree
    above k, which are the first ones, and ends at ``bounds[k]``.
    """
    bounds: list
    v: list
    u: list
    w: list
    t1: list
    t2: list
    cols: list
    tris: tuple         # the first, second and third vertex of each triangle


def _index(p):
    """The vertices in radius-list order, and their ``_Pattern``."""
    inner = sorted(p.interior, key=lambda v: -len(p.tris_at[v]))
    order = inner + [v for v in p.vertices if v in p.boundary]
    index = {v: i for i, v in enumerate(order)}
    n = len(inner)
    tris = [[index[x] for x in tri] for tri in p.triangles]
    corners = [[] for _ in range(n)]
    for t, abc in enumerate(tris):
        for i, x in enumerate(abc):
            if x < n:
                corners[x].append((abc[i - 2], abc[i - 1], t))
    second = [{w: t for _, w, t in cs} for cs in corners]
    pat = _Pattern([], [], [], [], [], [], [], tuple(zip(*tris)))
    for layer in zip_longest(*corners):
        for x, corner in enumerate(layer):
            if corner is None:
                break
            u, w, t = corner
            pat.v.append(x)
            pat.u.append(u)
            pat.w.append(w)
            pat.t1.append(t)
            pat.t2.append(second[x][u])
            pat.cols.append(min(u, n))
        pat.bounds.append(len(pat.v))
    return order, pat


def _row_sums(values, bounds):
    """Per interior vertex, the sum of its entries in the layered list."""
    sums = values[:bounds[0]]
    for start, stop in zip(bounds, bounds[1:]):
        m = stop - start
        sums[:m] = map(add, sums[:m], values[start:stop])
    return sums


def _angle_sums(r, pat):
    """Per interior vertex, the angle sum of its triangles at the radii r."""
    rv, ru, rw = (list(map(r.__getitem__, x))
                  for x in (pat.v, pat.u, pat.w))
    halves = map(math.asin, map(math.sqrt, map(
        truediv, map(mul, ru, rw), map(mul, map(add, rv, ru),
                                       map(add, rv, rw)))))
    return [2.0 * x for x in _row_sums(list(halves), pat.bounds)]


def _jacobian(r, pat):
    """The Jacobian J of the interior angle sums in u = log r, as the
    diagonal ``d`` of -J and the per-corner off-diagonal entries ``c``
    of J.

    Per triangle T = (a, b, c), rho_T = sqrt(r_a r_b r_c / (r_a+r_b+r_c))
    is the inradius of its centers' triangle, and the angle of T at v
    grows with u_w at rate rho_T / (r_v + r_w).  Scaling every radius
    leaves each angle as it is, so the diagonal is minus its row's
    off-diagonal sum, boundary columns included.
    """
    rho = [math.sqrt(a * b * c / (a + b + c))
           for a, b, c in zip(*(map(r.__getitem__, x) for x in pat.tris))]
    c = list(map(truediv, map(add, map(rho.__getitem__, pat.t1),
                              map(rho.__getitem__, pat.t2)),
                 map(add, map(r.__getitem__, pat.v),
                      map(r.__getitem__, pat.u))))
    return _row_sums(c, pat.bounds), c


def _dot(x, y):
    return sum(map(mul, x, y))


def _cg(d, c, pat, b, forcing):
    """x with |b - Ax| <= forcing * |b| for A = -J, by conjugate gradients
    preconditioned with A's diagonal.  A is symmetric, and positive
    definite: each diagonal entry is its row's off-diagonal sum in J,
    boundary columns included, and the interior of a disk is connected
    to its boundary."""
    def times(x):
        xs = x + [0.0]      # column n: every boundary neighbour
        prods = list(map(mul, c, map(xs.__getitem__, pat.cols)))
        return list(map(sub, map(mul, d, x), _row_sums(prods, pat.bounds)))

    inv = [1.0 / x for x in d]
    x = [0.0] * len(b)
    res = b
    rr = _dot(res, res)
    goal = forcing * forcing * rr
    z = p = list(map(mul, res, inv))
    rz = _dot(res, z)
    for _ in range(len(b)):
        if rr <= goal:
            break
        q = times(p)
        alpha = rz / _dot(p, q)
        x = [xi + alpha * pi for xi, pi in zip(x, p)]
        res = [ri - alpha * qi for ri, qi in zip(res, q)]
        rr = _dot(res, res)
        z = list(map(mul, res, inv))
        last, rz = rz, _dot(res, z)
        beta = rz / last
        p = [zi + beta * pi for zi, pi in zip(z, p)]
    return x


def _errors(r, pat):
    """Per interior vertex theta - 2*pi, and the worst of their sizes."""
    errors = [theta - TWO_PI for theta in _angle_sums(r, pat)]
    return errors, max(map(abs, errors))


def _solve(r, pat, tolerance, floor):
    """Newton steps in u = log r until within tolerance, then one more;
    returns the residual and the steps taken.

    Each step solves J du = -(theta - 2*pi) by ``_cg`` to the relative
    tolerance min(0.1, worst error), then halves du until the worst
    error drops.  The step after the first one within tolerance polishes
    the radii to rounding level; it is kept only if it lowers the worst
    error.  Once the worst error is below sqrt(floor), the relative
    tolerance stops at floor / worst error: a step only gets within the
    rounding ``floor`` of the angle sums, however well it is solved.
    """
    n = pat.bounds[0]
    errors, worst = _errors(r, pat)
    steps = 0
    while worst > 0.0:      # exact angle sums need no step
        polish = worst <= tolerance
        if steps == MAX_STEPS and not polish:
            raise PackError(f"no convergence after {MAX_STEPS} Newton "
                            f"steps (residual {worst:.3e})")
        d, c = _jacobian(r, pat)
        du = _cg(d, c, pat, errors, min(0.1, max(worst, floor / worst)))
        step = 1.0
        while True:
            trial = [x * math.exp(step * dx) for x, dx in zip(r, du)]
            trial += r[n:]
            trial_errors, trial_worst = _errors(trial, pat)
            if trial_worst < worst:
                break
            if polish:
                return worst, steps
            step /= 2.0
            if step < MIN_STEP:
                raise PackError(f"no convergence: Newton step {steps + 1} "
                                f"cannot lower the residual {worst:.3e}")
        r[:], errors, worst = trial, trial_errors, trial_worst
        steps += 1
        if polish:
            break
    return worst, steps


def pack(p: PackingProblem, tolerance=DEFAULT_TOL) -> PackingLabel:
    """Radii and centers with every interior angle sum within tolerance.

    Newton steps in log radii (Orick, Stephenson & Collins, "A linearized
    circle packing algorithm", 2017) run until the worst ``|theta - 2*pi|``
    is at most ``tolerance``, and one polishing step follows;
    ``iterations`` counts the steps kept.
    """
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise PackError(f"tolerance must be finite and positive, "
                        f"not {tolerance}")
    # an angle sum of k terms near 2*pi carries about k*2*pi*eps of
    # rounding, so no solver can be trusted to get closer than that
    k_max = max((len(p.tris_at[v]) for v in p.interior), default=0)
    floor = k_max * TWO_PI * sys.float_info.epsilon
    if tolerance < floor:
        raise PackError(f"tolerance {tolerance:g} is below {floor:.1e}, "
                        f"the rounding floor of an angle sum at valence "
                        f"{k_max}")
    order, pat = _index(p)
    r = [1.0] * len(order)
    worst, steps = (_solve(r, pat, tolerance, floor) if p.interior
                    else (0.0, 0))
    label = PackingLabel(p, dict(zip(order, r)), residual=worst,
                         iterations=steps)
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
