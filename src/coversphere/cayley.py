"""Cayley-graph experiments: balls, almost-convexity profiles, cone types.

Groups are given by a multiplication on hashable normal forms (integer
tuples), so the word metric comes from plain BFS.  A ball is built once
as a dense indexed graph: element ids in BFS order, and one flat list of
generator products that names even the products leaving the ball, so
the cone-type and almost-convexity passes walk ints and multiply
nothing.  The passes take a builder that returns B(r), so they read any
ball with these tables, not only a group's.  Cone types are approximated
at finite depth: the portion of a sphere element's shadow within k
steps, compared up to rooted labeled-graph isomorphism.
"""

from dataclasses import dataclass
from functools import cache

DEFAULT_CAP = 10 ** 6


class CayleyError(ValueError):
    pass


@dataclass
class GroupSpec:
    name: str
    identity: tuple
    generators: dict            # gen name -> element
    mul: callable
    inv: callable


# --- built-in groups -------------------------------------------------

def _z_mul(a, b):
    return (a[0] + b[0],)


def _z3_mul(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _heis_mul(a, b):
    # (a,b,c)(a',b',c') = (a+a', b+b', c+c'+a*b')
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])


@cache
def _mat_pow(s):
    # powers of ((2,1),(1,1)); inverse is ((1,-1),(-1,2))
    m = (1, 0, 0, 1)
    step = (2, 1, 1, 1) if s >= 0 else (1, -1, -1, 2)
    for _ in range(abs(s)):
        a, b, c, d = m
        p, q, r, t = step
        m = (a * p + b * r, a * q + b * t, c * p + d * r, c * q + d * t)
    return m


def _sol_mul(x, y):
    # (v, s)(v', s') = (v + M^s v', s + s')
    v1, v2, s = x
    w1, w2, sp = y
    a, b, c, d = _mat_pow(s)
    return (v1 + a * w1 + b * w2, v2 + c * w1 + d * w2, s + sp)


def _sol_inv(x):
    v1, v2, s = x
    a, b, c, d = _mat_pow(-s)
    return (-(a * v1 + b * v2), -(c * v1 + d * v2), -s)


def make_group(name: str) -> GroupSpec:
    if name == "Z":
        inv = lambda e: (-e[0],)
        gens = {"a": (1,), "A": (-1,)}
        return GroupSpec("Z", (0,), gens, _z_mul, inv)
    if name == "Z3":
        inv = lambda e: (-e[0], -e[1], -e[2])
        gens = {"x": (1, 0, 0), "X": (-1, 0, 0),
                "y": (0, 1, 0), "Y": (0, -1, 0),
                "z": (0, 0, 1), "Z": (0, 0, -1)}
        return GroupSpec("Z3", (0, 0, 0), gens, _z3_mul, inv)
    if name == "heis":
        inv = lambda e: (-e[0], -e[1], -e[2] + e[0] * e[1])
        gens = {"x": (1, 0, 0), "X": (-1, 0, 0),
                "y": (0, 1, 0), "Y": (0, -1, 0)}
        return GroupSpec("heis", (0, 0, 0), gens, _heis_mul, inv)
    if name == "sol":
        gens = {"a": (1, 0, 0), "A": (-1, 0, 0),
                "b": (0, 1, 0), "B": (0, -1, 0),
                "t": (0, 0, 1), "T": (0, 0, -1)}
        return GroupSpec("sol", (0, 0, 0), gens, _sol_mul, _sol_inv)
    raise CayleyError(f"unknown group: {name!r} "
                      "(available: Z, Z3, heis, sol)")


# --- balls -----------------------------------------------------------

def _nonnegative(value, what):
    if value < 0:
        raise CayleyError(f"{what} must be non-negative, not {value}")


@dataclass
class BallData:
    """B(radius) of ``name`` as a dense graph on element ids.

    Ids follow BFS order, so sphere k is the id range
    ``offsets[k]:offsets[k + 1]`` and an id below ``offsets[k + 1]`` has
    word length at most k.  ``gens`` names the generators, and ``inv[j]``
    is the slot of the inverse of ``gens[j]``; ``nbr[i * len(gens) + j]``
    is the id of ``elements[i] * gens[j]``.  The products outside the
    ball, which only sphere ``radius`` has, are ids from
    ``len(elements)`` on, one per element: they name S(radius + 1).
    """
    name: str
    radius: int
    elements: list              # id -> element
    offsets: list
    gens: list
    inv: list
    nbr: list

    def ball_size(self, k):
        return self.offsets[min(k, self.radius) + 1] if k >= 0 else 0

    def row(self, i):
        """Ids of the products of id i with each generator."""
        ng = len(self.gens)
        return self.nbr[i * ng:(i + 1) * ng]


def ball(g: GroupSpec, n: int, cap=DEFAULT_CAP) -> BallData:
    """B(n) by BFS, multiplying each edge of the Cayley graph once.

    Generators are sorted by name and each sphere's elements by value,
    so ids of one sphere compare as their elements do.  A product found
    from one end also fills the inverse generator's slot at the other
    end, so the products back into the previous sphere are known before
    a sphere is expanded.  The products that leave B(n) are named, not
    added: the next id per new element, in the order met.  Every id it
    hands out, for B(n) and the S(n + 1) it names, must be below ``cap``.
    """
    _nonnegative(n, "radius")
    gens = sorted(g.generators)
    ng = len(gens)
    step = [g.generators[s] for s in gens]
    inv = [step.index(g.inv(e)) for e in step]
    mul = g.mul
    elements = [g.identity]
    index = {g.identity: 0}
    offsets = [0, 1]
    nbr = [None] * ng

    def link(i, j, k):
        nbr[i * ng + j] = k
        nbr[k * ng + inv[j]] = i

    for depth in range(n + 1):
        pending, named = [], {}  # (id, slot, w) to add; past B(n): w -> id
        for i in range(offsets[depth], offsets[depth + 1]):
            e = elements[i]
            for j in range(ng):
                if nbr[i * ng + j] is None:
                    w = mul(e, step[j])
                    k = index.get(w)
                    if k is not None:
                        link(i, j, k)
                    elif depth < n:
                        pending.append((i, j, w))
                    else:
                        k = named.setdefault(w, len(index) + len(named))
                        nbr[i * ng + j] = k
        new = sorted({w for _, _, w in pending})
        if len(elements) + len(new) + len(named) > cap:
            raise CayleyError(f"ball exceeds element cap {cap}")
        if depth == n:
            break
        for w in new:
            index[w] = len(elements)
            elements.append(w)
        offsets.append(len(elements))
        nbr.extend([None] * (ng * len(new)))
        for i, j, w in pending:
            link(i, j, index[w])
    return BallData(g.name, n, elements, offsets, gens, inv, nbr)


# --- almost convexity ------------------------------------------------

def _dist_within(bd: BallData, n: int, src, dst):
    """Shortest path between ids src and dst using only ids of B(n).

    Every element of B(n) reaches the identity along a geodesic inside
    B(n), so the search always meets dst.  It grows a whole level at a
    time from whichever end has the smaller frontier; the two visited
    sets stay disjoint until a step lands in the other's, so that step
    closes a shortest path.
    """
    if src == dst:
        return 0
    lim = bd.offsets[n + 1]
    nbr, ng = bd.nbr, len(bd.gens)
    seen = ({src}, {dst})
    levels = [[src], [dst]]
    d = 0
    while True:
        side = 0 if len(levels[0]) <= len(levels[1]) else 1
        mine, other = seen[side], seen[1 - side]
        d += 1
        nxt = []
        for e in levels[side]:
            for w in nbr[e * ng:(e + 1) * ng]:
                if w < lim and w not in mine:
                    if w in other:
                        return d
                    mine.add(w)
                    nxt.append(w)
        levels[side] = nxt


def ac_profile(build, n_max: int):
    """K(2, n) for n = 2..n_max, read from ``build(n_max)``, which
    returns B(n_max) as a ``BallData``.

    K(2, n) is the max over pairs of sphere-n elements at word distance
    <= 2 of their distance inside B(n); when no such pairs exist the bound
    2 is vacuously attained and reported.  The rows of B(n_max) name
    S(n_max + 1), so every sphere's pairs are read from them.
    """
    _nonnegative(n_max, "radius")
    bd = build(n_max)
    nbr, ng, offsets = bd.nbr, len(bd.gens), bd.offsets
    table = {}
    for n in range(2, n_max + 1):
        lo, hi = offsets[n], offsets[n + 1]
        up = {}     # each sphere-(n + 1) id -> its sphere-n ids, in order
        for v in range(lo, hi):
            for w in nbr[v * ng:(v + 1) * ng]:
                if w >= hi:
                    up.setdefault(w, []).append(v)
        # later sphere-n ids two steps away through sphere n + 1
        far = {}
        for vs in up.values():
            for i in range(len(vs) - 1):
                far.setdefault(vs[i], set()).update(vs[i + 1:])
        best = 2
        for v, ws in far.items():
            # ends of two steps through a midpoint in B(n) are 2 apart in it
            via_mid = set()
            for u in nbr[v * ng:(v + 1) * ng]:
                if u < hi:
                    via_mid.update(nbr[u * ng:(u + 1) * ng])
            for w in ws.difference(via_mid):
                best = max(best, _dist_within(bd, n, v, w))
        table[n] = best
    return table


# --- cone types ------------------------------------------------------

def _shadow_graph(bd: BallData, nodes):
    """Rooted labeled graph on shadow ids, root first in ``nodes``.

    Edges are generator moves inside the node set, labeled by the sorted
    pair {s, s^-1}.  Returns ``(root, {node: {neighbour: label}})``.
    """
    labels = [tuple(sorted((s, bd.gens[j]))) for s, j in zip(bd.gens, bd.inv)]
    members = set(nodes)
    return nodes[0], {w: {x: labels[j] for j, x in enumerate(bd.row(w))
                          if x in members}
                      for w in nodes}


def _graph_fingerprint(graph):
    root, adj = graph
    return tuple(sorted((w == root, tuple(sorted(out.values())))
                        for w, out in adj.items()))


def _rooted_iso(graph1, graph2):
    """Root- and label-preserving isomorphism, by networkx's VF2."""
    import networkx as nx
    from networkx.algorithms import isomorphism

    def to_nx(graph):
        root, adj = graph
        G = nx.Graph()
        for w in adj:
            G.add_node(w, root=(w == root))
        for w, out in adj.items():
            for x, lab in out.items():
                G.add_edge(w, x, label=lab)
        return G

    gm = isomorphism.GraphMatcher(
        to_nx(graph1), to_nx(graph2),
        node_match=lambda a, b: a["root"] == b["root"],
        edge_match=lambda a, b: a["label"] == b["label"])
    return gm.is_isomorphic()


@dataclass
class ConeTypeReport:
    group: str
    radius: int
    depth: int
    class_count: int
    class_sizes: list
    representatives: list
    bucket_count: int


def cone_type_count(build, n: int, k: int) -> ConeTypeReport:
    """Depth-k cone types of the sphere S(n), read from ``build(n + k)``,
    which returns B(n + k) as a ``BallData``.

    A sphere element v's depth-k shadow is {vu : u in B(k), |vu| = |v| +
    |u|}, with the generator moves among its elements.  Every shadow
    element is reached from v along a geodesic word for u, whose prefixes
    lie in the shadow too, so the shadow is its own depth-k portion.
    Elements are first bucketed by the set of such u: left translation
    maps equal sets to identical rooted graphs, so only the first member
    of each bucket is compared, by fingerprint and then VF2, with the
    classes found so far.  Buckets refine classes: for Z, the two sphere
    elements are two buckets of one class.
    """
    _nonnegative(n, "radius")
    _nonnegative(k, "depth")
    bd = build(n + k)
    nbr, ng, offsets = bd.nbr, len(bd.gens), bd.offsets
    # each u != 1 of B(k) as (u, parent p, slot j, |u|) with u = p * gens[j]
    steps = []
    for d in range(1, k + 1):
        for u in range(offsets[d], offsets[d + 1]):
            row = bd.row(u)
            j = next(j for j, p in enumerate(row) if p < offsets[d])
            steps.append((u, row[j], bd.inv[j], d))
    buckets = {}    # shadow u-ids -> [shadow ids of first member, size]
    img = [0] * offsets[k + 1]
    for v in range(offsets[n], offsets[n + 1]):
        img[0] = v
        key = [0]
        for u, p, j, d in steps:
            w = img[u] = nbr[img[p] * ng + j]
            if offsets[n + d] <= w < offsets[n + d + 1]:
                key.append(u)
        key = tuple(key)
        if key in buckets:
            buckets[key][1] += 1
        else:
            buckets[key] = [[img[u] for u in key], 1]
    classes = []  # [fingerprint, graph, rep, size]
    for nodes, size in buckets.values():
        G = _shadow_graph(bd, nodes)
        fp = _graph_fingerprint(G)
        for cls in classes:
            if cls[0] == fp and _rooted_iso(cls[1], G):
                cls[3] += size
                break
        else:
            classes.append([fp, G, bd.elements[nodes[0]], size])
    classes.sort(key=lambda c: (-c[3], str(c[2])))
    return ConeTypeReport(bd.name, n, k, len(classes),
                          [c[3] for c in classes],
                          [c[2] for c in classes], len(buckets))
