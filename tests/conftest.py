"""Shared oracles for the test suite.

The main one is an explicit model of the cubical tiling of R^3 by unit
cubes: balls of cubes in the taxicab metric, their boundary faces, and the
per-edge cell counts.  It is built directly from lattice coordinates, with
no shared code with the cover engine, so the two can check each other.
"""

import pytest


def l1_ball_cells(radius):
    out = []
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            for z in range(-radius, radius + 1):
                if abs(x) + abs(y) + abs(z) <= radius:
                    out.append((x, y, z))
    return out


_AXES = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def cube_faces_of(cell):
    """The 6 faces of a unit cube, each as (frozenset of 4 corners)."""
    x, y, z = cell
    corners = lambda pts: frozenset(pts)
    faces = []
    for ax in range(3):
        for side in (0, 1):
            pts = []
            for da in (0, 1):
                for db in (0, 1):
                    p = [x, y, z]
                    p[ax] += side
                    p[(ax + 1) % 3] += da
                    p[(ax + 2) % 3] += db
                    pts.append(tuple(p))
            faces.append(corners(pts))
    return faces


def face_corner_cycle(face):
    """Corners of a lattice square in cyclic order."""
    pts = sorted(face)
    a = pts[0]
    rest = sorted(pts[1:], key=lambda p: sum(abs(u - v) for u, v in zip(p, a)))
    # rest = two neighbours of a, then the opposite corner last
    return (a, rest[0], rest[2], rest[1])


def edges_of_face(face):
    cyc = face_corner_cycle(face)
    return [frozenset((cyc[i], cyc[(i + 1) % 4])) for i in range(4)]


def cells_of_edge(edge):
    """The 4 unit cubes of the lattice containing a given lattice edge."""
    a, b = sorted(edge)
    ax = [i for i in range(3) if a[i] != b[i]][0]
    out = []
    for da in (0, -1):
        for db in (0, -1):
            p = list(a)
            p[(ax + 1) % 3] += da
            p[(ax + 2) % 3] += db
            out.append(tuple(p))
    return out


class CubeBallOracle:
    """B(n) = taxicab ball of radius n-1 in the cubical tiling of R^3."""

    def __init__(self, stage):
        self.stage = stage
        self.cells = set(l1_ball_cells(stage - 1))
        count = {}
        owner = {}
        for c in self.cells:
            for f in cube_faces_of(c):
                count[f] = count.get(f, 0) + 1
                owner[f] = c
        self.boundary_faces = sorted(f for f, k in count.items() if k == 1)
        self.boundary_edges = sorted(
            {e for f in self.boundary_faces for e in edges_of_face(f)},
            key=sorted)

    def edge_incidence(self, edge):
        return sum(1 for c in cells_of_edge(edge) if c in self.cells)

    def edge_status(self, edge):
        k = self.edge_incidence(edge)
        return {3: "loaded", 2: "fragile"}.get(k, "plain")

    def loaded_edges(self):
        return [e for e in self.boundary_edges if self.edge_status(e) == "loaded"]

    def loaded_vertices(self):
        incident = {}
        for e in self.boundary_edges:
            for v in e:
                incident.setdefault(v, []).append(e)
        return sorted(v for v, es in incident.items()
                      if all(self.edge_status(e) == "loaded" for e in es))

    def tiling(self):
        from coversphere.tiling import Tiling
        specs = []
        status = {}
        for f in self.boundary_faces:
            cyc = face_corner_cycle(f)
            es = edges_of_face(f)
            for e in es:
                status[e] = self.edge_status(e)
            specs.append(("sq", cyc, es))
        return Tiling(specs, stage=self.stage, edge_status=status)


@pytest.fixture(scope="session")
def cube_oracle():
    return {n: CubeBallOracle(n) for n in range(1, 7)}


@pytest.fixture
def expand_sizes(monkeypatch):
    """Cell count of every ball that CoverState.expand builds, in order."""
    from coversphere.cover import CoverState

    sizes = []
    expand = CoverState.expand

    def recorded(self):
        expand(self)
        sizes.append(self.num_cells)
        return self

    monkeypatch.setattr(CoverState, "expand", recorded)
    return sizes
