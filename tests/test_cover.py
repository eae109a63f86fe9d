import importlib.resources as resources
from array import array

import pytest

from coversphere.cover import CoverError, CoverState, balls, build_cover
from coversphere.gluing import parse_gluing
from coversphere.tiling import (STATUS_OF, TilingError, is_sphere_counts,
                                isomorphic)


def spheres(spec, n):
    """The boundary spheres S(1) .. S(n)."""
    return [state.boundary_sphere() for state in balls(spec, n)]


def status_count(t, status):
    return sum(STATUS_OF[m] == status for m in t.edge_marks)


def load(name):
    text = (resources.files("coversphere") / "data" / name).read_text()
    return parse_gluing(text)


@pytest.fixture(scope="module")
def cube_spec():
    return load("cube.glue")


@pytest.fixture(scope="module")
def cube_spheres(cube_spec):
    return spheres(cube_spec, 6)


def test_cube_cell_counts(cube_spec, cube_oracle):
    for n, state in enumerate(balls(cube_spec, 6), 1):
        assert state.num_cells == len(cube_oracle[n].cells)


def test_cube_face_counts(cube_spheres, cube_oracle):
    got = [t.num_faces for t in cube_spheres]
    want = [len(cube_oracle[n].boundary_faces) for n in range(1, 7)]
    assert got == want == [6, 30, 78, 150, 246, 366]


def test_cube_boundaries_are_spheres(cube_spheres):
    for t in cube_spheres:
        assert t.is_sphere()


def test_cube_edge_statuses_match_oracle(cube_spheres, cube_oracle):
    for n, t in enumerate(cube_spheres, start=1):
        orc = cube_oracle[n]
        for status in ("loaded", "fragile", "plain"):
            want = sum(1 for e in orc.boundary_edges
                       if orc.edge_status(e) == status)
            assert status_count(t, status) == want
        assert len(t.loaded_vertices) == len(orc.loaded_vertices())


def test_cube_known_status_counts(cube_spheres):
    s2, s3 = cube_spheres[1], cube_spheres[2]
    assert status_count(s2, "loaded") == 12
    assert len(s2.loaded_vertices) == 0
    assert status_count(s3, "loaded") == 48
    assert len(s3.loaded_vertices) == 8


def test_cube_spheres_isomorphic_to_oracle(cube_spheres, cube_oracle):
    for n in (1, 2, 3, 4):
        assert isomorphic(cube_spheres[n - 1], cube_oracle[n].tiling())


def test_loaded_vertices_get_buried(cube_spheres):
    """A vertex whose boundary star is all loaded is interior one stage on.

    Comparison is metric-free: a loaded vertex of S(n) has a degree-d
    all-loaded star, and no vertex of S(n+1) keeps an all-loaded star of
    the same kind, so the count dropping to a disjoint set is witnessed by
    the cover's own vertex classes staying identified across stages.
    """
    spec = load("cube.glue")
    state = CoverState(spec)
    for _ in range(5):
        before = state.boundary_sphere()
        loaded_roots = {before.vertex_names[v] for v in before.loaded_vertices}
        state.expand()
        after = state.boundary_sphere()
        after_roots = {state.verts.find(r) for r in
                       (after.vertex_names[v] for v in
                        range(after.num_vertices))}
        for r in loaded_roots:
            assert state.verts.find(r) not in after_roots


def test_shell_cover_two_sphere_boundary():
    spec = load("s2.glue")
    series = spheres(spec, 5)
    for t in series:
        assert t.num_faces == 4
        assert len(t.components()) == 2
        for comp in t.components():
            assert t.restrict(comp).is_sphere()
        assert status_count(t, "loaded") == t.num_edges


def test_expand_is_deterministic(cube_spec):
    a = build_cover(cube_spec, 4).boundary_sphere()
    b = build_cover(cube_spec, 4).boundary_sphere()
    assert a.to_json() == b.to_json()


def test_wrong_cycle_lengths_fail_at_a_fold():
    spec = load("cube.glue")
    spec.cycle = [3] * len(spec.cycle)
    with pytest.raises(CoverError, match="folding mismatch"):
        build_cover(spec, 4)


def test_fold_scans_each_edge_class_once(monkeypatch):
    # a class is folded when it reaches its cycle length and never grows
    # after that, so no root needs a second look for open faces
    scanned = []
    scan = CoverState._open_flanking_slots

    def spy(self, root):
        scanned.append(root)
        return scan(self, root)

    monkeypatch.setattr(CoverState, "_open_flanking_slots", spy)
    *_, state = balls(load("prism12.glue"), 4)
    assert state.num_cells == 1111
    assert scanned and len(set(scanned)) == len(scanned)


def scanned_flanks(state, root):
    """The open flanking slots of root's edge class, by searches of the
    whole parent table for the keys whose parent chain ends at root.
    The table's bytes are searched, not each key's find: a find per key at
    every fold of a B(4) takes seconds."""
    parent = state.edges.parent
    raw, width = parent.tobytes(), parent.itemsize
    keys, todo = [], [root]
    while todo:
        x = todo.pop()
        keys.append(x)
        child = array(parent.typecode, [x]).tobytes()
        at = raw.find(child)
        while at >= 0:
            if at % width == 0 and at // width != x:
                todo.append(at // width)
            at = raw.find(child, at + 1)
    out = {}
    for key in sorted(keys):
        cell, e = divmod(key, state.NE)
        for f, i in state.spec.flank[e]:
            s = cell * state.F + f
            if state.slot_partner[s] < 0:
                out.setdefault(s, i)
    return sorted(out.items())


@pytest.mark.parametrize("name", ["prism12.glue", "utn.glue", "cube.glue"])
def test_fold_walk_matches_a_scan_of_the_class(monkeypatch, name):
    # every queued class, checked against the state as the fold finds it
    checked = []
    walk = CoverState._open_flanking_slots

    def spy(self, root):
        got = walk(self, root)
        assert got == scanned_flanks(self, root)
        checked.append(bool(got))
        return got

    monkeypatch.setattr(CoverState, "_open_flanking_slots", spy)
    *_, state = balls(load(name), 4)
    assert True in checked and False in checked


def test_fold_walk_stops_at_the_cycle_length():
    # a closed chain of four cells, walked as if its cycle length were 2,
    # neither comes back to its start nor reaches an open face in time
    spec = load("cube.glue")
    *_, state = balls(spec, 3)
    uf = state.edges
    root = next(r for r in range(len(uf.parent)) if uf.parent[r] == r
                and uf.size[r] == 4 and not state._open_flanking_slots(r))
    spec.cycle = [2] * len(spec.cycle)
    with pytest.raises(CoverError,
                       match="edge walk passes its cycle length 2"):
        state._open_flanking_slots(root)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_sphere_series_builds_no_ball_beyond_the_last(cube_spec, n,
                                                       expand_sizes):
    assert len(spheres(cube_spec, n)) == n
    assert expand_sizes == [7, 25, 63][:n - 1]


def test_balls_expand_only_when_the_next_ball_is_requested(cube_spec,
                                                           expand_sizes):
    it = balls(cube_spec, 3)
    assert next(it).num_cells == 1 and expand_sizes == []
    assert next(it).num_cells == 7 and expand_sizes == [7]
    assert next(it).num_cells == 25 and expand_sizes == [7, 25]
    assert next(it, None) is None and expand_sizes == [7, 25]


@pytest.mark.parametrize("n", [0, -1])
def test_balls_rejects_fewer_than_one_stage(cube_spec, n):
    with pytest.raises(CoverError, match="at least 1"):
        build_cover(cube_spec, n)


def test_cap_stops_expand_at_the_cell_past_it():
    # prism12's B(4) has 1,111 cells.  expand refuses the 1,111th, so the
    # one shared state never holds more than the cap, not even as part
    # of a ball.
    it = balls(load("prism12.glue"), 4, cap=1110)
    state = next(it)
    assert [next(it).num_cells for _ in range(2)] == [15, 137]
    with pytest.raises(CoverError, match="cell cap 1110 exceeded"):
        next(it)
    assert state.num_cells == 1110
    assert len(state.slot_partner) == 1110 * state.F


@pytest.mark.parametrize("cap", [0, -1])
def test_cap_below_one_refuses_the_first_cell(cube_spec, cap):
    with pytest.raises(CoverError, match="cell cap %d exceeded" % cap):
        CoverState(cube_spec, cap)


def deepen(uf, keys):
    """Point the first key among ``keys`` whose root has another non-root
    child at that sibling, making its parent chain two deep without
    changing any class.  Returns (key, its root)."""
    parent = uf.parent
    for k in keys:
        root = parent[k]
        if root == k:
            continue
        for m, p in enumerate(parent):
            if p == root and m not in (k, root):
                parent[k] = m
                return k, root
    raise AssertionError("no class with two non-root members")


def test_boundary_names_deeper_keys_by_their_root(cube_spec):
    # Every parent in the bundled specs' balls is a root; a deeper chain
    # must still name each vertex and edge by its class root.
    *_, state = balls(cube_spec, 3)
    want = state.boundary_sphere()
    F = state.F
    spec = state.spec
    for uf, per_cell, table in ((state.verts, state.NV, spec.face_verts),
                                (state.edges, state.NE, spec.face_edges)):
        keys = [s // F * per_cell + x for s in state.open_slots()
                for x in table[s % F]]
        k, root = deepen(uf, keys)
        assert uf.parent[k] != root == uf.parent[uf.parent[k]]
    got = state.boundary_sphere()
    assert got.vertex_names == want.vertex_names
    assert got.edge_keys == want.edge_keys
    assert got.to_json() == want.to_json()
    assert state.boundary_counts() == want.counts


@pytest.mark.parametrize("name", ["cube", "prism12", "s2", "utn"])
def test_boundary_counts_match_the_sphere(name):
    for state in balls(load(name + ".glue"), 5):
        want = state.boundary_sphere()
        got = state.boundary_counts()
        assert got == want.counts
        assert is_sphere_counts(got) == want.is_sphere()


def _counts_or_error(read):
    try:
        return read()
    except TilingError as exc:
        return str(exc)


def test_boundary_counts_refer_a_reopened_pair_to_the_sphere(cube_spec):
    # Reopening a glued pair of faces gives the boundary two more faces:
    # on an edge class already open it has four sides, at a vertex class
    # already open a second rotation orbit, and deep inside the ball a
    # separate two-face pillow.  The first two Tiling refuses, and the
    # reader must report what it reports; the pillow it must count.
    *_, state = balls(cube_spec, 4)
    partner = state.slot_partner
    seen = set()
    for s, t in enumerate(partner):
        if t < s:
            continue
        partner[s] = partner[t] = -1
        want = _counts_or_error(lambda: state.boundary_sphere().counts)
        assert _counts_or_error(state.boundary_counts) == want
        partner[s], partner[t] = t, s
        seen.add(want if isinstance(want, tuple) else
                 "orbits" if "two rotation orbits" in want else
                 "sides" if "bounds 4 face sides" in want else want)
    assert seen == {"sides", "orbits", (152, 304, 156, 2)}
