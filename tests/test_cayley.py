import hashlib
from functools import partial

import pytest

from coversphere.catalog import load_spec
from coversphere.cayley import (BallData, CayleyError, _dist_within,
                                ac_profile, ball, cone_type_count, make_group)
from coversphere.cover import balls, build_cover


def build(name):
    return partial(ball, make_group(name))


def test_ball_sizes_closed_forms():
    Z = make_group("Z")
    for n in range(5):
        assert ball(Z, n).ball_size(n) == 2 * n + 1
    Z3 = make_group("Z3")
    assert ball(Z3, 2).ball_size(2) == 25
    # L1 ball in Z^3: sum over cube of |x|+|y|+|z| <= n
    def l1(n):
        return sum(1 for x in range(-n, n + 1) for y in range(-n, n + 1)
                   for z in range(-n, n + 1) if abs(x) + abs(y) + abs(z) <= n)
    for n in range(5):
        assert ball(Z3, n).ball_size(n) == l1(n)


def test_heisenberg_ball_and_inverses():
    H = make_group("heis")
    bd = ball(H, 2)
    assert bd.ball_size(2) == 17
    for s, j in zip(bd.gens, bd.inv):
        e = H.generators[s]
        assert H.mul(e, H.inv(e)) == H.identity
        assert H.generators[bd.gens[j]] == H.inv(e)


def test_sol_group_algebra():
    S = make_group("sol")
    for e in list(S.generators.values()):
        assert S.mul(e, S.inv(e)) == S.identity
    # t a t^-1 = a^2 b under M = ((2,1),(1,1))
    g = S.generators
    conj = S.mul(S.mul(g["t"], g["a"]), g["T"])
    assert conj == (2, 1, 0)


def test_unknown_group_rejected():
    with pytest.raises(CayleyError):
        make_group("free2")


def test_ball_cap():
    with pytest.raises(CayleyError):
        ball(make_group("Z3"), 5, cap=20)


def test_z3_almost_convex_2():
    table = ac_profile(build("Z3"), 6)
    assert all(table[n] == 2 for n in range(2, 7))


def test_z_almost_convex_2():
    table = ac_profile(build("Z"), 4)
    assert all(table[n] == 2 for n in range(2, 5))


def test_sol_not_almost_convex_2():
    table = ac_profile(build("sol"), 6)
    vals = [table[n] for n in range(2, 7)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert table[6] > 2


def test_z_cone_types():
    rep = cone_type_count(build("Z"), 4, 3)
    assert rep.class_count == 1
    assert rep.class_sizes == [2]


def test_z3_cone_types_stabilize():
    c4 = cone_type_count(build("Z3"), 4, 2).class_count
    c5 = cone_type_count(build("Z3"), 5, 2).class_count
    assert c4 == c5


def test_heis_cone_types_grow():
    H = build("heis")
    c4 = cone_type_count(H, 4, 2).class_count
    c6 = cone_type_count(H, 6, 2).class_count
    assert c6 > c4


def test_cone_classes_refine_with_depth():
    Z3 = build("Z3")
    c1 = cone_type_count(Z3, 3, 1).class_count
    c2 = cone_type_count(Z3, 3, 2).class_count
    assert c2 >= c1


def test_cube_cover_cells_match_z3_balls():
    state = build_cover(load_spec("cube"), 1)
    bd = ball(make_group("Z3"), 5)
    for n in range(5):
        assert state.num_cells == bd.ball_size(n)
        state.expand()


def test_ball_neighbour_list_matches_multiplication():
    for name, n in (("Z", 3), ("heis", 4), ("sol", 3)):
        g = make_group(name)
        bd = ball(g, n)
        assert [e for k in range(n + 1) for e in bd.sphere(k)] == \
            bd.elements
        for k in range(n + 1):
            sphere = bd.sphere(k)
            assert sphere == sorted(sphere)
            # word length k: a step back into S(k - 1), none further
            for i in range(bd.ball_size(k - 1), bd.ball_size(k)):
                below = [x for x in bd.row(i) if 0 <= x < bd.ball_size(k - 1)]
                assert all(x >= bd.ball_size(k - 2) for x in below)
                assert below or k == 0
        # a product inside the ball has its element's id; one outside, only
        # from S(n), an id from len(elements) on, shared by equal products
        # and numbered in the order the rows first name them
        size, outside = len(bd.elements), {}
        index = {e: i for i, e in enumerate(bd.elements)}
        for i, e in enumerate(bd.elements):
            for s, x in zip(bd.gens, bd.row(i)):
                w = g.mul(e, g.generators[s])
                if w in index:
                    assert x == index[w]
                else:
                    assert i >= bd.ball_size(n - 1) and x >= size
                    assert outside.setdefault(w, x) == x
        assert list(outside.values()) == \
            list(range(size, size + len(outside)))


@pytest.mark.parametrize("call", [
    lambda g: ball(g, -1),
    lambda g: ac_profile(partial(ball, g), -1),
    lambda g: cone_type_count(partial(ball, g), -1, 2),
    lambda g: cone_type_count(partial(ball, g), 3, -1),
], ids=["ball", "ac_profile", "cone_radius", "cone_depth"])
def test_negative_radius_or_depth_rejected(call):
    with pytest.raises(CayleyError, match="must be non-negative"):
        call(make_group("Z"))


# Measured before balls became indexed graphs and cone types were
# bucketed by shadow; representatives are pinned by the sha256 of their
# repr.
PINNED_CONES = [
    ("heis", 6, 2, [44, 44, 24, 24, 24, 16, 16, 16, 16, 8, 8, 8, 8]
     + [4] * 8 + [2] * 3,
     "f10717f341949d7dc354c2d34183831d0f2d5347d86593f95a0d839b31c12a9a"),
    ("heis", 8, 3, [68, 40, 40, 28, 28, 20, 20] + [16] * 10 + [12] * 4
     + [8] * 6 + [4] * 55 + [2] * 2,
     "c90cee3de713c6ccb234a5adccccd4e9069a3db9340f2b36ef1d38829222b6d5"),
    ("Z3", 5, 2, [48, 16, 16, 16, 2, 2, 2],
     "7d167cb1439cd992c770ad843f95feafa0cb340620af142e99842327405b9bc8"),
    ("sol", 5, 2, [13, 13, 10, 10] + [8] * 10 + [6] * 10 + [4] * 24
     + [2] * 54,
     "3f6cbe8ff3b84ca7803a6b86c76c72ec41254b1cc3f01d9b78e17eaaaa5da8c0"),
]


@pytest.mark.parametrize("name, n, k, sizes, digest", PINNED_CONES,
                         ids=[f"{p[0]}-{p[1]}-{p[2]}" for p in PINNED_CONES])
def test_cone_types_pinned(name, n, k, sizes, digest):
    rep = cone_type_count(build(name), n, k)
    assert rep.class_count == len(sizes)
    assert rep.class_sizes == sizes
    assert hashlib.sha256(repr(rep.representatives).encode()).hexdigest() \
        == digest


def test_ac_profiles_pinned():
    assert ac_profile(build("heis"), 8) == \
        {2: 2, 3: 6, 4: 6, 5: 10, 6: 10, 7: 10, 8: 10}
    assert ac_profile(build("sol"), 6) == \
        {2: 3, 3: 3, 4: 4, 5: 4, 6: 4}
    assert ac_profile(build("heis"), 10) == \
        {2: 2, 3: 6, 4: 6, **{n: 10 for n in range(5, 11)}}
    assert ac_profile(build("sol"), 9) == \
        {2: 3, 3: 3, 4: 4, 5: 4, 6: 4, 7: 6, 8: 6, 9: 12}


@pytest.mark.parametrize("name", ["Z", "Z3", "heis", "sol"])
def test_dist_within_matches_one_ended_bfs(name):
    bd = ball(make_group(name), 4)
    for n in range(5):
        lim = bd.ball_size(n)
        for src in range(bd.ball_size(n - 1), lim):
            dist = {src: 0}
            level = [src]
            while level:
                nxt = []
                for e in level:
                    for x in bd.row(e):
                        if 0 <= x < lim and x not in dist:
                            dist[x] = dist[e] + 1
                            nxt.append(x)
                level = nxt
            for dst in range(bd.ball_size(n - 1), lim):
                assert _dist_within(bd, n, src, dst) == dist[dst]


@pytest.mark.parametrize("name", ["Z", "Z3", "heis", "sol"])
def test_ac_profile_cap_bounds_next_ball(name):
    # B(r + 1) is never built, but the cap bounds B(r) and the S(r + 1) it
    # names, in ball and in both passes, for the radius r each one builds
    g = make_group(name)
    for n in range(4):
        for r, call in ((n, lambda b: b(n)),
                        (n, lambda b: ac_profile(b, n)),
                        (n + 1, lambda b: cone_type_count(b, n, 1))):
            size = ball(g, r + 1).ball_size(r + 1)
            with pytest.raises(CayleyError, match="ball exceeds element cap"):
                call(partial(ball, g, cap=size - 1))
            assert call(partial(ball, g, cap=size)) == call(partial(ball, g))


@pytest.mark.parametrize("name, n, k, buckets, classes", [
    ("Z", 4, 3, 2, 1),          # a^4 and A^4 shadow opposite rays
    ("heis", 12, 2, 137, 37),
    ("Z3", 5, 2, 26, 7),
])
def test_bucket_count(name, n, k, buckets, classes):
    rep = cone_type_count(build(name), n, k)
    assert (rep.bucket_count, rep.class_count) == (buckets, classes)


@pytest.mark.parametrize("name", ["Z", "Z3", "heis", "sol"])
def test_cone_types_read_any_larger_ball(name):
    # a larger ball gives B(n + k) the same ids, so one serves every n
    big = ball(make_group(name), 7)
    for n in range(2, 6):
        assert cone_type_count(lambda r: big, n, 2) == \
            cone_type_count(build(name), n, 2)


def cube_ball(r):
    """B(r) of cube's cover as a BallData: the cells are the elements and
    the faces the generators, so a row names the cells across a cell's
    faces.  The cover is grown to B(r + 1), so S(r)'s rows name cells."""
    spec = load_spec("cube")
    offsets = [0]
    for state in balls(spec, r + 2):
        offsets.append(state.num_cells)
    size, F = offsets[r + 1], state.F
    return BallData("cube", r, list(range(size)), offsets[:r + 2],
                    list(spec.faces), list(spec.target),
                    [s // F for s in state.slot_partner[:size * F]])


def test_passes_read_a_cover_ball():
    # the cube's cover is the Cayley graph of Z3 on its face pairings
    assert ac_profile(cube_ball, 6) == ac_profile(build("Z3"), 6) == \
        {n: 2 for n in range(2, 7)}
    for n in (3, 4, 5):
        cube = cone_type_count(cube_ball, n, 2)
        z3 = cone_type_count(build("Z3"), n, 2)
        assert (cube.class_count, cube.class_sizes, cube.bucket_count) == \
            (z3.class_count, z3.class_sizes, z3.bucket_count)
        assert cube.class_count == 7
    assert cube.bucket_count == 26
