"""Verdicts of `isomorphic` on rule-built stages, checked against the
canonical form, and stability of canonical forms across processes."""

import gc
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import coversphere
from coversphere import cli, tiling
from coversphere.catalog import get_rule, load_spec
from coversphere.cover import balls
from coversphere.growth import stage_tilings
from coversphere.tiling import ADDED, STATUSES, Tiling, _wl_colours, isomorphic


def final_stage(rule, n, mode):
    *_, t = stage_tilings(get_rule(rule), n, mode)
    return t


def rebuilt(t, *, names=None, order=None, reverse=False, labels=None,
            status=None, added=None):
    """A fresh Tiling of t's faces, optionally renamed, reordered, with
    every face cycle reversed, or with other face labels, edge statuses or
    added marks.  Edge ids serve as edge keys, so loaded vertices are
    derived anew."""
    labels = labels or t.face_labels
    added = added or added_marks(t)
    specs = []
    for f in order or range(t.num_faces):
        vs = [names[v] if names else v for v in t.face_vertices(f)]
        es = t.face_edges(f)
        if reverse:
            vs, es = vs[::-1], es[-2::-1] + es[-1:]
        specs.append((labels[f], vs, es))
    return Tiling(specs, edge_status=dict(enumerate(status or statuses(t))),
                  added_edges=[e for e, a in enumerate(added) if a])


def statuses(t):
    """Per edge its status, read off its mark."""
    return [STATUSES[m & 3] for m in t.edge_marks]


def added_marks(t):
    """Per edge whether it is added, read off its mark."""
    return [bool(m & ADDED) for m in t.edge_marks]


def shuffled(t):
    rng = random.Random(7)
    names = list(range(t.num_vertices))
    rng.shuffle(names)
    order = list(range(t.num_faces))
    rng.shuffle(order)
    return rebuilt(t, names=names, order=order)


def labels_swapped(t):
    """Two faces with different labels trade labels."""
    g = next(f for f in range(t.num_faces)
             if t.face_labels[f] != t.face_labels[0])
    labels = list(t.face_labels)
    labels[0], labels[g] = labels[g], labels[0]
    return rebuilt(t, labels=labels)


def statuses_swapped(t):
    """A loaded and a plain edge trade statuses."""
    status = statuses(t)
    i, j = status.index("loaded"), status.index("plain")
    status[i], status[j] = status[j], status[i]
    return rebuilt(t, status=status)


def label_changed(t):
    """One face takes another face's label, so the label counts differ."""
    labels = list(t.face_labels)
    labels[0] = next(x for x in labels if x != labels[0])
    return rebuilt(t, labels=labels)


def status_changed(t):
    """One loaded edge turns plain, so the status counts differ."""
    status = statuses(t)
    status[status.index("loaded")] = "plain"
    return rebuilt(t, status=status)


def added_swapped(t):
    """An added and a non-added plain edge trade added marks."""
    added = added_marks(t)
    plain = [e for e, s in enumerate(statuses(t)) if s == "plain"]
    i = next(e for e in plain if added[e])
    j = next(e for e in plain if not added[e])
    added[i], added[j] = False, True
    return rebuilt(t, added=added)


# nxs1 stage 3: 1,310 faces, 24 loaded vertices.  torus3 stage 3: 78
# faces, 8 loaded vertices; its faces all carry one label, so its
# non-isomorphic copy trades edge statuses instead.  torus3 subdivision
# stage 3: 102 faces, 24 added and 108 non-added plain edges; its copy
# trades added marks.
STAGES = {
    "nxs1": ("nxs1", 3, "replacement", labels_swapped),
    "torus3": ("torus3", 3, "replacement", statuses_swapped),
    "torus3-subdivision": ("torus3", 3, "subdivision", added_swapped),
}


@pytest.fixture(scope="module", params=sorted(STAGES))
def stage(request):
    rule, n, mode, breaker = STAGES[request.param]
    t = final_stage(rule, n, mode)
    return t, t.canonical_form(), breaker


def carries_faces(a, b, images):
    """Whether ``images``, per vertex of a a vertex of b, is a bijection
    that carries every face of a onto a face of b with its label, up to
    rotation and reversal of its vertex cycle."""
    def faces(t, name):
        out = []
        for f, label in enumerate(t.face_labels):
            vs = [*map(name, t.face_vertices(f))]
            out.append((label, min(min(c[i:] + c[:i] for i in range(len(c)))
                                   for c in (vs, vs[::-1]))))
        return sorted(out)
    return (sorted(images) == [*range(b.num_vertices)]
            and faces(a, images.__getitem__) == faces(b, int))


@pytest.mark.parametrize("variant,expected", [
    ("shuffled", True), ("mirrored", True), ("broken", False)])
def test_walk_verdicts_agree_with_canonical_form(stage, variant, expected):
    t, form, breaker = stage
    u = {"shuffled": shuffled, "broken": breaker,
         "mirrored": lambda t: rebuilt(t, reverse=True)}[variant](t)
    assert (u.num_faces, u.num_edges, u.num_vertices) == \
        (t.num_faces, t.num_edges, t.num_vertices)
    assert sorted(u.face_labels) == sorted(t.face_labels)
    assert sorted(statuses(u)) == sorted(statuses(t))
    assert sum(added_marks(u)) == sum(added_marks(t))
    images = []
    assert isomorphic(t, u, vertex_map=images) is expected
    assert (form == u.canonical_form()) is expected
    assert carries_faces(t, u, images) is expected
    # A seed, right or wrong, changes no verdict.
    for seed in ((0, 0), (0, u.num_vertices - 1), (t.num_vertices - 1, 0)):
        assert isomorphic(t, u, seed) is expected


def spy_refinement(monkeypatch):
    """The flag counts of the first tiling of each ``_wl_colours`` call,
    as they are made."""
    sizes = []
    wl_colours = tiling._wl_colours

    def spy(tilings):
        sizes.append(len(tilings[0].h_face))
        return wl_colours(tilings)
    monkeypatch.setattr(tiling, "_wl_colours", spy)
    return sizes


@pytest.mark.parametrize("copy", ["shuffled", "mirrored"])
def test_wrong_seed_falls_back_to_the_colour_search(monkeypatch, copy):
    # Three relabelled faces leave nxs1 stage 2 no symmetry, so each copy
    # matches it by one map only.  Seeded at the image of vertex 0 the
    # walk finds it; seeded anywhere else the colour search does.
    t = final_stage("nxs1", 2, "replacement")
    labels = list(t.face_labels)
    for i, f in enumerate((0, 5, 17)):
        labels[f] = "C%d" % i
    chiral = rebuilt(t, labels=labels)
    u = {"shuffled": shuffled,
         "mirrored": lambda t: rebuilt(t, reverse=True)}[copy](chiral)
    images = []
    assert isomorphic(chiral, u, vertex_map=images)
    assert carries_faces(chiral, u, images)
    refined = spy_refinement(monkeypatch)
    for v in range(u.num_vertices):
        seeded = []
        assert isomorphic(chiral, u, (0, v), seeded)
        assert seeded == images
        assert refined == ([] if v == images[0] else [len(chiral.h_face)])
        refined.clear()


def test_chiral_tiling_matches_its_mirror_image():
    # Relabelling three faces leaves no reflection symmetry, so only a
    # mirror map can match the tiling to its reversed copy.
    t = final_stage("nxs1", 2, "replacement")
    labels = list(t.face_labels)
    for i, f in enumerate((0, 5, 17)):
        labels[f] = "C%d" % i
    chiral = rebuilt(t, labels=labels)
    mirror = rebuilt(chiral, reverse=True)
    assert isomorphic(chiral, mirror)
    assert chiral.canonical_form() == mirror.canonical_form()
    labels[30] = labels[17]
    labels[17] = t.face_labels[17]
    assert not isomorphic(chiral, rebuilt(t, labels=labels))


def nxs1_pair(n):
    """The rule's stage n and the cover sphere S(n) it must match."""
    *_, state = balls(load_spec(get_rule("nxs1").companion), n)
    return final_stage("nxs1", n, "replacement"), state.boundary_sphere()


@pytest.fixture(scope="module")
def nxs1_stage4():
    return nxs1_pair(4)


def refinement(tilings):
    """Rounds yielded by _wl_colours and the last root class size."""
    for rounds, (_, counts) in enumerate(_wl_colours(tilings), 1):
        pass
    return rounds, min(counts[0].values())


def test_isomorphic_decides_after_one_round(nxs1_stage4, monkeypatch):
    # Refined to stability the pair takes 26 rounds, but the first walk
    # from the starting colours already matches.
    assert refinement(nxs1_stage4) == (26, 24)
    rounds = []

    def spy(tilings):
        for item in _wl_colours(tilings):
            rounds.append(item)
            yield item
    monkeypatch.setattr(tiling, "_wl_colours", spy)
    assert isomorphic(*nxs1_stage4)
    assert len(rounds) == 1


@pytest.mark.parametrize("rule", ["nxs1", "sl2r", "torus3"])
def test_verify_refines_colours_at_stage_1_only(capsys, monkeypatch, rule):
    # Each later stage's walk is seeded from the match before it, through
    # a vertex whose name both stages share.
    refined = spy_refinement(monkeypatch)
    assert cli.main(["verify", "--rule", rule, "--steps", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["equivalent"]
    assert refined == [len(get_rule(rule).initial.h_face)]


@pytest.mark.parametrize("rule,n,mode,expected", [
    ("nxs1", 3, "replacement", (16, 24)),
    ("barycentric", 4, "subdivision", (12, 48)),
])
def test_refinement_runs_to_a_stable_partition(rule, n, mode, expected):
    assert refinement([final_stage(rule, n, mode)]) == expected


def tuple_signatures(t):
    """Reference first signatures as tuples: per flag its face label and
    size, its edge status and added mark, and the (degree, loaded) pairs
    of its two ends taken unordered."""
    size = [0] * t.num_faces
    for f in t.h_face:
        size[f] += 1
    degree = [0] * t.num_vertices
    for v in t.h_origin:
        degree[v] += 1
    ends = [(degree[v], v in t.loaded_vertices)
            for v in range(t.num_vertices)]
    sig = []
    for h, f in enumerate(t.h_face):
        e = t.h_edge[h]
        x, y = ends[t.h_origin[h]], ends[t.h_origin[t.h_twin[h]]]
        m = t.edge_marks[e]
        sig.append((t.face_labels[f], size[f], STATUSES[m & 3],
                    bool(m & ADDED)) + ((x, y) if x <= y else (y, x)))
    return sig


def tuple_round0(tilings):
    """Reference starting colours: dense ints by sorted tuple signature
    over all the tilings, and the number of them."""
    signatures = [tuple_signatures(t) for t in tilings]
    palette = sorted(set().union(*signatures))
    index = {s: i for i, s in enumerate(palette)}
    return [[index[s] for s in sig] for sig in signatures], len(palette)


def int_labelled(t, offset):
    """t read back by from_dict with int face labels, numbered against
    the sorted order of its string labels."""
    data = t.to_dict()
    order = sorted(set(t.face_labels), reverse=True)
    for f in data["faces"]:
        f["type"] = offset + order.index(f["type"])
    return Tiling.from_dict(data)


def with_copy(rule, n, mode, copy):
    t = final_stage(rule, n, mode)
    return t, copy(t)


# Between them the pairs use every digit of the packed signature: loaded
# and fragile statuses and loaded vertices (nxs1), added edges (torus3
# subdivision), vertex degrees 4, 6, 8 and 12 (barycentric) and
# int labels that two tilings share only in part (from_dict).
ROUND0_PAIRS = {
    "nxs1 rule/cover 3": lambda: nxs1_pair(3),
    "torus3 subdivision 3": lambda: with_copy(
        "torus3", 3, "subdivision", added_swapped),
    "barycentric 3": lambda: with_copy(
        "barycentric", 3, "subdivision", lambda t: rebuilt(t, reverse=True)),
    "from_dict int labels": lambda: (
        int_labelled(final_stage("nxs1", 2, "replacement"), 0),
        int_labelled(final_stage("torus3", 2, "replacement"), 1)),
}


@pytest.mark.parametrize("name", sorted(ROUND0_PAIRS))
def test_packed_round0_colours_equal_tuple_colours(name):
    pair = ROUND0_PAIRS[name]()
    colours, counts = next(_wl_colours(list(pair)))
    expected, classes = tuple_round0(pair)
    assert [list(c) for c in colours] == expected
    assert len(set().union(*counts)) == classes
    assert classes > 1


def traced_peak(call):
    """The traced peak of a call, in bytes above what was held before."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_isomorphic_working_set_is_flat():
    # Packed round-0 colours, colour arrays and walks that fill one flag
    # map in array('i') keep the traced peak near 51 bytes per flag of a.
    # A flat walk code of a beside a list-based walk of b took about 112,
    # and 6-tuple signatures, colour lists and 3-tuple codes about 246.
    a, b = nxs1_pair(3)
    assert traced_peak(lambda: isomorphic(a, b)) <= 70 * len(a.h_face)


def test_seeded_working_set_is_flatter():
    # No colours, and the flag map and walk queue in array('i'): near 16
    # bytes per flag of a, vertex map included; as lists of boxed ints
    # they took about 79.
    a, b = nxs1_pair(3)
    images = []
    assert isomorphic(a, b, vertex_map=images)
    peak = traced_peak(lambda: isomorphic(a, b, (0, images[0]), []))
    assert peak <= 24 * len(a.h_face)


@pytest.mark.parametrize("breaker", [labels_swapped, statuses_swapped,
                                     label_changed, status_changed])
def test_stage4_broken_copies_rejected(nxs1_stage4, breaker):
    t, _ = nxs1_stage4
    broken = breaker(t)
    assert not isomorphic(t, broken)
    # seeded where the unbroken copy would match
    assert not isomorphic(t, broken, (0, 0))


def square_torus(p, q, name=lambda i, j: (i, j)):
    """The p x q square grid on the torus.  Edge keys are explicit, since
    for p or q of 2 two edges join the same two vertices."""
    def v(i, j):
        return name(i % p, j % q)
    return [("sq", [v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1)],
             [(name(i, j), "h"), (name((i + 1) % p, j), "v"),
              (name(i, (j + 1) % q), "h"), (name(i, j), "v")])
            for i in range(p) for j in range(q)]


# Every flag of a square torus has one colour, and refinement never
# splits it, so only the walks can tell these apart.
def test_square_tori_are_told_apart_by_the_walks():
    t = Tiling(square_torus(4, 4))
    assert refinement([t, Tiling(square_torus(2, 8))])[0] == 1
    assert not isomorphic(t, Tiling(square_torus(2, 8)))
    assert isomorphic(t, Tiling(square_torus(4, 4, lambda i, j: "x%d%d"
                                             % (j, i))))


def walked_tori(monkeypatch, a, b):
    """``isomorphic`` on square tori of sizes a and b, with the number of
    walks it made and of flags they matched."""
    matched = []
    extend = tiling._extend

    def spy(*args):
        matched.append(extend(*args))
        return matched[-1]
    monkeypatch.setattr(tiling, "_extend", spy)
    same = isomorphic(Tiling(square_torus(*a)), Tiling(square_torus(*b)))
    return same, len(matched), sum(matched)


def test_failed_walks_stop_where_b_closes_up(monkeypatch):
    # All 144 flags of b, in both orientations, are candidates, and none
    # matches.  A walk that may not reach a flag of b twice stops when b's
    # walk closes up around its 2 x 18 torus before a's does around the
    # 6 x 6; without that check the walks matched 19,008 flags.
    assert walked_tori(monkeypatch, (6, 6), (2, 18)) == (False, 288, 1872)


def test_failed_walks_stop_where_a_closes_up(monkeypatch):
    # The reverse case: a's walk closes up around its 4 x 9 torus before
    # b's does around the 6 x 6, and a step by ``next`` lands on a flag
    # of a already sent elsewhere.  Without that check the walks matched
    # 16,128 flags, stopped only later by b's taken flags.
    assert walked_tori(monkeypatch, (4, 9), (6, 6)) == (False, 288, 9216)


# Two surfaces of genus 2, each of three quads round one vertex, given by
# the edge keys of each quad: the smallest kind of pair found on which
# the walks need their check across an edge.  None was found among
# square or triangulated tori.
ONE_VERTEX_QUADS = ([[0, 1, 2, 3], [3, 4, 0, 5], [4, 1, 5, 2]],
                    [[0, 1, 2, 3], [3, 4, 2, 5], [1, 5, 4, 0]])


def test_walks_check_both_sides_of_an_edge():
    # A walk follows two quads round by ``next`` to an edge they share,
    # and its step by ``twin`` across that edge lands on a flag already
    # sent elsewhere.  Without that check a walk maps every flag and the
    # two are called isomorphic.
    a, b = (Tiling([("q", "vvvv", keys) for keys in quads])
            for quads in ONE_VERTEX_QUADS)
    assert a.canonical_form() != b.canonical_form()
    assert not isomorphic(a, b)
    assert not isomorphic(b, a)


def test_connected_torus_against_disjoint_tori():
    t = Tiling(square_torus(4, 4))
    two = Tiling(square_torus(2, 2, lambda i, j: (0, i, j))
                 + square_torus(3, 4, lambda i, j: (1, i, j)))
    assert (two.num_faces, two.num_edges, two.num_vertices) == (16, 32, 16)
    assert not two.is_connected()
    assert not isomorphic(t, two)
    assert not isomorphic(two, t)


def test_empty_tilings_are_isomorphic():
    assert isomorphic(Tiling([]), Tiling([]))


def test_canonical_forms_of_empty_and_disjoint_tilings():
    assert Tiling([]).canonical_form() == Tiling([], stage=2).canonical_form()
    assert Tiling([]).canonical_form() != \
        Tiling(square_torus(2, 2)).canonical_form()
    # the form of a disjoint union does not depend on the order of its
    # components, and tells a 3 x 4 torus beside a 2 x 2 from a 2 x 6
    small = square_torus(2, 2, lambda i, j: (0, i, j))
    large = square_torus(3, 4, lambda i, j: (1, i, j))
    form = Tiling(small + large).canonical_form()
    assert Tiling(large + small).canonical_form() == form
    assert form != Tiling(small + square_torus(
        2, 6, lambda i, j: (1, i, j))).canonical_form()


DIGESTS = """
import hashlib
from coversphere.catalog import get_rule
from coversphere.growth import stage_tilings
for rule, n, mode in (("torus3", 4, "subdivision"), ("nxs1", 3, "replacement")):
    *_, t = stage_tilings(get_rule(rule), n, mode)
    print(hashlib.sha256(repr(t.canonical_form()).encode()).hexdigest())
"""


def test_canonical_form_stable_across_hash_seeds():
    src = str(Path(coversphere.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = set()
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", DIGESTS], env=env,
                             capture_output=True, text=True, timeout=300,
                             check=True)
        assert len(run.stdout.split()) == 2
        outputs.add(run.stdout)
    assert len(outputs) == 1
