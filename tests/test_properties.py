import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from coversphere.catalog import get_rule
from coversphere.cayley import ball, make_group
from coversphere.growth import classify_growth
from coversphere.tiling import Tiling, isomorphic


@given(st.lists(st.integers(0, 50), min_size=5, max_size=5),
       st.integers(1, 3))
def test_polynomial_series_classified_and_stable(coeffs, degree):
    coeffs = coeffs[:degree] + [max(coeffs[degree], 1)]
    series = [sum(c * n ** k for k, c in enumerate(coeffs))
              for n in range(1, 10)]
    c = classify_growth(series)
    assert (c.kind, c.degree) == ("polynomial", degree)
    c2 = classify_growth(series[1:])
    assert (c2.kind, c2.degree) == (c.kind, c.degree)


@given(st.integers(1, 5), st.integers(2, 6))
def test_geometric_series_classified_and_stable(a, q):
    series = [a * q ** n for n in range(8)]
    c = classify_growth(series)
    assert c.kind == "exponential"
    assert abs(c.ratio - q) < 1e-9
    assert classify_growth(series[1:]).kind == "exponential"


@st.composite
def words(draw, group, max_len=6):
    gens = sorted(group.generators)
    return [draw(st.sampled_from(gens))
            for _ in range(draw(st.integers(0, max_len)))]


def _eval(g, w):
    return functools.reduce(g.mul, (g.generators[s] for s in w), g.identity)


@settings(max_examples=40)
@given(st.sampled_from(["Z", "Z3", "heis", "sol"]), st.data())
def test_word_evaluation_multiplicative(name, data):
    g = make_group(name)
    w1 = data.draw(words(g))
    w2 = data.draw(words(g))
    assert _eval(g, w1 + w2) == g.mul(_eval(g, w1), _eval(g, w2))


@settings(max_examples=40)
@given(st.sampled_from(["Z3", "heis", "sol"]), st.data())
def test_word_inverse_cancels(name, data):
    g = make_group(name)
    w = data.draw(words(g))
    assert g.mul(_eval(g, w), g.inv(_eval(g, w))) == g.identity


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(["Z", "Z3", "heis"]), st.integers(0, 3))
def test_ball_sizes_monotone(name, n):
    bd = ball(make_group(name), n + 1)
    assert bd.ball_size(n) <= bd.ball_size(n + 1)
    assert len(bd.elements[bd.offsets[n + 1]:bd.offsets[n + 2]]) == \
        bd.ball_size(n + 1) - bd.ball_size(n)


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(8))))
def test_isomorphism_invariant_under_relabeling(perm):
    t = get_rule("torus3").initial
    faces = [(t.face_labels[f],
              [perm[v] for v in t.face_vertices(f)])
             for f in range(len(t.face_start))]
    assert isomorphic(t, Tiling(faces))
