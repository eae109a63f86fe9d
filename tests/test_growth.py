import pytest

from coversphere.catalog import get_rule
from coversphere.growth import (GrowthError, classify_growth, growth_report,
                                stage_tilings)


def face_counts(entry, n, mode=None):
    return [t.num_faces for t in stage_tilings(entry, n, mode)]


def test_quadratic_series():
    c = classify_growth([6, 30, 78, 150, 246, 366])
    assert c.kind == "polynomial" and c.degree == 2
    assert c.evidence["diff_value"] == 24


def test_constant_and_empty():
    assert classify_growth([5, 5, 5, 5]).kind == "constant"
    assert classify_growth([0, 0, 0, 0]).kind == "empty"


def test_eventually_constant():
    assert classify_growth([7, 9, 5, 5, 5, 5]).kind == "constant"


def test_exponential_ratio():
    c = classify_growth([2, 6, 18, 54, 162])
    assert c.kind == "exponential"
    assert c.ratio == pytest.approx(3.0)


def test_too_short_rejected():
    with pytest.raises(GrowthError):
        classify_growth([1, 2, 3])


@pytest.mark.parametrize("series, last", [
    ([0, 0, 0, 5], []),             # no term after a positive one
    ([2, 0, 2, 0, 2], [0.0, 0.0]),  # each positive term drops to zero
])
def test_no_growth_ratio_rejected(series, last):
    with pytest.raises(GrowthError) as err:
        classify_growth(series)
    assert str(err.value) == "no growth ratio exists: last ratios %s" % last


def test_torus3_polynomial_for_every_window():
    e = get_rule("torus3")
    faces = face_counts(e, 6, "replacement")
    assert faces == [6, 30, 78, 150, 246, 366]
    for n in (4, 5, 6):
        c = classify_growth(faces[:n])
        assert (c.kind, c.degree) == ("polynomial", 2)


def test_s2xr_constant_s3_empty():
    assert classify_growth(face_counts(get_rule("s2xr"), 4)).kind \
        == "constant"
    assert face_counts(get_rule("s3"), 4) == [0, 0, 0, 0]
    assert classify_growth(face_counts(get_rule("s3"), 4)).kind == "empty"


def test_nxs1_exponential():
    rep = growth_report(get_rule("nxs1"), 5)
    assert rep.faces == [14, 158, 1310, 10382, 81806]
    assert rep.classification.kind == "exponential"
    assert rep.classification.ratio > 1.05


def test_report_mode_mismatch():
    with pytest.raises(GrowthError):
        face_counts(get_rule("nxs1"), 3, "subdivision")
    with pytest.raises(GrowthError):
        growth_report(get_rule("nxs1"), 3, "subdivision")
