import dataclasses

import pytest

from coversphere.catalog import CatalogError, get_rule, list_rules, load_spec
from coversphere.cover import build_cover
from coversphere.rules import apply_replacement
from coversphere.tiling import isomorphic


def test_catalog_contents():
    names = [n for n, _g, _m in list_rules()]
    assert names == sorted(names)
    assert set(names) == {"barycentric", "torus3", "nxs1",
                          "sl2r", "s2xr", "s3"}


def test_default_mode_prefers_replacement():
    assert get_rule("torus3").default_mode == "replacement"
    assert get_rule("barycentric").default_mode == "subdivision"


def test_unknown_rule_rejected():
    with pytest.raises(CatalogError):
        get_rule("minkowski")


def test_all_entries_validate_clean():
    # building a rule form runs its checks, so rebuild each entry's forms
    for name, _g, _m in list_rules():
        rule = get_rule(name).rule
        for form in (rule.subdivision, rule.replacement):
            if form is not None:
                dataclasses.replace(form)


def test_sl2r_shares_rule_object_with_nxs1():
    assert get_rule("sl2r").rule is get_rule("nxs1").rule
    assert get_rule("sl2r").companion == "utn"


def test_torus3_initial_is_cube_boundary():
    e = get_rule("torus3")
    t = e.initial
    assert len(t.face_start) == 6
    assert t.is_sphere()
    assert all(len(t.face_vertices(f)) == 4 for f in range(6))


def test_s3_entry_is_empty():
    e = get_rule("s3")
    assert len(e.initial.face_start) == 0
    assert e.rule.replacement.patterns == []


def test_s2xr_initial_two_sphere_components():
    e = get_rule("s2xr")
    comps = e.initial.components()
    assert len(comps) == 2
    assert all(e.initial.restrict(c).is_sphere() for c in comps)


def test_nxs1_matches_companion_cover():
    e = get_rule("nxs1")
    state = build_cover(load_spec("prism12"), 1)
    t = e.initial
    counts = []
    for _ in range(3):
        sphere = state.boundary_sphere()
        counts.append(len(t.face_start))
        assert isomorphic(t, sphere)
        state.expand()
        t = apply_replacement(e.rule.replacement, t)
    assert counts == [14, 158, 1310]


def test_utn_cover_isomorphic_to_prism12_cover():
    s1 = build_cover(load_spec("prism12"), 1)
    s2 = build_cover(load_spec("utn"), 1)
    for _ in range(3):
        b1, b2 = s1.boundary_sphere(), s2.boundary_sphere()
        assert b1.is_sphere() and b2.is_sphere()
        assert isomorphic(b1, b2)
        s1.expand()
        s2.expand()
