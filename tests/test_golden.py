"""Byte-level pins of stage tilings.  The first six were measured before
the cover and replacement engines moved to int-keyed union-find, the last
three before both rule engines shared one template instantiation.  Ids are
dense in order of first appearance, so any change to which cells, vertices
or edges get identified, or to the order faces are emitted in, changes a
digest."""

import hashlib
import json

import pytest

from coversphere.catalog import get_rule, load_spec
from coversphere.cli import main
from coversphere.cover import build_cover
from coversphere.growth import stage_tilings
from coversphere.tiling import ADDED, STATUSES


def cover_sphere(spec, n):
    return lambda: build_cover(load_spec(spec), n).boundary_sphere()


def rule_stage(rule, n, mode):
    def make():
        *_, t = stage_tilings(get_rule(rule), n, mode)
        return t
    return make


GOLDEN = [
    ("prism12 S(4)", cover_sphere("prism12", 4),
     "e22f5b4fb199f188c99596a8fabed8bd83f81c247bdc32a7214184c1085c776c"),
    ("cube S(5)", cover_sphere("cube", 5),
     "f93942c3c30d45fa1e12c43cc21760b1e875c27e642e3db32e8b83bf32a6c069"),
    ("utn S(4)", cover_sphere("utn", 4),
     "64892b90b5470ad0d68a38d9fc1a96280444bf9c899bd080f867d08064902747"),
    ("nxs1 replacement 4", rule_stage("nxs1", 4, "replacement"),
     "41fdb65c24b863fe4247901e8f20a5814ed5d03eacb17bb8c10e47a6f8b8df34"),
    ("torus3 replacement 4", rule_stage("torus3", 4, "replacement"),
     "77d3f207909ad36a63f98b5b49f9ab3bb036acd37f34f70661f9898e2e9450f5"),
    ("torus3 subdivision 4", rule_stage("torus3", 4, "subdivision"),
     "dcc50d35f0d917dadbda183f1ff187b18389f7722ef2194801069ddb00f65e7d"),
    ("barycentric subdivision 4", rule_stage("barycentric", 4, "subdivision"),
     "40f923ebe4d6aa4bc5efb44fa02b2cbbd4308f3355523b20a455bdaa9e78a8d4"),
    ("torus3 subdivision 5", rule_stage("torus3", 5, "subdivision"),
     "1b4a9c0b9445ef66439b19c2c2439dbca13ce14fd2226f2aa967cc27b880c3db"),
    ("s2xr replacement 4", rule_stage("s2xr", 4, "replacement"),
     "ea67809782c7857b6924985e7fae5fee3b81ef3e19a0eea0982bca3da842d4eb"),
]


@pytest.mark.parametrize("make, digest", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_to_json_digest(make, digest):
    assert hashlib.sha256(make().to_json().encode()).hexdigest() == digest


def test_subdivide_out_writes_to_json(capsys):
    assert main(["subdivide", "--rule", "torus3", "--steps", "4",
                 "--mode", "subdivision", "--out", "-"]) == 0
    digest = {name: d for name, _, d in GOLDEN}["torus3 subdivision 4"]
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def table_digest(t):
    """sha256 of a tiling's int tables, face labels, edge statuses and
    added marks: everything ``to_json`` reads, hashed without writing it."""
    h = hashlib.sha256()
    for table in (t.face_start, t.h_face, t.h_next, t.h_prev, t.h_twin,
                  t.h_origin, t.h_edge, t.edge_half):
        h.update(table.tobytes())
    statuses = [STATUSES[m & 3] for m in t.edge_marks]
    added = [bool(m & ADDED) for m in t.edge_marks]
    h.update(json.dumps([t.face_labels, statuses, added]).encode())
    return h.hexdigest()


def test_nxs1_replacement_5_tables():
    # Stage 5 (81,806 faces), pinned by its tables: its to_json digest,
    # 7a8a3ba8f704cd83d1ae4b57d52bd9558d932ad57ae1b27474427e6d98292068,
    # takes several times longer to compute than the stage itself.
    t = rule_stage("nxs1", 5, "replacement")()
    assert t.num_faces == 81806
    assert table_digest(t) == \
        "3452759e16bb43eeabeb3d751f77cd46f03e6c1424e22782a476408bfac62c23"
