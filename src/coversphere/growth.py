"""Stage-count series and growth classification.

Classification tries exact integer finite differences before any ratio
analysis: desk-scale series are short, so exact tests beat fitting.
"""

import math
from dataclasses import dataclass, field

from .catalog import GrowthError, RuleCatalogEntry
from .rules import apply_replacement, apply_subdivision

MAX_POLY_DEGREE = 4


@dataclass
class Classification:
    kind: str                 # empty | constant | polynomial | exponential
    degree: int | None = None
    ratio: float | None = None
    evidence: dict = field(default_factory=dict)

    def __str__(self):
        if self.kind == "polynomial":
            return f"polynomial({self.degree})"
        if self.kind == "exponential":
            return f"exponential(ratio~{self.ratio:.3f})"
        return self.kind


@dataclass
class GrowthReport:
    name: str
    mode: str
    faces: list
    edges: list
    vertices: list
    classification: Classification


def _diffs(xs):
    return [b - a for a, b in zip(xs, xs[1:])]


def _eventually(xs):
    """Value the sequence settles to, allowing a short head, else None."""
    if len(xs) < 2:
        return None
    slack = min(2, len(xs) - 2)
    tail = xs[slack:]
    return tail[0] if len(set(tail)) == 1 else None


def classify_growth(series) -> Classification:
    """Classify an integer stage-count series.

    empty: all zero.  constant: eventually equal.  polynomial(d): d-th
    finite differences eventually constant and nonzero (d <= 4).  Otherwise
    exponential, with ratio the geometric mean of the last 3 consecutive
    ratios.
    """
    series = list(series)
    if len(series) < 4:
        raise GrowthError("series too short to classify (need >= 4 terms)")
    if all(x == 0 for x in series):
        return Classification("empty")
    val = _eventually(series)
    if val is not None:
        return Classification("constant", evidence={"value": val})
    cur = series
    for d in range(1, MAX_POLY_DEGREE + 1):
        cur = _diffs(cur)
        val = _eventually(cur)
        if val is not None and val != 0:
            return Classification(
                "polynomial", degree=d,
                evidence={"diff_order": d, "diff_value": val})
    ratios = [b / a for a, b in zip(series, series[1:]) if a > 0]
    last = ratios[-3:]
    if not last or 0 in last:
        raise GrowthError("no growth ratio exists: last ratios %s" % last)
    ratio = math.exp(sum(math.log(r) for r in last) / len(last))
    return Classification("exponential", ratio=ratio,
                          evidence={"ratios": ratios})


def stage_tilings(entry: RuleCatalogEntry, n: int, mode=None):
    """Yield tilings for stages 1..n of a catalog entry."""
    mode = entry.resolve_mode(mode)
    t = entry.initial
    yield t
    for _ in range(n - 1):
        if mode == "replacement":
            t = apply_replacement(entry.rule.replacement, t)
        else:
            t = apply_subdivision(entry.rule.subdivision, t)
        yield t


def growth_report(entry: RuleCatalogEntry, n: int, mode=None) -> GrowthReport:
    faces, edges, verts = [], [], []
    mode = entry.resolve_mode(mode)
    for t in stage_tilings(entry, n, mode):
        faces.append(t.num_faces)
        edges.append(t.num_edges)
        verts.append(t.num_vertices)
    return GrowthReport(entry.name, mode, faces, edges, verts,
                        classify_growth(faces))
