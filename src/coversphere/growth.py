"""Stage-count series and growth classification.

Classification tries exact integer finite differences before any ratio
analysis: desk-scale series are short, so exact tests beat fitting.
"""

import math
from dataclasses import dataclass, field

from .catalog import GrowthError, RuleCatalogEntry
from .rules import (_replaced_faces, _subdivided_faces, apply_replacement,
                    apply_subdivision)
from .tiling import Tiling, certified_counts

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


def _steps(entry: RuleCatalogEntry, mode):
    """The rule a mode runs, and its step from a stage to the next stage
    as a Tiling and as ``FaceTables``."""
    if mode == "replacement":
        return entry.rule.replacement, apply_replacement, _replaced_faces
    return entry.rule.subdivision, apply_subdivision, _subdivided_faces


def stage_tilings(entry: RuleCatalogEntry, n: int, mode=None):
    """Yield tilings for stages 1..n of a catalog entry, each built from
    the one before.  Callers that need only the counts read
    ``stage_counts``, which builds no Tiling of stage n."""
    rule, step, _ = _steps(entry, entry.resolve_mode(mode))
    t = entry.initial
    yield t
    for _ in range(n - 1):
        t = step(rule, t)
        yield t


def stage_counts(entry: RuleCatalogEntry, n: int, mode=None):
    """Yield (faces, edges, vertices, components) for stages 1..n.

    Stages 1..n-1 are built as tilings, since each step reads the stage
    before.  Stage n is counted off the rule's face tables by
    ``certified_counts``, once stage n-1 is released, and built as a
    Tiling only when the tables cannot certify their counts, so a bad
    surface raises the Tiling's error and any other gets its counts.
    """
    rule, _, faces = _steps(entry, entry.resolve_mode(mode))
    if n < 2:
        yield entry.initial.counts
        return
    for t in stage_tilings(entry, n - 1, mode):
        yield t.counts
    tables, stage = faces(rule, t), t.stage + 1
    del t
    yield certified_counts(tables) or Tiling(tables, stage=stage).counts


def growth_report(entry: RuleCatalogEntry, n: int, mode=None) -> GrowthReport:
    """Stages 1..n's face, edge and vertex counts, by ``stage_counts``,
    and the face counts' growth class."""
    mode = entry.resolve_mode(mode)
    faces, edges, verts, _ = map(list, zip(*stage_counts(entry, n, mode)))
    return GrowthReport(entry.name, mode, faces, edges, verts,
                        classify_growth(faces))
