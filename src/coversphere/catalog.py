"""Built-in rule catalog: named rules with their starting tilings.

Each entry bundles a rule, a geometry tag, the stage-1 tiling it acts on,
and (when one exists) the name of the gluing spec whose universal-cover
boundary spheres serve as an independent oracle for the rule's output.
An entry with a companion spec starts from S(1) of that spec's cover.
"""

from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property
from importlib import resources

from .cover import build_cover
from .gluing import GluingSpec, load_gluing_spec
from .rules import Rule, load_rule_file
from .tiling import Tiling


class CatalogError(ValueError):
    """An unknown rule or spec name, or a rule with no companion spec."""


class GrowthError(ValueError):
    """A rule has no form for the mode asked for, or a stage series is
    too short to classify."""


@dataclass
class RuleCatalogEntry:
    name: str
    geometry: str
    rule: Rule
    companion: str | None = None
    start: Callable[[], Tiling] | None = None   # the start with no companion

    @cached_property
    def spec(self) -> GluingSpec:
        """The companion gluing spec, parsed on first read."""
        if self.companion is None:
            raise CatalogError(
                f"rule {self.name!r} has no companion gluing spec")
        return load_spec(self.companion)

    @cached_property
    def initial(self) -> Tiling:
        """The stage-1 tiling the rule acts on, built on first read."""
        if self.companion is None:
            return self.start()
        return build_cover(self.spec, 1).boundary_sphere()

    @property
    def modes(self):
        out = []
        if self.rule.subdivision is not None:
            out.append("subdivision")
        if self.rule.replacement is not None:
            out.append("replacement")
        return tuple(out)

    @property
    def default_mode(self):
        """The mode used when none is asked for: replacement if the rule
        has that form, else subdivision."""
        return self.modes[-1]

    def resolve_mode(self, mode=None):
        """``mode``, or the default mode when it is None; raises
        GrowthError if the rule has no form for it."""
        mode = mode or self.default_mode
        if mode not in self.modes:
            raise GrowthError(f"rule {self.name!r} has no {mode} form")
        return mode


def _data_path(fname):
    return resources.files("coversphere.data") / fname


def load_spec(name: str) -> GluingSpec:
    """Load a bundled gluing spec by name (cube, prism12, utn, s2)."""
    path = _data_path(name + ".glue")
    if not path.is_file():
        raise CatalogError(f"unknown gluing spec: {name!r}")
    return load_gluing_spec(path)


def _tetrahedron():
    faces = [
        ("t", ["a", "b", "c"]),
        ("t", ["a", "c", "d"]),
        ("t", ["a", "d", "b"]),
        ("t", ["b", "d", "c"]),
    ]
    return Tiling(faces, stage=1)


def _empty():
    return Tiling([], stage=1)


@cache
def _catalog():
    def rule(name):
        return load_rule_file(_data_path(name + ".json"))

    nxs1_rule = rule("nxs1")
    entries = [
        RuleCatalogEntry("barycentric", "demo", rule("barycentric"),
                         start=_tetrahedron),
        RuleCatalogEntry("torus3", "E3", rule("torus3"), "cube"),
        RuleCatalogEntry("nxs1", "H2xR", nxs1_rule, "prism12"),
        # same combinatorial rule, different cover adjacency
        RuleCatalogEntry("sl2r", "SL2R", nxs1_rule, "utn"),
        RuleCatalogEntry("s2xr", "S2xR", rule("s2xr"), "s2"),
        RuleCatalogEntry("s3", "S3", rule("s3"), start=_empty),
    ]
    return {e.name: e for e in entries}


def get_rule(name: str) -> RuleCatalogEntry:
    try:
        return _catalog()[name]
    except KeyError:
        known = ", ".join(sorted(_catalog()))
        raise CatalogError(
            f"unknown rule: {name!r} (available: {known})") from None


def list_rules():
    """Deterministic (name, geometry, modes) listing of the catalog."""
    return [(e.name, e.geometry, e.modes)
            for e in sorted(_catalog().values(), key=lambda e: e.name)]
