"""Scripts that reach into engine internals, run against the engine."""

import importlib.util
import json
from pathlib import Path

import pytest

from coversphere.cover import CoverState
from coversphere.gluing import load_gluing_spec

ROOT = Path(__file__).resolve().parents[1]


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


derive = load_script("derive_rule_templates")


@pytest.fixture(scope="module")
def nxs1_patterns():
    data = json.loads((derive.DATA / "nxs1.json").read_text())
    return {p["name"]: p for p in data["replacement"]["patterns"]}


@pytest.mark.parametrize("name, stage, region", derive.PROBES,
                         ids=[p[0] for p in derive.PROBES])
def test_derived_template_matches_nxs1(name, stage, region, nxs1_patterns):
    """Reading a pattern off the prism12 cover reproduces the rule data;
    boundary edges folded away carry ``"to": null`` and no ``to`` there."""
    spec = load_gluing_spec(derive.DATA / "prism12.glue")
    rec = derive.probe(lambda: CoverState(spec), name, stage, region)
    assert rec is not None
    rec["boundary"] = [{k: v for k, v in b.items()
                        if not (k == "to" and v is None)}
                       for b in rec["boundary"]]
    assert rec == nxs1_patterns[name]
