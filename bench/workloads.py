"""Benchmark workloads: the CLI commands each one runs and the output
fingerprint every command is checked against.

Fingerprints compare named fields, never bytes, so output keys may be
added without breaking the benchmark.  Canonical-form digests are not
fingerprinted: they are not CLI output.
"""

import json
import os
from dataclasses import dataclass
from typing import Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
PACK_INPUT = os.path.join(OUT_DIR, "torus3-stage4.json")
PACK_REFERENCE = os.path.join(BENCH_DIR, "pack_reference.json")

NXS1_FACES = [14, 158, 1310, 10382, 81806]
NXS1_EDGES = [36, 420, 3492, 27684, 218148]
NXS1_VERTICES = [24, 264, 2184, 17304, 136344]
PRISM12_CELLS = [1, 15, 137, 1111, 8793]
SOL_K2 = {"2": 3, "3": 3, "4": 4, "5": 4, "6": 4, "7": 6, "8": 6}
HEIS_CLASSES, HEIS_ELEMENTS = 37, 2590
PACK_CIRCLES = 301


def _fields(out, **expected):
    return [f"{key}: expected {want!r}, got {out.get(key)!r}"
            for key, want in expected.items() if out.get(key) != want]


def check_growth(out):
    problems = _fields(out, face_counts=NXS1_FACES, edge_counts=NXS1_EDGES,
                       vertex_counts=NXS1_VERTICES)
    kind = str(out.get("classification", "")).split("(")[0]
    if kind != "exponential":
        problems.append(f"classification: expected exponential, got {kind!r}")
    return problems


def check_cover(out):
    return _fields(out, cells=PRISM12_CELLS, face_counts=NXS1_FACES,
                   all_spheres=True)


def check_verify(out):
    return _fields(out, equivalent=True)


def check_sol(out):
    return _fields(out, K=SOL_K2)


def check_heis(out):
    problems = _fields(out, class_count=HEIS_CLASSES)
    total = sum(out.get("class_sizes") or [])
    if total != HEIS_ELEMENTS:
        problems.append(f"class_sizes: expected {HEIS_ELEMENTS} elements, "
                        f"got {total}")
    return problems


def check_pack(out):
    """Radii are compared as a sorted list within the reference tolerance,
    not digit for digit: a faster solver that meets the same residual gate
    converges to slightly different values."""
    problems = _fields(out, residual=True, tangency_error_ok=True)
    circles = out.get("circles") or []
    if len(circles) != PACK_CIRCLES:
        return problems + [f"circles: expected {PACK_CIRCLES}, "
                           f"got {len(circles)}"]
    with open(PACK_REFERENCE) as fh:
        ref = json.load(fh)
    radii = sorted(c["radius"] for c in circles)
    worst = max(abs(a - b) for a, b in zip(radii, ref["radii"]))
    if worst > ref["tolerance"]:
        problems.append(f"radii: off the reference by {worst:.3e} "
                        f"(tolerance {ref['tolerance']:.0e})")
    return problems


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable

    @property
    def name(self):
        return self.argv[0]


def check_output(cmd: Command, exit_code, stdout):
    """Problems with one command's result; an empty list means it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        out = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    if not isinstance(out, dict):
        return ["stdout is not a JSON object"]
    try:
        return cmd.check(out)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


# Why each workload exists is recorded in README.md next to this file.
WORKLOADS = {
    "frontier": (
        Command(("growth", "--rule", "nxs1", "--steps", "5"), check_growth),
        Command(("cover", "--spec", "prism12", "--steps", "5"), check_cover),
    ),
    "oracle": (
        Command(("verify", "--rule", "nxs1", "--steps", "4"), check_verify),
    ),
    "tools": (
        Command(("pack", "--in", PACK_INPUT), check_pack),
        Command(("cayley", "--group", "sol", "--radius", "8", "--ac2"),
                check_sol),
        Command(("cayley", "--group", "heis", "--radius", "12", "--cones",
                 "--depth", "2"), check_heis),
    ),
}

# Untimed commands that write a workload's input files before any
# repetition starts.
PREPARE = {
    "tools": (("subdivide", "--rule", "torus3", "--steps", "4",
               "--out", PACK_INPUT),),
}

# Files a workload reads; reading them is part of set-up.
INPUTS = {"tools": (PACK_INPUT,)}
