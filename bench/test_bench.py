"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import os
import sys
import time

import hostspeed
import run
import spans
import workloads

sys.path.insert(0, workloads.SRC)

GROWTH_OK = {"face_counts": workloads.NXS1_FACES,
             "edge_counts": workloads.NXS1_EDGES,
             "vertex_counts": workloads.NXS1_VERTICES,
             "classification": "exponential(ratio~8.030)"}


def _command(workload, name):
    return next(c for c in workloads.WORKLOADS[workload] if c.name == name)


def test_fingerprint_accepts_seed_output():
    growth = _command("frontier", "growth")
    assert workloads.check_output(growth, 0, json.dumps(GROWTH_OK)) == []


def test_fingerprint_rejects_wrong_face_count():
    growth = _command("frontier", "growth")
    bad = dict(GROWTH_OK, face_counts=[14, 158, 1310, 10382, 81805])
    problems = workloads.check_output(growth, 0, json.dumps(bad))
    assert len(problems) == 1 and "face_counts" in problems[0]


def test_fingerprint_ignores_added_keys():
    growth = _command("frontier", "growth")
    out = dict(GROWTH_OK, census={"triple": 3})
    assert workloads.check_output(growth, 0, json.dumps(out)) == []


def test_fingerprint_rejects_not_equivalent():
    verify = _command("oracle", "verify")
    ok = {"equivalent": True, "rule": "nxs1"}
    assert workloads.check_output(verify, 0, json.dumps(ok)) == []
    assert workloads.check_output(verify, 0, json.dumps(
        dict(ok, equivalent=False)))
    assert workloads.check_output(verify, 1, "") == ["exit code 1"]


def test_pack_fingerprint_tolerance():
    with open(workloads.PACK_REFERENCE) as fh:
        ref = json.load(fh)
    circles = [{"radius": r, "vertex": str(i)}
               for i, r in enumerate(reversed(ref["radii"]))]
    out = {"residual": True, "tangency_error_ok": True, "circles": circles}
    assert workloads.check_pack(out) == []
    circles[0]["radius"] += 0.5 * ref["tolerance"]
    assert workloads.check_pack(out) == []
    circles[0]["radius"] += 2 * ref["tolerance"]
    assert workloads.check_pack(out)
    assert workloads.check_pack(dict(out, circles=circles[1:]))
    pack = _command("tools", "pack")
    bad = dict(out, circles=[{"vertex": "a"}] * len(circles))
    assert "malformed" in workloads.check_output(pack, 0, json.dumps(bad))[0]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    with rec.span("cli.cover"):                     # 0 .. 10
        clock.now = 1.0
        with rec.span("cover.boundary_sphere"):     # 1 .. 4
            clock.now = 2.0
            with rec.span("tiling.Tiling"):         # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 5.0
        with rec.span("cover.expand"):              # 5 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert spans.self_times(rec.spans) == [3.0, 2.0, 1.0, 4.0]
    assert spans.nesting_problems(rec.spans) == []
    m = spans.layer_metrics(rec.spans)
    assert m["cli.cover.s"] == 10.0 and m["cli.cover.self_s"] == 3.0
    assert m["cover.boundary_sphere.self_s"] == 2.0
    assert m["tiling.Tiling.calls"] == 1


def test_recursive_span_counted_once():
    clock = FakeClock()
    rec = spans.Recorder(clock)
    with rec.span("tiling.canonical_form"):
        clock.now = 1.0
        with rec.span("tiling.canonical_form"):
            clock.now = 3.0
        clock.now = 4.0
    m = spans.layer_metrics(rec.spans)
    assert m["tiling.canonical_form.s"] == 4.0
    assert m["tiling.canonical_form.self_s"] == 4.0
    assert m["tiling.canonical_form.calls"] == 2


def test_nesting_problems_flags_overlap():
    bad = [spans.Span("a", 0.0, None, end=2.0),
           spans.Span("b", 1.0, 0, end=3.0)]
    assert spans.nesting_problems(bad)


def _bindings():
    from networkx.algorithms.isomorphism import isomorphvf2
    from coversphere import catalog, cli, growth, rules, tiling
    return {
        "rules": rules.apply_replacement,
        "growth": growth.apply_replacement,
        "cli.apply_replacement": cli.apply_replacement,
        "cli.isomorphic": cli.isomorphic,
        "catalog.load_gluing_spec": catalog.load_gluing_spec,
        "cli.load_gluing_spec": cli.load_gluing_spec,
        "Tiling.__init__": vars(tiling.Tiling)["__init__"],
        "Tiling.from_json": vars(tiling.Tiling)["from_json"],
        "is_isomorphic": vars(isomorphvf2.GraphMatcher)["is_isomorphic"],
    }


def test_wrappers_installed_everywhere_and_restored():
    import gc
    from coversphere import cli
    before = _bindings()
    rec = spans.Recorder()
    rec.install()
    try:
        during = _bindings()
        assert all(during[k] is not before[k] for k in before)
        assert spans.leftover_wrappers()
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["cayley", "--group", "heis", "--radius", "3",
                             "--cones", "--depth", "2"]) == 0
    finally:
        rec.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)
    assert spans.leftover_wrappers() == []
    assert rec._on_gc not in gc.callbacks
    names = {s.name for s in rec.spans}
    assert {"cayley.cone_type_count", "cayley.ball",
            "cayley.rooted_iso"} <= names
    assert spans.nesting_problems(rec.spans) == []


def test_benchmark_json_lists_every_metric():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == \
        [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == \
        sorted(workloads.WORKLOADS)


def test_every_layer_metric_is_computed():
    m = spans.layer_metrics([])
    missing = [n for n, _ in spans.PER_LAYER if n not in m
               and n not in ("host.speed", "trace.overhead")
               and not n.endswith(".errors")]
    assert missing == []


def test_probe_window_removes_bursts_and_restores_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.Probe()
    t0 = time.perf_counter()
    with probe.window() as w:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    elapsed = time.perf_counter() - t0
    assert w.samples >= 5 and w.speed > 0
    assert 0.15 < w.seconds < elapsed
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_samples_short_window_once():
    with hostspeed.Probe().window() as w:
        pass
    assert w.samples == 1 and w.speed > 0
