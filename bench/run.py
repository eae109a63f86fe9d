"""coversphere benchmark.

    python3 bench/run.py [--workload frontier|oracle|tools|all] [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition of a workload is a
fresh child process (bench/child.py), started from this process one at a
time, with PYTHONHASHSEED set to the seed.  Untraced repetitions run as
many times as fit in `--seconds` (at least once); set-up is also timed in
a few set-up-only children.  With `--trace 1` one more child runs the workload
with the span wrappers installed and reports the per-layer metrics.

The last line of stdout is one JSON object: `correct`, `attempted`,
`failed` (commands run and failed, over all children) and `metrics`, the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`.  Times are in reference-host seconds (see hostspeed.py).
Everything else, and the span dump, goes under bench/out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import spans
import workloads

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")]
SETUP_CHILDREN = 5
# A run must finish within 180 s; children get what is left of this.
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


def run_child(workload, mode, env, deadline, spans_path=None):
    argv = [sys.executable, os.path.join(workloads.BENCH_DIR, "child.py"),
            "--workload", workload, "--mode", mode]
    if spans_path:
        argv += ["--spans", spans_path]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{workload}: out of time before a {mode} child")
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=timeout, cwd=workloads.ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: {mode} child timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{workload}: {mode} child exited "
                         f"{proc.returncode}:\n{proc.stderr[-4000:]}")
    if mode == "prepare":
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        tail = proc.stdout[-2000:] + proc.stderr[-2000:]
    raise BenchError(f"{workload}: {mode} child printed no result:\n{tail}")


def wall(child):
    """[raw s, reference-host s, median host speed] of a child's commands"""
    cmds = child["commands"]
    return [sum(c["seconds"] for c in cmds),
            sum(c["seconds"] * c["speed"] for c in cmds),
            statistics.median(c["speed"] for c in cmds)]


def run_workload(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    hashseed = seed % 2 ** 32
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    if workload in workloads.PREPARE:
        run_child(workload, "prepare", env, deadline)
    setups = [run_child(workload, "setup", env, deadline)
              for _ in range(SETUP_CHILDREN)]
    reps = []
    start = time.monotonic()
    # as many whole repetitions as fit in `seconds`, at least one
    while not reps or (time.monotonic() - start) * (1 + 1 / len(reps)) \
            <= seconds:
        reps.append(run_child(workload, "run", env, deadline))
    traced = None
    if trace:
        spans_path = os.path.join(workloads.OUT_DIR,
                                  f"spans-{workload}-seed{seed}.jsonl")
        traced = run_child(workload, "trace", env, deadline, spans_path)

    children = reps + ([traced] if traced else [])
    commands = [c for child in children for c in child["commands"]]
    failed = [c for c in commands if c["problems"]]
    rep_walls = [wall(r) for r in reps]
    setup_times = [c["setup"] for c in setups + reps]
    e2e = {
        "wall_s": statistics.median(w[1] for w in rep_walls),
        "setup_s": statistics.median(t["seconds"] * t["speed"]
                                     for t in setup_times),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    raw = {"wall_s": statistics.median(w[0] for w in rep_walls),
           "setup_s": statistics.median(t["seconds"] for t in setup_times),
           "host_speed": statistics.median(w[2] for w in rep_walls)}
    samples = {"wall_s": len(reps), "setup_s": len(setup_times),
               "peak_rss_mb": len(reps)}
    layers, trace_problems = {}, []
    if traced:
        traced_wall = wall(traced)
        layers = dict(traced["layers"])
        layers["host.speed"] = traced_wall[2]
        layers["trace.overhead"] = traced_wall[1] / e2e["wall_s"] - 1
        trace_problems = traced["trace_problems"]
    result = {
        "workload": workload, "seed": seed, "pythonhashseed": hashseed,
        "seconds": seconds, "trace": trace,
        "correct": not failed and not trace_problems,
        "attempted": len(commands), "failed": len(failed),
        "error_rate": len(failed) / len(commands),
        "end_to_end": e2e, "raw": raw, "samples": samples, "layers": layers,
        "walls": rep_walls,
        "trace_problems": trace_problems, "failures": failed,
        "setup_children": setups, "repetitions": reps, "traced": traced,
    }
    path = os.path.join(workloads.OUT_DIR,
                        f"result-{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def report(res):
    """Human-readable lines for one workload."""
    print(f"workload {res['workload']}: seed {res['seed']} "
          f"(PYTHONHASHSEED={res['pythonhashseed']}), trace {res['trace']}")
    for name, unit in END_TO_END:
        raw = (f", {res['raw'][name]:.6f} {unit} raw" if name in res["raw"]
               else "")
        print(f"  {name:<34} {res['end_to_end'][name]:>14.6f} {unit:<15} "
              f"median of {res['samples'][name]}{raw}")
    print(f"  {'host speed':<34} {res['raw']['host_speed']:>14.6f} "
          f"{'ratio':<15} median over commands, 1 = reference host")
    print(f"  {'error_rate':<34} {res['error_rate']:>14.6f} {'ratio':<15} "
          f"{res['failed']} failed of {res['attempted']} commands")
    for c in res["failures"]:
        print(f"  FAILED {' '.join(c['argv'])}: {'; '.join(c['problems'])}")
    for p in res["trace_problems"]:
        print(f"  TRACE PROBLEM {p}")
    if res["layers"]:
        for name, unit in spans.PER_LAYER:
            print(f"  {name:<34} {res['layers'][name]:>14.6f} {unit}")


def metrics_of(res, trace):
    table = spans.PER_LAYER if trace else END_TO_END
    source = res["layers"] if trace else res["end_to_end"]
    return {name: {"value": source[name], "unit": unit}
            for name, unit in table}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # exit through the normal path, so subprocess.run stops a running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not os.path.isfile(os.path.join(workloads.SRC, "coversphere",
                                       "cli.py")):
        print(f"error: no coversphere sources under {workloads.SRC}",
              file=sys.stderr)
        return 2
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        args.trace))
            report(results[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = metrics_of(results[0], args.trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, args.trace).items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
