"""One benchmark repetition, run by run.py in a fresh process.

    python3 bench/child.py --workload NAME --mode setup|run|trace|prepare
                           [--spans PATH]

Imports coversphere from the checkout's src/, builds the catalog and reads
the workload's input (set-up), then runs each of the workload's commands
through `coversphere.cli.main(argv)` with stdout captured and checks its
JSON against the workload's fingerprint.  Set-up and every command are
timed in a host-speed probe window (hostspeed.py).  Prints one JSON
object on stdout.  `trace` does the same with the span wrappers of spans.py
installed, and reports per-layer metrics.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys

import hostspeed
import spans
import workloads


def import_package():
    """Import coversphere.cli from this checkout's src/, never from an
    installed copy."""
    sys.path.insert(0, workloads.SRC)
    import coversphere.cli
    where = os.path.dirname(os.path.abspath(coversphere.cli.__file__))
    if where != os.path.join(workloads.SRC, "coversphere"):
        raise SystemExit(f"coversphere was imported from {where}, "
                         f"not from {workloads.SRC}")
    return coversphere.cli


def finish_setup(cli, workload):
    cli.catalog.list_rules()
    for path in workloads.INPUTS.get(workload, ()):
        with open(path, "rb") as fh:
            fh.read()


def run_command(cli, argv, probe):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            probe.window() as window:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any crash is a failed command
            code = f"{type(exc).__name__}: {exc}"
    return window, code, out.getvalue(), err.getvalue()


def timing(window):
    return {"seconds": window.seconds, "speed": window.speed,
            "samples": window.samples}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--mode", required=True,
                    choices=["setup", "run", "trace", "prepare"])
    ap.add_argument("--spans", help="JSON-lines span dump (trace mode)")
    args = ap.parse_args()

    probe = hostspeed.Probe()
    with probe.window() as setup:
        cli = import_package()
        if args.mode == "prepare":
            for argv in workloads.PREPARE.get(args.workload, ()):
                _, code, _, err = run_command(cli, argv, probe)
                if code != 0:
                    raise SystemExit(f"{' '.join(argv)} failed ({code}): "
                                     f"{err}")
            return
        recorder = None
        if args.mode == "trace":
            recorder = spans.Recorder()
            recorder.install()
        finish_setup(cli, args.workload)
    result = {"setup": timing(setup)}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    commands = []
    for cmd in workloads.WORKLOADS[args.workload]:
        if recorder:
            with recorder.span(f"cli.{cmd.name}"):
                window, code, out, err = run_command(cli, cmd.argv, probe)
        else:
            window, code, out, err = run_command(cli, cmd.argv, probe)
        problems = workloads.check_output(cmd, code, out)
        commands.append({"argv": list(cmd.argv), **timing(window),
                         "exit": code, "problems": problems,
                         "stderr": err[-2000:]})
    result["commands"] = commands

    if recorder:
        recorder.uninstall()
        layers = spans.layer_metrics(recorder.spans, recorder.gc_seconds,
                                     recorder.gc_gen2)
        for name in spans.CLI_COMMANDS:
            layers[f"cli.{name}.errors"] = sum(
                1 for c in commands if c["argv"][0] == name and c["problems"])
        result["layers"] = {name: layers[name]
                            for name, _ in spans.PER_LAYER if name in layers}
        result["trace_problems"] = (spans.nesting_problems(recorder.spans)
                                    + spans.leftover_wrappers())
        result["spans"] = len(recorder.spans)
        if args.spans:
            recorder.dump(args.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
