"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload general_uniform --seed 0 \\
        --seconds 50 --trace 0

With --trace 0 the result holds the end-to-end metrics, measured with
tracing off. With --trace 1 it holds the per-layer metrics of a run that
alternates untraced and traced ops on the same inputs; the spans are written
to .perfbench/spans/ when the run ends. The line before the result is the
run's stamp (machine, versions, commit, seed, op counts).
"""

import argparse
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
WORKLOAD_NAMES = ("table_sweep", "general_uniform", "oracle")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up and run one warm-up op, then exit")
    return parser.parse_args(argv)


def setup_seconds(args):
    """Wall time of a fresh interpreter that imports the program, makes the
    inputs, runs one warm-up op and exits. The wait blocks until the exit:
    a wait with a timeout polls, which rounds the time up to 50 ms steps,
    so a timer kills a probe that hangs instead."""
    command = [sys.executable, __file__, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = perf_counter()
    probe = subprocess.Popen(command, stdout=subprocess.DEVNULL)
    timer = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
    timer.start()
    try:
        status = probe.wait()
    finally:
        timer.cancel()
    elapsed = perf_counter() - start
    if status != 0:
        raise subprocess.CalledProcessError(status, command)
    return elapsed


def main(argv=None):
    args = parse_args(argv)
    try:
        import harness
        from program import ROOT
        from workloads import WORKLOADS
    except ImportError as err:
        print(f"perfbench: cannot load the program: {err}", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        # set-up: build the workload, make its inputs, one checked warm-up op
        workload = WORKLOADS[args.workload](Path(workdir))
        items = workload.inputs(args.seed)
        warm = harness.Tally()
        warm.run_op(workload, workload.op, items[0])
        if warm.failed:
            raise RuntimeError(f"warm-up op failed: {dict(warm.errors)}, "
                               f"invariant={warm.invariant}, "
                               f"mismatch={warm.mismatch}")
        if args.setup_probe:
            return 0
        tally = harness.Tally()
        context = {}
        if args.trace:
            tracer = harness.Tracer()
            plain, traced = harness.traced_loop(workload, items, args.seconds,
                                                tally, tracer)
            metrics = harness.layer_metrics(tracer)
            metrics.update(tally.failure_metrics())
            metrics["tracing.overhead_share"] = (
                statistics.median(traced) / statistics.median(plain) - 1.0,
                "ratio")
            spans = scratch / "spans"
            spans.mkdir(exist_ok=True)
            tracer.write(spans / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            # set-up probes spread over the run, so their median sees the
            # machine's speed states in the share the ops do
            ops, setups = [], []
            for _ in range(SETUP_PROBES):
                setups.append(setup_seconds(args))
                harness.closed_loop(workload, items,
                                    args.seconds / SETUP_PROBES, tally, ops)
            metrics, context = harness.latency_metrics(ops)
            metrics["success_share"] = (tally.completed / tally.attempted,
                                        "ratio")
            metrics["setup_s"] = (statistics.median(setups), "s")
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    harness.emit(harness.stamp(ROOT, args.workload, args.seed, args.trace,
                               args.seconds, tally, context),
                 tally.failed == 0, tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
