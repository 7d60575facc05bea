"""Closed-loop measurement with one client, in-memory layer spans, the
per-layer aggregation of those spans, and the stamp every result carries."""

import hashlib
import json
import os
import platform
import statistics
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import InvariantBroken, Mismatch

# exception classes that get a per-layer counter of their own; any other
# class is counted under failed.other (the stamp keeps every class name)
COUNTED_ERRORS = ("QuadratureNotConverged", "UnwrapAmbiguity",
                  "NonPositiveVolume", "ParallelField", "DegenerateGeometry",
                  "NormDrift", "ValueError")

# span name -> per-layer metric prefix (the *_ms median and the *_share)
LAYER_SPANS = ("trajectory.sample_trajectory", "complexity.bounding_box",
               "complexity.branch_times", "metrics.path_metrics",
               "verify.integrate_schrodinger", "hamiltonians.propagator")


class Tracer:
    """In-memory spans and values; every record carries the id of its op."""

    def __init__(self):
        self.op_id = 0
        self.spans = []   # (op_id, name, start, end)
        self.values = []  # (op_id, name, value)

    @contextmanager
    def span(self, name):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((self.op_id, name, start, perf_counter()))

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span; return its result and duration."""
        with self.span(name):
            result = fn(*args)
        _, _, start, end = self.spans[-1]
        return result, end - start

    def value(self, name, value):
        self.values.append((self.op_id, name, value))

    def write(self, path):
        with open(path, "w") as stream:
            for op_id, name, start, end in self.spans:
                stream.write(json.dumps({"op": op_id, "span": name,
                                         "start": start, "end": end}) + "\n")
            for op_id, name, value in self.values:
                stream.write(json.dumps({"op": op_id, "value": name,
                                         "x": value}) + "\n")


class Tally:
    """Outcome of every op: completed, expected typed error, or failed."""

    def __init__(self):
        self.attempted = 0
        self.completed = 0
        self.failed = 0          # deviations from the frozen outputs
        self.errors = Counter()  # exception class name -> ops that raised it
        self.invariant = 0
        self.mismatch = 0

    def run_op(self, workload, call, item):
        """Run one op, check it, and return its latency in seconds. An
        exception is counted by class; it never stops the run."""
        self.attempted += 1
        start = perf_counter()
        try:
            output = call(item)
        except Exception as err:  # noqa: BLE001 - every op outcome is counted
            latency = perf_counter() - start
            name = type(err).__name__
            self.errors[name] += 1
            if name != workload.expected_error(item):
                self.failed += 1
            return latency, False
        latency = perf_counter() - start
        try:
            workload.check(item, output)
        except InvariantBroken:
            self.invariant += 1
        except Mismatch:
            self.mismatch += 1
        else:
            self.completed += 1
            return latency, True
        self.failed += 1
        return latency, False

    def failure_metrics(self):
        counts = {f"failed.{name}": self.errors[name]
                  for name in COUNTED_ERRORS}
        counts["failed.other"] = sum(n for name, n in self.errors.items()
                                     if name not in COUNTED_ERRORS)
        counts["failed.invariant"] = self.invariant
        counts["failed.mismatch"] = self.mismatch
        metrics = {name: (n, "count") for name, n in counts.items()}
        metrics["failed_share"] = (1.0 - self.completed / self.attempted,
                                   "ratio")
        return metrics


def closed_loop(workload, items, seconds, tally, ops):
    """Untraced ops back to back for `seconds`, each followed by one timed
    run of the workload's reference work. Appends (start, latency, completed,
    reference seconds) of every op to `ops`, going on through `items`
    where the previous call stopped."""
    deadline = perf_counter() + seconds
    first = len(ops)
    while len(ops) == first or perf_counter() < deadline:
        start = perf_counter()
        item = items[len(ops) % len(items)]
        latency, ok = tally.run_op(workload, workload.op, item)
        ref_start = perf_counter()
        workload.reference()
        ops.append((start, latency, ok, perf_counter() - ref_start))
    return ops


def traced_loop(workload, items, seconds, tally, tracer):
    """Each item runs once untraced and once traced, alternating, so both
    see the same inputs. A traced op's latency is the span around its real
    call; the stage replay that follows it is not part of the op."""
    plain, traced = [], []
    deadline = perf_counter() + seconds
    n = 0
    while n < 2 or perf_counter() < deadline:
        item = items[(n // 2) % len(items)]
        if n % 2 == 0:
            plain.append(tally.run_op(workload, workload.op, item)[0])
        else:
            tracer.op_id = n

            def call(item):
                return workload.traced_call(item, tracer)

            start = perf_counter()
            latency, ok = tally.run_op(workload, call, item)
            tracer.spans.append((n, "op", start, start + latency))
            traced.append(latency)
            if ok:
                workload.shadow(item, tracer)
        n += 1
    return plain, traced


def latency_metrics(ops):
    """End-to-end timings of a closed loop.

    The machine's speed switches between states that differ by up to 2x
    and last from seconds to minutes, so a latency in ms measures the state
    as much as the program. The workload's reference work slows with the
    same states, so each op's latency is divided by the mean time of the
    reference runs just before and just after it: the bounded metrics are
    op latencies in units of the reference work. Runs further away track
    brief slowdowns worse. The latencies in ms and the rate are returned as
    context for the stamp."""
    latencies = [latency for _, latency, _, _ in ops]
    refs = [ref for _, _, _, ref in ops]
    relative = [latency / statistics.fmean(refs[max(0, i - 1):i + 1])
                for i, latency in enumerate(latencies)]
    bounded = {"op_p50_ref": (statistics.median(relative), "ref"),
               "op_p95_ref": (percentile(relative, 95), "ref")}
    context = {"ops": len(ops),
               "ops_per_s": sum(ok for _, _, ok, _ in ops) / sum(latencies),
               "op_p50_ms": statistics.median(latencies) * 1e3,
               "op_p95_ms": percentile(latencies, 95) * 1e3,
               "ref_p50_ms": statistics.median(refs) * 1e3}
    return bounded, context


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def layer_metrics(tracer):
    """Per-layer metrics from the spans of a traced run. *_ms is the median
    per call; *_share is summed span time over summed op time."""
    durations = defaultdict(list)
    per_op = defaultdict(lambda: defaultdict(float))
    for op_id, name, start, end in tracer.spans:
        durations[name].append(end - start)
        per_op[op_id][name] += end - start
    values = defaultdict(list)
    for op_id, name, value in tracer.values:
        values[name].append(value)
        per_op[op_id][name] += value
    op_total = sum(durations["op"])
    ops = [per_op[op_id] for op_id in sorted(per_op) if "op" in per_op[op_id]]

    def ms(samples):
        return statistics.median(samples) * 1e3 if samples else 0.0

    def per_op_median(name):
        return statistics.median(op[name] for op in ops) if ops else 0.0

    out = {}
    for name in LAYER_SPANS + ("complexity.volume_quadrature",):
        samples = durations[name] or values[name]
        out[f"{name}_ms"] = (ms(samples), "ms")
        out[f"{name}_share"] = (sum(samples) / op_total, "ratio")
    out["complexity.branch_segments"] = (
        per_op_median("complexity.branch_segments"), "count")
    out["complexity.analyze_ms"] = (ms(durations["complexity.analyze"]), "ms")
    out["complexity.degenerate_per_op"] = (
        per_op_median("complexity.degenerate"), "count")
    sweeps = durations["cli.sweep"]
    out["cli.sweep_ms"] = (ms(sweeps), "ms")
    out["cli.overhead_ms"] = (
        statistics.median(op["cli.sweep"] - op["complexity.analyze"]
                          for op in ops) * 1e3 if sweeps else 0.0, "ms")
    return out


# -- stamp -------------------------------------------------------------------

def stamp(root, workload, seed, trace, seconds, tally, context):
    return {"workload": workload, "seed": seed, "trace": trace,
            "seconds": seconds, **context,
            "ops_attempted": tally.attempted,
            "ops_completed": tally.completed,
            "ops_failed": tally.failed,
            "errors_by_class": dict(tally.errors),
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": git_commit(root),
            "source_sha256": source_digest(root)}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as stream:
            for line in stream:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root):
    """HEAD of the checkout's git repository, or None outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root):
    """sha256 over the package's source files, which identifies the code
    measured when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "blochcomplexity").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def emit(stamp_record, correct, tally, metrics):
    print(json.dumps({"stamp": stamp_record}))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    sys.stdout.flush()
