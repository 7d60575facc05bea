#!/usr/bin/env python3
"""Time `analyze` and the reference integrator per call and write the
medians, with the machine and the versions they were taken on, to OUT as
JSON.

Usage: PYTHONPATH=<checkout>/src python scripts/bench_analyze.py OUT

The package is the one that `import blochcomplexity` finds, and the
general and oracle pools and the reference work are read from the
`perfbench/` next to that package's `src/`, so the same script times any
checkout. Each timed `analyze` call builds its problem and runs
`analyze`, as a client's first call on a problem does; a call that raises
a typed error is timed like the others and counted. The median of the
single calls' times keeps a burst of load from another process out of the
figure. After each call the script times one run of `perfbench`'s fixed
reference work (`workloads.analyze_reference`, about 1 ms, for `analyze`;
`workloads.Oracle.reference`, the oracle workload's, for the integrator),
and writes each median also as a ratio to the median of the references
timed among its calls: the load of a shared machine moves the absolute
times between runs, and the ratio much less. OUT gets:

- ``canonical``: per averaging mode and at each alpha in
  {0, pi/16, pi/4, pi/2} on the canonical problem (x -> y, E = 1), the
  median time of CANONICAL_CALLS calls, in ms (``ms``) and in units of the
  reference (``ref``);
- ``general``: per averaging mode, the median time of a call over
  GENERAL_ROUNDS passes through the first GENERAL_DRAWS general-pool
  draws, in ms (``ms_per_call``) and in units of the reference
  (``ref_per_call``), the 95th percentile of those call times in the same
  two units (``p95_ms_per_call``, ``p95_ref_per_call``), and how many of
  the draws raise;
- ``oracle``: the same for `integrate_schrodinger` over ORACLE_ROUNDS
  passes through the first ORACLE_DRAWS oracle-pool draws (a general
  field and time each, built untimed as the oracle workload builds them);
- ``work``: per averaging mode, from one more untimed pass through the
  canonical alphas and the general draws, the work of a call: the points
  it evaluates (``points``, the sum of ``np.size(x)`` over the calls of
  the evaluation kernel's states, `trajectory.evaluate_states`, through
  which every evaluation passes) and its Python-level calls (``calls``,
  the ``"call"`` events that `sys.setprofile` sees, where a generator,
  whose every resume is such an event, counts once), at each canonical
  alpha and, over the general draws, as the median, max (points only) and
  total; and its quadrature levels (``levels``, the calls of the kernel's
  angles, `trajectory.evaluate_angles`: the first level's nodes share one
  call with the box, and each bisection level adds one), at each
  canonical alpha and, over the general draws, as the median, max and a
  histogram (``histogram``, draws per level count); and the same three
  summed over the `snapshot.pole_cases` whose problem can be built
  (``pole_cases``, with their number in ``cases``), which meet an exact
  pole or pass next to one as no general draw does;
- ``sweep``: for the default 17-row `cli sweep` to a file (``cli_sweep``),
  the 257-row `cli figdata fig4` to a file (``fig4``), the same at
  theta_AB = 3.1 (``fig4_wide``), where rows bisect, the 513-row
  `cli figdata fig2` to a file (``fig2``, which evaluates no state) and
  the 4097-row `cli evolve --alpha 0.3` to a file (``evolve``), all in
  process, the median time of one command over SWEEP_ROUNDS and
  FIG4_ROUNDS runs, in ms (``ms``) and in units of `perfbench`'s sweep
  reference (``ref``,
  `workloads.sweep_reference`, the `table_sweep` workload's), and the
  points, calls and levels of one command run after the timed ones,
  counted as in ``work`` (``points``, ``calls``, ``levels``);
- ``fig4_peak``: the peak resident memory of one `cli figdata fig4` with
  FIG4_PEAK_POINTS points, run in a fresh interpreter, in MB
  (``peak_rss_mb``, its `resource.getrusage` ``ru_maxrss``, which Linux
  gives in KiB), with its number of alphas (``alphas``): a sweep holds
  every row's points at once, so this is its memory on a large grid;
- ``fig4_kernel_peak_mb``: the same command run in process under
  `tracemalloc`, the largest peak of traced memory inside a call of the
  evaluation kernel (`trajectory.evaluate_angles`, as `complexity` calls
  it), in MB: what the sweep holds and the kernel allocates at once,
  with none of the imports that the resident memory holds;
- ``nproc``, the Python and numpy versions, and the commit of the checkout
  (``git describe --always --dirty``; null outside a git checkout).

The work counts are exact: for one commit and one Python version they
repeat run after run, however loaded the machine is, so a change of work
shows in them. The times are not: the load of a shared machine moves
them, and the ratios less. One untimed pass precedes the
rounds. It takes about 15 seconds.
"""

import functools
import inspect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

import blochcomplexity as bc
import blochcomplexity.cli
from snapshot import MODES, perfbench_workloads, pole_cases

ROOT = Path(bc.__file__).resolve().parents[2]
ALPHAS = {"0": 0.0, "pi/16": np.pi / 16, "pi/4": np.pi / 4, "pi/2": np.pi / 2}
CANONICAL_CALLS = 200
GENERAL_DRAWS = 600
GENERAL_ROUNDS = 5
ORACLE_DRAWS = 64
ORACLE_ROUNDS = 5
SWEEP_ROUNDS = 100
FIG4_ROUNDS = 20
COMMANDS = {"cli_sweep": (["sweep"], SWEEP_ROUNDS),
            "fig4": (["figdata", "fig4"], FIG4_ROUNDS),
            "fig4_wide": (["figdata", "fig4", "--theta-ab", "3.1"],
                          FIG4_ROUNDS),
            "fig2": (["figdata", "fig2", "--points", "513"], FIG4_ROUNDS),
            "evolve": (["evolve", "--alpha", "0.3"], FIG4_ROUNDS)}
FIG4_PEAK_POINTS = 4097
# run in a fresh interpreter: `cli.main` on argv, then its own peak RSS
_PEAK_RSS = """import resource, sys
from blochcomplexity.cli import main
status = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(status)
"""


def _call(problem_args, alpha, config):
    """One client call; True when it raised a typed error."""
    try:
        bc.analyze(bc.EvolutionProblem(*problem_args),
                   bc.SubOptimalParams(alpha), config)
    except bc.BlochComplexityError:
        return True
    return False


def _integrate(field, psi0, total_time):
    """One reference-integrator call; True when it raised a typed error."""
    try:
        bc.integrate_schrodinger(field, psi0, total_time)
    except bc.BlochComplexityError:
        return True
    return False


def _seconds(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def _medians(call, cases, rounds, reference):
    """Median and 95th-percentile time of ``call(*case)``, in ms, over
    ``rounds`` passes through ``cases`` after one untimed pass; both over
    the median time of ``reference``, run after each timed call; and how
    many of the cases raise."""
    errors = sum(call(*case) for case in cases)
    times, references = [], []
    for _ in range(rounds):
        for case in cases:
            times.append(_seconds(call, *case))
            references.append(_seconds(reference))
    ref_ms = statistics.median(references) * 1e3
    ms = statistics.median(times) * 1e3
    p95 = statistics.quantiles(times, n=20)[18] * 1e3
    return ms, ms / ref_ms, p95, p95 / ref_ms, errors


def _counted(fn, *args):
    """(points, calls, levels) of ``fn(*args)``: the sum of np.size(x) over
    its calls of the kernel's states, its Python-level calls and its calls
    of the kernel's angles."""
    counts = [0, 0, 0]
    states = bc.trajectory.evaluate_states.__code__
    angles = bc.trajectory.evaluate_angles.__code__
    # the frames of the generators counted so far, whose resumes are
    # "call" events too; held, so that no later frame takes their identity
    started = set()

    def profile(frame, event, arg):
        if event != "call":
            return
        if frame.f_code.co_flags & inspect.CO_GENERATOR:
            if frame in started:
                return
            started.add(frame)
        counts[1] += 1
        if frame.f_code is states:
            counts[0] += np.size(frame.f_locals["x"])
        elif frame.f_code is angles:
            counts[2] += 1

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return counts


def _sweep_record(reference):
    """The ``sweep`` entry: each of COMMANDS run in process, its output
    written to a file in a temporary directory."""
    record = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (argv, rounds) in COMMANDS.items():
            argv = [*argv, "--out", str(Path(tmp) / f"{name}.csv")]

            def command():
                """One run; False, as no typed error escapes `cli.main`."""
                if bc.cli.main(argv) != 0:
                    raise RuntimeError(f"{argv} failed")
                return False

            ms, ref, *_ = _medians(command, [()], rounds, reference)
            points, calls, levels = _counted(command)
            record[name] = {"ms": round(ms, 4), "ref": round(ref, 4),
                            "points": points, "calls": calls,
                            "levels": levels}
    return record


def _fig4_peak():
    """The ``fig4_peak`` entry: `cli figdata fig4` at FIG4_PEAK_POINTS
    points in a fresh interpreter that imports the package timed here, its
    output written to a file in a temporary directory."""
    env = {**os.environ, "PYTHONPATH": str(Path(bc.__file__).parents[1])}
    with tempfile.TemporaryDirectory() as tmp:
        run = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, "figdata", "fig4", "--points",
             str(FIG4_PEAK_POINTS), "--out", str(Path(tmp) / "fig4.csv")],
            env=env, capture_output=True, text=True, check=True)
    return {"alphas": FIG4_PEAK_POINTS,
            "peak_rss_mb": round(int(run.stdout) / 1024.0, 1)}


def _fig4_kernel_peak():
    """The ``fig4_kernel_peak_mb`` entry: `cli figdata fig4` at
    FIG4_PEAK_POINTS points in process, its output written to a file in a
    temporary directory, with the traced peak read inside each kernel
    call."""
    home = sys.modules["blochcomplexity.complexity"]
    kernel = home.evaluate_angles
    peaks = []

    def traced(*args):
        tracemalloc.reset_peak()
        try:
            return kernel(*args)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["figdata", "fig4", "--points", str(FIG4_PEAK_POINTS),
                "--out", str(Path(tmp) / "fig4.csv")]
        home.evaluate_angles = traced
        tracemalloc.start()
        try:
            if bc.cli.main(argv) != 0:
                raise RuntimeError(f"{argv} failed")
        finally:
            tracemalloc.stop()
            home.evaluate_angles = kernel
    return round(max(peaks) / 2.0 ** 20, 1)


def _buildable(cases):
    """((a, b, energy), alpha) of the ``(a, b, alpha, energy)`` cases whose
    `EvolutionProblem` can be built."""
    built = []
    for a, b, alpha, energy in cases:
        args = (np.array(a), np.array(b), energy)
        try:
            bc.EvolutionProblem(*args)
        except bc.BlochComplexityError:
            continue
        built.append((args, alpha))
    return built


def _work_record(canonical, pool, poles, config):
    """The ``work`` entry of one averaging mode."""
    record = {name: dict(zip(("points", "calls", "levels"),
                             _counted(_call, canonical, alpha, config)))
              for name, alpha in ALPHAS.items()}
    points, calls, levels = zip(*(_counted(_call, *case, config)
                                  for case in pool))
    record["general"] = {
        "points": {"median": statistics.median(points), "max": max(points),
                   "total": sum(points)},
        "calls": {"median": statistics.median(calls), "total": sum(calls)},
        "levels": {"median": statistics.median(levels), "max": max(levels),
                   "histogram": {str(k): levels.count(k)
                                 for k in sorted(set(levels))}}}
    points, calls, levels = zip(*(_counted(_call, *case, config)
                                  for case in poles))
    record["pole_cases"] = {"cases": len(poles), "points": sum(points),
                            "calls": sum(calls), "levels": sum(levels)}
    return record


def oracle_draws(workloads):
    """(field, psi0, T) of the first ORACLE_DRAWS oracle-pool draws, built
    as the oracle workload builds its inputs."""
    draws = []
    for a, b, alpha, total_time in workloads.oracle_pool()[:ORACLE_DRAWS]:
        problem = bc.EvolutionProblem(np.array(a), np.array(b))
        field = bc.suboptimal_field(problem, bc.SubOptimalParams(alpha))
        draws.append((field, problem.source_state, total_time))
    return draws


def commit():
    try:
        run = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return run.stdout.strip()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    canonical = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 1.0)
    workloads = perfbench_workloads()
    reference = workloads.analyze_reference
    pool = [((np.array(a), np.array(b), omega), alpha)
            for a, b, alpha, omega in workloads.general_pool()[:GENERAL_DRAWS]]
    poles = _buildable(pole_cases())
    record = {"canonical": {}, "general": {}, "work": {}}
    for mode in MODES:
        config = bc.AnalysisConfig(averaging_mode=mode)
        call = functools.partial(_call, config=config)
        record["canonical"][mode] = {}
        for name, alpha in ALPHAS.items():
            ms, ref, *_ = _medians(call, [(canonical, alpha)],
                                   CANONICAL_CALLS, reference)
            record["canonical"][mode][name] = {"ms": round(ms, 4),
                                               "ref": round(ref, 4)}
        ms, ref, p95, p95_ref, errors = _medians(call, pool, GENERAL_ROUNDS,
                                                 reference)
        record["general"][mode] = {"ms_per_call": round(ms, 4),
                                   "ref_per_call": round(ref, 4),
                                   "p95_ms_per_call": round(p95, 4),
                                   "p95_ref_per_call": round(p95_ref, 4),
                                   "draws": len(pool), "errors": errors}
        record["work"][mode] = _work_record(canonical, pool, poles, config)
    ms, ref, _, _, errors = _medians(_integrate, oracle_draws(workloads),
                                     ORACLE_ROUNDS, workloads.Oracle.reference)
    record["sweep"] = _sweep_record(workloads.sweep_reference)
    record["fig4_peak"] = _fig4_peak()
    record["fig4_kernel_peak_mb"] = _fig4_kernel_peak()
    record["oracle"] = {"ms_per_call": round(ms, 4),
                        "ref_per_call": round(ref, 4),
                        "draws": ORACLE_DRAWS, "errors": errors}
    record.update(
        nproc=(len(os.sched_getaffinity(0))
               if hasattr(os, "sched_getaffinity") else os.cpu_count()),
        python=platform.python_version(), numpy=np.__version__,
        commit=commit(), canonical_calls=CANONICAL_CALLS,
        general_rounds=GENERAL_ROUNDS, oracle_rounds=ORACLE_ROUNDS,
        sweep_rounds=SWEEP_ROUNDS, fig4_rounds=FIG4_ROUNDS)
    Path(sys.argv[1]).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
