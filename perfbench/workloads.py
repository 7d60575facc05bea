"""The benchmark's workloads: inputs made from a seed, the op one client call
makes, the same op with layer spans, and the checks against the outputs
frozen in `expected/`.

Every workload calls only the public API of `blochcomplexity`.
"""

import csv
import hashlib
import io
import json
import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from program import BENCH_DIR, bc
from blochcomplexity import cli

EXPECTED_DIR = BENCH_DIR / "expected"
MANIFEST = EXPECTED_DIR / "FROZEN.json"

# the paper's reference grid, as run by `blochcomplexity sweep`
SWEEP_ALPHAS = np.linspace(0.0, np.pi, 17)
SWEEP_PROBLEM = bc.equatorial_problem(np.pi / 2.0, energy=1.0)
SWEEP_CONFIG = bc.AnalysisConfig(samples=4097,
                                 averaging_mode="appendix_piecewise")
SWEEP_TOL = 1e-9

# general draws: pools drawn once from fixed seeds; --seed chooses which
# of their draws a run takes, and in what order
GENERAL_POOL_SEED = 0
GENERAL_POOL_SIZE = 4096
GENERAL_RUN_DRAWS = 1024
GENERAL_ABS_TOL = 1e-6
GENERAL_REL_TOL = 1e-6
MAX_ABS_COSINE = 0.98

ORACLE_POOL_SEED = 1
ORACLE_POOL_SIZE = 2048
ORACLE_RUN_DRAWS = 512
ORACLE_GATE = 1e-9


class Mismatch(Exception):
    """An op's output disagrees with its frozen expected output."""


class InvariantBroken(Exception):
    """A report breaks 0 <= C < 1, V_bar <= V_max or L_C >= s."""


# -- input pools -------------------------------------------------------------

def _unit_vector(rng):
    z = 2.0 * rng.random() - 1.0
    azimuth = 2.0 * math.pi * rng.random()
    r = math.sqrt(1.0 - z * z)
    return (r * math.cos(azimuth), r * math.sin(azimuth), z)


def _source_target(rng):
    """Source and target uniform on the sphere with |a.b| <= 0.98."""
    while True:
        a = _unit_vector(rng)
        b = _unit_vector(rng)
        if abs(sum(x * y for x, y in zip(a, b))) <= MAX_ABS_COSINE:
            return a, b


def general_pool():
    """(a, b, alpha, omega) draws: alpha ~ U[0, pi], omega log-uniform on
    [0.5, 5]. Uses only `random.random`, whose stream Python keeps stable."""
    rng = random.Random(GENERAL_POOL_SEED)
    pool = []
    for _ in range(GENERAL_POOL_SIZE):
        a, b = _source_target(rng)
        alpha = math.pi * rng.random()
        omega = 0.5 * 10.0 ** rng.random()
        pool.append((a, b, alpha, omega))
    return pool


def oracle_pool():
    """(a, b, alpha, T) draws: alpha ~ U[0, pi], T ~ U[0.1, 2.0]."""
    rng = random.Random(ORACLE_POOL_SEED)
    pool = []
    for _ in range(ORACLE_POOL_SIZE):
        a, b = _source_target(rng)
        alpha = math.pi * rng.random()
        total_time = 0.1 + 1.9 * rng.random()
        pool.append((a, b, alpha, total_time))
    return pool


def pool_digest(pool):
    text = "\n".join(",".join(repr(x) for x in _flat(d)) for d in pool)
    return hashlib.sha256(text.encode()).hexdigest()


def _flat(draw):
    for part in draw:
        if isinstance(part, tuple):
            yield from part
        else:
            yield part


def _draws(pool_size, run_size, seed):
    """The pool indices one run cycles through, in order: a quarter of the
    pool, chosen by the seed, so runs with different seeds take different
    draws. A quarter is enough draws that the mix of cheap and costly ones
    (pole passages, many extremum candidates) barely moves between seeds."""
    return random.Random(seed).sample(range(pool_size), run_size)


def _checked_pool(name, make):
    pool = make()
    frozen = json.loads(MANIFEST.read_text())["pools"][name]
    if pool_digest(pool) != frozen:
        raise RuntimeError(f"{name} input pool differs from the one the "
                           f"expected outputs were frozen for")
    return pool


def _read_csv(path):
    with open(path, newline="") as stream:
        return list(csv.DictReader(stream))


# -- reference work ----------------------------------------------------------
# Fixed work that is not the program's, timed after every op so that the op's
# latency can be read in units of it (harness.latency_metrics). The machine's
# speed states slow each kind of work by its own factor, so each workload's
# reference does the kind of work its op does.

_REF_MATRIX = np.array([[0.6, 0.8j], [0.8j, 0.6]])
_REF_VECTOR = np.array([1.0 + 0.0j, 0.0j])
_REF_GRID = np.linspace(0.0, np.pi, 4097)


def reference_work(operand, products, sweeps):
    """`products` 2x2 complex products applied to `operand` in a Python
    loop, then `sweeps` passes of whole-array arithmetic on a 4097-point
    grid."""
    x = operand
    for _ in range(products):
        x = _REF_MATRIX @ x
    v = _REF_GRID
    for _ in range(sweeps):
        v = np.sqrt(np.abs(np.sin(v)))
    return x, v


def analyze_reference():
    """Small products and grid arithmetic, the mix of an `analyze` call;
    about 1 ms."""
    reference_work(_REF_MATRIX, 200, 10)


def sweep_reference():
    """One `analyze_reference` per sweep row, submitted to a thread pool as
    `cli sweep` submits its rows, so that it meets the contention the
    sweep's threads meet."""
    with ThreadPoolExecutor() as pool:
        futures = [pool.submit(analyze_reference) for _ in SWEEP_ALPHAS]
        for future in futures:
            future.result()


# -- traced stages -----------------------------------------------------------

def trace_stages(tracer, problem, params, config):
    """Stage-by-stage replay of `analyze` with a span around each public
    call. `accessed_volume` recomputes the box (and, piecewise, the branch
    times), so the quadrature's own time is what remains after subtracting
    them."""
    traj, _ = tracer.call("trajectory.sample_trajectory",
                          bc.sample_trajectory, problem, params,
                          config.samples)
    _, box_s = tracer.call("complexity.bounding_box", bc.bounding_box, traj)
    branch_s = 0.0
    if config.averaging_mode == "appendix_piecewise":
        times, branch_s = tracer.call("complexity.branch_times",
                                      bc.branch_times, traj)
        tracer.value("complexity.branch_segments", len(times) + 1)
    _, volume_s = tracer.call("complexity.accessed_volume",
                              bc.accessed_volume, traj, config.averaging_mode)
    tracer.value("complexity.volume_quadrature", volume_s - box_s - branch_s)
    f = bc.suboptimal_field(problem, params)
    with tracer.span("metrics.path_metrics"):
        bc.path_length(problem, params)
        bc.geodesic_efficiency(problem, params)
        bc.speed_efficiency(f, problem.a_hat)
        bc.curvature_coefficient(f, problem.a_hat)


def _traced_analyze(tracer, problem, params, config):
    report, _ = tracer.call("complexity.analyze", bc.analyze, problem, params,
                            config)
    tracer.value("complexity.degenerate",
                 int(report.degeneracy_label != "none"))
    return report


# -- workloads ---------------------------------------------------------------

class TableSweep:
    """One op: `blochcomplexity sweep --out <file>` in process, the default
    17-row sweep over the paper's reference grid. The seed does not change
    the inputs: the grid is fixed by the paper."""

    name = "table_sweep"

    def __init__(self, workdir, main=cli.main):
        self.out = workdir / "sweep.csv"
        self.main = main
        self.expected = _read_csv(EXPECTED_DIR / "table_sweep.csv")

    def inputs(self, seed):
        return [("sweep", "--out", str(self.out))]

    def op(self, argv):
        """The CSV of an earlier op is removed first, so a sweep that does
        not write its output reads as missing, never as the earlier one."""
        self.out.unlink(missing_ok=True)
        status = self.main(list(argv))
        text = self.out.read_text() if self.out.exists() else None
        return status, text

    reference = staticmethod(sweep_reference)

    def traced_call(self, argv, tracer):
        with tracer.span("cli.sweep"):
            return self.op(argv)

    def shadow(self, argv, tracer):
        for alpha in SWEEP_ALPHAS:
            params = bc.SubOptimalParams(float(alpha))
            _traced_analyze(tracer, SWEEP_PROBLEM, params, SWEEP_CONFIG)
            trace_stages(tracer, SWEEP_PROBLEM, params, SWEEP_CONFIG)

    def expected_error(self, argv):
        return None

    def check(self, argv, output):
        status, text = output
        if status != 0:
            raise Mismatch(f"sweep exited with status {status}")
        if text is None:
            raise Mismatch(f"sweep did not write {self.out}")
        check_sweep_csv(text, self.expected)


def check_sweep_csv(text, expected):
    got = list(csv.DictReader(io.StringIO(text)))
    if len(got) != len(expected) or (got and got[0].keys()
                                     != expected[0].keys()):
        raise Mismatch("sweep CSV has other rows or columns than expected")
    for row, want in zip(got, expected):
        for column, value in want.items():
            if column == "degenerate":
                ok = row[column] == value
            else:
                ok = abs(float(row[column]) - float(value)) <= SWEEP_TOL
            if not ok:
                raise Mismatch(f"sweep alpha={want['alpha']}: {column} is "
                               f"{row[column]}, expected {value}")


class GeneralUniform:
    """One op: `analyze` on a general problem from the pool, uniform mode."""

    name = "general_uniform"

    def __init__(self, workdir=None):
        self.pool = _checked_pool(self.name, general_pool)
        self.expected = _read_csv(EXPECTED_DIR / "general_uniform.csv")

    def inputs(self, seed):
        return [(k, *self.pool[k])
                for k in _draws(GENERAL_POOL_SIZE, GENERAL_RUN_DRAWS, seed)]

    @staticmethod
    def _args(draw):
        _, a, b, alpha, omega = draw
        return (bc.EvolutionProblem(np.array(a), np.array(b), energy=omega),
                bc.SubOptimalParams(alpha),
                bc.AnalysisConfig(averaging_mode="uniform"))

    def op(self, draw):
        return bc.analyze(*self._args(draw))

    reference = staticmethod(analyze_reference)

    def traced_call(self, draw, tracer):
        return _traced_analyze(tracer, *self._args(draw))

    def shadow(self, draw, tracer):
        trace_stages(tracer, *self._args(draw))

    def expected_error(self, draw):
        return self.expected[draw[0]]["error"] or None

    def check(self, draw, report):
        check_report(report, self.expected[draw[0]])


def check_report(report, want):
    """Invariants always; values only where the frozen run returned one."""
    c, v_bar, v_max = report.complexity, report.volume.v_bar, report.volume.v_max
    if not (0.0 <= c < 1.0 and v_bar <= v_max
            and report.length_scale >= report.s):
        raise InvariantBroken(f"C={c}, V_bar={v_bar}, V_max={v_max}, "
                              f"L_C={report.length_scale}, s={report.s}")
    if want["error"]:
        return
    for name, value in (("v_bar", v_bar), ("v_max", v_max),
                        ("complexity", c)):
        if not abs(value - float(want[name])) <= GENERAL_ABS_TOL:
            raise Mismatch(f"{name} is {value}, expected {want[name]}")
    l_c = float(want["l_c"])
    if not abs(report.length_scale - l_c) <= GENERAL_REL_TOL * abs(l_c):
        raise Mismatch(f"l_c is {report.length_scale}, expected {l_c}")


class Oracle:
    """One op: the reference integrator and the closed-form propagator on a
    general field and time from the pool."""

    name = "oracle"

    def __init__(self, workdir=None):
        self.pool = _checked_pool(self.name, oracle_pool)
        self.expected = _read_csv(EXPECTED_DIR / "oracle.csv")

    def inputs(self, seed):
        draws = []
        for k in _draws(ORACLE_POOL_SIZE, ORACLE_RUN_DRAWS, seed):
            a, b, alpha, total_time = self.pool[k]
            problem = bc.EvolutionProblem(np.array(a), np.array(b))
            field = bc.suboptimal_field(problem, bc.SubOptimalParams(alpha))
            draws.append((k, field, problem.source_state, total_time))
        return draws

    def op(self, draw):
        _, field, psi0, total_time = draw
        numeric = bc.integrate_schrodinger(field, psi0, total_time)
        exact = bc.propagator(field, total_time) @ psi0
        return numeric, exact

    @staticmethod
    def reference():
        """2x2 matrix-vector products in a Python loop, the integrator's
        inner loop; under 1 ms."""
        reference_work(_REF_VECTOR, 500, 0)

    def traced_call(self, draw, tracer):
        _, field, psi0, total_time = draw
        numeric, _ = tracer.call("verify.integrate_schrodinger",
                                 bc.integrate_schrodinger, field, psi0,
                                 total_time)
        with tracer.span("hamiltonians.propagator"):
            exact = bc.propagator(field, total_time) @ psi0
        return numeric, exact

    def shadow(self, draw, tracer):
        pass

    def expected_error(self, draw):
        return None

    def check(self, draw, output):
        numeric, exact = output
        worst = float(np.max(np.abs(numeric - exact)))
        if not worst <= ORACLE_GATE:
            raise Mismatch(f"integrator and propagator differ by {worst}")
        want = self.expected[draw[0]]
        frozen = np.array([complex(float(want["re0"]), float(want["im0"])),
                           complex(float(want["re1"]), float(want["im1"]))])
        drift = float(np.max(np.abs(exact - frozen)))
        if not drift <= ORACLE_GATE:
            raise Mismatch(f"propagator moved {drift} from its frozen output")


WORKLOADS = {w.name: w for w in (TableSweep, GeneralUniform, Oracle)}
