"""Self-tests of the benchmark's own logic: input generation, output checks
and failure counting.

    python3 perfbench/selftest.py
"""

import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

import compare
from harness import Tally, closed_loop, latency_metrics
from workloads import (EXPECTED_DIR, GeneralUniform, Oracle, TableSweep,
                       check_report)


class FakeWorkload:
    """Wraps a real workload's checks around a substitute op."""

    def __init__(self, real, op):
        self.real = real
        self.op = op
        self.reference = real.reference

    def check(self, item, output):
        self.real.check(item, output)

    def expected_error(self, item):
        return self.real.expected_error(item)


def _report(v_bar, v_max, complexity, length_scale, s):
    return SimpleNamespace(complexity=complexity, length_scale=length_scale,
                           s=s, volume=SimpleNamespace(v_bar=v_bar,
                                                       v_max=v_max))


class InputTests(unittest.TestCase):

    def test_same_seed_gives_identical_inputs(self):
        general = GeneralUniform()
        self.assertEqual(general.inputs(7), general.inputs(7))
        self.assertNotEqual({d[0] for d in general.inputs(7)},
                            {d[0] for d in general.inputs(8)})
        oracle = Oracle()
        first = [(k, f.h.tolist(), psi.tolist(), t)
                 for k, f, psi, t in oracle.inputs(7)]
        again = [(k, f.h.tolist(), psi.tolist(), t)
                 for k, f, psi, t in oracle.inputs(7)]
        self.assertEqual(first, again)

    def test_sweep_inputs_do_not_depend_on_the_seed(self):
        with tempfile.TemporaryDirectory() as tmp:
            sweep = TableSweep(Path(tmp))
            self.assertEqual(sweep.inputs(0), sweep.inputs(12345))


class CheckTests(unittest.TestCase):

    def setUp(self):
        self.frozen = (EXPECTED_DIR / "table_sweep.csv").read_text()
        self.tmp = tempfile.TemporaryDirectory()
        self.sweep = TableSweep(Path(self.tmp.name))

    def tearDown(self):
        self.tmp.cleanup()

    def _run_sweep_output(self, text, status=0):
        tally = Tally()
        fake = FakeWorkload(self.sweep, lambda argv: (status, text))
        tally.run_op(fake, fake.op, self.sweep.inputs(0)[0])
        return tally

    def test_frozen_sweep_passes(self):
        tally = self._run_sweep_output(self.frozen)
        self.assertEqual((tally.completed, tally.failed), (1, 0))

    def test_sweep_value_perturbed_by_1e8_fails(self):
        lines = self.frozen.splitlines(keepends=True)
        cells = lines[5].split(",")
        cells[6] = repr(float(cells[6]) + 1e-8)  # v_bar of the alpha=pi/4 row
        lines[5] = ",".join(cells)
        tally = self._run_sweep_output("".join(lines))
        self.assertEqual((tally.completed, tally.failed, tally.mismatch),
                         (0, 1, 1))

    def test_sweep_nonzero_exit_fails(self):
        tally = self._run_sweep_output(self.frozen, status=1)
        self.assertEqual((tally.failed, tally.mismatch), (1, 1))

    def test_sweep_that_writes_nothing_fails(self):
        sweep = TableSweep(Path(self.tmp.name), main=lambda argv: 0)
        sweep.out.write_text(self.frozen)  # as an earlier op left it
        tally = Tally()
        tally.run_op(sweep, sweep.op, sweep.inputs(0)[0])
        self.assertEqual((tally.completed, tally.failed, tally.mismatch),
                         (0, 1, 1))

    def test_vbar_above_vmax_fails(self):
        general = GeneralUniform()
        draw = general.inputs(0)[0]
        fake = FakeWorkload(general,
                            lambda item: _report(0.5, 0.4, 0.1, 2.0, 1.0))
        tally = Tally()
        tally.run_op(fake, fake.op, draw)
        self.assertEqual((tally.completed, tally.failed, tally.invariant),
                         (0, 1, 1))

    def test_report_off_frozen_values_is_a_mismatch(self):
        want = {"v_bar": "0.1", "v_max": "0.2", "complexity": "0.5",
                "l_c": "2.0", "error": ""}
        check_report(_report(0.1, 0.2, 0.5, 2.0, 1.0), want)
        with self.assertRaises(Exception) as caught:
            check_report(_report(0.1 + 2e-6, 0.2, 0.5, 2.0, 1.0), want)
        self.assertEqual(type(caught.exception).__name__, "Mismatch")


class FailureCountingTests(unittest.TestCase):

    def test_exception_is_counted_by_class_and_run_continues(self):
        general = GeneralUniform()
        items = general.inputs(0)[:4]
        bad = {items[1][0], items[3][0]}

        def op(draw):
            if draw[0] in bad:
                raise ZeroDivisionError("injected")
            return general.op(draw)

        tally = Tally()
        ops = closed_loop(FakeWorkload(general, op), items, 0.3, tally, [])
        self.assertEqual(len(ops), tally.attempted)
        self.assertGreater(tally.attempted, 4)
        self.assertGreater(tally.completed, 0)
        self.assertEqual(tally.errors["ZeroDivisionError"], tally.failed)
        metrics = tally.failure_metrics()
        self.assertEqual(metrics["failed.other"][0], tally.failed)
        self.assertAlmostEqual(metrics["failed_share"][0],
                               tally.failed / tally.attempted)

    def test_frozen_typed_error_is_counted_but_not_failed(self):
        general = GeneralUniform()
        index = next(k for k, row in enumerate(general.expected)
                     if row["error"] == "QuadratureNotConverged")
        draw = (index, *general.pool[index])
        tally = Tally()
        tally.run_op(general, general.op, draw)
        self.assertEqual(tally.errors["QuadratureNotConverged"], 1)
        self.assertEqual((tally.completed, tally.failed), (0, 0))


class LatencyTests(unittest.TestCase):

    def test_slowdown_of_the_machine_cancels_out(self):
        ops = [(0.0, 0.002 + 1e-5 * (i % 7), True, 0.001) for i in range(40)]
        slow = [(0.0, 1.7 * latency, ok, 1.7 * ref)
                for _, latency, ok, ref in ops]
        (fast_bounded, fast_context) = latency_metrics(ops)
        (slow_bounded, slow_context) = latency_metrics(slow)
        for name, (value, _) in fast_bounded.items():
            self.assertAlmostEqual(slow_bounded[name][0], value)
        self.assertAlmostEqual(slow_context["op_p50_ms"],
                               1.7 * fast_context["op_p50_ms"])

    def test_slower_program_reads_slower(self):
        ops = [(0.0, 0.002, True, 0.001)] * 20
        slow = [(0.0, 0.003, True, 0.001)] * 20
        self.assertAlmostEqual(latency_metrics(slow)[0]["op_p50_ref"][0],
                               1.5 * latency_metrics(ops)[0]["op_p50_ref"][0])


class CompareTests(unittest.TestCase):

    @staticmethod
    def _write_run(directory, seconds):
        stamp = {"workload": "oracle", "trace": 0, "seed": 0,
                 "seconds": seconds}
        result = {"correct": True, "attempted": 1, "failed": 0,
                  "metrics": {"op_p50_ref": {"value": 1.0, "unit": "ref"}}}
        (directory / "oracle-trace0-seed0.json").write_text(
            f"{json.dumps({'stamp': stamp})}\n{json.dumps(result)}\n")

    def test_runs_of_different_lengths_are_refused(self):
        with tempfile.TemporaryDirectory() as base, \
                tempfile.TemporaryDirectory() as change:
            self._write_run(Path(base), 30)
            self._write_run(Path(change), 20)
            with self.assertRaises(SystemExit):
                compare.compare(base, change, out=io.StringIO())
            self._write_run(Path(change), 30)
            compare.compare(base, change, out=io.StringIO())


if __name__ == "__main__":
    sys.exit(0 if unittest.main(exit=False).result.wasSuccessful() else 1)
