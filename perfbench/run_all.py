"""Run every workload over ten seeds, traced and untraced, and print every
metric by name and unit, with its median, quartiles and spread across the
seeds.

    python3 perfbench/run_all.py --out .perfbench/results/base
    python3 perfbench/run_all.py --workloads oracle --out .perfbench/results/o

Each run is a fresh `run.py` process of BENCHMARK.json's `run_seconds`; its
standard output is kept in OUT/<workload>-trace<t>-seed<s>.json for
compare.py. Spread is the distance between the quartiles as a share of the
median; an end-to-end metric is flagged when its spread is not below a
third of its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import BENCHMARK, load_results, metric_specs, quartiles, spread
from run import WORKLOAD_NAMES

SEEDS = range(10)
TRACES = (0, 1)


def main(argv=None):
    spec = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES,
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    run_py = Path(__file__).resolve().parent / "run.py"
    seconds = str(spec["run_seconds"])
    for seed in SEEDS:
        for workload in args.workloads:
            for trace in TRACES:
                command = [sys.executable, str(run_py), "--workload", workload,
                           "--seed", str(seed), "--seconds", seconds,
                           "--trace", str(trace)]
                done = subprocess.run(command, capture_output=True, text=True,
                                      timeout=600)
                if done.returncode != 0:
                    sys.stderr.write(done.stderr)
                    raise SystemExit(f"{' '.join(command)} exited with "
                                     f"{done.returncode}")
                result = json.loads(done.stdout.splitlines()[-1])
                if not result["correct"]:
                    print(f"INCORRECT: {workload} trace={trace} seed={seed} "
                          f"failed {result['failed']} of "
                          f"{result['attempted']} ops", file=sys.stderr)
                name = f"{workload}-trace{trace}-seed{seed}.json"
                (args.out / name).write_text(done.stdout)
    summarize(args.out)
    return 0


def summarize(directory, out=sys.stdout):
    specs = metric_specs()
    results, _ = load_results(directory)
    for (workload, trace), runs in sorted(results.items()):
        print(f"\n{workload}  trace={trace}  runs={len(runs)}", file=out)
        names = list(next(iter(runs.values())))
        for name in names:
            values = [r[name][0] for r in runs.values()]
            unit = next(iter(runs.values()))[name][1]
            q1, median, q3 = quartiles(values)
            bound = specs.get(name, {}).get("bound")
            flag = ""
            if bound is not None:
                flag = "  STEADY" if spread(values) < bound / 3 else "  NOISY"
            print(f"  {name:40s} {median:12.6g} {unit:6s} "
                  f"[{q1:.6g}, {q3:.6g}]  spread {spread(values):.3f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}",
                  file=out)


if __name__ == "__main__":
    sys.exit(main())
