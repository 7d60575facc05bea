"""Compare two sets of benchmark result files, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files as written by run_all.py (the standard
output of run.py: a stamp line, then the result line). For every workload
and metric it prints each side's median and quartiles and a verdict:

* better / worse: the change wins (loses) at least nine tenths of the
  pairs, ties counting for neither, and the medians differ by more than the
  distance between the base side's quartiles;
* unresolved: anything else.

Runs are paired by seed; seeds present on one side only are left unpaired.
Both sides must have run for the same number of seconds.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_results(directory):
    """{(workload, trace): {seed: {metric: (value, unit)}}} of a directory,
    and the set of run lengths in seconds its stamps show."""
    runs = defaultdict(dict)
    seconds = set()
    for path in sorted(Path(directory).glob("*.json")):
        lines = [json.loads(line) for line in path.read_text().splitlines()
                 if line.startswith("{")]
        stamp = next(line["stamp"] for line in lines if "stamp" in line)
        result = lines[-1]
        seconds.add(stamp["seconds"])
        runs[stamp["workload"], stamp["trace"]][stamp["seed"]] = {
            name: (m["value"], m["unit"])
            for name, m in result["metrics"].items()}
    return runs, seconds


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base, change, better):
    """base and change: {seed: value}."""
    seeds = sorted(set(base) & set(change))
    if not seeds or better not in ("higher", "lower"):
        return "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    q1, base_median, q3 = quartiles(list(base.values()))
    gap = abs(statistics.median(change.values()) - base_median)
    if gap <= q3 - q1:
        return "unresolved"
    if wins >= 0.9 * len(seeds):
        return "better"
    if losses >= 0.9 * len(seeds):
        return "worse"
    return "unresolved"


def _fmt(values):
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def compare(base_dir, change_dir, out=sys.stdout):
    specs = metric_specs()
    (base, base_seconds), (change, change_seconds) = (
        load_results(base_dir), load_results(change_dir))
    if len(base_seconds | change_seconds) > 1:
        raise SystemExit(f"runs of different lengths cannot be compared: "
                         f"{sorted(base_seconds)} s against "
                         f"{sorted(change_seconds)} s")
    print("workload  trace  metric  unit  base median [q1, q3]  "
          "change median [q1, q3]  delta  bound  verdict", file=out)
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        names = sorted(set().union(*(r.keys() for r in base[key].values())))
        for name in names:
            a = {s: r[name][0] for s, r in base[key].items() if name in r}
            b = {s: r[name][0] for s, r in change[key].items() if name in r}
            if not a or not b:
                continue
            unit = next(iter(base[key].values()))[name][1]
            spec = specs.get(name, {})
            a_median = statistics.median(a.values())
            delta = ((statistics.median(b.values()) - a_median) / abs(a_median)
                     if a_median else 0.0)
            print(f"{workload}  {trace}  {name}  {unit}  "
                  f"{_fmt(list(a.values()))}  {_fmt(list(b.values()))}  "
                  f"{delta:+.2%}  {spec.get('bound', '-')}  "
                  f"{verdict(a, b, spec.get('better'))}", file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    compare(args.base, args.change)
    return 0


if __name__ == "__main__":
    sys.exit(main())
