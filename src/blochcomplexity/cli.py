"""Command-line front end.

Subcommands:
    sweep    mixing-angle sweep to CSV (one row per alpha)
    evolve   dump one sampled trajectory to CSV (the only sampling command)
    tables   print the reference tables (I: volumes/complexity,
             II: efficiencies/curvature, III: times/lengths)
    figdata  dense alpha grids for external plotting
    verify   run the oracle/symmetry harness

Angles are accepted as decimal radians or as fractions of pi written
``k/n pi`` (e.g. ``3/16pi``), which keeps grid values exact.
"""

import argparse
import re
import sys
from fractions import Fraction

import numpy as np

from .complexity import AnalysisConfig, DEFAULT_AVERAGING_MODE, analyze
from .errors import BlochComplexityError
from .hamiltonians import SubOptimalParams, equatorial_problem, suboptimal_field
from .metrics import curvature_coefficient, geodesic_efficiency, speed_efficiency
from .trajectory import DEFAULT_SAMPLES, sample_trajectory, write_trajectory_csv
from .verify import run_verification

_FRACTION_OF_PI = re.compile(r"^\s*([+-]?\d+)\s*/\s*(\d+)\s*pi\s*$")

SWEEP_COLUMNS = ("alpha", "t_ab", "s", "eta_ge", "eta_se", "kappa2",
                 "v_bar", "v_max", "complexity", "l_c", "degenerate")


def parse_angle(text):
    """Decimal radians, or an exact fraction of pi like ``3/16pi``."""
    match = _FRACTION_OF_PI.match(text)
    if match:
        num, den = int(match.group(1)), int(match.group(2))
        if den == 0:
            raise argparse.ArgumentTypeError(
                f"cannot parse angle {text!r}: zero denominator")
        return num / den * np.pi
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"cannot parse angle {text!r}: use radians or 'k/n pi'") from None


def fmt(value):
    return f"{value:.12g}"


def cmd_sweep(args):
    """One CSV row per alpha; a row whose analysis raises a typed error is
    reported on stderr and skipped, and the exit code is then 1."""
    if args.steps < 1:
        raise ValueError("steps must be >= 1")
    problem = equatorial_problem(args.theta_ab, energy=args.omega)
    config = AnalysisConfig(averaging_mode=args.averaging.replace("-", "_"))
    if args.alpha_start == args.alpha_end:
        alphas = np.array([args.alpha_start])
    else:
        alphas = np.linspace(args.alpha_start, args.alpha_end, args.steps + 1)

    failures = 0
    lines = [",".join(SWEEP_COLUMNS)]
    for alpha in alphas:
        try:
            rep = analyze(problem, SubOptimalParams(alpha), config)
        except BlochComplexityError as err:
            print(f"sweep: alpha={alpha:.12g} aborted: {err}",
                  file=sys.stderr)
            failures += 1
            continue
        lines.append(",".join([fmt(rep.alpha), fmt(rep.t_ab), fmt(rep.s),
                               fmt(rep.eta_ge), fmt(rep.eta_se),
                               fmt(rep.kappa2), fmt(rep.volume.v_bar),
                               fmt(rep.volume.v_max), fmt(rep.complexity),
                               fmt(rep.length_scale), rep.degeneracy_label]))
    text = "\n".join(lines) + "\n"
    status = _write(args.out, lambda stream: stream.write(text))
    return status if status else (1 if failures else 0)


def cmd_evolve(args):
    problem = equatorial_problem(args.theta_ab, energy=args.omega)
    traj = sample_trajectory(problem, SubOptimalParams(args.alpha),
                             args.samples)
    return _write(args.out, lambda stream: write_trajectory_csv(traj, stream))


_TABLE_ALPHAS = [Fraction(k, 16) for k in range(0, 9)]


def _pi_label(frac):
    if frac == 0:
        return "0"
    if frac == 1:
        return "pi"
    return f"{frac} pi"


def cmd_tables(which):
    problem = equatorial_problem()
    rows = []
    for frac in _TABLE_ALPHAS:
        rep = analyze(problem, SubOptimalParams(float(frac) * np.pi))
        cells = {"I": (rep.volume.v_bar, rep.volume.v_max, rep.complexity,
                       rep.length_scale),
                 "II": (rep.eta_ge, rep.eta_se, rep.kappa2, rep.complexity,
                        rep.length_scale),
                 "III": (rep.t_ab, rep.s)}[which]
        rows.append((_pi_label(frac), *cells, _pi_label(1 - frac)))
    headers = {
        "I": ("alpha", "v_bar", "v_max", "C", "L_C", "pi-alpha"),
        "II": ("alpha", "eta_ge", "eta_se", "kappa2", "C", "L_C", "pi-alpha"),
        "III": ("alpha", "t", "s", "pi-alpha"),
    }[which]
    _print_table(headers, rows)
    return 0


def _print_table(headers, rows):
    formatted = [[cell if isinstance(cell, str) else f"{cell:.4f}"
                  for cell in row] for row in rows]
    widths = [max(len(h), *(len(r[i]) for r in formatted))
              for i, h in enumerate(headers)]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for row in formatted:
        print("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))


def cmd_figdata(args):
    alphas = np.linspace(0.0, np.pi, args.points)
    problem = equatorial_problem(theta_ab=args.theta_ab, energy=args.omega)
    lines = []
    if args.which == "fig2":
        lines.append("alpha,eta_ge,eta_se,kappa2")
        for alpha in alphas:
            params = SubOptimalParams(alpha)
            f = suboptimal_field(problem, params)
            lines.append(",".join([fmt(alpha),
                                   fmt(geodesic_efficiency(problem, params)),
                                   fmt(speed_efficiency(f, problem.a_hat)),
                                   fmt(curvature_coefficient(f, problem.a_hat))]))
    else:
        column = "complexity" if args.which == "fig4" else "l_c"
        lines.append(f"alpha,{column}")
        for alpha in alphas:
            rep = analyze(problem, SubOptimalParams(alpha))
            value = rep.complexity if args.which == "fig4" else rep.length_scale
            lines.append(f"{fmt(alpha)},{fmt(value)}")
    text = "\n".join(lines) + "\n"
    return _write(args.out, lambda stream: stream.write(text))


def cmd_verify():
    records = run_verification()
    print("check,param,delta,pass")
    for record in records:
        print(record.line())
    return 0 if all(r.passed for r in records) else 1


def _write(path, emit):
    """``emit(stream)`` on stdout, or on the file at ``path``; a file that
    cannot be written is reported on stderr with exit code 1."""
    if path is None:
        emit(sys.stdout)
        return 0
    try:
        with open(path, "w", newline="") as stream:
            emit(stream)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blochcomplexity",
        description="Geometric quality metrics and volume-based complexity "
                    "of stationary qubit evolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="mixing-angle sweep to CSV")
    sweep.add_argument("--alpha-start", type=parse_angle, default=0.0)
    sweep.add_argument("--alpha-end", type=parse_angle, default=np.pi)
    sweep.add_argument("--steps", type=int, default=16)
    _common_flags(sweep)
    sweep.add_argument("--averaging",
                       choices=("uniform", "appendix-piecewise"),
                       default=DEFAULT_AVERAGING_MODE.replace("_", "-"))
    sweep.add_argument("--out", default=None)

    evolve = sub.add_parser("evolve", help="dump one trajectory to CSV")
    evolve.add_argument("--alpha", type=parse_angle, required=True)
    _common_flags(evolve)
    evolve.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    evolve.add_argument("--out", default=None)

    tables = sub.add_parser("tables", help="print a reference table")
    tables.add_argument("which", choices=("I", "II", "III"))

    figdata = sub.add_parser("figdata", help="dense alpha-grid CSV")
    figdata.add_argument("which", choices=("fig2", "fig4", "fig5"))
    figdata.add_argument("--points", type=int, default=257)
    _common_flags(figdata)
    figdata.add_argument("--out", default=None)

    sub.add_parser("verify", help="run the oracle/symmetry harness")
    return parser


def _common_flags(sub):
    sub.add_argument("--theta-ab", type=parse_angle, default=np.pi / 2.0)
    sub.add_argument("--omega", type=float, default=1.0)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return cmd_sweep(args)
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "tables":
            return cmd_tables(args.which)
        if args.command == "figdata":
            if args.points < 2:
                print("error: --points must be >= 2", file=sys.stderr)
                return 2
            return cmd_figdata(args)
        return cmd_verify()
    except (BlochComplexityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
