"""Command-line front end.

Subcommands:
    sweep    mixing-angle sweep to CSV (one row per alpha)
    evolve   dump one sampled trajectory to CSV (the only code that samples)
    tables   print the reference tables (I: volumes/complexity,
             II: efficiencies/curvature, III: times/lengths)
    figdata  energy-free dense alpha grids for external plotting
    verify   run the oracle/symmetry harness

Angles are accepted as decimal radians or as fractions of pi written
``k/n pi`` (e.g. ``3/16pi``), which keeps grid values exact.

``sweep``, ``tables`` and ``figdata`` analyze their alpha grid in one
`analyze_alphas` call: ``sweep`` reports each failing row on stderr and
exits 1, while ``tables`` and ``figdata`` stop at the first failing row.
"""

import argparse
import functools
import re
import sys
from fractions import Fraction

import numpy as np

from .complexity import AnalysisConfig, DEFAULT_AVERAGING_MODE, analyze_alphas
from .errors import BlochComplexityError
from .hamiltonians import SubOptimalParams, equatorial_problem, suboptimal_field
from .metrics import curvature_coefficient, geodesic_efficiency, speed_efficiency
from .trajectory import sample_trajectory
from .verify import run_verification

_FRACTION_OF_PI = re.compile(r"^\s*([+-]?\d+)\s*/\s*(\d+)\s*pi\s*$")

MIN_SAMPLES = 2049
DEFAULT_SAMPLES = 4097  # the sample count `evolve` writes by default

SWEEP_COLUMNS = ("alpha", "t_ab", "s", "eta_ge", "eta_se", "kappa2",
                 "v_bar", "v_max", "complexity", "l_c", "degenerate")
# one `sweep` row: `fmt` of each number, then the degeneracy label
_SWEEP_ROW = ",".join(["%.12g"] * (len(SWEEP_COLUMNS) - 1) + ["%s"])


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
    for alpha, rep in zip(alphas, analyze_alphas(problem, alphas, config)):
        if isinstance(rep, BlochComplexityError):
            print(f"sweep: alpha={alpha:.12g} aborted: {rep}",
                  file=sys.stderr)
            failures += 1
            continue
        lines.append(_SWEEP_ROW % (
            rep.alpha, rep.t_ab, rep.s, rep.eta_ge, rep.eta_se, rep.kappa2,
            rep.volume.v_bar, rep.volume.v_max, rep.complexity,
            rep.length_scale, rep.degeneracy_label))
    text = "\n".join(lines) + "\n"
    status = _write(args.out, text)
    return status if status else (1 if failures else 0)


def cmd_evolve(args):
    """The trajectory at ``--samples`` uniform times from 0 to t_b, one CSV
    row each: t, the angles `angles_at` gives and the closed-form state."""
    problem = equatorial_problem(args.theta_ab, energy=args.omega)
    if args.samples < MIN_SAMPLES:
        raise ValueError(
            f"need at least {MIN_SAMPLES} samples, got {args.samples}")
    traj = sample_trajectory(problem, SubOptimalParams(args.alpha))
    t = np.linspace(0.0, traj.t_b, args.samples)
    theta, phi = traj.angles_at(t)
    c0, c1 = traj.states_at(t).T
    lines = ["t,theta,phi,re_c0,im_c0,re_c1,im_c1"]
    for row in zip(t, theta, phi, c0.real, c0.imag, c1.real, c1.imag):
        lines.append(",".join(fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    return _write(args.out, text)


_TABLE_ALPHAS = [Fraction(k, 16) for k in range(0, 9)]


def _pi_label(frac):
    if frac == 0:
        return "0"
    if frac == 1:
        return "pi"
    return f"{frac} pi"


def cmd_tables(which):
    reports = _reports(equatorial_problem(),
                       [float(frac) * np.pi for frac in _TABLE_ALPHAS])
    rows = []
    for frac, rep in zip(_TABLE_ALPHAS, reports):
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
    if args.points < 2:
        raise ValueError("--points must be >= 2")
    alphas = np.linspace(0.0, np.pi, args.points)
    problem = equatorial_problem(args.theta_ab)
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
        for alpha, rep in zip(alphas, _reports(problem, alphas)):
            value = rep.complexity if args.which == "fig4" else rep.length_scale
            lines.append(f"{fmt(alpha)},{fmt(value)}")
    text = "\n".join(lines) + "\n"
    return _write(args.out, text)


def _reports(problem, alphas):
    """The `analyze_alphas` reports of ``alphas``; raises the first failing
    row's error."""
    reports = analyze_alphas(problem, alphas)
    for rep in reports:
        if isinstance(rep, BlochComplexityError):
            raise rep
    return reports


def cmd_verify():
    records = run_verification()
    print("check,param,delta,pass")
    for record in records:
        print(record.line())
    return 0 if all(r.passed for r in records) else 1


def _write(path, text):
    """``text`` on stdout, or in the file at ``path``; a file that cannot be
    written is reported on stderr with exit code 1."""
    if path is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(path, "w", newline="") as stream:
            stream.write(text)
    except OSError as err:
        print(f"error: cannot write {path}: {err}", file=sys.stderr)
        return 1
    return 0


@functools.cache
def build_parser():
    """The process's one argument parser, built on the first call.

    `main` parses every argv with it: `parse_args` writes only to a new
    namespace, so no parse leaves state behind for the next, and the help
    reads the terminal width when it is formatted, not here."""
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
    figdata.add_argument("--theta-ab", type=parse_angle, default=np.pi / 2.0)
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
            return cmd_figdata(args)
        return cmd_verify()
    except (BlochComplexityError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
