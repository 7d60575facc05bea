"""Accessed and accessible parametric volumes of an evolution, the
complexity measure built from their ratio, and the complexity length scale.

The instantaneous volume at time t is the area, under the metric density
sin(theta)/4, of the angular rectangle spanned between the start point
(theta_A, phi_A) and the current point (theta(t), phi(t)):

    V(t) = |(cos(theta_A) - cos(theta(t))) * (phi(t) - phi_A)| / 4.

The accessed volume is a time average of V(t); the accessible volume is the
same density integrated over the bounding box [theta_min, theta_max] x
[phi_min, phi_max] swept by the trajectory. Complexity is the deficit ratio
C = (V_max - V̄)/V_max, and the length scale is L_C = s/sqrt(1 - C).

Evolutions confined to a parallel (constant theta) or a meridian (constant
phi) have a degenerate rectangle; a dedicated convention replaces the
vanishing factor so that both degenerate cases give V(t) = |moving extent|/2
and V_max = (total extent)/2. A report's ``degeneracy_label`` names the
degenerate axis: "theta" (a parallel), "phi" (a meridian) or "none".

Two time-averaging modes exist; both sum the averages of V(t) over
segments of the duration. ``uniform`` is the single-segment case: one
average over the full duration. ``appendix_piecewise`` cuts the duration at
the instants where the period-pi principal-arctangent representation of the
azimuth changes branch (a sign crossing of Re c0 or Re c1) and sums the
per-segment averages, which `analyze` keeps in ``VolumeReport.segments``. The
piecewise mode is the one that reproduces the reference volume table and is
the default; the README records the per-alpha deltas of the uniform mode.

Nothing is sampled. The box comes from the closed-form extrema of the
rotation, and each average is an adaptive Gauss-Legendre quadrature of V in
the rotation angle x = 2wt (Piessens et al., QUADPACK, 1983) over panels cut
at every point where V can kink: where cos(theta) returns to cos(theta_A),
where the azimuth crosses the plane of phi_A, at the polar extrema (where
the azimuth turns fastest near a pole, and where a path through a pole
meets it), at the segment boundaries, and at the midpoint, past which the
panels are measured back from the target.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (AveragingDomainError, NonPositiveVolume,
                     QuadratureNotConverged)
from .metrics import _arc_length, curvature_coefficient, speed_efficiency
from .qubit import cross
from .trajectory import (DEFAULT_SAMPLES, _arc_ends, _cos_roots,
                         sample_trajectory)

# angular extent below which an axis of the bounding box counts as degenerate
EPS_DEGENERATE = 1e-9

# a panel is accepted once its Gauss-Legendre rule and the sum of the rules
# on its halves differ by at most PANEL_TOL (an integral over the rotation
# angle, so the same at every energy); a panel still failing after
# MAX_BISECTIONS halvings is refused
PANEL_TOL = 1e-13
MAX_BISECTIONS = 50

UNIFORM = "uniform"
APPENDIX_PIECEWISE = "appendix_piecewise"
DEFAULT_AVERAGING_MODE = APPENDIX_PIECEWISE
AVERAGING_MODES = (UNIFORM, APPENDIX_PIECEWISE)


@dataclass(frozen=True)
class AngularBox:
    """Bounding box of a trajectory in (theta, phi)."""

    theta_min: float
    theta_max: float
    phi_min: float
    phi_max: float

    @property
    def theta_extent(self):
        return self.theta_max - self.theta_min

    @property
    def phi_extent(self):
        return self.phi_max - self.phi_min


@dataclass(frozen=True)
class VolumeReport:
    """Accessed and accessible volumes with the ``box`` they come from.

    ``segments`` holds one ``(t0, t1, average)`` per averaging segment; the
    averages sum to ``v_bar``.
    """

    v_bar: float
    v_max: float
    box: AngularBox
    averaging_mode: str
    segments: tuple


@dataclass(frozen=True)
class AnalysisConfig:
    """``samples`` is not read by `analyze`, which samples nothing; it is
    still validated so that callers passing it get the same errors."""

    samples: int = DEFAULT_SAMPLES
    averaging_mode: str = DEFAULT_AVERAGING_MODE

    def __post_init__(self):
        if self.averaging_mode not in AVERAGING_MODES:
            raise ValueError(f"unknown averaging mode {self.averaging_mode!r}")
        if self.samples % 2 == 0:
            raise ValueError(f"sample count must be odd, got {self.samples}")


@dataclass(frozen=True)
class EvolutionReport:
    """Everything `analyze` knows about one evolution."""

    alpha: float
    t_ab: float
    s: float
    eta_ge: float
    eta_se: float
    kappa2: float
    complexity: float
    length_scale: float
    volume: VolumeReport
    degeneracy_label: str


def accessed_volume(traj, mode=DEFAULT_AVERAGING_MODE):
    """Time-averaged instantaneous volume of the trajectory."""
    box = bounding_box(traj)
    v_bar, _ = _accessed_volume(traj, mode, _degeneracy_kind(box))
    return v_bar


def complexity(v_bar, v_max):
    """Deficit ratio (V_max - V̄)/V_max in [0, 1)."""
    if v_max <= 0.0 or v_bar <= 0.0:
        raise NonPositiveVolume(
            f"volumes must be positive, got v_bar={v_bar}, v_max={v_max}")
    ratio = v_bar / v_max
    if ratio > 1.0 + 1e-12:
        raise AveragingDomainError(
            f"accessed volume {v_bar} exceeds accessible volume {v_max}; "
            f"the averaging mode is not defined for this evolution")
    if 1.0 - ratio == 1.0:
        raise NonPositiveVolume(f"accessed volume {v_bar} vanishes against "
                                f"{v_max}: the complexity rounds to 1")
    return max(1.0 - ratio, 0.0)


def complexity_length_scale(s, c):
    """L_C = s/sqrt(1 - C) >= s; rejects C = 1 (division by zero)."""
    if s <= 0.0:
        raise ValueError("path length must be positive")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"complexity must lie in [0, 1), got {c}")
    return s / np.sqrt(1.0 - c)


def analyze(problem, params, config=None):
    """Full pipeline: evolution, box, volumes, complexity, and path
    metrics, all in closed form or by adaptive quadrature; no sampled grid
    is built."""
    config = config or AnalysisConfig()
    traj = sample_trajectory(problem, params)
    box = bounding_box(traj)
    kind = _degeneracy_kind(box)
    # V_max is V at the box's far corner
    v_max = float(_volume_samples(box.theta_min, box.phi_min, box.theta_max,
                                  box.phi_max, kind))
    v_bar, segments = _accessed_volume(traj, config.averaging_mode, kind)
    c = complexity(v_bar, v_max)
    s = _arc_length(problem, params, traj.t_b)
    f = traj.field
    volume = VolumeReport(v_bar=v_bar, v_max=v_max, box=box,
                          averaging_mode=config.averaging_mode,
                          segments=segments)
    return EvolutionReport(
        alpha=params.alpha,
        t_ab=traj.t_b,
        s=s,
        eta_ge=problem.theta_ab / s,
        eta_se=speed_efficiency(f, problem.a_hat),
        kappa2=curvature_coefficient(f, problem.a_hat),
        complexity=c,
        length_scale=complexity_length_scale(s, c),
        volume=volume,
        degeneracy_label=kind)


def bounding_box(traj):
    """Exact (theta, phi) bounding box of a trajectory.

    The Bloch vector turns rigidly about the field axis n:
    r(t) = n(n.a) + cos(2wt) u + sin(2wt) n x a with u = a - n(n.a), so
    every interior extremum of theta sits at a closed-form root of a
    first-degree trig polynomial in 2wt, and of phi at a root of a quadratic
    in tan(y/2), y measured from the nearer end (`_azimuth_turns`). The box
    spans the angles there, at both ends and, where the path meets an exact
    pole, the azimuth's one-sided limits on both sides of it.
    """
    x_b, n = traj.x_b, traj.circle.n
    x_theta = _polar_turns(traj.circle, (0.0, x_b))
    # on a path through an exact pole the azimuth's stationary points are a
    # double root there, which rounding moves off the pole, and the limits
    # stand in for them
    lift = traj.azimuth
    x_phi = np.empty(0) if lift.limits else np.concatenate([
        _azimuth_turns(traj.problem.a_hat, n, 0.5 * x_b),
        x_b - _azimuth_turns(traj.problem.b_hat, -n, 0.5 * x_b)])
    theta, phi = traj.angles_along(
        np.concatenate([[traj.x_b], x_theta, x_phi]))
    theta_a, phi_a = traj.start
    k = 1 + x_theta.size
    theta = np.append(theta[:k], theta_a)
    phi = np.concatenate([[phi_a], phi[:1], phi[k:], lift.limits])
    return AngularBox(theta_min=float(theta.min()),
                      theta_max=float(theta.max()),
                      phi_min=float(phi.min()), phi_max=float(phi.max()))


def branch_times(traj):
    """Interior instants where Re c0 or Re c1 crosses zero, i.e. where the
    period-pi arctangent representation of the azimuth changes branch.

    ``Re c_k(t) = cos(wt) Re psi0_k + sin(wt) Im(n.sigma psi0)_k``, so the
    instants are closed-form roots. Crossings through (numerical) zeros of
    the whole amplitude, i.e. poles, are not branch flips and are skipped,
    and so is a component whose Re c_k vanishes identically (both
    coefficients at rounding level), where any root would be noise. Roots
    within 1e-12 of either end, or within 1e-9 of the previous root,
    are dropped; both filters act on the phase angle wt, so the result
    scales exactly as 1/w.
    """
    w2 = 2.0 * traj.problem.omega
    return [float(x / w2) for x in _branch_angles(traj)]


def _branch_angles(traj):
    """`branch_times` as rotation angles 2wt, which no energy scale
    enters."""
    lo, hi = span = (0.0, 0.5 * traj.x_b)
    roots = []
    for comp in range(2):
        p, q = traj.source[comp].real, traj.turned[comp].imag
        if math.hypot(p, q) <= 1e-12:
            continue
        xs = _cos_roots(p, q, 0.0, span)
        roots.extend(xs[np.abs(traj.states_along(2.0 * xs)[:, comp]) > 1e-9])
    merged = []
    for x in sorted(roots):
        if lo + 1e-12 < x < hi - 1e-12 and (not merged
                                            or x - merged[-1] > 1e-9):
            merged.append(x)
    return [2.0 * x for x in merged]


# -- internals ---------------------------------------------------------------

def _degeneracy_kind(box):
    """The degeneracy label, decided once per trajectory from the exact box:
    "theta" when the theta extent is degenerate (a parallel, V = |d phi|/2),
    "phi" when the phi extent is (a meridian, V = |d theta|/2), else
    "none"."""
    theta_deg = box.theta_extent < EPS_DEGENERATE
    phi_deg = box.phi_extent < EPS_DEGENERATE
    if theta_deg and phi_deg:
        raise NonPositiveVolume("trajectory does not move in (theta, phi)")
    if theta_deg:
        return "theta"
    if phi_deg:
        return "phi"
    return "none"


def _volume_samples(theta_a, phi_a, theta, phi, kind):
    """V(t) at the given angles, the one formula for the instantaneous
    volume. ``kind`` is decided once per trajectory, so every sample of one
    trajectory uses the same convention. cos(theta_A) - cos(theta) is taken
    as a product of sines, which keeps its digits next to a pole."""
    if kind == "theta":
        return 0.5 * np.abs(phi - phi_a)
    if kind == "phi":
        return 0.5 * np.abs(theta - theta_a)
    return 0.5 * np.abs(np.sin(0.5 * (theta + theta_a))
                        * np.sin(0.5 * (theta - theta_a)) * (phi - phi_a))


def _accessed_volume(traj, mode, kind):
    """Accessed volume plus the per-segment averages that make it up."""
    if mode not in AVERAGING_MODES:
        raise ValueError(f"unknown averaging mode {mode!r}")
    w2 = 2.0 * traj.problem.omega
    cuts = _branch_angles(traj) if mode == APPENDIX_PIECEWISE else []
    x_bounds = np.array([0.0] + cuts + [traj.x_b])
    bounds = [0.0] + [float(x / w2) for x in cuts] + [traj.t_b]
    theta_a, phi_a = traj.start

    # panels past the midpoint are measured back from x_b, where the states
    # there start (see `Trajectory.states_along`): their x is negative
    def volume(x):
        theta, phi = traj.angles_along(x, np.where(x < 0.0, traj.x_b, 0.0))
        return _volume_samples(theta_a, phi_a, theta, phi, kind)

    edges = _panel_edges(traj, x_bounds)
    origin = np.where(edges[:-1] < 0.5 * traj.x_b, 0.0, traj.x_b)
    integrals = _panel_integrals(volume, edges[:-1] - origin,
                                 edges[1:] - origin)
    segment = np.searchsorted(x_bounds, edges[:-1], side="right") - 1
    sums = np.bincount(segment, weights=integrals, minlength=len(cuts) + 1)
    averages = tuple((t0, t1, float(total / (x1 - x0)))
                     for t0, t1, x0, x1, total in zip(
                         bounds[:-1], bounds[1:], x_bounds[:-1],
                         x_bounds[1:], sums))
    v_bar = float(sum(avg for _, _, avg in averages))
    return v_bar, averages


def _azimuth_turns(end, n, reach):
    """Rotation angles y in [0, reach] about ``n`` from the point ``end``
    where the azimuth is stationary, measured from that end so that they
    keep their precision next to it.

    On the circle r(y) = n (n.e) + cos(y) u + sin(y) v through e = ``end``,
    (r x r')_z = f + A (1 - cos y) - B sin y with f = (e x v)_z, A = (n.e) u_z
    and B = (n.e) v_z, and f is written out so that it stays exact when e
    is next to a pole and f is small. With t = tan(y/2) its zeros solve
    (f + 2A) t^2 - 2B t + f = 0, whose roots are taken as f/q and
    q/(f + 2A), q = B + sign(B) sqrt(B^2 - f (f + 2A)), so the small one
    keeps its relative precision; each is turned into y by an atan2, which
    neither overflows nor divides by zero.
    """
    ne = float(n @ end)
    u, v = end - ne * n, cross(n, end)
    f = float(end[0] * v[1] - end[1] * v[0])
    a, b = ne * float(u[2]), ne * float(v[2])
    disc = b * b - f * (f + 2.0 * a)
    if disc < 0.0:
        return np.empty(0)
    q = b + math.copysign(math.sqrt(disc), b)
    y = np.array([2.0 * math.atan2(math.copysign(1.0, den) * num, abs(den))
                  for num, den in ((f, q), (q, f + 2.0 * a))])
    return y[(y >= 0.0) & (y <= reach)]


def _polar_turns(circle, span):
    """Rotation angles in ``span`` where theta is stationary: z = n_z (n.a)
    + u_z cos + v_z sin turns where v_z cos = u_z sin."""
    return _cos_roots(circle.v[2], -circle.u[2], 0.0, span)


def _panel_edges(traj, x_bounds):
    """Sorted panel edges in the rotation angle: the segment bounds, the
    midpoint, where the states switch ends, and every interior point where
    V may kink or its azimuth turns fast."""
    u, v = traj.circle.u, traj.circle.v
    span = (x_bounds[0], x_bounds[-1])
    # z(x) - z_A = R_z (cos(x - c) - cos c): zero at x = 0 and at 2c
    c = np.arctan2(v[2], u[2])
    kinks = np.concatenate([_arc_ends(c, c, span),
                            _polar_turns(traj.circle, span),
                            traj.azimuth.crossings, [0.5 * traj.x_b]])
    inside = kinks[(kinks > span[0]) & (kinks < span[1])]
    return np.unique(np.concatenate([x_bounds, inside]))


def _panel_integrals(f, lo, hi):
    """Integral of f over each panel [lo, hi], by adaptive Gauss-Legendre
    quadrature.

    A panel's rule is compared with the sum of the rules on its two halves;
    panels where they differ by more than PANEL_TOL are bisected, the halves'
    rules becoming their children's, and all open panels are evaluated
    together at each level. The accepted value is the sum over the halves.
    """
    mid = 0.5 * (lo + hi)
    owner = np.arange(lo.size)
    total = np.zeros(lo.size)
    whole, left, right = np.split(_gauss(f, np.concatenate([lo, lo, mid]),
                                         np.concatenate([hi, mid, hi])), 3)
    level = 0
    while True:
        finer = left + right
        error = np.abs(whole - finer)
        done = error <= PANEL_TOL
        total += np.bincount(owner[done], weights=finer[done],
                             minlength=total.size)
        if done.all():
            return total
        keep = ~done
        if level == MAX_BISECTIONS:
            worst = np.flatnonzero(keep)[np.argmax(error[keep])]
            raise QuadratureNotConverged(
                f"panel [{lo[worst]:.17g}, {hi[worst]:.17g}] of the rotation "
                f"angle 2wt (back from the target where negative) still has "
                f"an error estimate of "
                f"{error[worst]:.3g} after {MAX_BISECTIONS} bisections "
                f"(tolerance {PANEL_TOL:g})")
        lo, hi = (np.concatenate([lo[keep], mid[keep]]),
                  np.concatenate([mid[keep], hi[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        mid = 0.5 * (lo + hi)
        left, right = np.split(_gauss(f, np.concatenate([lo, mid]),
                                      np.concatenate([mid, hi])), 2)
        level += 1


def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]: the
    eigenvalues of the Jacobi matrix of the Legendre polynomials, and twice
    the squared first components of its eigenvectors (Golub and Welsch,
    1969). Equal to numpy.polynomial.legendre.leggauss(n) to 1e-14, without
    importing numpy.polynomial (1.8 MB of resident memory)."""
    k = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1),
                                    UPLO="U")
    return nodes, 2.0 * vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(16)


def _gauss(f, lo, hi):
    """The 16-node Gauss-Legendre rule for f on each panel [lo, hi]."""
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    return half * (f(x) @ _WEIGHTS)
