"""Accessed and accessible parametric volumes of a sampled evolution, the
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
and V_max = (total extent)/2. Reports flag when this convention is active.

Two time-averaging modes exist; both sum the averages of V(t) over
segments of the duration. ``uniform`` is the single-segment case: one
average over the full duration. ``appendix_piecewise`` cuts the duration at
the instants where the period-pi principal-arctangent representation of the
azimuth changes branch (a sign crossing of Re c0 or Re c1) and sums the
per-segment averages, which `analyze` keeps in ``VolumeReport.segments``. The
piecewise mode is the one that reproduces the reference volume table and is
the default; the README records the per-alpha deltas of the uniform mode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (AveragingDomainError, NonPositiveVolume,
                     QuadratureNotConverged)
from .metrics import (_arc_length, curvature_coefficient, geodesic_distance,
                      speed_efficiency)
from .numerics import simpson_uniform
from .qubit import bloch_angles
from .trajectory import (AZIMUTH_POLE_EPS, DEFAULT_SAMPLES,
                         angles_from_states, nearest_branch,
                         sample_trajectory)

# angular extent below which an axis of the bounding box counts as degenerate
EPS_DEGENERATE = 1e-9

# step-doubling must move the accessed volume by less than this
RICHARDSON_TOL = 1e-7

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
    """Accessed and accessible volumes with the box they come from.

    ``segments`` holds one ``(t0, t1, average)`` per averaging segment; the
    averages sum to ``v_bar``.
    """

    v_bar: float
    v_max: float
    theta_min: float
    theta_max: float
    phi_min: float
    phi_max: float
    degenerate_theta: bool
    degenerate_phi: bool
    averaging_mode: str
    segments: tuple


@dataclass(frozen=True)
class AnalysisConfig:
    samples: int = DEFAULT_SAMPLES
    averaging_mode: str = DEFAULT_AVERAGING_MODE

    def __post_init__(self):
        if self.averaging_mode not in AVERAGING_MODES:
            raise ValueError(f"unknown averaging mode {self.averaging_mode!r}")
        # Simpson quadrature needs an even panel count
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

    @property
    def degeneracy_label(self):
        parts = []
        if self.volume.degenerate_theta:
            parts.append("theta")
        if self.volume.degenerate_phi:
            parts.append("phi")
        return "+".join(parts) if parts else "none"


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
    return max(1.0 - ratio, 0.0)


def complexity_length_scale(s, c):
    """L_C = s/sqrt(1 - C) >= s; rejects C = 1 (division by zero)."""
    if s <= 0.0:
        raise ValueError("path length must be positive")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"complexity must lie in [0, 1), got {c}")
    return s / np.sqrt(1.0 - c)


def analyze(problem, params, config=None):
    """Full pipeline: sample, box, volumes, complexity, and path metrics."""
    config = config or AnalysisConfig()
    traj = sample_trajectory(problem, params, config.samples)
    box = bounding_box(traj)
    kind = _degeneracy_kind(box)
    v_max = _box_volume(box, kind)
    v_bar, segments = _accessed_volume(traj, config.averaging_mode, kind)
    c = complexity(v_bar, v_max)
    s = _arc_length(problem, params, traj.t_b)
    f = traj.field
    volume = VolumeReport(
        v_bar=v_bar, v_max=v_max,
        theta_min=box.theta_min, theta_max=box.theta_max,
        phi_min=box.phi_min, phi_max=box.phi_max,
        degenerate_theta=kind == _PARALLEL,
        degenerate_phi=kind == _MERIDIAN,
        averaging_mode=config.averaging_mode,
        segments=segments)
    return EvolutionReport(
        alpha=params.alpha,
        t_ab=traj.t_b,
        s=s,
        eta_ge=geodesic_distance(problem) / s,
        eta_se=speed_efficiency(f, problem.a_hat),
        kappa2=curvature_coefficient(f, problem.a_hat),
        complexity=c,
        length_scale=complexity_length_scale(s, c),
        volume=volume)


def bounding_box(traj):
    """Exact (theta, phi) bounding box of a trajectory.

    The Bloch vector turns rigidly about the field axis n:
    r(t) = n(n.a) + cos(2wt) u + sin(2wt) n x a with u = a - n(n.a), so
    every interior extremum of theta and phi sits at a closed-form root of a
    first-degree trig polynomial in 2wt. The box spans the angles there and
    at both ends. The sampled azimuth is frozen where sin(theta) <
    AZIMUTH_POLE_EPS, so its values where the trajectory crosses that circle
    count as well.
    """
    n, a, w = traj.field.direction, traj.problem.a_hat, traj.rate
    na = float(n @ a)
    u = a - na * n
    v = np.cross(n, a)
    span = 2.0 * w * traj.t[[0, -1]]

    def roots(p, q, c):
        return _cos_roots(p, q, c, span) / (2.0 * w)

    def ref(ts):
        return traj.phi[np.minimum(np.searchsorted(traj.t, ts),
                                   traj.n_samples - 1)]

    # z = n_z (n.a) + u_z cos + v_z sin is stationary where v_z cos = u_z sin
    t_theta = roots(v[2], -u[2], 0.0)
    # (r x r')_z / 2w = |u|^2 n_z - (n.a)(u_z cos + v_z sin) vanishes
    t_phi = roots(na * u[2], na * v[2], float(u @ u) * n[2])
    t_rim = _rim_crossings(n, na, u, v, span) / (2.0 * w)
    rim_phi = bloch_angles(traj.states_at(t_rim))[1]
    theta = np.concatenate([traj.theta[[0, -1]],
                            bloch_angles(traj.states_at(t_theta))[0]])
    phi = np.concatenate([traj.phi[[0, -1]],
                          _angles_near(traj, t_phi, ref(t_phi))[1],
                          nearest_branch(rim_phi, ref(t_rim))])
    return AngularBox(theta_min=float(theta.min()),
                      theta_max=float(theta.max()),
                      phi_min=float(phi.min()), phi_max=float(phi.max()))


def branch_times(traj):
    """Interior instants where Re c0 or Re c1 crosses zero, i.e. where the
    period-pi arctangent representation of the azimuth changes branch.

    ``Re c_k(t) = cos(wt) Re psi0_k + sin(wt) Im(n.sigma psi0)_k``, so the
    instants are closed-form roots. Crossings through (numerical) zeros of
    the whole amplitude, i.e. poles, are not branch flips and are skipped.
    Roots within 1e-12 of either end, or within 1e-9 of the previous root,
    are dropped; both filters act on the rotation angle wt, so the result
    scales exactly as 1/w.
    """
    w = traj.rate
    lo, hi = span = w * traj.t[[0, -1]]
    roots = []
    for comp in range(2):
        xs = _cos_roots(traj.source[comp].real, traj.turned[comp].imag, 0.0,
                        span)
        roots.extend(xs[np.abs(traj.states_at(xs / w)[:, comp]) > 1e-9])
    merged = []
    for x in sorted(roots):
        if lo + 1e-12 < x < hi - 1e-12 and (not merged
                                            or x - merged[-1] > 1e-9):
            merged.append(x)
    return [float(x / w) for x in merged]


# -- internals ---------------------------------------------------------------

# degeneracy kinds decided once per trajectory from the exact box
_RECTANGLE = "rectangle"
_PARALLEL = "parallel"   # theta extent degenerate: V = |d phi| / 2
_MERIDIAN = "meridian"   # phi extent degenerate:   V = |d theta| / 2


def _degeneracy_kind(box):
    theta_deg = box.theta_extent < EPS_DEGENERATE
    phi_deg = box.phi_extent < EPS_DEGENERATE
    if theta_deg and phi_deg:
        raise NonPositiveVolume("trajectory does not move in (theta, phi)")
    if theta_deg:
        return _PARALLEL
    if phi_deg:
        return _MERIDIAN
    return _RECTANGLE


def _box_volume(box, kind):
    if kind == _PARALLEL:
        return 0.5 * box.phi_extent
    if kind == _MERIDIAN:
        return 0.5 * box.theta_extent
    return 0.25 * ((np.cos(box.theta_min) - np.cos(box.theta_max))
                   * box.phi_extent)


def _volume_samples(theta_a, phi_a, theta, phi, kind):
    """V(t) at the given angles, the one formula for the instantaneous
    volume. ``kind`` is decided once per trajectory, so every sample of one
    trajectory uses the same convention."""
    if kind == _PARALLEL:
        return 0.5 * np.abs(phi - phi_a)
    if kind == _MERIDIAN:
        return 0.5 * np.abs(theta - theta_a)
    return 0.25 * np.abs((np.cos(theta_a) - np.cos(theta)) * (phi - phi_a))


def _accessed_volume(traj, mode, kind):
    """Accessed volume plus the per-segment averages that make it up."""
    if mode not in AVERAGING_MODES:
        raise ValueError(f"unknown averaging mode {mode!r}")
    theta_a = float(traj.theta[0])
    phi_a = float(traj.phi[0])
    cuts = branch_times(traj) if mode == APPENDIX_PIECEWISE else []
    boundaries = [traj.t_a] + cuts + [traj.t_b]

    averages = []
    richardson = 0.0
    phi_anchor = phi_a
    for t0, t1 in zip(boundaries[:-1], boundaries[1:]):
        span = t1 - t0
        if not cuts:
            # the one segment is the whole trajectory, already sampled
            ts, theta, phi = traj.t, traj.theta, traj.phi
        else:
            ts = np.linspace(t0, t1, traj.n_samples)
            theta, phi = angles_from_states(traj.states_at(ts), phi_anchor)
        dt = float(ts[1] - ts[0])
        v = _volume_samples(theta_a, phi_a, theta, phi, kind)
        full = float(simpson_uniform(v, dt)) / span
        half = float(simpson_uniform(v[::2], 2.0 * dt)) / span
        richardson += abs(full - half)
        averages.append((t0, t1, full))
        phi_anchor = float(phi[-1])

    if richardson >= RICHARDSON_TOL:
        raise QuadratureNotConverged(
            f"step-doubling changed the accessed volume by {richardson:.3g} "
            f"(limit {RICHARDSON_TOL:g}); refine the sampling")
    v_bar = float(sum(avg for _, _, avg in averages))
    return v_bar, tuple(averages)


def _angles_near(traj, ts, ref):
    """Polar angle and continuous azimuth at arbitrary times, the azimuth
    resolved to the 2*pi branch nearest a (per-point) reference value; pole
    samples return the reference."""
    theta, raw = bloch_angles(traj.states_at(ts))
    phi = np.where(np.sin(theta) < AZIMUTH_POLE_EPS, ref,
                   nearest_branch(raw, ref))
    return theta, phi


def _cos_roots(p, q, c, span):
    """Every x in the closed interval ``span`` with p cos(x) + q sin(x) = c;
    none when p = q = 0."""
    r = np.hypot(p, q)
    if r == 0.0 or abs(c) > r:
        return np.empty(0)
    return _arc_ends(np.arctan2(q, p), np.arccos(c / r), span)


def _rim_crossings(n, na, u, v, span):
    """Rotation angles x = 2wt in ``span`` where the Bloch vector crosses
    sin(theta) = AZIMUTH_POLE_EPS, the rim of a pole cap in which the
    sampled azimuth is frozen.

    Solved in haversine form on the triangle (field axis, pole, r): with
    gamma = angle(n, pole) and beta = angle(n, a), the distance d to the
    pole obeys hav d = hav(gamma - beta) + sin(gamma) sin(beta) hav(x - x_p),
    x_p being the angle closest to the pole. Solving z(x) = cos d instead
    loses the rim's position to rounding next to the pole.
    """
    beta = np.arctan2(np.linalg.norm(v), na)
    rim = np.sin(0.5 * np.arcsin(AZIMUTH_POLE_EPS)) ** 2
    out = [np.empty(0)]
    for pole in (1.0, -1.0):
        gamma = np.arctan2(np.hypot(n[0], n[1]), pole * n[2])
        scale = np.sin(gamma) * np.sin(beta)
        hav = rim - np.sin(0.5 * (gamma - beta)) ** 2
        if scale > 0.0 and 0.0 <= hav <= scale:
            out.append(_arc_ends(np.arctan2(pole * v[2], pole * u[2]),
                                 2.0 * np.arcsin(np.sqrt(hav / scale)),
                                 span))
    return np.concatenate(out)


def _arc_ends(centre, half, span):
    """Every centre +- half + 2 pi k in the closed interval ``span``."""
    lo, hi = span
    roots = []
    for base in (centre - half, centre + half):
        k = np.arange(np.ceil((lo - base) / (2.0 * np.pi)),
                      np.floor((hi - base) / (2.0 * np.pi)) + 1.0)
        roots.append(base + 2.0 * np.pi * k)
    return np.concatenate(roots)
