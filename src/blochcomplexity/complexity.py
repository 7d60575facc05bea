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
the rotation angle x = 2Et (Piessens et al., QUADPACK, 1983) over panels cut
at every point where V can kink: where cos(theta) returns to cos(theta_A),
where the azimuth crosses the plane of phi_A, at the polar extrema (where
the azimuth turns fastest near a pole, and where a path through a pole
meets it), at the segment boundaries, and at the midpoint, past which the
panels are measured back from the target. Around each polar turn the edges
are graded geometrically, from the closest approach to the pole there, so
that one level resolves the azimuth's fast turn however near the pole the
path passes; a panel that still fails its error test is bisected.

`analyze_alphas` runs a sweep of mixing angles on one problem in one
pass: each row lays out its own geometry, one call of the evaluation
kernel (`trajectory.evaluate_angles`) evaluates every row's box candidates
and first-level nodes, and each bisection level is one more call over the
panels still open in every row. `analyze` is its one-row case.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import (AveragingDomainError, BlochComplexityError,
                     NonPositiveVolume, QuadratureNotConverged)
from .hamiltonians import SubOptimalParams
from .metrics import _curvature_coefficient, _speed_efficiency, arc_length
from .trajectory import (POLE_EPS, Circle, _arc_ends, _cos_roots,
                         evaluate_angles, sample_trajectory, stack)

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
    """``samples`` is accepted from callers that still pass a sample count,
    and neither read nor validated: `analyze` samples nothing."""

    samples: int | None = None
    averaging_mode: str = DEFAULT_AVERAGING_MODE

    def __post_init__(self):
        if self.averaging_mode not in AVERAGING_MODES:
            raise ValueError(f"unknown averaging mode {self.averaging_mode!r}")


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
    (volumes,) = _volumes([traj], AnalysisConfig(averaging_mode=mode))
    return _unwrap(volumes)[3]


def complexity_from_volumes(v_bar, v_max):
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
    return s / math.sqrt(1.0 - c)


def analyze(problem, params, config=None):
    """Full pipeline: evolution, box, volumes, complexity, and path
    metrics, all in closed form or by adaptive quadrature; no sampled grid
    is built. The one-row case of `analyze_alphas`: it raises the typed
    error that the row raised."""
    (report,) = _analyze_rows(problem, [params], config)
    return _unwrap(report)


def analyze_alphas(problem, alphas, config=None):
    """`analyze` at each mixing angle in ``alphas`` on one problem: one
    entry per alpha, in order, which is its `EvolutionReport` or the typed
    `BlochComplexityError` that its row raised; a failing row does not stop
    the rows after it. Every alpha is validated (``ValueError`` outside
    [0, pi]) before any row runs.

    Each row lays out its own geometry (trajectory, box candidates, branch
    cuts, panel edges); one kernel evaluation serves every row's box
    candidates and first-level nodes, and one more each bisection level;
    each row's outcome is the one `analyze` gives it, bit for bit."""
    return _analyze_rows(problem, [SubOptimalParams(alpha)
                                   for alpha in alphas], config)


def _analyze_rows(problem, params, config):
    """`analyze_alphas` at the given `SubOptimalParams`."""
    config = config or AnalysisConfig()
    trajs = [sample_trajectory(problem, p) for p in params]
    reports = _volumes(trajs, config)
    for r, (p, traj) in enumerate(zip(params, trajs)):
        if not isinstance(reports[r], BlochComplexityError):
            try:
                reports[r] = _report(problem, p, traj, reports[r], config)
            except BlochComplexityError as err:
                reports[r] = err
    return reports


def _report(problem, params, traj, volumes, config):
    """One row's `EvolutionReport` from its trajectory and `_volumes`."""
    box, kind, v_max, v_bar, segments = volumes
    c = complexity_from_volumes(v_bar, v_max)
    s = arc_length(problem, params, traj.x_b)
    volume = VolumeReport(v_bar=v_bar, v_max=v_max, box=box,
                          averaging_mode=config.averaging_mode,
                          segments=segments)
    return EvolutionReport(
        alpha=params.alpha,
        t_ab=traj.t_b,
        s=s,
        eta_ge=problem.theta_ab / s,
        eta_se=_speed_efficiency(traj.circle),
        kappa2=_curvature_coefficient(traj.circle),
        complexity=c,
        length_scale=complexity_length_scale(s, c),
        volume=volume,
        degeneracy_label=kind)


def _unwrap(outcome):
    """A row's outcome, or the typed error it holds raised."""
    if isinstance(outcome, BlochComplexityError):
        raise outcome
    return outcome


def bounding_box(traj):
    """Exact (theta, phi) bounding box of a trajectory.

    The Bloch vector turns rigidly about the field axis n:
    r(t) = n(n.a) + cos(2Et) u + sin(2Et) n x a with u = a - n(n.a), so
    every interior extremum of theta sits at a closed-form root of a
    first-degree trig polynomial in 2Et, and of phi at a root of a quadratic
    in tan(y/2), y measured from the nearer end (`_azimuth_turns`). The box
    spans the angles there, at both ends and, where the path meets an exact
    pole, the azimuth's one-sided limits on both sides of it.
    """
    theta, phi = traj.angles_along(np.array(_box_candidates(traj)))
    return _box(traj, theta.tolist(), phi.tolist())


def branch_times(traj):
    """Interior instants where Re c0 or Re c1 crosses zero, i.e. where the
    period-pi arctangent representation of the azimuth changes branch.

    ``Re c_k(t) = cos(Et) Re psi0_k + sin(Et) Im(n.sigma psi0)_k``, so the
    instants are closed-form roots. The amplitude that vanishes at the
    path's exact pole (`Trajectory.pole`), c1 at the north pole and c0 at
    the south, has a root there that flips no branch, as Im c_k vanishes
    with Re c_k: its roots within POLE_EPS / |u| of the pole in x, where
    sin(theta) < POLE_EPS to first order, are skipped, and the other
    amplitude's roots are flips however near the pole. A component whose
    Re c_k vanishes identically (both coefficients at rounding level) is
    skipped too, as its roots would be noise. Roots within 1e-12 of either
    end, or within 1e-9 of the previous root, are dropped; both filters
    act on the phase angle Et, so the result scales exactly as 1/E.
    """
    return [traj.time_of(x) for x in _branch_angles(traj)]


def _branch_angles(traj):
    """`branch_times` as rotation angles 2Et, which no energy scale
    enters."""
    lo, hi = span = (0.0, 0.5 * traj.x_b)
    pole, (n, na, u, v) = traj.pole, traj.circle
    vanishing = None if pole is None else int(
        n[2] * na + u[2] * math.cos(pole) + v[2] * math.sin(pole) > 0.0)
    (s0, s1), (t0, t1) = traj.source, traj.turned
    merged = []
    for x, k in sorted((x, k) for k, (p, q) in enumerate(
            ((s0.real, t0.imag), (s1.real, t1.imag)))
            if math.hypot(p, q) > 1e-12 for x in _cos_roots(p, q, span)):
        if (lo + 1e-12 < x < hi - 1e-12
                and (k != vanishing
                     or abs(2.0 * x - pole) * math.hypot(*u) >= POLE_EPS)
                and (not merged or x - merged[-1] > 1e-9)):
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
        raise NonPositiveVolume(
            f"trajectory's box extents {box.theta_extent:.3g} in theta and "
            f"{box.phi_extent:.3g} in phi are both below EPS_DEGENERATE = "
            f"{EPS_DEGENERATE:g}")
    if theta_deg:
        return "theta"
    if phi_deg:
        return "phi"
    return "none"


def _volume_samples(theta_a, phi_a, theta, phi, kind):
    """V(t) at the given angles, the one formula for the instantaneous
    volume. ``kind`` is decided once per trajectory, so every sample of one
    trajectory uses the same convention; None, a trajectory whose box
    failed, reads 0, so its quadrature opens no panel. cos(theta_A) -
    cos(theta) is taken as a product of sines, which keeps its digits next
    to a pole."""
    if kind is None:
        return np.zeros_like(theta)
    if kind == "theta":
        return 0.5 * np.abs(phi - phi_a)
    if kind == "phi":
        return 0.5 * np.abs(theta - theta_a)
    return 0.5 * np.abs(np.sin(0.5 * (theta + theta_a))
                        * np.sin(0.5 * (theta - theta_a)) * (phi - phi_a))


def _volumes(trajs, config):
    """Per trajectory, in order: its box, degeneracy kind, V_max, accessed
    volume and per-segment averages in ``config``'s mode, or the typed error
    it raised.

    Each trajectory lays out its box candidates and panel edges; then one
    kernel call (`evaluate_angles`) evaluates every trajectory's candidates
    and first-level quadrature nodes, which lie on one flat axis with no
    padding: every row's candidates, then the nodes of every row's panels,
    of their left halves and of their right halves. Each point reads its
    own row's constants (`stack`) and start angles, which stay floats for
    one row. V_max and V at the nodes are then evaluated for every
    trajectory at once (`_volume_rows`), so the numpy calls do not grow with
    the rows; every row's panels bisect together, one kernel call per level
    (`_panel_integrals`)."""
    if not trajs:
        return []
    rows = len(trajs)
    piecewise = config.averaging_mode == APPENDIX_PIECEWISE
    candidates, x_bounds, edges, points, lows, highs = [], [], [], [], [], []
    for traj in trajs:
        candidates.append(_box_candidates(traj))
        x_bounds.append([0.0, *(_branch_angles(traj) if piecewise else []),
                         traj.x_b])
        edges.append(_panel_edges(traj, x_bounds[-1]))
        points += candidates[-1]
        lows += edges[-1][:-1]
        highs += edges[-1][1:]
    counts = [len(c) for c in candidates]
    panels = [len(e) - 1 for e in edges]
    k, p = len(points), len(lows)
    table = np.array(points + lows + highs)
    if rows == 1:
        row = None
        x_b = trajs[0].x_b
    else:
        # each point's row: the candidates, then the nodes of the panels,
        # of their left halves and of their right halves, row after row
        row = np.repeat(list(range(rows)) * 4,
                        counts + [_NODES.size * n for n in panels] * 3)
        x_b = np.repeat([traj.x_b for traj in trajs], panels)
    # panels past the midpoint are measured back from x_b, where the states
    # there start (see `Trajectory.states_along`): their x is negative
    origin = np.where(table[k:k + p] < 0.5 * x_b, 0.0, x_b)
    lo, hi = table[k:k + p] - origin, table[k + p:] - origin
    mid = 0.5 * (lo + hi)
    half, nodes = _nodes(np.concatenate([lo, lo, mid]),
                         np.concatenate([hi, mid, hi]))
    x = np.concatenate([table[:k], nodes.ravel()])
    theta, phi = _angles(trajs, x, row)

    box_theta, box_phi = theta[:k].tolist(), phi[:k].tolist()
    boxes, kinds, outcomes = [], [], [None] * rows
    end = 0
    for r, traj in enumerate(trajs):
        start, end = end, end + counts[r]
        boxes.append(_box(traj, box_theta[start:end], box_phi[start:end]))
        try:
            kinds.append(_degeneracy_kind(boxes[r]))
        except NonPositiveVolume as err:
            kinds.append(None)
            outcomes[r] = err
    # V_max is V at the box's far corner, one element per row
    corners = np.array([(box.theta_min, box.phi_min, box.theta_max,
                         box.phi_max) for box in boxes]).T
    v_max = _volume_rows(*corners, kinds).tolist()
    # each first-level panel's row
    panel_row = None if row is None else row[k::_NODES.size][:p]

    def volume(theta, phi, point_row):
        # a sweep's start angles are gathered after the kernel call, whose
        # temporaries set its peak memory; one row's stay floats
        starts = trajs[0].start if point_row is None else np.array(
            [traj.start for traj in trajs]).T.take(point_row, axis=1)
        return _volume_rows(*starts, theta, phi, kinds, point_row)

    def bisected(x, owner):
        # each node reads the row of the first-level panel it was cut from
        node_row = None if row is None else np.repeat(
            panel_row.take(owner), _NODES.size).reshape(x.shape)
        return volume(*_angles(trajs, x, node_row), node_row)

    values = volume(theta[k:], phi[k:], None if row is None else row[k:])
    whole, left, right = _gauss(half, values.reshape(nodes.shape)).reshape(
        3, -1)
    integrals, stuck = _panel_integrals(bisected, lo, hi, whole, left, right)
    if stuck is not None:
        # a row with open panels fails on its worst, the first at the max
        lo, hi, error, owner = stuck
        in_row = np.zeros_like(owner) if row is None else panel_row.take(owner)
        for r in dict.fromkeys(in_row.tolist()):
            mine = np.flatnonzero(in_row == r)
            worst = mine[np.argmax(error[mine])]
            outcomes[r] = QuadratureNotConverged(
                f"panel [{lo[worst]:.17g}, {hi[worst]:.17g}] of the rotation "
                f"angle 2Et (back from the target where negative) still has "
                f"an error estimate of {error[worst]:.3g} after "
                f"{MAX_BISECTIONS} bisections (tolerance {PANEL_TOL:g})")

    end = 0
    for r, traj in enumerate(trajs):
        start, end = end, end + panels[r]
        if outcomes[r] is not None:
            continue
        bounds = x_bounds[r]
        totals = [0.0] * (len(bounds) - 1)
        for edge, integral in zip(edges[r], integrals[start:end]):
            totals[bisect.bisect_right(bounds, edge) - 1] += integral
        times = [traj.time_of(x) for x in bounds]
        averages = tuple((t0, t1, total / (x1 - x0))
                         for t0, t1, x0, x1, total in zip(
                             times[:-1], times[1:], bounds[:-1], bounds[1:],
                             totals))
        outcomes[r] = (boxes[r], kinds[r], v_max[r],
                       sum(avg for _, _, avg in averages), averages)
    return outcomes


def _angles(trajs, x, row):
    """The angles at rotation angles ``x`` of the rows ``row`` of ``trajs``
    (None for one), measured back from x_b where negative."""
    constants = stack(trajs, row)
    return evaluate_angles(constants, x,
                           np.where(x < 0.0, constants.x_b, 0.0))


def _volume_rows(theta_a, phi_a, theta, phi, kinds, row=None):
    """V at each point of ``theta`` and ``phi`` from its start angles
    ``theta_a`` and ``phi_a``, which broadcast against them, in the
    degeneracy kind of its row: ``kinds[row[i]]`` for point i, or
    ``kinds[i]`` where ``row`` is None. The most common kind's formula runs
    on every point, and only the points of the other kinds' rows are
    evaluated again, in their own, so that the number of evaluations does
    not grow with the rows."""
    present = sorted(set(kinds), key=kinds.count, reverse=True)
    values = _volume_samples(theta_a, phi_a, theta, phi, present[0])
    for kind in present[1:]:
        same = np.array([other == kind for other in kinds])
        if row is not None:
            same = same.take(row)
        values[same] = _volume_samples(theta_a[same], phi_a[same],
                                       theta[same], phi[same], kind)
    return values


def _box_candidates(traj):
    """Where `bounding_box` takes the angles: x_b, the polar turns
    (`Trajectory.polar_turns`) and, with no exact pole on the path, the
    azimuth's turns."""
    x_b, circle, b = traj.x_b, traj.circle, traj.problem.b
    # on a path through an exact pole the azimuth's stationary points are a
    # double root there, which rounding moves off the pole, and the limits
    # stand in for them; the target's turns are measured back from it, on
    # its circle about -n
    x_phi = [] if traj.pole is not None else [
        *_azimuth_turns(circle, traj.problem.a, 0.5 * x_b),
        *(x_b - y for y in _azimuth_turns(
            Circle.about([-m for m in circle.n], b), b, 0.5 * x_b))]
    return [x_b, *traj.polar_turns, *x_phi]


def _box(traj, theta, phi):
    """The box spanned by the start angles, the angles at the
    `_box_candidates` (lists of floats, in their order) and the azimuth's
    limits at an exact pole."""
    theta_a, phi_a = traj.start
    k = 1 + len(traj.polar_turns)
    theta = [*theta[:k], theta_a]
    phi = [phi_a, *phi[:1], *phi[k:], *traj.limits]
    return AngularBox(theta_min=min(theta), theta_max=max(theta),
                      phi_min=min(phi), phi_max=max(phi))


def _azimuth_turns(circle, end, reach):
    """Rotation angles y in [0, reach] along ``circle`` from its point
    ``end`` where the azimuth is stationary, measured from that end so that
    they keep their precision next to it.

    On the circle r(y) = n (n.e) + cos(y) u + sin(y) v through e = ``end``,
    (r x r')_z = f + A (1 - cos y) - B sin y with f = (e x v)_z, A = (n.e) u_z
    and B = (n.e) v_z, and f is written out so that it stays exact when e
    is next to a pole and f is small. With t = tan(y/2) its zeros solve
    (f + 2A) t^2 - 2B t + f = 0, whose roots are taken as f/q and
    q/(f + 2A), q = B + sign(B) sqrt(B^2 - f (f + 2A)), so the small one
    keeps its relative precision; each is turned into y by an atan2, which
    neither overflows nor divides by zero.
    """
    _, ne, u, v = circle
    f = end[0] * v[1] - end[1] * v[0]
    a, b = ne * u[2], ne * v[2]
    disc = b * b - f * (f + 2.0 * a)
    if disc < 0.0:
        return []
    q = b + math.copysign(math.sqrt(disc), b)
    y = [2.0 * math.atan2(math.copysign(1.0, den) * num, abs(den))
         for num, den in ((f, q), (q, f + 2.0 * a))]
    return [x for x in y if 0.0 <= x <= reach]


def _panel_edges(traj, x_bounds):
    """Sorted panel edges in the rotation angle: the segment bounds, the
    midpoint, where the states switch ends, every interior point where V
    may kink or its azimuth turns fast (the polar turns among them), and
    edges graded towards each interior polar turn (`_graded_edges`). An
    edge closer than 4 ulp of x_b to a segment bound or to an edge before
    it in that order is dropped: it would only cut a sliver panel."""
    u, v = traj.circle.u, traj.circle.v
    span = (x_bounds[0], x_bounds[-1])
    # z(x) - z_A = R_z (cos(x - c) - cos c): zero at x = 0 and at 2c
    c = math.atan2(v[2], u[2])
    gap = 4.0 * math.ulp(traj.x_b)
    edges = list(x_bounds)
    for x in [0.5 * traj.x_b, *traj.polar_turns,
              traj.crossing, *_arc_ends(c, c, span),
              *_graded_edges(traj, span)]:
        k = bisect.bisect(edges, x)
        if 0 < k < len(edges) and min(x - edges[k - 1], edges[k] - x) >= gap:
            edges.insert(k, x)
    return edges


def _graded_edges(traj, span):
    """Edges on both sides of each polar turn inside ``span``, at
    distances w, 4w, 16w, ... from it, on each side while the next one
    would still fit between it and the span's end, with w = theta_min / |u|:
    the closest approach to the pole there over the path's speed in x. The
    azimuth turns by about pi within w of the turn, so the panels grow with
    the distance from it and one quadrature level resolves the turn however
    near the pole it passes; where 4w exceeds the distance to both ends,
    no edge is added.
    Where theta_min < POLE_EPS the turn is an exact pole: the azimuth takes
    its one-sided limits there, and the lift's crossing at the turn already
    cuts the path. Skipping every such turn, not only `Trajectory.pole`,
    keeps step > 0: a target on a pole (`scripts/snapshot.py`'s pole cases
    13, 15, 17, 19) has a turn one ulp inside x_b with theta_min = 0."""
    speed = math.hypot(*traj.circle.u)
    edges = []
    for turn, theta_min in zip(traj.polar_turns, traj.closest_approaches):
        if not span[0] < turn < span[1] or theta_min < POLE_EPS:
            continue
        for end in span:
            step = theta_min / speed
            while 4.0 * step < abs(end - turn):
                edges.append(turn + math.copysign(step, end - turn))
                step *= 4.0
    return edges


def _panel_integrals(f, lo, hi, whole, left, right):
    """Integral over each panel [lo, hi], by adaptive Gauss-Legendre
    quadrature, from the first level: the rules on the panels (``whole``)
    and on their ``left`` and ``right`` halves.

    A panel's rule is compared with the sum of the rules on its two halves;
    panels where they differ by more than PANEL_TOL are bisected, the halves'
    rules becoming their children's, and all open panels are evaluated
    together at each level, in their order, by one call f(x, owner) at
    their nodes, owner being the first-level panel each was cut from, whose
    integral the accepted value (the sum over the halves) adds to. Returns
    the integrals, and the lo, hi, error and owner of the panels still open
    after MAX_BISECTIONS levels, or None."""
    finer = left + right
    err = np.abs(whole - finer)
    done = err <= PANEL_TOL
    if all(done.tolist()):  # most calls end here, before any bincount
        return finer.tolist(), None
    total, owner = np.where(done, finer, 0.0), np.arange(lo.size)
    mid = 0.5 * (lo + hi)
    for _ in range(MAX_BISECTIONS):
        keep = ~done
        lo, hi = (np.concatenate([lo[keep], mid[keep]]),
                  np.concatenate([mid[keep], hi[keep]]))
        whole = np.concatenate([left[keep], right[keep]])
        owner = np.concatenate([owner[keep], owner[keep]])
        mid = 0.5 * (lo + hi)
        half, x = _nodes(np.concatenate([lo, mid]), np.concatenate([mid, hi]))
        left, right = _gauss(half, f(x, np.concatenate([owner, owner]))
                             ).reshape(2, -1)
        finer = left + right
        err = np.abs(whole - finer)
        done = err <= PANEL_TOL
        total += np.bincount(owner[done], weights=finer[done],
                             minlength=total.size)
        if all(done.tolist()):
            return total.tolist(), None
    keep = ~done
    return total.tolist(), (lo[keep], hi[keep], err[keep], owner[keep])


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


def _nodes(lo, hi):
    """Half-widths of the panels [lo, hi] and their Gauss-Legendre nodes."""
    half = 0.5 * (hi - lo)
    return half, (0.5 * (lo + hi))[..., None] + half[..., None] * _NODES


def _gauss(half, values):
    """The 16-node Gauss-Legendre rule on panels of half-widths ``half``
    from the integrand's ``values`` at their `_nodes`. An elementwise
    product and a sum over the last axis, not a matrix product: the sum
    over a panel's nodes is then the same at any panel count, so a batched
    row equals its own `analyze` bit for bit."""
    return half * (values * _WEIGHTS).sum(axis=-1)
