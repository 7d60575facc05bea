"""Frozen expected values for the canonical equatorial sweep
(source x-hat, target y-hat, theta_AB = pi/2, E = 1, with hbar = 1).

Two provenances, kept separate on purpose:

* published 4-decimal reference tables for the sweep alpha = k*pi/16
  (supplementary angles pi - alpha share the same row), and
* high-precision constants computed with independent oracles before the
  package was built: scipy adaptive quadrature of the closed-form angle
  expressions, scipy bounded minimization for extrema, and a fixed-step RK4
  integration of the Schrodinger equation (8192 steps; agreed with the
  closed forms to ~3e-15). These back the [DERIVED] expectations.
"""

# alpha = k*pi/16 -> (v_bar, v_max, complexity, length_scale)
VOLUME_TABLE = {
    0: (0.1917, 0.2777, 0.3096, 2.6735),
    1: (0.1536, 0.2243, 0.3152, 2.3996),
    2: (0.1064, 0.1765, 0.3973, 2.3509),
    3: (0.0508, 0.1358, 0.6259, 2.8135),
    4: (0.0333, 0.1016, 0.6719, 2.8888),
    5: (0.0238, 0.0723, 0.6710, 2.8128),
    6: (0.0153, 0.0465, 0.6706, 2.7674),
    7: (0.0075, 0.0228, 0.6705, 2.7439),
    8: (0.3927, 0.7854, 0.5, 2.2214),
}

# alpha = k*pi/16 -> (eta_ge, eta_se, kappa2)
EFFICIENCY_TABLE = {
    0: (0.7071, 0.7071, 4.0),
    1: (0.7911, 0.7204, 3.7067),
    2: (0.8607, 0.7571, 2.9781),
    3: (0.9128, 0.8089, 2.1131),
    4: (0.9493, 0.8660, 1.3333),
    5: (0.9737, 0.9196, 0.7298),
    6: (0.9890, 0.9627, 0.3160),
    7: (0.9973, 0.9904, 0.0776),
    8: (1.0, 1.0, 0.0),
}

# alpha = k*pi/16 -> (evolution time, path length)
TIME_LENGTH_TABLE = {
    0: (1.5708, 2.2214),
    1: (1.3781, 1.9857),
    2: (1.2053, 1.8251),
    3: (1.0637, 1.7208),
    4: (0.9553, 1.6547),
    5: (0.8772, 1.6133),
    6: (0.8249, 1.5883),
    7: (0.7951, 1.5750),
    8: (0.7854, 1.5708),
}

# uniform-mode accessed volumes (adaptive-quadrature oracle); differ from the
# piecewise values exactly where an interior branch crossing exists (k <= 3)
UNIFORM_VBAR = {
    0: 0.088388,
    1: 0.072244,
    2: 0.057335,
    3: 0.044394,
    4: 0.033347,
    5: 0.023802,
    6: 0.015319,
    7: 0.007501,
    8: 0.392699,
}

# alpha = pi/16 worked quantities
BRANCH_TIME_PI16 = 0.9644326602941039        # arctan(sqrt(2)/cos(pi/16))
ARRIVAL_TIME_PI16 = 1.378126037477481
THETA_MAX_PI16 = 2.1788796636582224          # polar angle at mid-time
THETA_MIN_15PI16 = 0.962712989931571
SEGMENT_AVERAGES_PI16 = (6.5385e-2, 8.8238e-2)       # published 5-digit
SEGMENT_AVERAGES_PI16_PRECISE = (0.06538748560105369, 0.0882279804831851)
VBAR_PI16 = 0.15361546608  # sum of the precise segment averages
VMAX_PI16 = 0.224347186687

# RK4 oracle state at alpha = pi/16, t = 0.5 (frozen from the independent
# integrator; matched the closed forms to ~3e-15)
RK4_C0_PI16_T05 = 0.3854378249075491 - 0.3012433599128416j
RK4_C1_PI16_T05 = 0.8556513362199422 - 0.1689701513995514j

# closed-form arc length at alpha = pi/4 via adaptive quadrature of the
# energy-uncertainty integrand (agreed with the closed form to < 1e-15)
ARC_LENGTH_PI4 = 1.654656919906525
