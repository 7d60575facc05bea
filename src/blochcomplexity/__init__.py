"""Geometric quality metrics and volume-based complexity of stationary qubit
evolutions between arbitrary Bloch-sphere states."""

from .complexity import (AnalysisConfig, AngularBox, DEFAULT_AVERAGING_MODE,
                         EvolutionReport, VolumeReport, accessed_volume,
                         analyze, bounding_box, branch_times, complexity,
                         complexity_length_scale)
from .errors import (AveragingDomainError, BlochComplexityError,
                     DegenerateGeometry, NonPositiveVolume, NormDrift,
                     ParallelField, QuadratureNotConverged)
from .hamiltonians import (EvolutionProblem, FieldVector, SubOptimalParams,
                           equatorial_problem, evolution_time, propagator,
                           suboptimal_field)
from .metrics import (curvature_coefficient, geodesic_efficiency, path_length,
                      speed_efficiency)
from .qubit import bloch_angles, pauli_dot, state_from_bloch
from .trajectory import Trajectory, sample_trajectory, write_trajectory_csv
from .verify import (CheckRecord, check_omega_independence,
                     check_propagator_agreement, check_supplementary_symmetry,
                     integrate_schrodinger, run_verification)

__version__ = "0.1.0"
