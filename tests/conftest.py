import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from blochcomplexity import check_propagator_agreement, equatorial_problem


@pytest.fixture(scope="session")
def canonical():
    """Source x-hat, target y-hat, theta_AB = pi/2, E = 1 (hbar = 1)."""
    return equatorial_problem()


@pytest.fixture(scope="session")
def oracle_gate():
    """Reference-integrator agreement must hold before golden-table values
    are trusted; golden tests request this fixture to enforce the ordering."""
    records = check_propagator_agreement(
        alphas=[np.pi / 16, np.pi / 4, np.pi / 2, 15 * np.pi / 16], times=4)
    failed = [r for r in records if not r.passed]
    assert not failed, f"oracle disagrees with closed form: {failed}"
    return records
