import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from blochcomplexity import equatorial_problem, run_verification


@pytest.fixture(scope="session")
def canonical():
    """Source x-hat, target y-hat, theta_AB = pi/2, E = 1 (hbar = 1)."""
    return equatorial_problem()


@pytest.fixture(scope="session")
def verification():
    """`run_verification()`'s records, computed once per session: every
    test of the harness reads them, so the 8192-step integrator runs its
    16 x 8 grid once."""
    return run_verification()


@pytest.fixture(scope="session")
def oracle_gate(verification):
    """Reference-integrator agreement must hold before golden-table values
    are trusted; golden tests request this fixture to enforce the ordering."""
    records = [r for r in verification if r.check == "propagator_oracle"]
    failed = [r for r in records if not r.passed]
    assert records and not failed, (
        f"oracle disagrees with closed form: {failed}")
    return records
