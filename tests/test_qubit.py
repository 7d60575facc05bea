import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from blochcomplexity import bloch_angles, pauli_dot, state_from_bloch
from blochcomplexity.qubit import IDENTITY, PAULI_X, PAULI_Y, PAULI_Z, cross

_finite_vectors = st.tuples(
    *[st.floats(allow_nan=False, allow_infinity=False)] * 3).map(np.array)


def test_pauli_dot_recovers_basis_matrices():
    assert np.array_equal(pauli_dot([0, 0, 1]), PAULI_Z)
    assert np.array_equal(pauli_dot([1, 0, 0]), PAULI_X)
    assert np.array_equal(pauli_dot([0, 1, 0]), PAULI_Y)


def test_pauli_dot_diagonal_example():
    m = pauli_dot([0, 0, 1])
    assert np.allclose(m, np.diag([1.0, -1.0]))


def test_pauli_dot_unit_diagonal_direction_eigenvalues():
    # brute-force 2x2 eigensolve as the independent route
    v = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    m = pauli_dot(v)
    expected = (v[0] * PAULI_X + v[1] * PAULI_Y + v[2] * PAULI_Z)
    assert np.allclose(m, expected, atol=1e-15)
    eigs = np.sort(np.linalg.eigvalsh(m))
    assert np.allclose(eigs, [-1.0, 1.0], atol=1e-12)


def test_pauli_dot_is_hermitian_traceless():
    m = pauli_dot([0.3, -1.2, 0.5])
    assert np.allclose(m, m.conj().T)
    assert abs(np.trace(m)) < 1e-15


def test_pauli_dot_rejects_bad_input():
    with pytest.raises(ValueError):
        pauli_dot([1.0, 2.0])
    with pytest.raises(ValueError):
        pauli_dot([np.nan, 0.0, 0.0])


finite_components = st.floats(min_value=-10.0, max_value=10.0,
                              allow_nan=False, allow_infinity=False)


@given(finite_components, finite_components, finite_components)
@example(0.0, 2.225073858507e-311, 0.0)
def test_pauli_dot_eigenvalues_are_plus_minus_norm(x, y, z):
    v = np.array([x, y, z])
    m = pauli_dot(v)
    # characteristic polynomial of a traceless 2x2: lambda^2 - |v|^2.
    # The determinant is written out: LAPACK's np.linalg.det returns nan for
    # subnormal entries such as the example above.
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    assert det.imag == pytest.approx(0.0, abs=1e-9)
    assert det.real == pytest.approx(-float(v @ v), rel=1e-9, abs=1e-9)


def _bloch_vector(state):
    """Unit Bloch vector of a normalized state, from its `bloch_angles`."""
    theta, phi = bloch_angles(state)
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


def test_bloch_from_state_poles_and_equator():
    assert np.allclose(_bloch_vector(np.array([1.0, 0.0])), [0, 0, 1])
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    assert np.allclose(_bloch_vector(plus), [1, 0, 0], atol=1e-15)
    circ = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert np.allclose(_bloch_vector(circ), [0, 1, 0], atol=1e-15)


angles = st.tuples(st.floats(min_value=0.05, max_value=np.pi - 0.05),
                   st.floats(min_value=-np.pi, max_value=np.pi))


@given(angles)
def test_state_bloch_round_trip(ang):
    theta, phi = ang
    v = np.array([np.sin(theta) * np.cos(phi),
                  np.sin(theta) * np.sin(phi),
                  np.cos(theta)])
    assert np.allclose(_bloch_vector(state_from_bloch(v)), v, atol=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("convert", [state_from_bloch])
def test_bloch_conversions_reject_nonfinite_input(convert, bad):
    with pytest.raises(ValueError, match="finite"):
        convert(np.array([bad, 0.0, 0.0]))


def test_state_from_bloch_is_normalized_with_real_c0():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        state = state_from_bloch(v)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert state[0].imag == 0.0
        assert state[0].real >= 0.0


@given(_finite_vectors, _finite_vectors)
def test_cross_is_numpy_cross_bit_for_bit(a, b):
    # np.cross is the reference; products of huge components overflow to
    # inf, and inf - inf to nan, in both
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.cross(a, b)
    assert cross(a, b).tobytes() == expected.tobytes()


def test_identity_constant():
    assert np.array_equal(IDENTITY, np.eye(2))
