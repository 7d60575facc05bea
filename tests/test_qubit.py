import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from blochcomplexity import bloch_angles, pauli_dot
from blochcomplexity.qubit import (IDENTITY, PAULI_X, PAULI_Y, PAULI_Z,
                                   _require_unit, cross, pauli_dot_times,
                                   state_from_bloch)

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
    assert np.allclose(_bloch_vector(state_from_bloch(*v.tolist())), v,
                       atol=1e-10)


def test_state_from_bloch_is_normalized_with_real_c0():
    rng = np.random.default_rng(11)
    for _ in range(25):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        state = state_from_bloch(*v.tolist())
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
        assert state[0].imag == 0.0
        assert state[0].real >= 0.0


@given(pole=st.sampled_from([1.0, -1.0]), log_sin=st.floats(-12.01, -11.99),
       phase=st.floats(-np.pi, np.pi))
# |v_x + i v_y| = 9.999999999999998e-13, while the state's rounded polar
# angle reads sin(theta) = 1.0002e-12
@example(pole=-1.0, log_sin=-12.0, phase=2.97265625)
# |c1| reads 4.999999999999999e-13 with the phase and 5e-13 without it
@example(pole=1.0, log_sin=-12.0, phase=1.0)
def test_state_next_to_a_pole_keeps_the_azimuth_of_its_vector(
        pole, log_sin, phase):
    # the state is the literal one of v, however close to a pole; which
    # states are poles is the trajectory's decision, not the state's
    off = 10.0 ** log_sin
    v = np.array([off * np.cos(phase), off * np.sin(phase),
                  pole * np.sqrt(1.0 - off * off)])
    _, phi = bloch_angles(state_from_bloch(*v.tolist()))
    assert phi == pytest.approx(np.arctan2(v[1], v[0]), abs=1e-12)


@pytest.mark.parametrize("v", [-np.array([0.0, 0.0, 1.0]),
                               np.array([-0.0, 0.0, -1.0])])
def test_south_pole_with_signed_zeros_is_exactly_the_basis_state(v):
    # arctan2 of the signed zeros reads +-pi; on the z axis the azimuth is 0
    state = state_from_bloch(*v.tolist())
    assert state.tolist() == [0.0, 1.0]


@given(_finite_vectors, _finite_vectors)
def test_cross_is_numpy_cross_bit_for_bit(a, b):
    # np.cross is the reference; products of huge components overflow to
    # inf, and inf - inf to nan, in both
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.cross(a, b)
    assert np.array(cross(a.tolist(), b.tolist())).tobytes() \
        == expected.tobytes()


def test_bloch_angles_do_not_depend_on_the_array_size():
    # a state's angles are the same in a 20000-state array (past the
    # 256 KiB from which numpy may reuse a temporary as the output of `*`)
    # as in a 1000-state one, so a batched sweep row keeps its own bits
    rng = np.random.default_rng(0)
    states = rng.normal(size=(20000, 2)) + 1j * rng.normal(size=(20000, 2))
    for whole, parts in zip(bloch_angles(states), zip(*(
            bloch_angles(states[k:k + 1000]) for k in range(0, 20000, 1000)))):
        assert np.array_equal(whole, np.concatenate(parts))


def test_identity_constant():
    assert np.array_equal(IDENTITY, np.eye(2))


_amplitudes = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                        allow_infinity=False)


@given(st.tuples(_amplitudes, _amplitudes, _amplitudes),
       st.tuples(_amplitudes, _amplitudes, _amplitudes, _amplitudes))
@example((0.6, 0.0, 0.8), (1.0, 0.0, 0.0, 0.0))
def test_pauli_dot_times_is_the_matrix_product_to_rounding(n, parts):
    # each component is a sum of three products; numpy's product fuses
    # multiply-adds where the machine has them and the helper never does,
    # so they agree bit for bit only without fused multiply-adds, and
    # otherwise to 4 eps |n| |psi| per real component (the two roundings
    # of a three-term sum differ by at most 3.5 eps times the sum of its
    # terms' magnitudes, which Cauchy-Schwarz bounds by |n| |psi|)
    psi = (complex(*parts[:2]), complex(*parts[2:]))
    got = pauli_dot_times(n, psi)
    assert all(type(c) is complex for c in got)
    got, want = np.array(got), pauli_dot(n) @ np.array(psi)
    assert got.dtype == want.dtype and got.shape == want.shape
    # the norms by hypot, which does not underflow for tiny components
    bound = (4.0 * np.finfo(float).eps * math.hypot(*n) * math.hypot(*parts)
             + 4.0 * np.finfo(float).smallest_subnormal)
    assert np.all(np.abs(got.real - want.real) <= bound)
    assert np.all(np.abs(got.imag - want.imag) <= bound)


@pytest.mark.parametrize("v, message", [
    ([np.nan, 0.0, 0.0], "must be a finite 3-vector"),
    ([0.0, np.inf, 0.0], "must be a finite 3-vector"),
    ([0.0, 0.0, -np.inf], "must be a finite 3-vector"),
    ([1.0, 0.0], "must be a finite 3-vector"),
    ([1.0, 0.0, 0.0, 0.0], "must be a finite 3-vector"),
    ([[1.0, 0.0, 0.0]], "must be a finite 3-vector"),
    (1.0, "must be a finite 3-vector"),
    ([0.0, 0.0, 0.0], "must be a unit vector, got norm 0.0"),
    ([-0.0, 0.0, -0.0], "must be a unit vector, got norm 0.0"),
    ([2.0, 0.0, 0.0], "must be a unit vector, got norm 2.0"),
    ([1.0 + 2e-9, 0.0, 0.0], "must be a unit vector"),
    ([1e300, 1e300, 0.0], "must be a unit vector"),
], ids=["nan", "inf", "-inf", "short", "long", "nested", "scalar", "zero",
        "signed-zero", "norm-2", "off-by-2e-9", "huge"])
def test_require_unit_rejects_naming_the_argument(v, message):
    with pytest.raises(ValueError, match=f"^w {message}"):
        _require_unit(v, "w")


def test_require_unit_scales_to_norm_one_as_floats():
    assert _require_unit(np.array([0.0, 1.0, 0.0]), "v") == (0.0, 1.0, 0.0)
    unit = _require_unit([0.6, 0.0, 0.8 * (1.0 + 1e-10)], "v")
    assert {type(x) for x in unit} == {float}
    assert np.linalg.norm(unit) == pytest.approx(1.0, abs=1e-15)
