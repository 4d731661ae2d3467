"""Pauli algebra, coin rotations, and closed-form two-level eigenpairs."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given
from hypothesis import strategies as st

from conftest import DegeneratePointError, band_eigenvector
from qwgeom.spin import (PAULI_X, PAULI_Y, PAULI_Z, bloch_sphere_state,
                         half_solid_angle, rotation_x, rotation_y)


def test_pauli_algebra():
    for p in (PAULI_X, PAULI_Y, PAULI_Z):
        assert np.allclose(p @ p, np.eye(2))
        assert np.allclose(p, p.conj().T)
    assert np.allclose(PAULI_X @ PAULI_Y, 1j * PAULI_Z)
    assert np.allclose(PAULI_Y @ PAULI_Z, 1j * PAULI_X)
    assert np.allclose(PAULI_Z @ PAULI_X, 1j * PAULI_Y)


def test_pauli_constants_are_readonly():
    with pytest.raises(ValueError):
        PAULI_X[0, 0] = 5.0


def test_rotation_y_entries():
    th = 0.7
    m = rotation_y(th)
    expected = np.array([[np.cos(th), -np.sin(th)],
                         [np.sin(th), np.cos(th)]])
    assert np.array_equal(m, expected.astype(complex))


def test_rotation_x_entries():
    ph = -1.2
    m = rotation_x(ph)
    expected = np.array([[np.cos(ph), 1j * np.sin(ph)],
                         [1j * np.sin(ph), np.cos(ph)]])
    assert np.array_equal(m, expected)


def test_rotations_broadcast_with_matrix_axes_last():
    angles = np.linspace(-3.0, 3.0, 6).reshape(2, 3)
    for rot in (rotation_y, rotation_x):
        stack = rot(angles)
        assert stack.shape == (2, 3, 2, 2)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(stack[idx], rot(angles[idx]))


def test_rotation_stacks_are_c_contiguous():
    # The Laurent fold reads each coin stack as is; a transposed view
    # would be copied once per coin.
    angles = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    for rot in (rotation_y, rotation_x):
        stack = rot(angles)
        assert stack.flags.c_contiguous
        assert stack.dtype == complex


def test_rotations_are_unitary_and_compose():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.uniform(-np.pi, np.pi, 2)
        for rot in (rotation_y, rotation_x):
            m = rot(a)
            assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-14)
            assert np.allclose(rot(a) @ rot(b), rot(a + b), atol=1e-13)


def test_named_coins_are_pauli_exponentials():
    th = 0.83
    assert np.allclose(scipy.linalg.expm(-1j * th * PAULI_Y), rotation_y(th),
                       atol=1e-15)
    assert np.allclose(scipy.linalg.expm(1j * th * PAULI_X), rotation_x(th),
                       atol=1e-15)


def _direction(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi),
                     np.sin(theta) * np.sin(phi),
                     np.cos(theta)])


def test_bloch_sphere_state_eigen_equation():
    # This family pairs e^{+i phi/2} with the upper component, so it
    # diagonalizes the direction with azimuth -phi; the pair is still an
    # orthonormal basis at every (theta, phi).
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = rng.uniform(0.0, np.pi)
        phi = rng.uniform(-np.pi, np.pi)
        n = _direction(theta, -phi)
        h = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        for band in (+1, -1):
            psi = bloch_sphere_state(theta, phi, band)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-14
            assert np.linalg.norm(h @ psi - band * psi) < 1e-13
        plus = bloch_sphere_state(theta, phi, +1)
        minus = bloch_sphere_state(theta, phi, -1)
        assert abs(np.vdot(plus, minus)) < 1e-14


def test_bloch_sphere_state_double_valued_gauge():
    psi = bloch_sphere_state(0.9, 0.3, +1)
    shifted = bloch_sphere_state(0.9, 0.3 + 2 * np.pi, +1)
    assert np.allclose(shifted, -psi, atol=1e-14)


def test_bloch_sphere_state_band_validation():
    with pytest.raises(ValueError):
        bloch_sphere_state(0.3, 0.1, 0)


def test_band_eigenvector_eigen_equation_random():
    rng = np.random.default_rng(17)
    n = rng.normal(size=(400, 3)) * np.exp(rng.uniform(-3, 3, size=(400, 1)))
    r = np.linalg.norm(n, axis=1)
    for band in (+1, -1):
        v = band_eigenvector(n, band)
        norms = np.linalg.norm(v, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        hv = (n[:, 0, None] * (PAULI_X @ v[..., None])[..., 0]
              + n[:, 1, None] * (PAULI_Y @ v[..., None])[..., 0]
              + n[:, 2, None] * (PAULI_Z @ v[..., None])[..., 0])
        residual = np.linalg.norm(hv - band * r[:, None] * v, axis=1)
        assert np.max(residual / r) < 1e-12
    # Against the general Hermitian solver: eigh sorts ascending, so
    # column 0 holds the -|n| and column 1 the +|n| eigenvector.
    h = np.einsum("ni,ijk->njk", n, np.array([PAULI_X, PAULI_Y, PAULI_Z]))
    w, vecs = np.linalg.eigh(h)
    assert np.max(np.abs(w - r[:, None] * [-1.0, 1.0]) / r[:, None]) < 1e-14
    for band, col in ((+1, 1), (-1, 0)):
        overlap = np.abs(np.sum(vecs[:, :, col].conj()
                                * band_eigenvector(n, band), axis=1))
        assert np.max(np.abs(overlap - 1.0)) < 1e-12


def test_band_eigenvectors_are_orthogonal():
    rng = np.random.default_rng(23)
    n = rng.normal(size=(200, 3))
    vp = band_eigenvector(n, +1)
    vm = band_eigenvector(n, -1)
    overlaps = np.abs(np.sum(vp.conj() * vm, axis=1))
    assert np.max(overlaps) < 1e-12


def test_band_eigenvector_lower_component_real():
    rng = np.random.default_rng(31)
    n = rng.normal(size=(200, 3))
    for band in (+1, -1):
        v = band_eigenvector(n, band)
        assert np.max(np.abs(v[:, 1].imag)) == 0.0


def test_band_eigenvector_poles():
    vp = band_eigenvector(np.array([0.0, 0.0, 2.5]), +1)
    assert np.allclose(vp, [1.0, 0.0])
    vm = band_eigenvector(np.array([0.0, 0.0, 2.5]), -1)
    assert np.allclose(vm, [0.0, 1.0])
    vp_south = band_eigenvector(np.array([0.0, 0.0, -2.5]), +1)
    assert np.allclose(vp_south, [0.0, -1.0])


def test_band_eigenvector_stable_near_poles():
    # A Bloch vector a hair away from +z once produced catastrophic
    # cancellation in the naive (nz - r) formula; the identity-based
    # branch keeps the eigen-residual at machine precision.
    n = np.array([1e-9, -2e-9, 0.7])
    for band in (+1, -1):
        v = band_eigenvector(n, band)
        h = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        lam = band * np.linalg.norm(n)
        assert np.linalg.norm(h @ v - lam * v) < 1e-15


def test_band_eigenvector_equatorial_direction():
    # For nz = 0 both bands reduce to (e^{-i phi_n}, s)/sqrt(2) up to phase.
    rng = np.random.default_rng(41)
    for _ in range(20):
        phi_n = rng.uniform(-np.pi, np.pi)
        n = np.array([np.cos(phi_n), np.sin(phi_n), 0.0])
        for band in (+1, -1):
            v = band_eigenvector(n, band)
            ref = np.array([np.exp(-1j * phi_n), band]) / np.sqrt(2.0)
            assert abs(abs(np.vdot(ref, v)) - 1.0) < 1e-12


def test_band_eigenvector_zero_vector_raises():
    with pytest.raises(DegeneratePointError):
        band_eigenvector(np.zeros(3), +1)


def test_band_eigenvector_shape_validation():
    with pytest.raises(ValueError):
        band_eigenvector(np.ones((4, 2)), +1)
    with pytest.raises(ValueError):
        band_eigenvector(np.ones(3), 2)


def test_half_solid_angle_octant_orientation_and_degenerate():
    x, y, z = np.eye(3)
    # The octant triangle has solid angle pi / 2.
    assert abs(half_solid_angle(x, y, z) - np.pi / 4) < 1e-15
    assert abs(half_solid_angle(x, z, y) + np.pi / 4) < 1e-15
    assert half_solid_angle(z, -z, x) == 0.0
    assert half_solid_angle(z, x, -x) == 0.0
    # Stacks with xyz on the first axis broadcast against one apex.
    a = np.stack([x, y, z], axis=1)
    b = np.stack([y, z, x], axis=1)
    expected = [half_solid_angle(z, a[:, i], b[:, i]) for i in range(3)]
    assert np.array_equal(half_solid_angle(z, a, b), expected)


_unit = st.tuples(st.floats(-1.0, 1.0), st.floats(-np.pi, np.pi))


@given(p=_unit, a=_unit, b=_unit)
def test_half_solid_angle_is_bargmann_phase(p, a, b):
    def point(zphi):
        z, phi = zphi
        rho = np.sqrt(1.0 - z * z)
        return np.array([rho * np.cos(phi), rho * np.sin(phi), z])

    p, a, b = point(p), point(a), point(b)
    states = [band_eigenvector(v, +1) for v in (p, a, b)]
    overlaps = [np.vdot(states[i], states[(i + 1) % 3]) for i in range(3)]
    assume(min(abs(o) for o in overlaps) >= 1e-3)
    bargmann = np.angle(overlaps[0] * overlaps[1] * overlaps[2])
    kernel = half_solid_angle(p, a, b)
    assert abs(np.angle(np.exp(1j * (kernel - bargmann)))) < 1e-12
    # The Van Oosterom-Strackee form it rewrites.
    vos = np.arctan2(np.dot(p, np.cross(a, b)),
                     1.0 + a @ b + p @ a + p @ b)
    assert abs(np.angle(np.exp(1j * (kernel - vos)))) < 1e-12
