"""Two-level (spin-1/2) building blocks: read-only Pauli matrices, coin
rotations, Bloch-sphere eigenstates, and the half-solid-angle kernel of
Wilson links and areas."""

from __future__ import annotations

import numpy as np

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


def _coin(a, b, c, d) -> np.ndarray:
    """C-contiguous complex [[a, b], [c, d]], shape np.shape(a) + (2, 2)."""
    m = np.empty(np.shape(a) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def rotation_y(theta) -> np.ndarray:
    """Real rotation [[cos, -sin], [sin, cos]], i.e. exp(-i theta sigma_y),
    shape np.shape(theta) + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    return _coin(c, -s, s, c)


def rotation_x(phi) -> np.ndarray:
    """Coin [[cos, i sin], [i sin, cos]], i.e. exp(+i phi sigma_x),
    shape np.shape(phi) + (2, 2)."""
    c, s = np.cos(phi), np.sin(phi)
    return _coin(c, 1.0j * s, 1.0j * s, c)


def bloch_sphere_state(theta: float, phi: float, band: int) -> np.ndarray:
    """Eigenstate of n(theta, phi) . sigma in the symmetric half-angle gauge.

    band=+1 returns (cos(theta/2) e^{i phi/2}, sin(theta/2) e^{-i phi/2});
    band=-1 the orthogonal partner.  The gauge is double valued: advancing
    phi by 2 pi flips the overall sign, so closed loops must reuse the
    starting sample instead of evaluating at phi + 2 pi.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    half = 0.5 * theta
    ep = np.exp(0.5j * phi)
    em = np.conj(ep)
    if band == +1:
        return np.array([np.cos(half) * ep, np.sin(half) * em])
    return np.array([np.sin(half) * ep, -np.cos(half) * em])


def half_solid_angle(apex, a, b) -> np.ndarray:
    """Half the signed solid angle of the geodesic triangle (apex, a, b),
    in (-pi, pi], positive for vertices counterclockwise seen from outside.

    The Van Oosterom-Strackee tan(Omega / 2) = apex.(a x b) /
    (1 + a.b + apex.a + apex.b), evaluated as atan2(apex.(u x v), u.v)
    with u = apex + a, v = apex + b, which keeps its precision as a or b
    nears -apex.  It is also the Bargmann phase arg <apex|a><a|b><b|apex>
    of spin-1/2 states.  Unit vectors go xyz first, shape (3, ...), and
    broadcast.  A vertex antipodal to another gives atan2(0, 0) = 0.
    """
    px, py, pz = apex
    ux, uy, uz = px + a[0], py + a[1], pz + a[2]
    vx, vy, vz = px + b[0], py + b[1], pz + b[2]
    return np.arctan2(px * (uy * vz - uz * vy) + py * (uz * vx - ux * vz)
                      + pz * (ux * vy - uy * vx),
                      ux * vx + uy * vy + uz * vz)
