"""Two-level (spin-1/2) building blocks: read-only Pauli matrices, coin
rotations, Bloch-sphere eigenstates, a closed-form eigensolver for
n . sigma, and the half-solid-angle kernel of Wilson links and areas."""

from __future__ import annotations

import numpy as np

from .errors import DegeneratePointError

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
for _m in (PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)


def rotation_y(theta) -> np.ndarray:
    """Real rotation [[cos, -sin], [sin, cos]], i.e. exp(-i theta sigma_y),
    shape np.shape(theta) + (2, 2)."""
    c, s = np.cos(theta), np.sin(theta)
    m = np.array([[c, -s], [s, c]], dtype=complex)
    return m.transpose(*range(2, m.ndim), 0, 1)


def rotation_x(phi) -> np.ndarray:
    """Coin [[cos, i sin], [i sin, cos]], i.e. exp(+i phi sigma_x),
    shape np.shape(phi) + (2, 2)."""
    c, s = np.cos(phi), np.sin(phi)
    m = np.array([[c, 1.0j * s], [1.0j * s, c]], dtype=complex)
    return m.transpose(*range(2, m.ndim), 0, 1)


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


def _stable_components(nx, ny, nz, r, sign):
    """Upper/lower eigenvector components of n . sigma for one band.

    Uses the algebraic identities
        nz - s r      = -s nperp^2 / (r + s nz)
        2 r (r - s nz) = 2 r nperp^2 / (r + s nz)
    whenever s nz >= 0, so no catastrophic cancellation occurs near the
    poles.  Inputs may be arrays; returns (upper, lower) complex arrays.
    """
    nperp2 = nx * nx + ny * ny
    direct = sign * nz < 0.0
    # Where direct is True the subtraction r - s nz adds magnitudes.
    denom = np.where(direct, 1.0, r + sign * nz)
    lower = np.where(direct, nz - sign * r, -sign * nperp2 / denom)
    d2 = np.where(direct, 2.0 * r * (r - sign * nz), 2.0 * r * nperp2 / denom)
    d = np.sqrt(d2)
    pole = d2 <= (1e-28) * r * r
    safe_d = np.where(pole, 1.0, d)
    upper = np.where(pole, 1.0 + 0.0j, (-nx + 1.0j * ny) / safe_d)
    lower = np.where(pole, 0.0 + 0.0j, lower / safe_d)
    return upper, lower


def band_eigenvector(n_vectors: np.ndarray, band: int) -> np.ndarray:
    """Normalized eigenvectors of n . sigma for a batch of Bloch vectors.

    n_vectors has shape (..., 3) and need not be normalized; band is +1 or
    -1 and selects the eigenvalue +|n| or -|n|.  Returns shape (..., 2).
    The phase convention keeps the lower component real; at a pole of that
    chart the vector (1, 0) is returned.  Raises DegeneratePointError if
    any input vector has length below 1e-150.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    n = np.asarray(n_vectors, dtype=float)
    if n.shape[-1] != 3:
        raise ValueError("n_vectors must have shape (..., 3)")
    nx, ny, nz = n[..., 0], n[..., 1], n[..., 2]
    r = np.sqrt(nx * nx + ny * ny + nz * nz)
    if np.any(r < 1e-150):
        raise DegeneratePointError("zero Bloch vector has no eigenbasis")
    upper, lower = _stable_components(nx, ny, nz, r, float(band))
    return np.stack([upper, lower], axis=-1)


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
