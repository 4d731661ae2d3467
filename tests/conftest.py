"""Shared test configuration: deterministic Hypothesis runs, the
strategies several test modules draw from, the reference spin
eigenstates and overlap chain that the Zak and holonomy tests check the
package against, and the whole-array sphere transport and solid angle
that the streamed ones must equal bit for bit."""

import contextlib
import functools
import math
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from qwgeom import models
from qwgeom.errors import (CurveNotSupportedError, OrthogonalStatesError,
                           QwGeomError)
from qwgeom.holonomy import _NORTH, CLOSURE_TOL, SphereCurve, TangentVector
from qwgeom.models import FAMILY_CLASSES, WalkModel, make_model
from qwgeom.spin import half_solid_angle, rotation_x, rotation_y
from qwgeom.utils import fold_angle
from qwgeom.zak import zak_map

# Examples derive from each test's source rather than a random seed, and
# no example database is written, so every run checks the same cases.
settings.register_profile("qwgeom", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("qwgeom")

angles = st.floats(min_value=-np.pi, max_value=np.pi)


@st.composite
def walk_models(draw):
    """A model of any family, each angle drawn from [-pi, pi]."""
    family = draw(st.sampled_from(sorted(FAMILY_CLASSES)))
    n_angles = len(fields(FAMILY_CLASSES[family]))
    return make_model(family, [draw(angles) for _ in range(n_angles)])


@pytest.fixture(scope="session")
def default_zak_map():
    """zak_map(family, span=span) at the zak-map command's default grid,
    computed once per (family, span) for the whole session."""
    return functools.cache(lambda family, span: zak_map(family, span=span))


@dataclass(frozen=True)
class SwappedCoinWalk(WalkModel):
    """A test-only two-angle family, declared by its fields and its step
    alone: the non-commuting walk's coins in the opposite order, R_y
    first, then R_x, then the full shift."""

    theta: float
    phi: float

    family = "swapped-coins"

    @staticmethod
    def step(theta, phi):
        return (rotation_y(theta), rotation_x(phi), (1, -1))


def swapped_coin_unitary(theta, phi, k):
    """SwappedCoinWalk's U(k) = T(k) R_x(phi) R_y(theta), built densely
    here, independent of the model code."""
    ry = np.array([[np.cos(theta), -np.sin(theta)],
                   [np.sin(theta), np.cos(theta)]])
    rx = np.array([[np.cos(phi), 1j * np.sin(phi)],
                   [1j * np.sin(phi), np.cos(phi)]])
    shift = np.diag([np.exp(1j * k), np.exp(-1j * k)])
    return shift @ rx @ ry


@contextlib.contextmanager
def family_registered(cls):
    """A test-only family class as a two-angle family of qwgeom.models
    while the block runs (usable inside Hypothesis tests, unlike a
    fixture)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(FAMILY_CLASSES, cls.family, cls)
        mp.setattr(models, "TWO_ANGLE_FAMILIES",
                   (*models.TWO_ANGLE_FAMILIES, cls.family))
        yield


def swapped_coins_registered():
    """SwappedCoinWalk registered while the block runs."""
    return family_registered(SwappedCoinWalk)


# The reference eigenstates and Wilson chain: a second eigenstate
# construction and a second Zak algorithm, independent of the Bloch
# ellipse that the package reads.  In band_eigenvector's gauge the lower
# spinor component of band s is real with sign -s, the gauge whose
# Wilson links zak._planar_phases sums as half solid angles.

OVERLAP_TOL = 1e-12


class DegeneratePointError(QwGeomError):
    """A Bloch vector had (near-)zero length where a direction was needed."""


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


def discrete_berry_phase(vectors: np.ndarray, closed: bool = False) -> float:
    """Overlap-chain (Wilson-line) phase sum_i arg<v_i|v_{i+1}>.

    vectors has shape (m, dim).  With closed=True the chain additionally
    wraps from the last vector back to the first.  Summing the per-link
    angles (instead of taking the angle of the product) keeps windings
    beyond (-pi, pi]; fold the result if only the folded phase matters.
    The sign convention (Im log of the overlap product, not its negative)
    is the one under which the band-resolved closed-form integrand of
    zak_noncommuting_integrand integrates to the numeric Zak phase of the
    same band.  Raises OrthogonalStatesError when any consecutive overlap
    has magnitude below 1e-12.
    """
    v = np.asarray(vectors)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("vectors must have shape (m, dim) with m >= 2")
    overlaps = np.sum(np.conj(v[:-1]) * v[1:], axis=1)
    if closed:
        overlaps = np.concatenate([overlaps, [np.dot(np.conj(v[-1]), v[0])]])
    if np.any(np.abs(overlaps) < OVERLAP_TOL):
        raise OrthogonalStatesError("consecutive states are orthogonal; "
                                    "phase chain is undefined")
    return float(np.sum(np.angle(overlaps)))


# The whole-array sphere transport and fan: each samples its curve's
# 2 steps + 1 points in one array and reduces them at once.  The package
# streams the samples in blocks; tests check it against these.


def _check_closed(curve: SphereCurve) -> None:
    if np.linalg.norm(curve.point(0.0) - curve.point(1.0)) > CLOSURE_TOL:
        raise CurveNotSupportedError(
            "curve endpoints differ on the sphere; loop is not closed")


def _polygon_rotation(pts: np.ndarray, axis: np.ndarray) -> float:
    """Angle about axis of the transport along the geodesic polygon
    through the rows of pts: each segment a -> b is the minimal rotation
    (1 + a.b, a x b) / |a + b|, composed pairwise in log2 rounds.

    The quaternions are four component arrays w, x, y, z, and each
    Hamilton product p q is written out term by term, summed in the order
    np.sum and np.cross use on (n, 4) stacks of rows, so the angle equals
    that stacked form (oracle_polygon_rotation in test_holonomy) bit for
    bit.  holonomy._Polygon composes the same products block by block."""
    (ax, ay, az), (bx, by, bz) = pts[:-1].T, pts[1:].T
    w = 1.0 + (ax * bx + ay * by + az * bz)
    x, y, z = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    size = np.sqrt(w * w + x * x + y * y + z * z)
    if not np.all(size > CLOSURE_TOL):
        raise CurveNotSupportedError(
            "consecutive curve samples are antipodal or not finite; "
            "the geodesic between them is undefined")
    q = [c / size for c in (w, x, y, z)]
    while len(q[0]) > 1:
        if len(q[0]) % 2:
            q = [np.append(c, e) for c, e in zip(q, (1.0, 0.0, 0.0, 0.0))]
        (pw, px, py, pz), (qw, qx, qy, qz) = ([c[1::2] for c in q],
                                              [c[0::2] for c in q])
        q = [pw * qw - (px * qx + py * qy + pz * qz),
             pw * qx + qw * px + (py * qz - pz * qy),
             pw * qy + qw * py + (pz * qx - px * qz),
             pw * qz + qw * pz + (px * qy - py * qx)]
    w, x, y, z = (c[0] for c in q)
    return 2.0 * math.atan2(float(np.dot([x, y, z], axis)), w)


def parallel_transport(curve: SphereCurve, v0: TangentVector,
                       steps: int = 10_000) -> tuple[TangentVector, float]:
    """Transport v0 around a closed curve; return (v_final, rotation_angle).

    Samples the curve once at t = j / (2 steps), j = 0 .. 2 steps, and
    transports exactly along the geodesic polygon through the samples.
    Its holonomy differs from the curve's by O(steps^-2); one Richardson
    step against the polygon through every other sample removes that
    term (smooth loops: about 1e-12 at 2000 steps, 1e-14 at 20 000).
    rotation_angle is the signed angle from v0 to v_final about the
    outward base point r(0), positive counterclockwise seen from outside
    the sphere, folded to (-pi, pi].  Consecutive samples that are
    antipodal (or not finite) raise CurveNotSupportedError.
    """
    if steps < 100:
        raise ValueError("steps must be at least 100")
    _check_closed(curve)
    r0 = curve.point(0.0)
    if np.linalg.norm(v0.base - r0) > CLOSURE_TOL:
        raise CurveNotSupportedError("v0 is not attached to the curve start")
    pts = curve.point(np.linspace(0.0, 1.0, 2 * steps + 1))
    fine = _polygon_rotation(pts, r0)
    coarse = _polygon_rotation(pts[::2], r0)
    alpha = fine + fold_angle(fine - coarse) / 3.0
    v_final = math.cos(alpha) * v0.v + math.sin(alpha) * np.cross(r0, v0.v)
    return TangentVector(v=v_final, base=r0), fold_angle(alpha)


def _fan_area(pts: np.ndarray) -> float:
    """Signed area of the geodesic polygon through the rows of pts."""
    return 2.0 * float(np.sum(half_solid_angle(_NORTH, pts[:-1].T, pts[1:].T)))


def solid_angle(curve: SphereCurve, steps: int = 20_000) -> float:
    """Signed solid angle enclosed by a closed curve, seen from +z (the
    area the arc from +z to the curve sweeps, counterclockwise positive).

    Sums the triangles (+z, r_j, r_j+1) of the polygon through the
    2 steps + 1 samples of parallel_transport, with the same Richardson
    step against every other sample (smooth loops: about 1e-14 at
    20 000 steps).  Any closed curve is accepted, except one with a
    sample at -z, where the fan degenerates: CurveNotSupportedError.
    """
    if steps < 8:
        raise ValueError("steps must be at least 8")
    _check_closed(curve)
    pts = curve.point(np.linspace(0.0, 1.0, 2 * steps + 1))
    if not np.all(np.linalg.norm(pts + _NORTH, axis=1) > CLOSURE_TOL):
        raise CurveNotSupportedError(
            "curve passes through the south pole -z, or is not finite")
    fine, coarse = _fan_area(pts), _fan_area(pts[::2])
    # The fans agree modulo 4 pi: a coarse edge can pass -z on the other side.
    return fine + 2.0 * fold_angle(0.5 * (fine - coarse)) / 3.0
