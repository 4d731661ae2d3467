"""Parallel transport on the unit sphere, solid angles, overlap phases,
and the quantum geometric tensor of a parameterized state family.
A curve is closed when its ends meet within CLOSURE_TOL.  Angles are
folded by utils.fold_angle: (-pi, pi], +pi within 1e-12 of +-pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (CurveNotSupportedError, FiniteDifferenceError,
                     OrthogonalStatesError)
from .spin import half_solid_angle
from .utils import fold_angle

TANGENCY_TOL = 1e-10
CLOSURE_TOL = 1e-9
QGT_STEP_RANGE = (1e-7, 1e-3)  # accepted finite-difference widths h
# Peak bytes per parallel_transport step, from measured peak RSS growth of
# 240-250 bytes per step at 1e5-4e6 steps (Linux x86-64, numpy 2.4).
STEP_BYTES = 256
_NORTH = np.array([0.0, 0.0, 1.0])


def sphere_point(theta, phi) -> np.ndarray:
    """Unit vectors (sin t cos p, sin t sin p, cos t); broadcasts, xyz last."""
    theta, phi = np.broadcast_arrays(theta, phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


@dataclass(frozen=True)
class SphereCurve:
    """A curve t in [0, 1] -> (theta(t), phi(t)) on the unit sphere.  The
    parameterization must take a numpy array of t and return angles that
    broadcast against it; samplers call it once on their whole grid."""

    parameterization: Callable[[np.ndarray], tuple]

    def angles(self, t) -> tuple[np.ndarray, np.ndarray]:
        _, theta, phi = np.broadcast_arrays(t, *self.parameterization(t))
        return theta, phi

    def point(self, t) -> np.ndarray:
        return sphere_point(*self.angles(t))


def latitude_loop(theta0: float) -> SphereCurve:
    """Closed eastward loop at constant polar angle theta0."""
    return SphereCurve(lambda t: (theta0, 2.0 * math.pi * t))


@dataclass(frozen=True)
class TangentVector:
    """A vector attached to a point of the sphere, orthogonal to it."""

    v: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.v, dtype=float)
        base = np.asarray(self.base, dtype=float)
        if v.shape != (3,) or base.shape != (3,):
            raise ValueError("v and base must be 3-vectors")
        if abs(np.linalg.norm(base) - 1.0) > 1e-9:
            raise ValueError("base point must lie on the unit sphere")
        if abs(float(np.dot(v, base))) > TANGENCY_TOL:
            raise ValueError("vector is not tangent: v . base exceeds 1e-10")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "base", base)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.v))


def _check_closed(curve: SphereCurve) -> None:
    if np.linalg.norm(curve.point(0.0) - curve.point(1.0)) > CLOSURE_TOL:
        raise CurveNotSupportedError(
            "curve endpoints differ on the sphere; loop is not closed")


def _quaternion_product(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise Hamilton products p q of quaternion stacks (w, x, y, z)."""
    pw, pv = p[:, :1], p[:, 1:]
    qw, qv = q[:, :1], q[:, 1:]
    w = pw * qw - np.sum(pv * qv, axis=1, keepdims=True)
    return np.hstack([w, pw * qv + qw * pv + np.cross(pv, qv)])


def _polygon_rotation(pts: np.ndarray, axis: np.ndarray) -> float:
    """Angle about axis of the transport along the geodesic polygon
    through the rows of pts: each segment a -> b is the minimal rotation
    (1 + a.b, a x b) / |a + b|, composed pairwise in log2 rounds."""
    a, b = pts[:-1], pts[1:]
    q = np.hstack([1.0 + np.sum(a * b, axis=1, keepdims=True), np.cross(a, b)])
    size = np.linalg.norm(q, axis=1, keepdims=True)
    if not np.all(size > CLOSURE_TOL):
        raise CurveNotSupportedError(
            "consecutive curve samples are antipodal or not finite; "
            "the geodesic between them is undefined")
    q = q / size
    while len(q) > 1:
        if len(q) % 2:
            q = np.vstack([q, [1.0, 0.0, 0.0, 0.0]])
        q = _quaternion_product(q[1::2], q[0::2])
    return 2.0 * math.atan2(float(np.dot(q[0, 1:], axis)), q[0, 0])


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


def berry_overlap_phase(psi_initial: np.ndarray, psi_final: np.ndarray) -> float:
    """Phase arg<psi_initial|psi_final> in (-pi, pi] of two unit states."""
    a = _checked_state(psi_initial)
    b = _checked_state(psi_final)
    overlap = complex(np.vdot(a, b))
    if abs(overlap) <= 1e-9:
        raise OrthogonalStatesError("overlap phase of orthogonal states "
                                    "is undefined")
    return fold_angle(math.atan2(overlap.imag, overlap.real))


def state_distance(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """Gauge-invariant distance 1 - |<psi1|psi2>|^2 of two unit states."""
    a = _checked_state(psi1)
    b = _checked_state(psi2)
    val = 1.0 - abs(complex(np.vdot(a, b))) ** 2
    return min(1.0, max(0.0, float(val)))


def _checked_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise ValueError("states must be 1-d complex vectors")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("states must be normalized")
    return psi


@dataclass(frozen=True)
class GeometricTensor:
    """Metric and curvature parts of the quantum geometric tensor.

    g is the real symmetric metric, curvature the real antisymmetric
    matrix with entries 2 Im T_ij (often called V), both 2x2 here.
    error_bound estimates the finite-difference error from the spread
    between the two stencil widths entering the Richardson step.
    """

    g: np.ndarray
    curvature: np.ndarray
    params: tuple[float, float]
    error_bound: float = field(default=0.0)


def _projected_tensor(family, at, h: float) -> np.ndarray:
    x1, x2 = at

    def state(a: float, b: float) -> np.ndarray:
        psi = np.asarray(family(a, b), dtype=complex)
        return psi / np.linalg.norm(psi)

    psi0 = state(x1, x2)
    d1 = (state(x1 + h, x2) - state(x1 - h, x2)) / (2.0 * h)
    d2 = (state(x1, x2 + h) - state(x1, x2 - h)) / (2.0 * h)
    t = np.empty((2, 2), dtype=complex)
    for i, di in enumerate((d1, d2)):
        for j, dj in enumerate((d1, d2)):
            t[i, j] = np.vdot(di, dj) - np.vdot(di, psi0) * np.vdot(psi0, dj)
    return t


def quantum_geometric_tensor(family, at: tuple[float, float],
                             h: float = 1e-4) -> GeometricTensor:
    """Finite-difference quantum geometric tensor of a two-parameter
    family of states at one parameter point.

    family is a callable (x1, x2) -> complex state vector (any fixed
    dimension; normalization is applied internally, and gauge changes
    move the result only at the stencil-error level).  Central differences at
    widths h and h/2 are combined by one Richardson step; their
    disagreement, divided by 3, is the reported error bound.  h must lie
    in [1e-7, 1e-3]; a disagreement above 1e-4 raises
    FiniteDifferenceError (cancellation or non-smooth family).  So does
    a parameter point where rounding moves any stencil offset
    (x +- w) - x, for w = h and h/2, off +-w by more than 1e-6 w: at
    large |x| the widths shrink or collapse together, and the two
    Richardson widths then agree on a wrong tensor.  Inside [-pi, pi]
    the offsets stay within 3e-9 w for every accepted h.
    """
    lo, hi = QGT_STEP_RANGE
    if not lo <= h <= hi:
        raise ValueError(f"h must lie in [{lo:g}, {hi:g}]")
    widths = np.array([h, -h, 0.5 * h, -0.5 * h])
    x = np.array(at, dtype=float)[:, None]
    distortion = float(np.max(np.abs((x + widths) - x - widths)
                              / np.abs(widths)))
    if distortion > 1e-6:
        raise FiniteDifferenceError(
            f"rounding moves a stencil offset by {distortion:.1e} of its "
            f"width at parameters {tuple(map(float, at))}, over 1e-6")
    coarse = _projected_tensor(family, at, h)
    fine = _projected_tensor(family, at, 0.5 * h)
    disagreement = float(np.max(np.abs(fine - coarse)))
    if disagreement > 1e-4:
        raise FiniteDifferenceError(
            f"stencil disagreement {disagreement:.3e} exceeds 1e-4; "
            "adjust h or check the family for kinks")
    t = (4.0 * fine - coarse) / 3.0
    g = 0.5 * (t.real + t.real.T)
    curvature = t.imag - t.imag.T
    return GeometricTensor(g=g, curvature=curvature,
                           params=(float(at[0]), float(at[1])),
                           error_bound=disagreement / 3.0)
