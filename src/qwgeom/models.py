"""One-dimensional discrete-time quantum walk families.

Three coined walks on the line.  Each family is declared once, as a
frozen dataclass whose fields are its coin angles, and its step_ops()
lists in order of action the coins (2x2 matrices) and spin-dependent
shifts of one step.  A shift is a pair (du, dv): the sites moved by the
upper and by the lower spin component.  The full shift is (1, -1), with
momentum-space form T(k) = diag(e^{+ik}, e^{-ik}); the split-step
family uses the partial shifts (0, -1) and (1, 0), i.e.
T_V(k) = diag(1, e^{-ik}) and T_H(k) = diag(e^{+ik}, 1).  The momentum
unitary U(k), the position-space step (walk.step) and the CLI angle
flags are all derived from that declaration.

Every family's U(k) is an SU(2) element, so it can be written as
exp(-i E(k) n(k) . sigma) with quasi-energy E in [0, pi] and a unit
Bloch vector n(k).  Each family also carries closed forms for the
dispersion cos E(k) and the (unnormalized) Bloch components, the fast
paths used by scans; the unnormalized components N(k) defined by
U(k) = cos E - i (N . sigma) satisfy |N(k)| = sin E(k) identically.
A two-angle family also carries its exact gap envelope: max_k |cos E|
and a momentum k* reaching it, as closed forms in the angles, from
which sampled_band_edge reads the band edge of a sampled momentum
window.  The split-step walk also declares its chiral axis: the normal
of the plane through the origin that holds its Bloch curve, continuous
in the angles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import GaplessPointError
from .spin import IDENTITY_2, rotation_x, rotation_y
from .utils import canonical_angle

DIRECTION_NORM_TOL = 1e-12


def angular_coeffs(theta: float, phi: float) -> tuple[float, float, float, float]:
    """Products (a, b, c, d) of sines/cosines of the two coin angles.

    a = sin(phi) cos(theta), b = cos(phi) sin(theta),
    c = sin(phi) sin(theta), d = cos(phi) cos(theta).
    They satisfy a^2 + b^2 + c^2 + d^2 = 1 and parametrize everything
    about the non-commuting walk: cos E = d cos k + c sin k and the
    Bloch components below.
    """
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return sp * ct, cp * st, sp * st, cp * ct


def standard_numerators(theta, k):
    """Unnormalized Bloch components of the standard walk, shape (..., 3)."""
    theta = np.asarray(theta, dtype=float)
    k = np.asarray(k, dtype=float)
    st, ct = np.sin(theta), np.cos(theta)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(np.broadcast_arrays(sk * st, ck * st, -sk * ct), axis=-1)


def standard_cos_energy(theta, k):
    return np.cos(k) * np.cos(theta)


def noncommuting_numerators(theta, phi, k):
    """Unnormalized Bloch components of the non-commuting walk.

    N1 = -a cos k + b sin k
    N2 =  b cos k + a sin k
    N3 =  c cos k - d sin k
    with (a, b, c, d) = angular_coeffs(theta, phi).  Broadcasts over all
    three arguments; the result has shape broadcast(...) + (3,).
    """
    a, b, c, d = angular_coeffs(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    k = np.asarray(k, dtype=float)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(
        np.broadcast_arrays(-a * ck + b * sk, b * ck + a * sk, c * ck - d * sk),
        axis=-1,
    )


def noncommuting_cos_energy(theta, phi, k):
    _, _, c, d = angular_coeffs(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    return np.cos(k) * d + np.sin(k) * c


def noncommuting_envelope(theta, phi):
    """Exact band-edge envelope (max_k |cos E|, k*) of the non-commuting walk.

    cos E = d cos k + c sin k peaks at sqrt(c^2 + d^2) for
    k* = atan2(c, d), where cos E is +max, so a touching found there sits
    at E = 0.  Broadcasts over both angles.
    """
    _, _, c, d = angular_coeffs(np.asarray(theta, dtype=float), np.asarray(phi, dtype=float))
    return np.hypot(c, d), np.arctan2(c, d)


def splitstep_numerators(theta1, theta2, k):
    """Unnormalized Bloch components of the split-step walk.

    N1 = sin k sin(theta1) cos(theta2)
    N2 = cos k sin(theta1) cos(theta2) + sin(theta2) cos(theta1)
    N3 = -sin k cos(theta1) cos(theta2)
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    k = np.asarray(k, dtype=float)
    s1, c1 = np.sin(t1), np.cos(t1)
    s2, c2 = np.sin(t2), np.cos(t2)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(
        np.broadcast_arrays(sk * s1 * c2, ck * s1 * c2 + s2 * c1, -sk * c1 * c2),
        axis=-1,
    )


def splitstep_cos_energy(theta1, theta2, k):
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    return np.cos(k) * np.cos(t1) * np.cos(t2) - np.sin(t1) * np.sin(t2)


def splitstep_envelope(theta1, theta2):
    """Exact band-edge envelope (max_k |cos E|, k*) of the split-step walk.

    cos E = cos k cos(theta1) cos(theta2) - sin(theta1) sin(theta2) is
    extremal only at k = 0 and k = pi, so the envelope is
    |cos(theta1) cos(theta2)| + |sin(theta1) sin(theta2)|, reached at
    k* = 0 when the two products differ in sign and at k* = pi otherwise.
    """
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    cc = np.cos(t1) * np.cos(t2)
    ss = np.sin(t1) * np.sin(t2)
    return np.abs(cc) + np.abs(ss), np.where(cc * ss > 0.0, np.pi, 0.0)


# Largest cell count of a sampled window: up to 2^53 every grid index and
# momentum lo + j (hi - lo) / cells is exact in float arithmetic.
MAX_CELLS = 2**53


def sampled_band_edge(family: str, a1, a2, lo: float, hi: float, cells: int):
    """Largest |cos E| of a two-angle family over the momenta
    np.linspace(lo, hi, cells + 1), and the first of them reaching it,
    per node of the broadcast angle arrays a1, a2.

    cos E is a first harmonic plus a constant, so over an arc its
    sampled |cos E| peaks on a grid neighbour of the envelope's k* or
    k* + pi, or at an end of the arc.  Those four neighbours and lo are
    evaluated, whatever the cell count, so no grid is built: a momentum
    is lo + j (hi - lo) / cells, and hi itself at j = cells, as linspace
    gives it.  hi is never needed on its own: on the half zone whichever
    of k* and k* + pi falls outside the window is clamped to cell
    cells - 1, whose neighbour is hi; on the full zone |cos E(pi)| ties
    |cos E(-pi)| (split-step) or, by the sign of the sin k term, does not
    beat it for a k* near +-pi (non-commuting).  The cell index is wrapped
    on the circle as an integer, so 2 pi / (hi - lo) must be whole.  Ties
    go to the lowest grid index.
    """
    cls = two_angle_class(family)
    turns = 2.0 * np.pi / (hi - lo)
    if turns != round(turns) or not 1 <= cells <= MAX_CELLS:
        raise ValueError("the window must divide the zone into 1 to 2**53 cells")
    k_star = cls.envelope(a1, a2)[1]
    k = np.stack([k_star, k_star + np.pi])
    j = np.floor((k - lo) * (cells / (hi - lo))).astype(np.intp)
    j %= cells * round(turns)
    np.minimum(j, cells - 1, out=j)
    idx = np.concatenate([j, j + 1, np.zeros_like(j[:1])])
    step = (hi - lo) / cells
    ks = idx * step + lo
    ks[idx == cells] = hi
    c = np.abs(cls.dispersion(a1, a2, ks))
    best = c.max(axis=0)
    first = np.where(c == best, idx, cells).min(axis=0)
    return best, np.where(first == cells, hi, first * step + lo)


# Spin-dependent shifts (du, dv): the sites moved by the upper (H) and by
# the lower (V) spin component.
SHIFT = (1, -1)
SHIFT_V = (0, -1)
SHIFT_H = (1, 0)


class WalkModel:
    """Everything a walk family derives from its declaration.

    A family is a frozen dataclass subclass whose fields are its coin
    angles, sets its closed forms numerators(*angles, k) and
    dispersion(*angles, k) (a two-angle family also envelope(*angles))
    as static class attributes, and lists its step in step_ops().
    Angles are canonicalised here, and the momentum unitary is folded
    from step_ops().
    """

    family = "abstract"
    numerators = None
    dispersion = None
    envelope = None

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name,
                               canonical_angle(getattr(self, f.name)))

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    @property
    def chiral_axis(self):
        """Unit normal of the plane through the origin that holds N(k) for
        every k, continuous in the angles, or None where the family
        declares none."""
        return None

    def step_ops(self) -> tuple:
        """Coins (2x2 arrays) and shifts (du, dv), in the order they act."""
        raise NotImplementedError

    def quasi_energy(self, k):
        """Quasi-energy band E(k) in [0, pi] (element-wise arccos)."""
        return np.arccos(np.clip(self.cos_energy(k), -1.0, 1.0))

    def gap(self, k):
        """Distance 1 - |cos E(k)| of the dispersion from the band edges.

        Zero exactly where the two quasi-energy bands touch (E = 0 or pi).
        """
        return 1.0 - np.abs(self.cos_energy(k))

    def bloch_vector(self, k):
        """Unit Bloch vector n(k) = N(k) / sin E(k), shape (..., 3).

        Raises GaplessPointError where sin E is below 1e-12, since the
        direction is undefined at a band touching.
        """
        numer = self.bloch_numerators(k)
        norm = np.sqrt(np.sum(numer * numer, axis=-1))
        if np.any(norm < DIRECTION_NORM_TOL):
            raise GaplessPointError(
                f"Bloch direction undefined at a gapless momentum of {self!r}"
            )
        return numer / norm[..., None]

    def momentum_unitary(self, k: float) -> np.ndarray:
        """One-step unitary U(k) at a single momentum, shape (2, 2)."""
        return self.momentum_unitaries(np.asarray([float(k)]))[0]

    def bloch_numerators(self, k):
        return self.numerators(*self.angles, k)

    def cos_energy(self, k):
        return self.dispersion(*self.angles, k)

    def momentum_unitaries(self, ks):
        """U(k) for every momentum in ks, shape ks.shape + (2, 2).

        Folds step_ops(): a coin left-multiplies, and a shift (du, dv)
        left-multiplies by diag(e^{i du k}, e^{i dv k}).
        """
        ks = np.asarray(ks, dtype=float)
        u = np.broadcast_to(IDENTITY_2, ks.shape + (2, 2))
        for op in self.step_ops():
            if isinstance(op, tuple):
                phases = np.exp(1j * np.multiply.outer(ks, op))
                u = phases[..., None] * u
            else:
                u = op @ u
        return u


@dataclass(frozen=True)
class StandardWalk(WalkModel):
    """Shift times a single R_y(theta) coin: U(k) = T(k) R_y(theta)."""

    theta: float

    family = "standard"
    numerators = staticmethod(standard_numerators)
    dispersion = staticmethod(standard_cos_energy)

    @property
    def chiral_axis(self):
        """(cos theta, 0, sin theta), normal to N(k) at every k."""
        return np.array([np.cos(self.theta), 0.0, np.sin(self.theta)])

    def step_ops(self):
        return (rotation_y(self.theta), SHIFT)


@dataclass(frozen=True)
class NonCommutingWalk(WalkModel):
    """Shift times two non-commuting coins: U(k) = T(k) R_y(theta) R_x(phi).

    R_x acts first on the state, then R_y, then the spin-dependent shift;
    the two are declared as their product, one coin.  Setting phi = 0
    recovers StandardWalk(theta) exactly.
    """

    theta: float
    phi: float

    family = "noncommuting"
    numerators = staticmethod(noncommuting_numerators)
    dispersion = staticmethod(noncommuting_cos_energy)
    envelope = staticmethod(noncommuting_envelope)

    def step_ops(self):
        return (rotation_y(self.theta) @ rotation_x(self.phi), SHIFT)


@dataclass(frozen=True)
class SplitStepWalk(WalkModel):
    """Two coins interleaved with partial shifts.

    One step applies, in order: R_y(theta1), the down-movers' shift
    (x -> x - 1 on the lower spin component), R_y(theta2), then the
    up-movers' shift (x -> x + 1 on the upper component).  In momentum
    space U(k) = T_H(k) R_y(theta2) T_V(k) R_y(theta1).
    """

    theta1: float
    theta2: float

    family = "splitstep"
    numerators = staticmethod(splitstep_numerators)
    dispersion = staticmethod(splitstep_cos_energy)
    envelope = staticmethod(splitstep_envelope)

    @property
    def chiral_axis(self):
        """(cos theta1, 0, sin theta1), normal to N(k) at every k."""
        return np.array([np.cos(self.theta1), 0.0, np.sin(self.theta1)])

    def step_ops(self):
        return (rotation_y(self.theta1), SHIFT_V, rotation_y(self.theta2), SHIFT_H)


FAMILY_CLASSES = {cls.family: cls
                  for cls in (StandardWalk, NonCommutingWalk, SplitStepWalk)}

TWO_ANGLE_FAMILIES = tuple(name for name, cls in FAMILY_CLASSES.items()
                           if len(fields(cls)) == 2)


def make_model(family: str, angles) -> WalkModel:
    """Build a walk model from a family name and its angle list."""
    try:
        cls = FAMILY_CLASSES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{sorted(FAMILY_CLASSES)}") from None
    angles = tuple(float(a) for a in angles)
    expected = len(fields(cls))
    if len(angles) != expected:
        raise ValueError(f"family {family!r} takes {expected} angle(s), got {len(angles)}")
    return cls(*angles)


def two_angle_class(family: str):
    """The family class of a two-angle family name; its static
    numerators, dispersion and envelope take (a1, a2, ...)."""
    if family not in TWO_ANGLE_FAMILIES:
        raise ValueError(f"family {family!r} is not a two-angle family")
    return FAMILY_CLASSES[family]
