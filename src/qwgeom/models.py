"""One-dimensional discrete-time quantum walk families.

Each family is declared once, as a frozen dataclass whose fields are its
coin angles and whose static step(*angles) lists in order of action the
coins (2x2 matrices, stacked with the matrix axes last for angle arrays)
and shifts of one step.  A shift (du, dv) moves the upper spin component
du sites and the lower dv; (1, -1) is T(k) = diag(e^{ik}, e^{-ik}).  The
position-space walk (walk.trajectory), the CLI angle flags and all below
derive from that declaration.  Multiplied out as a Laurent polynomial in
e^{ik}, a step gives U(k) = A e^{ik} + B + C e^{-ik} with no momentum
sampled.  U = cos E - i N . sigma is in SU(2), |N| = sin E, so
cos E = Re tr U / 2 = alpha + beta cos k + gamma sin k, with
alpha = Re tr B / 2, beta = Re tr(A + C) / 2, gamma = -Im tr(A - C) / 2,
and the Bloch components N_j = -Im tr(sigma_j U) / 2 are first harmonics
too.  The exact gap envelope max_k |cos E| is |alpha| + hypot(beta,
gamma), at k* = atan2(gamma, beta), turned by pi where alpha < 0.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import GaplessPointError
from .spin import rotation_x, rotation_y
from .utils import canonical_angle

DIRECTION_NORM_TOL = 1e-12


def _parts(coin) -> dict:
    """{(r, j, q): part q (0 real, 1 imaginary) of a coin's entry (r, j)},
    leaving out the parts that are zero at every angle."""
    c = np.ascontiguousarray(coin)
    if c.ndim == 2:
        return {(r, j, q): v for r, row in enumerate(c.tolist()) for j, z
                in enumerate(row) for q, v in enumerate((z.real, z.imag)) if v}
    live = c.reshape(-1, 4).view(float).any(axis=0).reshape(2, 2, 2)
    return {(r, j, q): (c.real, c.imag)[q][..., r, j]
            for r, j, q in zip(*np.nonzero(live))}


def _laurent(ops, diagonal: bool = False) -> dict:
    """{(p, r, j, q): part q of entry (r, j) of P_p} for a step's ops, with
    U(k) = sum_p P_p e^{ipk}; parts that are zero at every angle are left
    out.  With diagonal, the last coin forms only the diagonal entries,
    all that tr P_p reads."""
    last = max(i for i, op in enumerate(ops) if not isinstance(op, tuple))
    terms = {(0, 0, 0, 0): 1.0, (0, 1, 1, 0): 1.0}
    for i, op in enumerate(ops):
        if isinstance(op, tuple):
            terms = {(p + op[r], r, j, q): x for (p, r, j, q), x in terms.items()}
            continue
        new = {}
        for (r, s, q1), c in _parts(op).items():
            for (p, s2, j, q2), x in terms.items():
                if s2 != s or diagonal and i == last and r != j:
                    continue
                key = (p, r, j, q1 ^ q2)
                term = -c * x if q1 & q2 else c * x  # i * i = -1
                new[key] = new[key] + term if key in new else term
        terms = new
    if any(abs(key[0]) > 1 for key in terms):
        raise ValueError("a step moves a spin component more than one site")
    return terms


# tr(S P) = sum of i^n P[r][j] over {(r, j): n}, for S = 1, i sigma_x,
# i sigma_y and i sigma_z; half its real part, summed over U's
# coefficients, is cos E, N_x, N_y and N_z.
_TRACES = ({(0, 0): 0, (1, 1): 0}, {(0, 1): 1, (1, 0): 1},
           {(1, 0): 0, (0, 1): 2}, {(0, 0): 1, (1, 1): 3})


def _harmonics(terms: dict, trace: dict) -> dict:
    """{0: h0, 1: hc, 2: hs} with Re sum_p tr(S P_p) e^{ipk} / 2 =
    h0 + hc cos k + hs sin k, the zero ones left out."""
    h = {}
    for (p, r, j, q), x in terms.items():
        if (r, j) in trace:
            # x i^n e^{ipk} has the real part
            # x (cos(n pi/2) cos k - p sin(n pi/2) sin k), p = 0 or +-1.
            n = (trace[r, j] + q) % 4
            slot, sign = (1 if p else 0, 1 - n) if n % 2 == 0 else (2, p * (n - 2))
            if sign:
                term = x if sign > 0 else -x
                h[slot] = h[slot] + term if slot in h else term
    return {slot: 0.5 * v for slot, v in h.items()}


def _fourier(harmonics, k, shape) -> list:
    """Each {0: h0, 1: hc, 2: hs} as h0 + hc cos k + hs sin k, shaped."""
    k = np.asarray(k, dtype=float)
    out = [None] * len(harmonics)
    for slot, wave in ((1, np.cos), (2, np.sin), (0, None)):
        w = wave(k) if wave and any(slot in h for h in harmonics) else None
        for i, h in enumerate(harmonics):
            if slot in h:
                term = h[slot] if wave is None else h[slot] * w
                out[i] = term if out[i] is None else out[i] + term
    return [v if v is not None and np.shape(v) == shape else
            np.broadcast_to(0.0 if v is None else v, shape) for v in out]


def _edge(h: dict, shape):
    """max_k |cos E| and a k* in [-pi, pi] reaching it, for the harmonics
    h of cos E; with no sin k term, k* is 0 or pi without an arctangent."""
    alpha, beta, gamma = h.get(0), h.get(1, 0.0), h.get(2)
    if gamma is None:
        peak, k_star, turn = np.abs(beta), 0.0, beta < 0.0
    else:
        peak, k_star, turn = np.hypot(beta, gamma), np.arctan2(gamma, beta), False
    if alpha is not None:
        peak, turn = np.abs(alpha) + peak, turn != (alpha < 0.0)
    if turn is not False:
        k_star = np.where(turn, k_star + np.pi, k_star)
        k_star = np.where(k_star > np.pi, k_star - 2.0 * np.pi, k_star)
    return np.broadcast_to(peak, shape), np.broadcast_to(k_star, shape)


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
    go to the lowest grid index.  The harmonics of cos E are derived once
    per call.
    """
    cls = two_angle_class(family)
    turns = 2.0 * np.pi / (hi - lo)
    if turns != round(turns) or not 1 <= cells <= MAX_CELLS:
        raise ValueError("the window must divide the zone into 1 to 2**53 cells")
    h = _harmonics(_laurent(cls.step(a1, a2), diagonal=True), _TRACES[0])
    k_star = _edge(h, np.broadcast(a1, a2).shape)[1]
    k = np.stack([k_star, k_star + np.pi])
    j = np.floor((k - lo) * (cells / (hi - lo))).astype(np.intp)
    j %= cells * round(turns)
    np.minimum(j, cells - 1, out=j)
    idx = np.concatenate([j, j + 1, np.zeros_like(j[:1])])
    step = (hi - lo) / cells
    ks = idx * step + lo
    ks[idx == cells] = hi
    c = np.abs(_fourier([h], ks, ks.shape)[0])
    best = c.max(axis=0)
    first = np.where(c == best, idx, cells).min(axis=0)
    return best, np.where(first == cells, hi, first * step + lo)


# Spin-dependent shifts (du, dv): the sites moved by the upper (H) and by
# the lower (V) spin component.
SHIFT = (1, -1)
SHIFT_V = (0, -1)
SHIFT_H = (1, 0)


class WalkModel:
    """Everything a walk family derives from its declaration: a frozen
    dataclass subclass whose fields are its coin angles (canonicalised
    here) and whose static step(*angles) lists its coins and shifts.
    The class methods numerators, dispersion and envelope broadcast over
    angle and momentum arrays; a model reads them at its own angles.
    """

    family = "abstract"

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

    @staticmethod
    def step(*angles) -> tuple:
        """Coins and shifts (du, dv) of one step, in the order they act."""
        raise NotImplementedError

    def step_ops(self) -> tuple:
        """The step at these angles, runs of coins multiplied into one."""
        ops = []
        for op in self.step(*self.angles):
            if ops and not isinstance(op, tuple) and not isinstance(ops[-1], tuple):
                ops[-1] = op @ ops[-1]
            else:
                ops.append(op)
        return tuple(ops)

    @classmethod
    def numerators(cls, *args):
        """Unnormalized Bloch components N(k) at the angles and momentum
        args = (*angles, k), broadcast, shape (..., 3)."""
        terms = _laurent(cls.step(*args[:-1]))
        return np.stack(_fourier([_harmonics(terms, tr) for tr in _TRACES[1:]],
                                 args[-1], np.broadcast(*args).shape), axis=-1)

    @classmethod
    def dispersion(cls, *args):
        """cos E(k) at the angles and momentum args = (*angles, k),
        broadcast."""
        terms = _laurent(cls.step(*args[:-1]), diagonal=True)
        return _fourier([_harmonics(terms, _TRACES[0])], args[-1],
                        np.broadcast(*args).shape)[0]

    @classmethod
    def envelope(cls, *angles):
        """Exact band-edge envelope (max_k |cos E|, k*) at the angles,
        broadcast; k* lies in [-pi, pi]."""
        terms = _laurent(cls.step(*angles), diagonal=True)
        return _edge(_harmonics(terms, _TRACES[0]), np.broadcast(*angles).shape)

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
        """U(k) = sum_p P_p e^{ipk} for every momentum in ks, shape
        ks.shape + (2, 2)."""
        ks = np.asarray(ks, dtype=float)
        u = np.zeros(ks.shape + (2, 2), dtype=complex)
        for (p, r, j, q), x in _laurent(self.step_ops()).items():
            u[..., r, j] += x * 1j**q * np.exp(1j * p * ks)
        return u


@dataclass(frozen=True)
class StandardWalk(WalkModel):
    """Shift times a single R_y(theta) coin: U(k) = T(k) R_y(theta)."""

    theta: float

    family = "standard"

    @property
    def chiral_axis(self):
        """(cos theta, 0, sin theta), normal to N(k) at every k."""
        return np.array([np.cos(self.theta), 0.0, np.sin(self.theta)])

    @staticmethod
    def step(theta):
        return (rotation_y(theta), SHIFT)


@dataclass(frozen=True)
class NonCommutingWalk(WalkModel):
    """Shift times two non-commuting coins: U(k) = T(k) R_y(theta) R_x(phi).

    R_x acts first on the state, then R_y, then the spin-dependent shift.
    Setting phi = 0 recovers StandardWalk(theta) exactly.
    """

    theta: float
    phi: float

    family = "noncommuting"

    @staticmethod
    def step(theta, phi):
        return (rotation_x(phi), rotation_y(theta), SHIFT)


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

    @property
    def chiral_axis(self):
        """(cos theta1, 0, sin theta1), normal to N(k) at every k."""
        return np.array([np.cos(self.theta1), 0.0, np.sin(self.theta1)])

    @staticmethod
    def step(theta1, theta2):
        return (rotation_y(theta1), SHIFT_V, rotation_y(theta2), SHIFT_H)


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
    """The family class of a two-angle family name; its class methods
    numerators, dispersion and envelope take (a1, a2, ...)."""
    if family not in TWO_ANGLE_FAMILIES:
        raise ValueError(f"family {family!r} is not a two-angle family")
    return FAMILY_CLASSES[family]
