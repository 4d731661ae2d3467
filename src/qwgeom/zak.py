"""Zak phases of the walk bands.

Every family's Bloch curve N(k) = n0 + nc cos k + ns sin k is an ellipse
in a plane through the origin (models.WalkModel.ellipse), so a band's
state moves on one great circle, and its Zak phase (Zak, PRL 62, 2747
(1989)) on a window about any k0 is exact from the window's ends alone
(_planar_phases).  zak_numeric, zak_map and zak_difference all read it
and refuse a window by one rule (_refused), whose sampled part alone
n_points sets, both from one fold of the step (WalkModel.harmonics);
the sampled Wilson chain the phase replaced is kept in the tests as its
oracle.  Phases are folded by utils.fold_angle (also
fold_angle_array here), so a phase within 1e-12 of +-pi reads +pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GaplessPointError
from .models import (MAX_CELLS, SplitStepWalk, WalkModel, _ellipse, _wave,
                     sampled_band_edge, two_angle_class)
from .spin import half_solid_angle
from .topology import CLOSING_GAP, SCAN_BLOCK_ROWS, ellipse_encloses_origin
from .utils import canonical_angle, fold_angle

PATH_GAP_TOL = 1e-6
_SOUTH = np.array([0.0, 0.0, -1.0])
# Largest |n0 . (nc x ns)| taken as planar; every family here gives 0.
PLANAR_TOL = 1e-12

SPAN_HALF = "half"
SPAN_FULL = "full"
# Half width of each span's momentum window.
_SPANS = {SPAN_HALF: 0.5 * np.pi, SPAN_FULL: np.pi}

fold_angle_array = fold_angle


@dataclass(frozen=True)
class ZakResult:
    """One Zak phase: band label, folded phase, and how it was computed."""

    band: int
    phase: float
    k_origin: float
    n_points: int
    model: WalkModel
    span: str


@dataclass(frozen=True)
class ZakMap:
    """Zak phases of both bands over a two-angle parameter grid.

    masked[i, j] is True where zak_numeric refuses the node's window
    (_refused), and the phases are NaN there.  The other phases do not
    depend on n_points (see zak_map).
    """

    family: str
    angles1: np.ndarray
    angles2: np.ndarray
    zak_plus: np.ndarray
    zak_minus: np.ndarray
    masked: np.ndarray
    n_points: int
    span: str


def _window(k_origin: float, n_points: int, span: str):
    """k_origin reduced into [-pi, pi], and the ends (lo, hi) of a span's
    window about it, which is sampled at n_points + 1 momenta."""
    if span not in _SPANS:
        raise ValueError(f"span must be 'half' or 'full', got {span!r}")
    if not 16 <= n_points <= MAX_CELLS or n_points % 2 != 0:
        raise ValueError("n_points must be an even integer in [16, 2**53]")
    half_width = _SPANS[span]
    # Reduced first: far from zero, adjacent momenta would round to one.
    k_origin = canonical_angle(k_origin)
    return k_origin, k_origin - half_width, k_origin + half_width


def _refused(h, window, n_points: int, span: str):
    """Whether the window (origin, lo, hi) of _window is gapless, per node
    of harmonics h (WalkModel.harmonics): one of its n_points + 1 momenta
    has gap < PATH_GAP_TOL (models.sampled_band_edge), or it holds k* or
    k* + pi, the only momenta that can close, with gap at most
    topology.CLOSING_GAP, k* + pi only where k* has such a gap too."""
    origin, lo, hi = window
    best, _, peak, k_star = sampled_band_edge(h, lo, hi, n_points)
    ks = np.stack([k_star, k_star + np.pi])
    closes = np.abs(fold_angle(ks - origin)) <= _SPANS[span]
    closes[1] &= 1.0 - np.abs(_wave(h[:1], ks[1])[0]) <= CLOSING_GAP
    return (1.0 - best < PATH_GAP_TOL) | (closes.any(axis=0)
                                         & (1.0 - peak <= CLOSING_GAP))


def zak_numeric(model: WalkModel, band: int, k_origin: float = 0.0,
                n_points: int = 2048, *, span: str = SPAN_HALF) -> ZakResult:
    """Zak phase of one band along a momentum window, read off the Bloch
    ellipse (_planar_phases), so n_points sets only the sampled refusal.

    The window is [k_origin - w/2, k_origin + w/2], w = pi for
    span="half" (the default) and 2 pi for span="full".  Raises
    GaplessPointError if one of its n_points + 1 uniform momenta
    (n_points even, in [16, 2**53]) has gap < 1e-6, read at five of them
    (models.sampled_band_edge), or it holds a closing (_refused, as
    zak_map masks); ValueError for a non-planar Bloch curve.
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    window = _window(k_origin, n_points, span)
    h = model.harmonics(*model.angles)
    if _refused(h, window, n_points, span):
        raise GaplessPointError(f"gapless momentum on the Zak path of {model!r}")
    plus, minus = _planar_phases(_ellipse(h), window[0], span, model.family)
    return ZakResult(band=band, phase=float(plus if band > 0 else minus),
                     k_origin=float(k_origin), n_points=n_points,
                     model=model, span=span)


def zak_difference(model_a: WalkModel, model_b: WalkModel, band: int,
                   k_origin: float = 0.0, n_points: int = 2048, *,
                   span: str = SPAN_HALF) -> float:
    """Zak phase of model_a minus that of model_b, folded into (-pi, pi].

    Computed over a common momentum window, so the origin dependence of
    the individual phases cancels and the difference is invariant under
    a shared shift of k_origin.
    """
    za = zak_numeric(model_a, band, k_origin, n_points, span=span)
    zb = zak_numeric(model_b, band, k_origin, n_points, span=span)
    return fold_angle(za.phase - zb.phase)


def _angular_coeffs(theta, phi):
    """(a, b, c, d) = sin phi (cos theta, 0, sin theta, 0) + cos phi (0,
    sin theta, 0, cos theta): the non-commuting cos E = d cos k + c sin k."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    return sp * ct, cp * st, sp * st, cp * ct


def zak_noncommuting_integrand(theta, phi, k, band: int):
    """Closed-form Zak integrand (a^2 + b^2) / D^2 of the non-commuting walk.

    D^2 = r(k)^2 - band * Nz(k) r(k), where r = |N| is the unnormalized
    Bloch-vector length and Nz its z component.  Integrating over the
    half zone [-pi/2, pi/2] reproduces zak_numeric for gapped parameters.
    Broadcasts over k; raises GaplessPointError where the gap(k) is below
    1e-9 or the denominator underflows (the chart pole of the band).
    """
    if band not in (+1, -1):
        raise ValueError("band must be +1 or -1")
    theta = float(theta)
    phi = float(phi)
    k = np.asarray(k, dtype=float)
    a, b, c, d = _angular_coeffs(theta, phi)
    sk, ck = np.sin(k), np.cos(k)
    nz = c * ck - d * sk
    r2 = a * a + b * b + c * c * ck * ck + d * d * sk * sk - 2.0 * sk * ck * c * d
    gap = 1.0 - np.abs(ck * d + sk * c)
    if np.any(gap <= 1e-9):
        raise GaplessPointError("integrand requested at a gapless momentum")
    d2 = r2 - band * nz * np.sqrt(r2)
    # Relative guard: when D^2 sits at the float cancellation floor of
    # r^2 - |Nz| r the ratio below would be noise, so refuse instead.
    if np.any(d2 < 1e-14 * r2):
        raise GaplessPointError("integrand denominator vanished (chart pole "
                                "of this band's eigenvector)")
    return (a * a + b * b) / d2


class SplitStepZak(NamedTuple):
    """Endpoint-form phase, verbatim published ratio, and planarity flag."""

    endpoint_form: float
    as_published: float | None
    planar: bool


def zak_splitstep_analytic(theta1: float, theta2: float) -> SplitStepZak:
    """In-plane endpoint form of the split-step Zak phase, plus the
    published closed form.

    endpoint_form is the in-plane angle phi(k) = atan2(ny, nx) swept
    between the half-zone endpoints, phi(-pi/2) - phi(pi/2), folded into
    (-pi, pi]; folded, the sweep depends only on its two ends, so no
    momentum between them is sampled.  It equals the Zak
    phase exactly when the Bloch curve lies in the xy plane (nz
    identically zero), which for this family means
    cos(theta1) * cos(theta2) = 0; the planar flag reports whether that
    holds within 1e-9, and off-plane angles are still evaluated so the
    published ratio below stays inspectable everywhere.  The in-plane
    part (A sin k, B + A cos k), A = sin(theta1) cos(theta2) and
    B = cos(theta1) sin(theta2), has |.|^2 = A^2 + B^2 + 2 A B cos k,
    smallest over the window at k = 0 or +-pi/2, so GaplessPointError is
    raised where it is below 1e-12 at one of those three momenta.

    as_published is the ratio tan(theta2)/tan(theta1) reported verbatim
    for reference, or None when tan(theta1) = 0 makes it undefined.  It
    is a ratio, not a phase, and no other computation here consumes it.
    """
    planar = bool(min(abs(np.cos(theta1)), abs(np.cos(theta2))) <= 1e-9)
    ks = np.array([-0.5 * np.pi, 0.0, 0.5 * np.pi])
    n = SplitStepWalk.numerators(theta1, theta2, ks)
    if np.any(np.hypot(n[:, 0], n[:, 1]) < 1e-12):
        raise GaplessPointError("in-plane Bloch component vanishes on the path; "
                                "endpoint form undefined")
    phi = np.arctan2(n[:, 1], n[:, 0])
    endpoint_form = fold_angle(phi[0] - phi[-1])
    t1 = np.tan(theta1)
    published = None if abs(t1) < 1e-15 else float(np.tan(theta2) / t1)
    return SplitStepZak(endpoint_form, published, planar)


def _planar_phases(ellipse, origin: float, span: str, family: str):
    """Both bands' Zak phases on the window about origin, per node of a
    family's Bloch ellipse N = n0 + nc cos k + ns sin k (the arrays
    (n0, nc, ns) of WalkModel.ellipse).  N is planar, so band s's
    state s n moves on one great circle, where two chains between the
    same ends differ by a multiple of pi: the full-zone phase is pi where
    the ellipse encloses the origin (pi |winding|), else 0, and the
    doubled half-zone phase is that of N(origin - pi/2) -> q ->
    N(origin + pi/2), whose ends are n0 -+ (ns cos origin - nc sin
    origin).  For the unit ends a, b and t = nc x ns, q = u +- v with
    u = a + b, v = t x (a - b) and u.v >= 0, so q.a = q.b = 1 + a.b +
    |t.(a x b)| >= 0, even for antipodal ends (the non-commuting walk's),
    and no link meets orthogonal states.  With band s's lower spinor
    component real of sign -s, each Wilson link arg<v_i|v_i+1> is
    spin.half_solid_angle(-z, s n_i, s n_i+1).  At the chart pole s n = +z
    a link reads 0 or +-pi where the gauge jumps, a multiple of pi that
    the doubling removes.  Raises ValueError if |n0.t| > PLANAR_TOL.
    """
    n0, nc, ns = ellipse
    t = np.cross(nc, ns)
    if np.any(np.abs(np.einsum("...i,...i", n0, t)) > PLANAR_TOL):
        raise ValueError(f"the Bloch curve of family {family!r} is not "
                         "planar, so its Zak phase has no closed form")
    if span == SPAN_FULL:
        phase = np.where(ellipse_encloses_origin(n0, nc, ns)[0], np.pi, 0.0)
        return phase, phase
    half_chord = ns * np.cos(origin) - nc * np.sin(origin)
    a, b = (e / np.sqrt(np.einsum("...i,...i", e, e))[..., None]
            for e in (n0 - half_chord, n0 + half_chord))
    u, v = a + b, np.cross(t, a - b)
    v[np.einsum("...i,...i", u, v) < 0.0] *= -1.0
    # q is not a unit vector; the unit a and b take the same rounding
    # step, which keeps zak-map's CSVs bit for bit.
    xyz = np.moveaxis(np.stack([a, u + v, b]), -1, 0)
    x, y, z = xyz
    a, q, b = np.moveaxis(xyz * (1.0 / np.sqrt(x * x + y * y + z * z)), 1, 0)
    return [fold_angle(2.0 * (half_solid_angle(_SOUTH, s * a, s * q)
                              + half_solid_angle(_SOUTH, s * q, s * b)))
            for s in (+1, -1)]


def zak_map(family: str, resolution: int = 201, n_points: int = 512, *,
            span: str = SPAN_HALF) -> ZakMap:
    """Zak phases of both bands over the [-pi, pi]^2 parameter square,
    on the window about k = 0.

    A node is masked (NaN phases) exactly where zak_numeric refuses its
    window (_refused): a sampled gap below 1e-6, which n_points sets, or
    an exact closing.  The other nodes' phases are zak_numeric's, within
    1.3e-14 of the sampled chain at the default size; a family whose
    Bloch curve is not planar at a live node raises ValueError.  The
    rows run topology.SCAN_BLOCK_ROWS at a time, one fold each, so the
    peak memory is that of the map and one block; the default map takes
    0.02-0.03 s (2-vCPU VM).
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    cls = two_angle_class(family)
    window = _window(0.0, n_points, span)
    angles = np.linspace(-np.pi, np.pi, resolution)
    shape = (resolution, resolution)
    plus, minus = np.full(shape, np.nan), np.full(shape, np.nan)
    masked = np.empty(shape, dtype=bool)
    for start in range(0, resolution, SCAN_BLOCK_ROWS):
        rows = slice(start, start + SCAN_BLOCK_ROWS)
        h = cls.harmonics(angles[rows, None], angles)
        masked[rows] = _refused(h, window, n_points, span)
        live = ~masked[rows]
        plus[rows][live], minus[rows][live] = _planar_phases(
            _ellipse(h[:, :, live]), 0.0, span, family)
    return ZakMap(family=family, angles1=angles, angles2=angles.copy(),
                  zak_plus=plus, zak_minus=minus, masked=masked,
                  n_points=n_points, span=span)

