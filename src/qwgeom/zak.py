"""Zak phases of the walk bands.

The workhorse is a discrete Wilson-line (overlap-product) Berry phase,
which is gauge robust by construction; each link is a spherical-triangle
area of real unit Bloch vectors with its apex at -z.  One kernel
(_wilson_phases) normalises the chain and checks its overlaps once and
shares each link's in-plane terms between the two bands; zak_numeric
asks it for one band.  The default integration window is the
half zone [k0 - pi/2, k0 + pi/2]; the reported phase doubles the
raw Wilson-line value there, which reproduces both the closed-form
integrand of the non-commuting family and the known trivial value pi
(see zak_noncommuting_integrand).  Over the full zone the Bloch curve
is periodic and the undoubled Wilson loop is reported.

zak_numeric samples the window; zak_map does not.  Both two-angle
families have exact per-node phases on the window about k = 0
(_noncommuting_phases, and _splitstep_phases, a chain of 3 or 5
momenta), within 6.2e-15 of the sampled chain on the default 201^2 x
512 map, which stays their test oracle.  zak_map's n_points sets only
its sampled gap mask.
Phases are folded by utils.fold_angle (also fold_angle_array here), so
a phase within 1e-12 of +-pi reads +pi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GaplessPointError, OrthogonalStatesError
from .models import MAX_CELLS, SplitStepWalk, WalkModel, sampled_band_edge
from .spin import half_solid_angle
from .topology import SCAN_BLOCK_ROWS
from .utils import canonical_angle, fold_angle

PATH_GAP_TOL = 1e-6
OVERLAP_TOL = 1e-12
CONVERGENCE_FLAG_TOL = 1e-4
# Peak bytes per momentum sample of zak_numeric's Wilson chain (measured
# 89-109 from peak RSS growth at 2e4-3e6 samples, Linux x86-64,
# numpy 2.4).
ZAK_CELL_BYTES = 128
_SOUTH = np.array([0.0, 0.0, -1.0])

SPAN_HALF = "half"
SPAN_FULL = "full"
# Half width of each span's momentum window, and the weight of its phase.
_SPANS = {SPAN_HALF: (0.5 * np.pi, 2.0), SPAN_FULL: (np.pi, 1.0)}

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
    converged: bool


@dataclass(frozen=True)
class ZakMap:
    """Zak phases of both bands over a two-angle parameter grid.

    masked[i, j] is True where some of the n_points + 1 momentum samples
    of the integration path has gap below 1e-6; the phases are NaN
    there.  The other phases do not depend on n_points (see zak_map).
    """

    family: str
    angles1: np.ndarray
    angles2: np.ndarray
    zak_plus: np.ndarray
    zak_minus: np.ndarray
    masked: np.ndarray
    n_points: int
    span: str


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


def _wilson_phases(numerators: np.ndarray, weight: float,
                   bands=(+1, -1)) -> list:
    """Folded weight x Wilson-line phase of each band in bands along
    axis -2 of (..., m, 3) Bloch numerators, one list entry per band.

    In spin.band_eigenvector's gauge the lower component of band s is
    real with sign -s, so each link arg<v_i|v_i+1> is exactly
    spin.half_solid_angle(-z, s a, s b) of the unit vectors a = n_i,
    b = n_i+1.  |<v_i|v_i+1>| = |a + b| / 2 is the same for both bands,
    as (-a - b)^2 = (a + b)^2, so one check refuses overlaps below 1e-12
    (OrthogonalStatesError).  With the apex at -z, two of the three
    cross-product terms of half_solid_angle are multiplied by zero, and
    the link is atan2(num, dot + (a_z - s)(b_z - s)) with
    num = a_y b_x - a_x b_y and dot = a_x b_x + a_y b_y.  Flipping both
    vectors leaves num and dot unchanged, so they are computed once and
    each band costs one product and one atan2.  These are the float
    operations of half_solid_angle, up to the sign of an exact zero
    num; where that sign matters (a non-positive denominator, where it
    picks +pi or -pi) the link is taken from half_solid_angle itself.
    At the chart pole s n = +z the kernel reads 0 or +-pi where the
    gauge jumps; no gapped window of width >= pi gets there, as
    n_x = n_y = 0 forces a touching at k = 0 or pi (standard,
    split-step) or max_k |cos E| = 1 at k* and k* + pi (noncommuting,
    whose |n_perp| is constant in k).
    """
    if any(band not in (+1, -1) for band in bands):
        raise ValueError("band must be +1 or -1")
    xyz = np.moveaxis(numerators, -1, 0)
    x, y, z = xyz
    n = np.multiply(xyz, 1.0 / np.sqrt(x * x + y * y + z * z), order="C")
    a, b = n[..., :-1], n[..., 1:]
    if np.any(np.sum((a + b) ** 2, axis=0) < (2.0 * OVERLAP_TOL) ** 2):
        raise OrthogonalStatesError("consecutive states are orthogonal; "
                                    "phase chain is undefined")
    (ax, ay, az), (bx, by, bz) = a, b
    num = ay * bx
    num -= ax * by
    dot = ax * bx
    dot += ay * by
    zero = num == 0.0
    phases = []
    for band in bands:
        links = (az - band) * (bz - band)
        links += dot
        pole = zero & (links <= 0.0)
        np.arctan2(num, links, out=links)
        if pole.any():
            links[pole] = half_solid_angle(_SOUTH, band * a[:, pole],
                                           band * b[:, pole])
        phases.append(fold_angle(weight * links.sum(axis=-1)))
    return phases


def _window(k_origin: float, n_points: int, span: str):
    """Ends (lo, hi) of a span's window about k_origin, and the span's
    phase weight; the window is sampled at n_points + 1 momenta."""
    if span not in _SPANS:
        raise ValueError(f"span must be 'half' or 'full', got {span!r}")
    if not 16 <= n_points <= MAX_CELLS or n_points % 2 != 0:
        raise ValueError("n_points must be an even integer in [16, 2**53]")
    half_width, weight = _SPANS[span]
    # Reduced first: far from zero, linspace would repeat one momentum.
    k_origin = canonical_angle(k_origin)
    return k_origin - half_width, k_origin + half_width, weight


def zak_numeric(model: WalkModel, band: int, k_origin: float = 0.0,
                n_points: int = 2048, *, span: str = SPAN_HALF) -> ZakResult:
    """Discrete Berry (Zak) phase of one band along a momentum window.

    The window is [k_origin - w/2, k_origin + w/2] with w = pi for
    span="half" (the default) and w = 2 pi for span="full", sampled at
    n_points + 1 uniform k values including both endpoints, as an open
    chain.  n_points must be even (>= 16) so a half-rate subsample can
    flag non-convergence: converged is False when the subsampled phase
    differs by more than 1e-4.

    Raises GaplessPointError if any sampled momentum has gap < 1e-6.
    """
    lo, hi, weight = _window(k_origin, n_points, span)
    ks = np.linspace(lo, hi, n_points + 1)
    if np.any(model.gap(ks) < PATH_GAP_TOL):
        raise GaplessPointError(f"gapless momentum on the Zak path of {model!r}")
    n = model.bloch_numerators(ks)
    phase = float(_wilson_phases(n, weight, (band,))[0])
    coarse = float(_wilson_phases(n[::2], weight, (band,))[0])
    converged = abs(fold_angle(phase - coarse)) <= CONVERGENCE_FLAG_TOL
    return ZakResult(band=band, phase=phase, k_origin=float(k_origin),
                     n_points=n_points, model=model, span=span,
                     converged=converged)


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


def _noncommuting_phases(theta, phi, span: str):
    """Both bands' Zak phases of the non-commuting walk on the window
    about k = 0, in closed form, broadcast over the angles.

    N_perp has constant length and N_z = rho cos(k + delta), with
    a^2 + b^2 + rho^2 = 1, so the band-s integrand 1 + s n_z of
    zak_noncommuting_integrand has the antiderivative
    k + s arcsin(rho sin(k + delta)).  Over the half zone the doubled
    phase is pi + 2 s arcsin(rho cos delta) = pi + 2 s arcsin(c); over
    the full zone the arcsin terms cancel and the phase is pi.
    """
    if span == SPAN_FULL:
        pi = np.full(np.broadcast(theta, phi).shape, np.pi)
        return pi, pi
    twice = 2.0 * np.arcsin(_angular_coeffs(theta, phi)[2])
    return fold_angle(np.pi + twice), fold_angle(np.pi - twice)


def _splitstep_phases(theta1, theta2, span: str):
    """Both bands' Zak phases of the split-step walk on the window about
    k = 0, broadcast over the angles.

    The Bloch curve lies on the great circle normal to the chiral axis
    (SplitStepWalk.chiral_axis), so the geodesic links of any chain
    along it telescope, and the chain through the cell ends k = j pi/2
    of the window (3 momenta on the half zone, 5 on the full zone) has
    the phase of every finer one.  In that plane N has the coordinate
    sin k cos(theta2) along (sin theta1, 0, -cos theta1), and over a
    cell sin k keeps its sign and is nonzero at one end, so a gapped
    node turns by less than pi per cell and the coarse links never meet
    antipodal states.
    """
    half_width, weight = _SPANS[span]
    ks = np.linspace(-half_width, half_width, 3 if span == SPAN_HALF else 5)
    n = SplitStepWalk.numerators(np.asarray(theta1)[..., None],
                                 np.asarray(theta2)[..., None], ks)
    return _wilson_phases(n, weight)


_CLOSED_FORMS = {"noncommuting": _noncommuting_phases,
                 "splitstep": _splitstep_phases}


def zak_map(family: str, resolution: int = 201, n_points: int = 512, *,
            span: str = SPAN_HALF) -> ZakMap:
    """Zak phases of both bands over the [-pi, pi]^2 parameter square,
    on the window about k = 0.

    A node is masked (NaN phases) when any of the n_points + 1 momentum
    samples of its window has gap < 1e-6; n_points sets only that mask,
    read from models.sampled_band_edge at five momenta per node.  The other
    nodes' phases are closed forms (_CLOSED_FORMS): at the default size
    they are within 6.2e-15 of the sampled Wilson chain of zak_numeric
    at k_origin = 0.  The grid runs topology.SCAN_BLOCK_ROWS rows at a
    time, so the peak memory is that of the map and one block; the
    default map takes 0.02-0.04 s (one thread, 2-vCPU x86-64 VM).
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    if family not in _CLOSED_FORMS:
        raise ValueError(f"family {family!r} is not a two-angle family")
    lo, hi, _ = _window(0.0, n_points, span)
    phases = _CLOSED_FORMS[family]
    angles = np.linspace(-np.pi, np.pi, resolution)
    shape = (resolution, resolution)
    plus, minus = np.full(shape, np.nan), np.full(shape, np.nan)
    masked = np.empty(shape, dtype=bool)
    for start in range(0, resolution, SCAN_BLOCK_ROWS):
        rows = slice(start, start + SCAN_BLOCK_ROWS)
        a1, a2 = np.meshgrid(angles[rows], angles, indexing="ij")
        masked[rows] = 1.0 - sampled_band_edge(family, a1, a2, lo, hi,
                                               n_points)[0] < PATH_GAP_TOL
        live = ~masked[rows]
        plus[rows][live], minus[rows][live] = phases(a1[live], a2[live], span)
    return ZakMap(family=family, angles1=angles, angles2=angles.copy(),
                  zak_plus=plus, zak_minus=minus, masked=masked,
                  n_points=n_points, span=span)

