"""Zak phases of the walk bands.

The workhorse is a discrete Wilson-line (overlap-product) Berry phase,
which is gauge robust by construction; each link is a spherical-triangle
area of real unit Bloch vectors with its apex at -z.  One kernel
(_wilson_phases) normalises the chain and checks its overlaps once and
shares each link's in-plane terms between the two bands, so zak_map
gets both bands for little more than the cost of one and zak_numeric
asks for its one band only.  The default integration window is the
half zone [k0 - pi/2, k0 + pi/2]; the reported phase doubles the
raw Wilson-line value there, which reproduces both the closed-form
integrand of the non-commuting family and the known trivial value pi
(see zak_noncommuting_integrand).  Over the full zone the Bloch curve
is periodic and the undoubled Wilson loop is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import GaplessPointError, OrthogonalStatesError
from .models import (WalkModel, angular_coeffs, splitstep_numerators,
                     two_angle_cos_energy, two_angle_envelope,
                     two_angle_numerators)
from .spin import half_solid_angle
from .utils import canonical_angle, circular_distance, fold_angle

PATH_GAP_TOL = 1e-6
OVERLAP_TOL = 1e-12
CONVERGENCE_FLAG_TOL = 1e-4
# Folded phases this close to +-pi read +pi, not a sign set by rounding.
PI_PIN_TOL = 1e-12
# Angle nodes per zak_map block: small enough to keep the kernel's
# temporaries in cache (2-3x faster than whole rows of 201).
ZAK_BLOCK_NODES = 64
# Peak bytes per momentum sample of one node's Wilson chain, both bands'
# link temporaries included (measured 89-113 in zak_map and zak_numeric
# from peak RSS growth at 2e4-3e6 samples, Linux x86-64, numpy 2.4).
ZAK_CELL_BYTES = 128
_SOUTH = np.array([0.0, 0.0, -1.0])

SPAN_HALF = "half"
SPAN_FULL = "full"
# Half width of each span's momentum window, and the weight of its phase.
_SPANS = {SPAN_HALF: (0.5 * np.pi, 2.0), SPAN_FULL: (np.pi, 1.0)}


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

    masked[i, j] is True where some momentum sample on the integration
    path has gap below 1e-6; the phases are NaN there.
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
        phases.append(fold_angle_array(weight * links.sum(axis=-1)))
    return phases


def _window(k_origin: float, n_points: int, span: str):
    """The n_points + 1 momenta of a span's window about k_origin, and
    the span's phase weight."""
    if span not in _SPANS:
        raise ValueError(f"span must be 'half' or 'full', got {span!r}")
    if n_points < 16 or n_points % 2 != 0:
        raise ValueError("n_points must be an even integer >= 16")
    half_width, weight = _SPANS[span]
    # Reduced first: far from zero, linspace would repeat one momentum.
    k_origin = canonical_angle(k_origin)
    return (np.linspace(k_origin - half_width, k_origin + half_width,
                        n_points + 1), weight)


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
    ks, weight = _window(k_origin, n_points, span)
    if np.any(model.gap(ks) < PATH_GAP_TOL):
        raise GaplessPointError(f"gapless momentum on the Zak path of {model!r}")
    n = model.bloch_numerators(ks)
    phase = float(_wilson_phases(n, weight, (band,))[0])
    coarse = float(_wilson_phases(n[::2], weight, (band,))[0])
    converged = circular_distance(phase, coarse) <= CONVERGENCE_FLAG_TOL
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
    a, b, c, d = angular_coeffs(theta, phi)
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


def zak_splitstep_analytic(theta1: float, theta2: float,
                           n_samples: int = 4096) -> SplitStepZak:
    """In-plane endpoint form of the split-step Zak phase, plus the
    published closed form.

    endpoint_form is the continuously unwrapped in-plane angle
    phi(k) = atan2(ny, nx) swept between the half-zone endpoints,
    phi(-pi/2) - phi(pi/2), folded into (-pi, pi].  It equals the Zak
    phase exactly when the Bloch curve lies in the xy plane (nz
    identically zero), which for this family means
    cos(theta1) * cos(theta2) = 0; the planar flag reports whether that
    holds within 1e-9, and off-plane angles are still evaluated so the
    published ratio below stays inspectable everywhere.

    as_published is the ratio tan(theta2)/tan(theta1) reported verbatim
    for reference, or None when tan(theta1) = 0 makes it undefined.  It
    is a ratio, not a phase, and no other computation here consumes it.
    """
    if n_samples < 16:
        raise ValueError("n_samples must be at least 16")
    planar = bool(min(abs(np.cos(theta1)), abs(np.cos(theta2))) <= 1e-9)
    ks = np.linspace(-np.pi / 2.0, np.pi / 2.0, n_samples + 1)
    n = splitstep_numerators(theta1, theta2, ks)
    if np.any(np.hypot(n[:, 0], n[:, 1]) < 1e-12):
        raise GaplessPointError("in-plane Bloch component vanishes on the path; "
                                "endpoint form undefined")
    swept = np.unwrap(np.arctan2(n[:, 1], n[:, 0]))
    endpoint_form = fold_angle(float(swept[0] - swept[-1]))
    t1 = np.tan(theta1)
    published = None if abs(t1) < 1e-15 else float(np.tan(theta2) / t1)
    return SplitStepZak(endpoint_form, published, planar)


def _path_gapless(family: str, a1, a2, ks: np.ndarray) -> np.ndarray:
    """Whether any of the uniform momenta ks has gap < 1e-6, per node of
    the broadcast angle arrays a1, a2 of shape (nodes, 1).

    cos E is a first harmonic plus a constant, so over an arc its
    sampled |cos E| peaks on the grid neighbours of the envelope's k*
    and k* + pi or at the two ends of the arc; only those are evaluated.
    """
    cells = ks.size - 1
    k_star = two_angle_envelope(family)(a1, a2)[1]
    k = np.concatenate([k_star, k_star + np.pi], axis=1)
    offset = (k - ks[0]) % (2.0 * np.pi)
    j = np.minimum(np.floor(offset * (cells / (ks[-1] - ks[0]))),
                   cells - 1).astype(np.intp)
    ends = np.zeros_like(j[:, :1])
    idx = np.concatenate([j, j + 1, ends, ends + cells], axis=1)
    cos_e = two_angle_cos_energy(family)(a1, a2, ks[idx])
    return (1.0 - np.abs(cos_e) < PATH_GAP_TOL).any(axis=1)


def zak_map(family: str, resolution: int = 201, n_points: int = 512, *,
            span: str = SPAN_HALF) -> ZakMap:
    """Zak phases of both bands over the [-pi, pi]^2 parameter square.

    A node is masked (NaN phases) when any momentum sample on its
    integration path has gap < 1e-6.  Nodes run serially, in blocks of
    ZAK_BLOCK_NODES, through the kernel of zak_numeric, which takes
    both bands in one pass.
    """
    if resolution < 3:
        raise ValueError("resolution must be at least 3")
    ks, weight = _window(0.0, n_points, span)
    numerators = two_angle_numerators(family)
    angles = np.linspace(-np.pi, np.pi, resolution)

    a1s, a2s = (g.reshape(-1, 1) for g in
                np.meshgrid(angles, angles, indexing="ij"))
    blocks = []
    for start in range(0, a1s.size, ZAK_BLOCK_NODES):
        a1 = a1s[start:start + ZAK_BLOCK_NODES]
        a2 = a2s[start:start + ZAK_BLOCK_NODES]
        mask = _path_gapless(family, a1, a2, ks)
        n = numerators(a1, a2, ks)
        # Off both chart poles, so the kernel is defined and cheap there;
        # blanked below.
        n[mask] = (1.0, 0.0, 0.0)
        blocks.append((*_wilson_phases(n, weight), mask))
    plus, minus, masked = (np.concatenate(b).reshape(resolution, resolution)
                           for b in zip(*blocks))
    plus[masked] = minus[masked] = np.nan
    return ZakMap(family=family, angles1=angles, angles2=angles.copy(),
                  zak_plus=plus, zak_minus=minus, masked=masked,
                  n_points=n_points, span=span)


def fold_angle_array(x: np.ndarray) -> np.ndarray:
    """Vectorized fold into (-pi, pi]; within PI_PIN_TOL of +-pi it is pi."""
    w = np.asarray(x, dtype=float) % (2.0 * np.pi)
    return np.where(abs(w - np.pi) < PI_PIN_TOL, np.pi,
                    np.where(w > np.pi, w - 2.0 * np.pi, w))
