"""Band-touching structure and winding topology of the walk families.

Provides gap maps over two-angle parameter squares, location of
isolated gap closings (Dirac points), all refined together by one array
pattern search, and the integer winding number of the Bloch curve
k -> N(k) about the origin of its plane.  Every family's N(k) is a first
harmonic, so its Bloch curve is an ellipse, read with cos E off one fold
of the step (models.WalkModel.harmonics), and the winding follows in
closed form (winding_number); a step whose N(k) has degree 2 in e^{ik}
would need the argument principle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPointError
from .models import (MAX_CELLS, _edge, _ellipse, _harmonics, _peak,
                     sampled_band_edge, two_angle_class)
from .utils import fold_angle

# Angle rows per scan_gap block: at 721^2 nodes, 0.15 s and 13 MB of peak
# RSS growth, against 0.31 s and 144 MB for the whole grid at once.
SCAN_BLOCK_ROWS = 16
# Peak bytes per node of the envelope grid of find_dirac_points, evaluated
# ENVELOPE_BLOCK_ROWS angle rows at a time (measured 9-25 from peak RSS
# growth at 201-2881 nodes a side, Linux x86-64, numpy 2.4; 13 ms at 721^2
# against 27 ms for the whole grid at once).
ENVELOPE_NODE_BYTES = 48
ENVELOPE_BLOCK_ROWS = 64
# Default gap below which a census grid node is a candidate closing.
CANDIDATE_GAP = 1e-3
# Largest gap after refinement at which a census candidate is a point.
ACCEPT_GAP = 1e-9
# Largest exact envelope gap at which winding_number refuses a model:
# exact closings give gaps within 2.2e-16 of 0.
CLOSING_GAP = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class GapMap:
    """Minimum band gap over momentum on a grid of coin-angle pairs.

    gap[i, j] is min_k (1 - |cos E|) over the k_samples momenta at
    (angles1[i], angles2[j]), and argmin_k[i, j] a sampled momentum
    attaining it (see scan_gap).
    """

    family: str
    angles1: np.ndarray
    angles2: np.ndarray
    gap: np.ndarray
    argmin_k: np.ndarray
    k_samples: int


@dataclass(frozen=True)
class DiracPoint:
    """An isolated gap closing: coin angles, touching momentum, energy.

    energy is 0.0 or pi depending on which band edge the cones meet at;
    gap records the residual 1 - |cos E| after refinement.
    """

    angle1: float
    angle2: float
    momentum: float
    energy: float
    gap: float


@dataclass(frozen=True)
class DiracPointSet:
    """Result of a Dirac-point search over one parameter square.

    continuous_boundary is True when some gapless component is extended
    (a curve rather than a point); such components are never refined.
    dropped counts compact candidate clusters whose refined gap stayed
    above ACCEPT_GAP (spurious shallow minima).
    """

    family: str
    points: tuple[DiracPoint, ...]
    continuous_boundary: bool
    dropped: int


def scan_gap(family: str, resolution: int = 201, k_samples: int = 361) -> GapMap:
    """Minimum gap over k on a (resolution x resolution) angle grid.

    Both angles and the k_samples momenta run over [-pi, pi] inclusive.
    Each node reads models.sampled_band_edge, five momenta whatever
    k_samples is, so gap is the full sweep's.  So is argmin_k, unless
    cos E is flat to the last bit across several momenta.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    if not 8 <= k_samples <= MAX_CELLS + 1:
        raise ValueError("k_samples must be in [8, 2**53 + 1]")
    cls = two_angle_class(family)
    angles = np.linspace(-np.pi, np.pi, resolution)
    gap = np.empty((resolution, resolution))
    argmin_k = np.empty((resolution, resolution))
    for start in range(0, resolution, SCAN_BLOCK_ROWS):
        rows = slice(start, start + SCAN_BLOCK_ROWS)
        h = _harmonics(cls, (angles[rows, None], angles), diagonal=True)
        best, argmin_k[rows], _, _ = sampled_band_edge(h, -np.pi, np.pi,
                                                       k_samples - 1)
        gap[rows] = 1.0 - best
    return GapMap(family=family, angles1=angles.copy(), angles2=angles.copy(),
                  gap=gap, argmin_k=argmin_k, k_samples=k_samples)


def _refine_touchings(gap_at, seeds, step: float):
    """Pattern search for the gap minimum from every seed at once.

    Each point moves to the lowest node of its 3 x 3 stencil of half-width
    h (the centre comes first, so a tie keeps it), and h, starting at
    step, halves wherever the centre is lowest, until every h is at most
    1e-9.  gap_at maps two angle arrays to gaps; angles stay clamped to
    the scan square [-pi, pi].  Returns (angles, gaps) of shapes (n, 2)
    and (n,).
    """
    stencil = np.array([(0, 0)] + [(i, j) for i in (-1, 0, 1)
                                   for j in (-1, 0, 1) if i or j])
    pts = np.asarray(seeds, dtype=float)
    h = np.full(len(pts), step)
    while np.any(h > 1e-9):
        trial = np.clip(pts[:, None] + h[:, None, None] * stencil,
                        -np.pi, np.pi)
        best = gap_at(trial[..., 0], trial[..., 1]).argmin(axis=1)
        pts = trial[np.arange(len(pts)), best]
        h = np.where(best == 0, 0.5 * h, h)
    return pts, gap_at(pts[:, 0], pts[:, 1])


def min_census_resolution(candidate_gap: float = CANDIDATE_GAP) -> int:
    """Smallest coarse_resolution R whose spacing h = 2 pi / (R - 1) puts
    a node in the candidate disc of every closing: the gap grows as
    (d1^2 + d2^2) / 2 about it, so the disc has radius
    sqrt(2 candidate_gap), and no point is farther than h / sqrt(2) from
    a node."""
    return math.ceil(math.pi / math.sqrt(candidate_gap)) + 1


def _cluster_components(nodes: np.ndarray, cell: float = 0.2) -> np.ndarray:
    """Group candidate nodes (angle pairs in [-pi, pi]) whose occupancy
    cells of side `cell` coincide or touch, corners included.  Each
    occupied cell takes the smallest cell index of its component, spread
    over occupied neighbours until nothing changes.  Returns that label
    for each row of `nodes`: rows share a label exactly when they share a
    component."""
    # One empty cell pads each side, so np.roll wraps only empty cells.
    keys = np.floor((nodes + np.pi) / cell).astype(np.intp) + 1
    n1, n2 = keys.max(axis=0) + 2
    flat = keys[:, 0] * n2 + keys[:, 1]
    label = np.full((n1, n2), n1 * n2)
    label.flat[flat] = flat
    empty = label == n1 * n2
    while True:
        spread = np.minimum.reduce([np.roll(label, (i, j), axis=(0, 1))
                                    for i in (-1, 0, 1) for j in (-1, 0, 1)])
        spread[empty] = n1 * n2
        if np.array_equal(spread, label):
            break
        label = spread
    return label.flat[flat]


def find_dirac_points(family: str, coarse_resolution: int = 721,
                      candidate_gap: float = CANDIDATE_GAP) -> DiracPointSet:
    """Locate all isolated gap closings of a two-angle family.

    The family's exact gap envelope 1 - max_k |cos E| is evaluated once
    on a coarse_resolution^2 grid over the angle square, in blocks of
    ENVELOPE_BLOCK_ROWS rows (no momentum grid).  Nodes with gap below
    candidate_gap are grouped into spatial components.  Components wider
    than half a radian are reported via continuous_boundary instead of
    as points (the split-step family closes its gap along whole lines).
    Every compact component is seeded at its first lowest node, and all
    seeds are refined together by a pattern search on the envelope
    (_refine_touchings), in the two angles only, from the grid spacing
    down.  A grid coarser than min_census_resolution(candidate_gap) can
    miss closings, so it raises ValueError.  Each point's momentum is
    the envelope's k* at the refined angles, folded by utils.fold_angle
    (+pi within 1e-12 of +-pi); its energy is pi where cos E's constant
    term is negative, so cos E(k*) = -1, else 0 (every non-commuting
    touching).  Points are sorted by angles.
    """
    floor = min_census_resolution(candidate_gap)
    if coarse_resolution < floor:
        raise ValueError(f"coarse_resolution must be at least {floor}")
    cls = two_angle_class(family)

    def gap_at(a1, a2):
        return 1.0 - _peak(_harmonics(cls, (a1, a2), diagonal=True)[0])

    angles = np.linspace(-np.pi, np.pi, coarse_resolution)
    gap = np.empty((coarse_resolution, coarse_resolution))
    for start in range(0, coarse_resolution, ENVELOPE_BLOCK_ROWS):
        rows = slice(start, start + ENVELOPE_BLOCK_ROWS)
        gap[rows] = gap_at(angles[rows, None], angles)
    ii, jj = np.nonzero(gap < candidate_gap)
    nodes = np.column_stack([angles[ii], angles[jj]])
    seeds = np.empty((0, 2))
    continuous = False
    if ii.size:
        # Each component's rows, lowest gap first (ties to the lowest row).
        label = _cluster_components(nodes)
        rows = np.lexsort((gap[ii, jj], label))
        starts = np.flatnonzero(np.diff(label[rows], prepend=-1))
        extent = (np.maximum.reduceat(nodes[rows], starts)
                  - np.minimum.reduceat(nodes[rows], starts))
        compact = np.hypot(*extent.T) <= 0.5
        continuous = not compact.all()
        seeds = nodes[rows[starts[compact]]]
    found, gaps = _refine_touchings(gap_at, seeds,
                                    2.0 * np.pi / (coarse_resolution - 1))
    accept = gaps <= ACCEPT_GAP
    a1, a2 = found[accept].T
    h = _harmonics(cls, (a1, a2), diagonal=True)[0]
    k = fold_angle(_edge(h)[1])
    energy = np.where(h[0] < 0.0, math.pi, 0.0)
    points = sorted(map(DiracPoint, a1.tolist(), a2.tolist(), k.tolist(),
                        energy.tolist(), gaps[accept].tolist()),
                    key=lambda p: (p.angle1, p.angle2))
    return DiracPointSet(family=family, points=tuple(points),
                         continuous_boundary=continuous,
                         dropped=int(np.count_nonzero(~accept)))


def ellipse_encloses_origin(n0, nc, ns):
    """Whether the ellipse n0 + nc cos k + ns sin k (arrays (..., 3))
    encloses the origin's projection onto its plane, and the normal
    t = nc x ns it runs counterclockwise about.  With -n0 = a nc + b ns +
    c t, it does when a^2 + b^2 < 1: X^2 + Y^2 < (t.t)^2 for
    X = (ns x n0).t and Y = (n0 x nc).t, with no division, so a constant
    N or a segment (t = 0) encloses nothing."""
    t, ns_n0, n0_nc = np.cross([nc, ns, n0], [ns, n0, nc])
    x, y = (np.sum(p * t, axis=-1) for p in (ns_n0, n0_nc))
    return x * x + y * y < np.sum(t * t, axis=-1) ** 2, t


def winding_number(model) -> int:
    """Winding of the Bloch curve k -> N(k) of a walk model about the
    origin's projection onto the curve's plane, in closed form.

    The curve is the ellipse of the model's harmonics, whose cos E row
    the gap test reads, and it winds where ellipse_encloses_origin says.  The winding is then
    the sign of axis.t, about the model's chiral axis where it declares
    one, so it changes only where the gap closes; otherwise about t with
    its largest-magnitude component made positive.

    Raises GaplessPointError where the exact envelope gap
    1 - max_k |cos E| is at most CLOSING_GAP, zak's exact refusal on the
    whole zone; the closed form decides every other model, so a refusal
    means min_k |N| = sin E below about sqrt(2 CLOSING_GAP) = 4.2e-8.
    """
    h = model.harmonics(*model.angles)
    if 1.0 - float(_edge(h[0])[0]) <= CLOSING_GAP:
        raise GaplessPointError(f"the Bloch curve of {model!r} passes "
                                "through the winding centre")
    inside, t = ellipse_encloses_origin(*_ellipse(h))
    if not inside:
        return 0
    axis = model.chiral_axis
    side = t[np.argmax(np.abs(t))] if axis is None else axis @ t
    return 1 if side > 0.0 else -1
