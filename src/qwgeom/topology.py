"""Band-touching structure and winding topology of the walk families.

Provides gap maps over two-angle parameter squares, location and
refinement of isolated gap closings (Dirac points), and the integer
winding number of the Bloch curve k -> N(k) about the origin of its
plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaplessPointError, NonPlanarCurveError
from .models import MAX_CELLS, sampled_band_edge, two_angle_class
from .utils import fold_angle

GOLDEN_RATIO_CONJ = (math.sqrt(5.0) - 1.0) / 2.0

# Angle rows per scan_gap block: at 721^2 nodes, 0.15 s and 13 MB of peak
# RSS growth, against 0.31 s and 144 MB for the whole grid at once.
SCAN_BLOCK_ROWS = 16
# Peak bytes per node of the envelope grid of find_dirac_points (measured
# 32-38 from peak RSS growth at 201-2881 nodes a side, Linux x86-64,
# numpy 2.4).
ENVELOPE_NODE_BYTES = 48
# Default gap below which a census grid node is a candidate closing.
CANDIDATE_GAP = 1e-3
# Peak bytes per momentum sample of winding_number (Bloch curve, its SVD
# and in-plane angles; measured 136-139 from peak RSS growth at 2e5-3.2e6
# samples, Linux x86-64, numpy 2.4).
WINDING_SAMPLE_BYTES = 160


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
    above accept_gap (spurious shallow minima).
    """

    family: str
    points: tuple[DiracPoint, ...]
    continuous_boundary: bool
    dropped: int
    accept_gap: float


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
    angles = np.linspace(-np.pi, np.pi, resolution)
    gap = np.empty((resolution, resolution))
    argmin_k = np.empty((resolution, resolution))
    for start in range(0, resolution, SCAN_BLOCK_ROWS):
        rows = slice(start, start + SCAN_BLOCK_ROWS)
        best, argmin_k[rows] = sampled_band_edge(
            family, angles[rows, None], angles, -np.pi, np.pi, k_samples - 1)
        gap[rows] = 1.0 - best
    return GapMap(family=family, angles1=angles.copy(), angles2=angles.copy(),
                  gap=gap, argmin_k=argmin_k, k_samples=k_samples)


def _golden_min(f, lo: float, hi: float, x_tol: float):
    """Golden-section minimum of a unimodal f on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN_RATIO_CONJ * (b - a)
    d = a + GOLDEN_RATIO_CONJ * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > x_tol:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN_RATIO_CONJ * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN_RATIO_CONJ * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _refine_touching(gap_at, seed, window: float = 0.1, x_tol: float = 1e-9,
                     max_sweeps: int = 200):
    """Coordinate-descent minimization of gap_at(a1, a2) from a coarse seed.

    Angles stay clamped to the scan square [-pi, pi].  Returns
    (angle1, angle2, gap).
    """
    a1, a2 = (float(v) for v in seed)
    best = gap_at(a1, a2)
    for _ in range(max_sweeps):
        lo1 = max(-math.pi, a1 - window)
        hi1 = min(math.pi, a1 + window)
        a1, _ = _golden_min(lambda x: gap_at(x, a2), lo1, hi1, x_tol)
        lo2 = max(-math.pi, a2 - window)
        hi2 = min(math.pi, a2 + window)
        a2, g = _golden_min(lambda x: gap_at(a1, x), lo2, hi2, x_tol)
        if best - g < 1e-12:
            best = min(best, g)
            break
        best = g
    return a1, a2, best


def min_census_resolution(candidate_gap: float = CANDIDATE_GAP) -> int:
    """Smallest coarse_resolution R whose spacing h = 2 pi / (R - 1) puts
    a node in the candidate disc of every closing: the gap grows as
    (d1^2 + d2^2) / 2 about it, so the disc has radius
    sqrt(2 candidate_gap), and no point is farther than h / sqrt(2) from
    a node."""
    return math.ceil(math.pi / math.sqrt(candidate_gap)) + 1


def _cluster_components(nodes: np.ndarray, cell: float = 0.2):
    """Group candidate nodes (angle pairs in [-pi, pi]) whose occupancy
    cells of side `cell` coincide or touch, corners included.  Each
    occupied cell takes the smallest cell index of its component, spread
    over occupied neighbours until nothing changes.  Returns arrays of
    row indices into `nodes`, ascending within each component."""
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
    of_node = label.flat[flat]
    rows = np.argsort(of_node, kind="stable")
    return np.split(rows, np.flatnonzero(np.diff(of_node[rows])) + 1)


def find_dirac_points(family: str, coarse_resolution: int = 721,
                      candidate_gap: float = CANDIDATE_GAP,
                      accept_gap: float = 1e-9) -> DiracPointSet:
    """Locate all isolated gap closings of a two-angle family.

    The family's exact gap envelope 1 - max_k |cos E| is evaluated once
    on a coarse_resolution^2 grid over the angle square (no momentum
    grid).  Nodes with gap below candidate_gap are grouped into spatial
    components, and each compact component is refined by coordinate
    descent on the envelope, in the two angles only.  Components wider
    than half a radian are reported via continuous_boundary instead of
    as points (the split-step family closes its gap along whole lines).
    A grid coarser than min_census_resolution(candidate_gap) can miss
    closings, so it raises ValueError.  Each point's momentum is the
    envelope's k* at the refined angles, folded into (-pi, pi]; for the
    non-commuting family cos E = +1 there, so every touching is reported
    at energy 0.  Points are sorted by angles.
    """
    floor = min_census_resolution(candidate_gap)
    if coarse_resolution < floor:
        raise ValueError(f"coarse_resolution must be at least {floor}")
    cls = two_angle_class(family)
    envelope, cos_e = cls.envelope, cls.dispersion

    def gap_at(a1, a2):
        return 1.0 - float(envelope(a1, a2)[0])

    angles = np.linspace(-np.pi, np.pi, coarse_resolution)
    gap = 1.0 - envelope(angles[:, None], angles[None, :])[0]
    ii, jj = np.nonzero(gap < candidate_gap)
    nodes = np.column_stack([angles[ii], angles[jj]])
    components = _cluster_components(nodes) if ii.size else []

    continuous = False
    points = []
    dropped = 0
    for rows in components:
        if math.hypot(*np.ptp(nodes[rows], axis=0)) > 0.5:
            continuous = True
            continue
        seed = nodes[rows[np.argmin(gap[ii[rows], jj[rows]])]]
        a1, a2, g = _refine_touching(gap_at, seed)
        if g > accept_gap:
            dropped += 1
            continue
        k = fold_angle(float(envelope(a1, a2)[1]))
        energy = 0.0 if float(cos_e(a1, a2, k)) > 0.0 else math.pi
        points.append(DiracPoint(angle1=a1, angle2=a2, momentum=k,
                                 energy=energy, gap=g))

    points.sort(key=lambda p: (p.angle1, p.angle2))
    return DiracPointSet(family=family, points=tuple(points),
                         continuous_boundary=continuous, dropped=dropped,
                         accept_gap=accept_gap)


def planar_winding(points: np.ndarray, normal=None) -> int:
    """Winding number of a closed planar curve about the origin's
    in-plane projection.

    points has shape (n, 3) and samples the loop once, without repeating
    the first point.  The best-fit plane comes from an SVD about the
    centroid; deviations beyond 1e-6 (relative to the curve size) raise
    NonPlanarCurveError.  The in-plane frame is fixed deterministically:
    its normal is the given unit normal of the curve's plane, or else the
    SVD normal with its largest component made positive; the first basis
    vector is a projected coordinate axis, and the second completes a
    right-handed triple.  If the curve approaches the projected origin
    closer than 1e-9 the winding is undefined and GaplessPointError is
    raised.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 3:
        raise ValueError("points must have shape (n, 3) with n >= 3")
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    scale = max(1.0, float(np.abs(rel).max()))
    _, sing, vt = np.linalg.svd(rel, full_matrices=False)
    if sing[2] > 1e-6 * scale:
        raise NonPlanarCurveError(
            f"curve is not planar: residual {sing[2]:.3e} exceeds tolerance")
    if normal is None:
        normal = vt[2]
        pivot = int(np.argmax(np.abs(normal)))
        if normal[pivot] < 0.0:
            normal = -normal
    # First in-plane axis: the coordinate axis least aligned with normal,
    # projected into the plane.
    seed_axis = np.zeros(3)
    seed_axis[int(np.argmin(np.abs(normal)))] = 1.0
    e1 = seed_axis - np.dot(seed_axis, normal) * normal
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)

    # In-plane coordinates measured from the origin's projection reduce
    # to plain dot products: (p - c).e - (0 - c).e = p.e for each axis.
    x = pts @ e1
    y = pts @ e2
    radii = np.hypot(x, y)
    if radii.min() < 1e-9:
        raise GaplessPointError("curve passes through the winding center")
    ang = np.arctan2(y, x)
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    total = float(inc.sum())
    return int(round(total / (2.0 * math.pi)))


def winding_number(model, k_samples: int = 1024) -> int:
    """Winding of the Bloch curve N(k) of a walk model about the origin.

    Samples k uniformly over one zone without the duplicate endpoint.
    The sign is taken about the model's chiral axis where it declares
    one, so it changes only where the gap closes; otherwise about
    planar_winding's SVD normal.
    """
    if k_samples < 16:
        raise ValueError("k_samples must be at least 16")
    ks = np.linspace(-np.pi, np.pi, k_samples, endpoint=False)
    return planar_winding(model.bloch_numerators(ks), model.chiral_axis)
