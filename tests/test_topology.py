"""Gap scans, Dirac-point search, and Bloch-curve winding numbers."""

import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwgeom import cli, models, topology
from qwgeom.errors import GaplessPointError
from qwgeom.models import (TWO_ANGLE_FAMILIES, NonCommutingWalk,
                           SplitStepWalk, StandardWalk, _edge, _peak,
                           two_angle_class)
from qwgeom.topology import (SCAN_BLOCK_ROWS, _cluster_components,
                             _refine_touchings, find_dirac_points,
                             min_census_resolution, scan_gap, winding_number)
from qwgeom.utils import fold_angle
from qwgeom.zak import zak_map, zak_numeric

from conftest import (SwappedCoinWalk, angles, family_registered,
                      swapped_coin_unitary, swapped_coins_registered)


def test_scan_gap_grid_and_values():
    gm = scan_gap("noncommuting", resolution=21, k_samples=181)
    assert gm.family == "noncommuting"
    assert gm.angles1.shape == (21,) and gm.angles2.shape == (21,)
    assert gm.gap.shape == (21, 21) and gm.argmin_k.shape == (21, 21)
    assert np.all(gm.gap >= 0.0)
    # Spot-check one interior node against a direct scan.
    i, j = 5, 13
    model = NonCommutingWalk(float(gm.angles1[i]), float(gm.angles2[j]))
    ks = np.linspace(-np.pi, np.pi, 181)
    gaps = 1.0 - np.abs(np.asarray(model.cos_energy(ks)))
    assert abs(gm.gap[i, j] - gaps.min()) < 1e-14
    assert abs(model.gap(float(gm.argmin_k[i, j])) - gaps.min()) < 1e-14


def _row_scan(family, resolution, k_samples):
    """The sampled gap map by a full momentum sweep, one angle row at a
    time: (gap, argmin_k, max |cos E|), ties to the first momentum."""
    cos_e = two_angle_class(family).dispersion
    angles = np.linspace(-np.pi, np.pi, resolution)
    ks = np.linspace(-np.pi, np.pi, k_samples)
    argmin_k = np.empty((resolution, resolution))
    peak = np.empty((resolution, resolution))
    for i in range(resolution):
        c = np.abs(cos_e(angles[i], angles[:, None], ks[None, :]))
        best = c.argmax(axis=-1)
        peak[i] = c[np.arange(resolution), best]
        argmin_k[i] = ks[best]
    return 1.0 - peak, argmin_k, peak


@pytest.mark.parametrize("k_samples", [8, 9, 91, 360, 361, 4097])
@pytest.mark.parametrize("family", TWO_ANGLE_FAMILIES)
def test_scan_gap_equals_full_momentum_sweep(family, k_samples):
    # Odd resolutions put nodes on the gap closings, even ones do not.
    # Where a split-step dispersion is flat to the last bit, several
    # momenta tie and the sweep's first one need not be the one found
    # from k*; |cos E| there is the same.
    cos_e = two_angle_class(family).dispersion
    for resolution in (2, 3, 20, 61):
        gm = scan_gap(family, resolution, k_samples)
        gap, argmin_k, peak = _row_scan(family, resolution, k_samples)
        assert np.array_equal(gm.gap, gap)
        a1, a2 = np.meshgrid(gm.angles1, gm.angles2, indexing="ij")
        assert np.array_equal(np.abs(cos_e(a1, a2, gm.argmin_k)), peak)
        if family == "noncommuting":
            assert np.array_equal(gm.argmin_k, argmin_k)


@pytest.mark.parametrize("family", TWO_ANGLE_FAMILIES)
def test_sampled_scan_brackets_exact_envelope(family):
    # Sampling k can only miss the peak of |cos E|, by at most the drop of
    # a unit cosine over half a spacing.
    k_samples = 181
    gm = scan_gap(family, resolution=61, k_samples=k_samples)
    exact = 1.0 - _peak(two_angle_class(family).harmonics(
        gm.angles1[:, None], gm.angles2[None, :])[0])
    dk = 2.0 * np.pi / (k_samples - 1)
    assert np.all(gm.gap >= exact - 1e-15)
    assert np.all(gm.gap <= exact + dk * dk / 8)


def _union_find_components(nodes, cell=0.2):
    """The census clustering by a union-find over occupied cells: nodes
    whose cells coincide or are 8-neighbours share a component."""
    keys = np.floor((nodes + np.pi) / cell).astype(int)
    parent = {}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    occupied = set(map(tuple, keys))
    for u in occupied:
        parent.setdefault(u, u)
    for (ix, iy) in occupied:
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                v = (ix + dx, iy + dy)
                if v in occupied:
                    ru, rv = find((ix, iy)), find(v)
                    if ru != rv:
                        parent[ru] = rv
    groups = {}
    for row, key in enumerate(map(tuple, keys)):
        groups.setdefault(find(key), []).append(row)
    return list(groups.values())


_edges = st.sampled_from([-np.pi, np.pi])
_offset = st.floats(-0.4, 0.4)
_cell_step = st.sampled_from([-2, -1, 1, 2])


@st.composite
def _candidate_nodes(draw):
    """Candidate sets of the kinds a census meets: clusters, diagonal
    lines, nodes on the square's edges, cells meeting only at a corner
    (or one cell apart on a diagonal), single nodes."""
    parts = []
    for kind in draw(st.lists(st.sampled_from(
            ["cluster", "line", "corner", "single"]), min_size=1,
            max_size=6)):
        centre = (draw(st.one_of(angles, _edges)),
                  draw(st.one_of(angles, _edges)))
        if kind == "cluster":
            parts.append(np.add(centre, draw(st.lists(
                st.tuples(_offset, _offset), min_size=1, max_size=12))))
        elif kind == "line":
            t = np.linspace(-1.0, 1.0, draw(st.integers(2, 40)))
            t *= draw(st.floats(0.0, 2.0))
            slope = draw(st.sampled_from([1.0, -1.0]))
            parts.append(np.column_stack([centre[0] + t,
                                          centre[1] + slope * t]))
        elif kind == "corner":
            cell = np.array([draw(st.integers(2, 29)),
                             draw(st.integers(2, 29))])
            step = np.array([draw(_cell_step), draw(_cell_step)])
            parts.append(-np.pi + 0.2 * (np.array([cell, cell + step]) + 0.5))
        else:
            parts.append(np.array([centre]))
    return np.clip(np.concatenate(parts), -np.pi, np.pi)


@given(nodes=_candidate_nodes())
def test_cell_labelling_partitions_like_union_find(nodes):
    label = _cluster_components(nodes)
    assert label.shape == (len(nodes),)
    groups = {}
    for row, key in enumerate(label.tolist()):
        groups.setdefault(key, set()).add(row)
    assert ({frozenset(rows) for rows in groups.values()}
            == {frozenset(rows) for rows in _union_find_components(nodes)})


def _bowl(centre, turn, curvatures, floor=0.0):
    """floor + a rotated anisotropic quadratic with its minimum at centre,
    as a gap_at for _refine_touchings; also its Hessian."""
    c, s = np.cos(turn), np.sin(turn)
    rot = np.array([[c, -s], [s, c]])
    hess = rot @ np.diag(curvatures) @ rot.T

    def gap_at(a1, a2):
        d1, d2 = a1 - centre[0], a2 - centre[1]
        return floor + 0.5 * (hess[0, 0] * d1 * d1 + 2.0 * hess[0, 1] * d1 * d2
                              + hess[1, 1] * d2 * d2)
    return gap_at, hess


_turns = st.floats(0.0, np.pi)
_curvatures = st.tuples(st.floats(1.0, 10.0), st.floats(1.0, 10.0))
_steps = st.floats(1e-3, 0.1)
_unit_offsets = st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
                         min_size=1, max_size=6)


def _seeds_near(centre, step, offsets):
    return np.clip(np.add(centre, step * np.array(offsets)), -np.pi, np.pi)


@given(centre=st.tuples(angles, angles), turn=_turns, curvatures=_curvatures,
       step=_steps, offsets=_unit_offsets)
def test_pattern_search_lands_on_the_bowl_minimum(centre, turn, curvatures,
                                                  step, offsets):
    gap_at, _ = _bowl(centre, turn, curvatures)
    found, gaps = _refine_touchings(gap_at, _seeds_near(centre, step, offsets),
                                    step)
    assert found.shape == (len(offsets), 2) and gaps.shape == (len(offsets),)
    assert np.abs(found - centre).max() < 1e-7
    assert np.array_equal(gaps, gap_at(found[:, 0], found[:, 1]))


@given(side=st.sampled_from([-1.0, 1.0]), beyond=st.floats(1e-3, 0.05),
       a2=st.floats(-2.0, 2.0), turn=_turns, curvatures=_curvatures,
       step=_steps, offsets=_unit_offsets)
def test_pattern_search_clamps_to_the_square(side, beyond, a2, turn,
                                             curvatures, step, offsets):
    # The bowl's minimum lies past the edge angle1 = side * pi; on that
    # edge the gap is least where its angle2 derivative vanishes.
    centre = (side * (np.pi + beyond), a2)
    gap_at, hess = _bowl(centre, turn, curvatures)
    edge_min = a2 + hess[0, 1] / hess[1, 1] * side * beyond
    seeds = _seeds_near((side * np.pi, a2), step, offsets)
    found, _ = _refine_touchings(gap_at, seeds, step)
    assert np.all(found[:, 0] == side * np.pi)
    assert np.abs(found[:, 1] - edge_min).max() < 1e-7


@given(centre=st.tuples(angles, angles), floor=st.floats(1e-6, 0.5),
       turn=_turns, curvatures=_curvatures, step=_steps,
       offsets=_unit_offsets)
def test_pattern_search_returns_a_gap_floor(centre, floor, turn, curvatures,
                                            step, offsets):
    # A minimum above zero is what a spurious candidate refines to.
    gap_at, _ = _bowl(centre, turn, curvatures, floor)
    found, gaps = _refine_touchings(gap_at, _seeds_near(centre, step, offsets),
                                    step)
    assert np.abs(found - centre).max() < 1e-7
    assert np.all((gaps >= floor) & (gaps - floor < 1e-13))


def test_census_refuses_a_grid_coarser_than_its_candidate_disc():
    # Below 101 nodes a side the 1e-3 candidate discs fall between grid
    # nodes: the non-commuting census lost closings and the split-step
    # lines broke into spurious points.
    assert min_census_resolution() == 101
    for family in TWO_ANGLE_FAMILIES:
        with pytest.raises(ValueError, match="at least 101"):
            find_dirac_points(family, coarse_resolution=100)
    assert len(find_dirac_points("noncommuting", 101).points) == 13
    boundary = find_dirac_points("splitstep", 101)
    assert boundary.continuous_boundary and boundary.points == ()


def _analytic_census():
    """The 13 gap closings of the non-commuting family on [-pi, pi]^2."""
    pts = []
    for a1 in (-np.pi, 0.0, np.pi):
        for a2 in (-np.pi, 0.0, np.pi):
            k = 0.0 if np.cos(a1) * np.cos(a2) > 0 else np.pi
            pts.append((a1, a2, k))
    for a1 in (-np.pi / 2, np.pi / 2):
        for a2 in (-np.pi / 2, np.pi / 2):
            k = np.pi / 2 if np.sin(a1) * np.sin(a2) > 0 else -np.pi / 2
            pts.append((a1, a2, k))
    return pts


def test_dirac_census_noncommuting():
    ds = find_dirac_points("noncommuting", coarse_resolution=181)
    assert ds.family == "noncommuting"
    assert not ds.continuous_boundary
    assert len(ds.points) == 13
    census = _analytic_census()
    for p in ds.points:
        assert p.gap <= 1e-9
        assert abs(p.energy) < 1e-7
        dists = [max(abs(p.angle1 - a1), abs(p.angle2 - a2))
                 for a1, a2, _ in census]
        match = census[int(np.argmin(dists))]
        assert min(dists) < 1e-6
        # |k| = pi closings may be reported at either sign of pi.
        assert (abs(p.momentum - match[2]) < 1e-6
                or abs(abs(p.momentum) - np.pi) < 1e-6
                and abs(abs(match[2]) - np.pi) < 1e-6)


def test_dirac_census_off_grid_has_exact_momentum():
    """An even resolution puts no grid node on 0 or +-pi/2, so only the
    four corner closings sit on the grid; refinement still lands on all
    13, and k* comes from the envelope, not from a momentum sample."""
    ds = find_dirac_points("noncommuting", coarse_resolution=200)
    assert len(ds.points) == 13 and ds.dropped == 0
    unmatched = _analytic_census()
    for p in ds.points:
        dists = [max(abs(p.angle1 - a1), abs(p.angle2 - a2))
                 for a1, a2, _ in unmatched]
        a1, a2, k = unmatched.pop(int(np.argmin(dists)))
        assert max(abs(p.angle1 - a1), abs(p.angle2 - a2)) < 1e-6
        # k* = +pi and -pi are the same momentum.
        assert abs((p.momentum - k + np.pi) % (2 * np.pi) - np.pi) < 1e-12
        assert p.energy == 0.0


@pytest.mark.parametrize("resolution", [101, 121, 200, 721])
def test_dirac_census_lands_on_the_touchings(resolution):
    # The touchings sit at dyadic fractions of the grid step from -pi, so
    # the pattern search, which halves its step, lands on them.
    ds = find_dirac_points("noncommuting", resolution)
    census = np.array([(a1, a2) for a1, a2, _ in _analytic_census()])
    found = np.array([(p.angle1, p.angle2) for p in ds.points])
    dist = np.abs(found[:, None] - census[None]).max(axis=-1)
    assert sorted(dist.argmin(axis=1)) == list(range(13))
    assert dist.min(axis=1).max() < 1e-15
    # The array readout against the per-point scalar one it replaced, bit
    # for bit, sign of zero included.
    for p in ds.points:
        h = NonCommutingWalk.harmonics(p.angle1, p.angle2)
        k = fold_angle(float(_edge(h[0])[1]))
        cos_e = float(NonCommutingWalk.dispersion(p.angle1, p.angle2, k))
        assert repr((p.momentum, p.energy)) == repr(
            (k, 0.0 if cos_e > 0.0 else np.pi))


def test_census_drops_candidates_that_do_not_close(monkeypatch, capsys):
    # A gap floor of about 1e-6 everywhere: every candidate refines to a
    # minimum above ACCEPT_GAP.
    exact = topology._peak

    def lifted(h):
        return exact(h) * (1.0 - 1e-6)

    monkeypatch.setattr(topology, "_peak", lifted)
    ds = find_dirac_points("noncommuting", 121)
    assert (ds.points, ds.dropped, ds.continuous_boundary) == ((), 13, False)
    code = cli.main(["dirac-points", "--family", "noncommuting",
                     "--resolution", "121"])
    out, err = capsys.readouterr()
    assert (code, json.loads(out)) == (0, [])
    assert err == "note: 13 candidate cluster(s) failed refinement\n"


def test_scan_and_census_of_a_family_declared_in_the_test():
    # Declared by its fields and step alone, registered as a two-angle
    # family; the scan and the census against the test's own dense U(k).
    family = SwappedCoinWalk.family
    with swapped_coins_registered():
        gm = scan_gap(family, resolution=9, k_samples=33)
        ds = find_dirac_points(family, 121)

    def dense_gap(a1, a2, k):
        return 1.0 - abs(0.5 * np.trace(swapped_coin_unitary(a1, a2, k)).real)

    ks = np.linspace(-np.pi, np.pi, 33)
    for i, a1 in enumerate(gm.angles1):
        for j, a2 in enumerate(gm.angles2):
            sweep = min(dense_gap(a1, a2, k) for k in ks)
            assert abs(gm.gap[i, j] - sweep) <= 1e-15
            assert abs(dense_gap(a1, a2, gm.argmin_k[i, j]) - sweep) <= 1e-15
    # The coins close the gap where the non-commuting walk's do: 13 nodes.
    assert (len(ds.points), ds.dropped, ds.continuous_boundary) == (13, 0, False)
    for p in ds.points:
        u = swapped_coin_unitary(p.angle1, p.angle2, p.momentum)
        assert np.max(np.abs(np.linalg.eigvals(u) - np.cos(p.energy))) <= 1e-7


def test_dirac_points_sorted_deterministically():
    ds = find_dirac_points("noncommuting", coarse_resolution=121)
    keys = [(p.angle1, p.angle2) for p in ds.points]
    assert keys == sorted(keys)


def test_splitstep_has_continuous_gapless_boundary():
    ds = find_dirac_points("splitstep", coarse_resolution=121)
    assert ds.continuous_boundary
    assert ds.points == ()


def planar_winding(points: np.ndarray, normal=None) -> int:
    """Winding number of a closed planar curve about the origin's in-plane
    projection, from its unwrapped in-plane angle: the sampled path that
    winding_number's closed form replaced, kept as its oracle.

    points has shape (n, 3) and samples the loop once, without repeating
    the first point.  The best-fit plane comes from an SVD about the
    centroid; deviations beyond 1e-6 (relative to the curve size) raise
    ValueError.  Its normal is the given unit normal, or else the SVD
    normal with its largest component made positive.  A curve closer
    than 1e-9 to the projected origin raises GaplessPointError.
    """
    pts = np.asarray(points, dtype=float)
    rel = pts - pts.mean(axis=0)
    _, sing, vt = np.linalg.svd(rel, full_matrices=False)
    if sing[2] > 1e-6 * max(1.0, float(np.abs(rel).max())):
        raise ValueError(f"curve is not planar: residual {sing[2]:.3e}")
    if normal is None:
        normal = vt[2] * np.sign(vt[2][np.argmax(np.abs(vt[2]))])
    # In-plane frame: the coordinate axis least aligned with the normal,
    # projected into the plane, then normal x e1.
    e1 = np.zeros(3)
    e1[np.argmin(np.abs(normal))] = 1.0
    e1 -= (e1 @ normal) * normal
    e1 /= np.linalg.norm(e1)
    x, y = pts @ e1, pts @ np.cross(normal, e1)
    if np.hypot(x, y).min() < 1e-9:
        raise GaplessPointError("curve passes through the winding center")
    ang = np.arctan2(y, x)
    inc = np.diff(np.concatenate([ang, ang[:1]]))
    inc = (inc + np.pi) % (2.0 * np.pi) - np.pi
    return round(float(inc.sum()) / (2.0 * np.pi))


def sampled_winding(model) -> int:
    """planar_winding of a model's Bloch curve at 4096 momenta, about its
    chiral axis where it declares one."""
    ks = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    return planar_winding(model.bloch_numerators(ks), model.chiral_axis)


def _circle(n, e1, e2, turns=1, r=1.0, center=None):
    ts = 2.0 * np.pi * turns * np.arange(n) / n
    pts = r * (np.cos(ts)[:, None] * e1 + np.sin(ts)[:, None] * e2)
    if center is not None:
        pts = pts + center
    return pts


def test_planar_winding_unit_circle():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    pts = _circle(400, e1, e2)
    assert planar_winding(pts) == 1
    assert planar_winding(pts[::-1]) == -1


def test_planar_winding_double_loop():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    assert abs(planar_winding(_circle(800, e1, e2, turns=2))) == 2


def test_planar_winding_offset_circle_is_zero():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    pts = _circle(400, e1, e2, r=1.0, center=np.array([5.0, 0.0, 0.0]))
    assert planar_winding(pts) == 0


def test_planar_winding_tilted_plane():
    rng = np.random.default_rng(211)
    basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    pts = _circle(500, basis[:, 0], basis[:, 1])
    assert abs(planar_winding(pts)) == 1


def test_planar_winding_rejects_nonplanar():
    ts = np.linspace(0.0, 2.0 * np.pi, 200, endpoint=False)
    helix = np.stack([np.cos(ts), np.sin(ts), 0.3 * np.sin(3 * ts)], axis=1)
    with pytest.raises(ValueError, match="not planar"):
        planar_winding(helix)


def test_planar_winding_rejects_through_origin():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    pts = _circle(64, e1, e2)
    pts[10] = np.array([1e-12, 0.0, 0.0])
    with pytest.raises(GaplessPointError):
        planar_winding(pts)


def test_winding_number_goldens():
    assert winding_number(SplitStepWalk(np.pi / 2 - 0.3, 0.0)) == -1
    assert winding_number(SplitStepWalk(0.2, 0.9)) == 0
    assert winding_number(SplitStepWalk(0.9, 0.2)) == -1
    assert winding_number(StandardWalk(0.6)) == -1
    # A constant N(k) and a segment through no origin wind 0.
    assert winding_number(SplitStepWalk(0.5, np.pi / 2)) == 0
    assert winding_number(SplitStepWalk(0.0, 0.7)) == 0


@settings(max_examples=400)
@given(st.sampled_from([StandardWalk, NonCommutingWalk, SplitStepWalk,
                        SwappedCoinWalk]), angles, angles)
def test_winding_number_matches_the_sampled_oracle(cls, a1, a2):
    model = cls(a1) if cls is StandardWalk else cls(a1, a2)
    assume(1.0 - float(_peak(model.harmonics(*model.angles)[0])) >= 1e-3)
    assert winding_number(model) == sampled_winding(model)


@pytest.mark.parametrize("centre", [-np.pi / 4, 3 * np.pi / 4])
@pytest.mark.parametrize("theta2", [0.1, 0.5, -0.3, 1.2, 2.9])
def test_splitstep_winding_constant_where_the_gap_stays_open(centre, theta2):
    # The chiral axis (cos theta1, 0, sin theta1) swaps its largest
    # component at these theta1, where the pivot rule of a family with no
    # chiral axis would flip the winding's sign.
    theta1 = centre + np.linspace(-0.2, 0.2, 41)
    envelope = _peak(SplitStepWalk.harmonics(theta1, theta2)[0])
    assert np.min(1.0 - envelope) > 1e-3
    windings = {winding_number(SplitStepWalk(t1, theta2)) for t1 in theta1}
    assert len(windings) == 1


def test_standard_winding_changes_sign_only_where_the_gap_closes():
    # The gap 1 - |cos theta| closes at theta = 0 and +-pi only; no node
    # sits on either.  Index 179 pairs the nodes about 0, and 359 the
    # last node with the first, across +-pi.
    theta = -np.pi + (np.arange(360) + 0.5) * np.pi / 180
    nu = np.array([winding_number(StandardWalk(t)) for t in theta])
    assert set(np.flatnonzero(nu != np.roll(nu, -1))) <= {179, 359}
    assert np.array_equal(nu, -np.sign(theta))


@pytest.mark.parametrize("cls", [NonCommutingWalk, SplitStepWalk,
                                 SwappedCoinWalk], ids=lambda c: c.family)
def test_full_zone_zak_phase_is_pi_times_winding(cls):
    # Ties zak_map to winding_number at every live node, both bands.
    with family_registered(cls):
        zm = zak_map(cls.family, resolution=81, n_points=512, span="full")
    live = np.argwhere(~zm.masked)
    assert 0 < len(live) < zm.masked.size
    for i, j in live:
        nu = winding_number(cls(zm.angles1[i], zm.angles2[j]))
        for phase in (zm.zak_plus[i, j], zm.zak_minus[i, j]):
            assert abs(fold_angle(phase - np.pi * abs(nu))) < 1e-12


@settings(max_examples=20)
@given(family=st.sampled_from(["noncommuting", "splitstep"]),
       resolution=st.sampled_from([5, 9, 21]),
       n_points=st.integers(8, 300).map(lambda n: 2 * n))
def test_full_span_zak_map_is_pi_times_winding(family, resolution, n_points):
    # At every n_points, every live node of a full-span map has a
    # winding, so no closing, and both phases are pi |winding|; the
    # samples of n_points = 2 (mod 4) straddle the non-commuting closings
    # at (+-pi/2, +-pi/2).
    zm = zak_map(family, resolution, n_points, span="full")
    cls = two_angle_class(family)
    for i, j in zip(*np.nonzero(~zm.masked)):
        nu = winding_number(cls(zm.angles1[i], zm.angles2[j]))
        assert zm.zak_plus[i, j] == zm.zak_minus[i, j] == np.pi * abs(nu)


def test_winding_number_gapped_noncommuting_is_unit():
    rng = np.random.default_rng(223)
    found = 0
    while found < 8:
        model = NonCommutingWalk(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi, np.pi))
        ks = np.linspace(-np.pi, np.pi, 256)
        if np.min(1.0 - np.abs(np.asarray(model.cos_energy(ks)))) < 0.05:
            continue
        found += 1
        assert abs(winding_number(model)) == 1


def test_winding_number_gapless_model_raises():
    # Exact closings: the census nodes, the four split-step lines
    # theta2 = +-theta1 (+ pi), and standard theta in {0, +-pi}.
    t1 = np.random.default_rng(331).uniform(-np.pi, np.pi, 64)
    closings = [NonCommutingWalk(a1, a2) for a1, a2, _ in _analytic_census()]
    closings += [SplitStepWalk(a1, a2) for a1 in t1
                 for a2 in (a1, -a1, a1 + np.pi, np.pi - a1)]
    closings += [StandardWalk(t) for t in (0.0, np.pi, -np.pi)]
    for model in closings:
        with pytest.raises(GaplessPointError):
            winding_number(model)


def test_each_reader_folds_the_step_once(monkeypatch):
    # Every Laurent fold of a step goes through models._laurent; count
    # them, with the flag that says whether all four traces were formed.
    folds = []
    laurent = models._laurent

    def counted(ops, diagonal=False):
        folds.append(diagonal)
        return laurent(ops, diagonal)

    monkeypatch.setattr(models, "_laurent", counted)
    for model in (StandardWalk(0.7), NonCommutingWalk(0.7, 0.3),
                  SplitStepWalk(0.9, -0.4)):
        folds.clear()
        winding_number(model)
        assert folds == [False]
        folds.clear()
        zak_numeric(model, +1, k_origin=1.1, span="full")
        assert folds == [False]
    resolution = 2 * SCAN_BLOCK_ROWS + 3
    folds.clear()
    zak_map("noncommuting", resolution, 64)
    assert folds == [False] * 3
    # The census folds once per read of the envelope's peak, and once
    # more for the momentum and energy of all its points together.
    peak = topology._peak
    calls = []

    def counted_peak(h):
        calls.append(len(folds))
        return peak(h)

    monkeypatch.setattr(topology, "_peak", counted_peak)
    folds.clear()
    assert find_dirac_points("noncommuting", 201).points
    assert len(folds) == len(calls) + 1
