"""Sphere transport, Berry phases of the two-level family, and the
finite-difference quantum geometric tensor."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conftest as whole_array
from conftest import _polygon_rotation, discrete_berry_phase
from qwgeom import holonomy
from qwgeom.errors import (CurveNotSupportedError, FiniteDifferenceError,
                           OrthogonalStatesError)
from qwgeom.holonomy import (BLOCK_SEGMENTS, SphereCurve, TangentVector,
                             berry_overlap_phase, latitude_loop,
                             parallel_transport, quantum_geometric_tensor,
                             solid_angle, sphere_point, state_distance)
from qwgeom.spin import bloch_sphere_state
from qwgeom.utils import fold_angle


def _circ(a, b):
    return abs(fold_angle(a - b))


def _east(theta0):
    return TangentVector(v=np.array([0.0, 1.0, 0.0]),
                         base=sphere_point(theta0, 0.0))


def test_sphere_point_and_latitude_loop():
    p = sphere_point(np.pi / 2, 0.0)
    assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)
    loop = latitude_loop(0.7)
    assert np.allclose(loop.point(0.0), loop.point(1.0), atol=1e-15)
    assert abs(np.linalg.norm(loop.point(0.37)) - 1.0) < 1e-14


def _broadcast_first_sphere_point(theta, phi):
    """sphere_point as it was: broadcast, then one sine and one cosine per
    element of the broadcast shape."""
    theta, phi = np.broadcast_arrays(theta, phi)
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)],
                    axis=-1)


def test_trig_before_broadcasting_keeps_every_bit():
    rng = np.random.default_rng(7)
    big = rng.uniform(-7.0, 7.0, 20_001)
    # Whole, strided, offset and single-element inputs, and a stride-0
    # broadcast of one angle.
    for phi in (big, big[::3], big[1:], big[5:6], np.broadcast_to(big[2],
                                                                   (9,))):
        for theta in (float(big[0]), big[7:8], phi[::-1], 0.0, np.pi):
            new, old = sphere_point(theta, phi), \
                _broadcast_first_sphere_point(theta, phi)
            assert new.shape == old.shape
            assert np.array_equal(new, old)
    grid = (np.array([[0.3], [1.2]]), np.array([0.0, 1.0, 2.0]))
    assert np.array_equal(sphere_point(*grid),
                          _broadcast_first_sphere_point(*grid))
    wobbly = SphereCurve(lambda t: (1.0 + 0.3 * np.sin(6.0 * np.pi * t),
                                    2.0 * np.pi * t))
    constant = SphereCurve(lambda t: (0.8, 0.25))
    for curve in (latitude_loop(0.7), wobbly, constant):
        for t in (np.linspace(0.0, 1.0, 8193), 0.0, 0.37):
            _, *angles = np.broadcast_arrays(t, *curve.parameterization(t))
            assert np.array_equal(
                curve.point(t), _broadcast_first_sphere_point(*angles))
    assert constant.point(np.zeros(4)).shape == (4, 3)


def test_curve_sampling_broadcasts():
    loop = latitude_loop(0.7)
    ts = np.linspace(0.0, 1.0, 7)
    theta, phi = loop.parameterization(ts)
    assert theta == 0.7
    assert np.array_equal(phi, 2.0 * np.pi * ts)
    pts = loop.point(ts)
    assert pts.shape == (7, 3)
    for t, p in zip(ts, pts):
        assert np.allclose(p, loop.point(float(t)), rtol=0.0, atol=1e-15)
    grid = sphere_point(np.array([[0.3], [1.2]]), np.array([0.0, 1.0, 2.0]))
    assert grid.shape == (2, 3, 3)
    assert np.allclose(grid[1, 2], sphere_point(1.2, 2.0),
                       rtol=0.0, atol=1e-15)


def test_tangent_vector_validation():
    base = sphere_point(0.9, 0.2)
    with pytest.raises(ValueError):
        TangentVector(v=base * 0.5, base=base)
    with pytest.raises(ValueError):
        TangentVector(v=np.array([0.0, 1.0, 0.0]),
                      base=np.array([0.0, 0.0, 2.0]))
    with pytest.raises(ValueError):
        TangentVector(v=np.ones(2), base=base)


def test_transport_rotation_matches_solid_angle():
    theta0 = np.pi / 3
    vf, rotation = parallel_transport(latitude_loop(theta0), _east(theta0),
                                      steps=20_000)
    assert _circ(rotation, np.pi) < 1e-8
    assert abs(vf.norm - 1.0) < 1e-12
    assert abs(float(np.dot(vf.v, vf.base))) < 1e-10


def test_transport_equator_is_trivial():
    _, rotation = parallel_transport(latitude_loop(np.pi / 2),
                                     _east(np.pi / 2), steps=20_000)
    assert _circ(rotation, 0.0) < 1e-9


def test_transport_orientation_reversal_negates():
    theta0 = 1.1
    loop = latitude_loop(theta0)
    reverse = SphereCurve(
        parameterization=lambda t: loop.parameterization(1.0 - t))
    _, forward = parallel_transport(loop, _east(theta0), steps=4_000)
    _, backward = parallel_transport(reverse, _east(theta0), steps=4_000)
    assert abs(forward + backward) < 1e-12


def test_transport_validation():
    loop = latitude_loop(0.8)
    with pytest.raises(ValueError):
        parallel_transport(loop, _east(0.8), steps=50)
    with pytest.raises(CurveNotSupportedError):
        parallel_transport(loop, _east(1.2), steps=500)
    arc = SphereCurve(parameterization=lambda t: (0.8, np.pi * t))
    with pytest.raises(CurveNotSupportedError):
        parallel_transport(arc, _east(0.8), steps=500)


def _tilted_circle(axis, theta0, phase, orientation):
    """Circle at angular distance theta0 from the unit axis, starting at
    phase and run counterclockwise about it (orientation +1) or clockwise."""
    e1 = np.cross(axis, np.eye(3)[np.argmin(np.abs(axis))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)

    def angles(t):
        turn = (phase + orientation * 2.0 * np.pi * np.asarray(t))[..., None]
        p = np.cos(theta0) * axis + np.sin(theta0) * (np.cos(turn) * e1
                                                      + np.sin(turn) * e2)
        x, y, z = np.moveaxis(p, -1, 0)
        return np.arctan2(np.hypot(x, y), z), np.arctan2(y, x)

    return SphereCurve(angles)


@given(z=st.floats(min_value=-1.0, max_value=1.0),
       azimuth=st.floats(min_value=-np.pi, max_value=np.pi),
       theta0=st.floats(min_value=0.1, max_value=np.pi - 0.1),
       phase=st.floats(min_value=-np.pi, max_value=np.pi),
       orientation=st.sampled_from([1, -1]),
       psi=st.floats(min_value=-np.pi, max_value=np.pi))
def test_tilted_circle_holonomy_is_enclosed_solid_angle(
        z, azimuth, theta0, phase, orientation, psi):
    axis = np.array([np.sqrt(1.0 - z * z) * np.cos(azimuth),
                     np.sqrt(1.0 - z * z) * np.sin(azimuth), z])
    curve = _tilted_circle(axis, theta0, phase, orientation)
    r0 = curve.point(0.0)
    e_a = axis - np.dot(axis, r0) * r0
    e_a /= np.linalg.norm(e_a)
    v0 = TangentVector(v=np.cos(psi) * e_a + np.sin(psi) * np.cross(r0, e_a),
                       base=r0)
    vf, rotation = parallel_transport(curve, v0, steps=2000)
    expected = orientation * 2.0 * np.pi * (1.0 - np.cos(theta0))
    assert _circ(rotation, expected) < 1e-10
    assert abs(vf.norm - v0.norm) < 1e-14
    # Counted from +z, a circle around -z encloses the complement: the
    # area differs from expected by 4 pi, which is 0 on the circle.
    assert _circ(solid_angle(curve, steps=2000), expected) < 1e-10


def test_transport_is_independent_of_parameterization_speed():
    # s(t) = t - sin(2 pi t) / (2 pi) runs the loop with zero speed at the
    # seam, so the samples crowd there and thin out at t = 1/2.
    for theta0 in (0.4, 1.1, 2.5):
        seam_stop = SphereCurve(
            lambda t: (theta0, 2.0 * np.pi * t - np.sin(2.0 * np.pi * t)))
        _, rotation = parallel_transport(seam_stop, _east(theta0), steps=2000)
        assert _circ(rotation, 2.0 * np.pi * (1.0 - np.cos(theta0))) < 1e-11


def test_transport_rejects_antipodal_samples():
    # Parked at one point, the curve jumps to its antipode and back.
    def angles(t):
        far = (t >= 0.25) & (t < 0.75)
        return np.where(far, np.pi - 0.8, 0.8), np.where(far, np.pi, 0.0)

    with pytest.raises(CurveNotSupportedError, match="antipodal"):
        parallel_transport(SphereCurve(angles), _east(0.8),
                           steps=2000)


def _quaternion_product(p, q):
    """Row-wise Hamilton products p q of quaternion stacks (w, x, y, z)."""
    pw, pv = p[:, :1], p[:, 1:]
    qw, qv = q[:, :1], q[:, 1:]
    w = pw * qw - np.sum(pv * qv, axis=1, keepdims=True)
    return np.hstack([w, pw * qv + qw * pv + np.cross(pv, qv)])


def oracle_polygon_rotation(pts, axis):
    """The reference _polygon_rotation must match bit for bit: the same
    composition on (n, 4) quaternion stacks, through np.hstack, np.sum
    and np.cross."""
    a, b = pts[:-1], pts[1:]
    q = np.hstack([1.0 + np.sum(a * b, axis=1, keepdims=True), np.cross(a, b)])
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    while len(q) > 1:
        if len(q) % 2:
            q = np.vstack([q, [1.0, 0.0, 0.0, 0.0]])
        q = _quaternion_product(q[1::2], q[0::2])
    return 2.0 * math.atan2(float(np.dot(q[0, 1:], axis)), q[0, 0])


@given(latitude=st.booleans(), theta0=st.floats(0.05, np.pi - 0.05),
       wobble=st.floats(0.0, 0.3), drift=st.floats(-0.5, 0.5),
       harmonic=st.integers(1, 6), samples=st.integers(2, 5000))
@example(latitude=False, theta0=1.0, wobble=0.3, drift=0.2, harmonic=3,
         samples=40_001)
@example(latitude=True, theta0=1.0, wobble=0.0, drift=0.0, harmonic=1,
         samples=80_001)
def test_polygon_rotation_equals_the_stacked_quaternion_oracle(
        latitude, theta0, wobble, drift, harmonic, samples):
    if latitude:
        wobble = drift = 0.0
    curve = SphereCurve(lambda t: (
        theta0 + wobble * np.sin(2.0 * np.pi * harmonic * t),
        2.0 * np.pi * t + drift * np.sin(2.0 * np.pi * t)))
    pts = curve.point(np.linspace(0.0, 1.0, samples))
    r0 = curve.point(0.0)
    for grid in (pts, pts[::2]):
        if len(grid) > 1:
            assert _polygon_rotation(grid, r0) == oracle_polygon_rotation(
                grid, r0)


def _curve(shape, theta0, wobble, drift, harmonic):
    """A latitude loop, a wobbly loop, or a latitude loop that stops at
    its seam (zero speed at t = 0 and 1)."""
    if shape == "latitude":
        return latitude_loop(theta0)
    if shape == "seam-stop":
        return SphereCurve(
            lambda t: (theta0, 2.0 * np.pi * t - np.sin(2.0 * np.pi * t)))
    return SphereCurve(lambda t: (
        theta0 + wobble * np.sin(2.0 * np.pi * harmonic * t),
        2.0 * np.pi * t + drift * np.sin(2.0 * np.pi * t)))


def _block_polygon_rotation(pts, axis):
    """The rotation of the polygon through pts, fed to holonomy._Polygon in
    the blocks that the sampling pass makes."""
    segments = len(pts) - 1
    polygon = holonomy._Polygon(segments, BLOCK_SEGMENTS)
    for lo in range(0, segments, BLOCK_SEGMENTS):
        polygon.add(pts[lo:lo + BLOCK_SEGMENTS + 1])
    return polygon.angle(axis)


@given(shape=st.sampled_from(["latitude", "wobbly", "seam-stop"]),
       theta0=st.floats(0.05, np.pi - 0.05), wobble=st.floats(0.0, 0.3),
       drift=st.floats(-0.5, 0.5), harmonic=st.integers(1, 6),
       segments=st.sampled_from([BLOCK_SEGMENTS - 1, BLOCK_SEGMENTS,
                                 BLOCK_SEGMENTS + 1, 3 * BLOCK_SEGMENTS + 1])
       | st.integers(1, 3 * BLOCK_SEGMENTS).map(lambda n: 2 * n + 1))
def test_block_polygon_equals_the_whole_polygon_oracle(
        shape, theta0, wobble, drift, harmonic, segments):
    # Segment counts just under, at and over one block, and odd ones, so
    # the last block pads at the levels where the whole product does.
    curve = _curve(shape, theta0, wobble, drift, harmonic)
    pts = curve.point(np.linspace(0.0, 1.0, segments + 1))
    r0 = curve.point(0.0)
    assert _block_polygon_rotation(pts, r0) == _polygon_rotation(pts, r0)


def test_sample_blocks_cover_the_linspace_grid_once():
    curve = _curve("wobbly", 1.0, 0.3, 0.2, 3)
    for steps in (100, BLOCK_SEGMENTS // 2, BLOCK_SEGMENTS // 2 + 1,
                  3 * BLOCK_SEGMENTS // 2 + 1):
        blocks = list(holonomy._sample_blocks(curve, steps))
        assert [len(b) - 1 for b in blocks[:-1]] == [BLOCK_SEGMENTS] * (
            len(blocks) - 1)
        for before, after in zip(blocks, blocks[1:]):
            assert np.array_equal(before[-1], after[0])
        whole = curve.point(np.linspace(0.0, 1.0, 2 * steps + 1))
        assert np.array_equal(
            np.concatenate([blocks[0]] + [b[1:] for b in blocks[1:]]), whole)


_STEPS = st.sampled_from([BLOCK_SEGMENTS // 2 - 1, BLOCK_SEGMENTS // 2,
                          BLOCK_SEGMENTS // 2 + 1,
                          3 * BLOCK_SEGMENTS // 2 + 1]) | st.integers(
    100, 2 * BLOCK_SEGMENTS)


@given(shape=st.sampled_from(["latitude", "wobbly", "seam-stop"]),
       theta0=st.floats(0.05, np.pi - 0.05), wobble=st.floats(0.0, 0.3),
       drift=st.floats(-0.5, 0.5), harmonic=st.integers(1, 6), steps=_STEPS)
@example(shape="wobbly", theta0=1.0, wobble=0.3, drift=0.2, harmonic=3,
         steps=20_000)
def test_streamed_transport_and_area_equal_the_whole_array_oracle(
        shape, theta0, wobble, drift, harmonic, steps):
    # 2 steps straddles one block (BLOCK_SEGMENTS - 2, BLOCK_SEGMENTS,
    # + 2, 3 BLOCK_SEGMENTS + 2) and steps, the coarse polygon's
    # segment count, is odd or even.
    curve = _curve(shape, theta0, wobble, drift, harmonic)
    r0 = curve.point(0.0)
    east = np.cross([0.0, 0.0, 1.0], r0)
    v0 = TangentVector(v=east / np.linalg.norm(east), base=r0)
    vf, rotation = parallel_transport(curve, v0, steps=steps)
    area = solid_angle(curve, steps=steps)
    oracle_vf, oracle_rotation = whole_array.parallel_transport(curve, v0,
                                                                steps)
    assert rotation == oracle_rotation
    assert np.array_equal(vf.v, oracle_vf.v)
    assert np.array_equal(vf.base, oracle_vf.base)
    assert area == whole_array.solid_angle(curve, steps)
    one_pass = holonomy._transport_and_area(curve, v0, steps)
    assert one_pass[1:] == (rotation, area)
    assert np.array_equal(one_pass[0].v, vf.v)


def _refusal(call):
    with pytest.raises(CurveNotSupportedError) as info:
        call()
    return info.type, str(info.value)


def test_streamed_refusals_in_the_last_block_match_the_oracle():
    steps = 5 * BLOCK_SEGMENTS // 2  # five blocks; t >= 0.8 in the last

    def jump(t):
        far = (t >= 0.9) & (t < 0.95)
        return np.where(far, np.pi - 0.8, 0.8), np.where(far, np.pi, 0.0)

    antipodal = SphereCurve(jump)
    assert _refusal(lambda: parallel_transport(antipodal, _east(0.8), steps)) \
        == _refusal(lambda: whole_array.parallel_transport(
            antipodal, _east(0.8), steps))
    # A great circle through both poles, at -z for t = 7/8.
    meridian = _tilted_circle(np.array([1.0, 0.0, 0.0]), np.pi / 2,
                              np.pi - 1.75 * np.pi, 1)
    assert np.linalg.norm(meridian.point(0.875) + [0.0, 0.0, 1.0]) < 1e-15
    refusal = _refusal(lambda: whole_array.solid_angle(meridian, steps))
    assert "south pole" in refusal[1]
    assert _refusal(lambda: solid_angle(meridian, steps)) == refusal
    with pytest.raises(CurveNotSupportedError, match="antipodal"):
        holonomy._transport_and_area(antipodal, _east(0.8), steps)
    r0 = meridian.point(0.0)
    v0 = TangentVector(v=np.cross(r0, [1.0, 0.0, 0.0]), base=r0)
    with pytest.raises(CurveNotSupportedError, match="south pole"):
        holonomy._transport_and_area(meridian, v0, steps)


def test_solid_angle_latitude_exact():
    for theta0 in (0.4, np.pi / 2, 2.2):
        area = solid_angle(latitude_loop(theta0))
        assert abs(area - 2.0 * np.pi * (1.0 - np.cos(theta0))) < 1e-9


def test_solid_angle_of_non_graph_and_double_loops():
    # Neither curve is a graph theta(phi): the first runs back in azimuth,
    # the second goes round twice.
    cap = 2.0 * np.pi * (1.0 - np.cos(0.9))
    wiggle = SphereCurve(
        parameterization=lambda t: (0.9, 2.0 * np.pi * t
                                    + 0.8 * np.sin(4.0 * np.pi * t)))
    assert abs(solid_angle(wiggle) - cap) < 1e-11
    double = SphereCurve(
        parameterization=lambda t: (0.9, 4.0 * np.pi * t))
    assert abs(solid_angle(double) - 2.0 * cap) < 1e-11


def test_solid_angle_of_wobbly_loop_matches_transport():
    wobbly = SphereCurve(
        parameterization=lambda t: (1.0 + 0.3 * np.sin(6.0 * np.pi * t),
                                    2.0 * np.pi * t
                                    + 0.2 * np.sin(2.0 * np.pi * t)))
    r0 = wobbly.point(0.0)
    east = np.cross([0.0, 0.0, 1.0], r0)
    v0 = TangentVector(v=east / np.linalg.norm(east), base=r0)
    _, rotation = parallel_transport(wobbly, v0, steps=20_000)
    assert _circ(solid_angle(wobbly, steps=20_000), rotation) < 1e-12


def test_solid_angle_rejects_curve_through_south_pole():
    # A great circle through both poles; the sample at t = 1/2 sits on -z.
    meridian = _tilted_circle(np.array([1.0, 0.0, 0.0]), np.pi / 2, 0.0, 1)
    assert np.linalg.norm(meridian.point(0.5) + [0.0, 0.0, 1.0]) < 1e-15
    with pytest.raises(CurveNotSupportedError, match="south pole"):
        solid_angle(meridian, steps=1000)


def test_berry_overlap_phase_and_validation():
    psi = np.array([0.6, 0.8j])
    rotated = np.exp(0.45j) * psi
    assert abs(berry_overlap_phase(psi, rotated) - 0.45) < 1e-12
    with pytest.raises(OrthogonalStatesError):
        berry_overlap_phase(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        berry_overlap_phase(np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_state_distance_examples():
    psi = bloch_sphere_state(0.7, 0.2, +1)
    assert state_distance(psi, np.exp(1.3j) * psi) < 1e-12
    orth = bloch_sphere_state(0.7, 0.2, -1)
    assert abs(state_distance(psi, orth) - 1.0) < 1e-12


def test_spin_chain_phase_is_minus_half_solid_angle():
    theta0, m = 0.8, 4000
    area = 2.0 * np.pi * (1.0 - np.cos(theta0))
    phis = 2.0 * np.pi * np.arange(m) / m
    states = np.stack([bloch_sphere_state(theta0, p, +1) for p in phis])
    chain = discrete_berry_phase(states, closed=True)
    assert _circ(chain, -0.5 * area) < 1e-5


def test_projector_transport_overlap_is_plus_half_solid_angle():
    theta0, m = 0.8, 4000
    area = 2.0 * np.pi * (1.0 - np.cos(theta0))
    phis = 2.0 * np.pi * np.arange(m) / m
    states = [bloch_sphere_state(theta0, p, +1) for p in phis]
    psi = states[0]
    for s in states[1:] + [states[0]]:
        psi = s * np.vdot(s, psi)
        psi = psi / np.linalg.norm(psi)
    assert _circ(berry_overlap_phase(states[0], psi), 0.5 * area) < 1e-5


def test_qgt_spin_family_golden():
    theta = 0.4

    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    gt = quantum_geometric_tensor(family, (theta, 1.1))
    expected_g = 0.25 * np.diag([1.0, np.sin(theta) ** 2])
    assert np.max(np.abs(gt.g - expected_g)) < 1e-9
    assert abs(gt.curvature[0, 1] + 0.5 * np.sin(theta)) < 1e-9
    assert abs(gt.curvature[0, 1] + gt.curvature[1, 0]) < 1e-15
    assert abs(gt.g[0, 1] - gt.g[1, 0]) < 1e-15
    assert gt.error_bound < 1e-8
    assert gt.params == (theta, 1.1)


def test_qgt_metric_proportionality_across_points():
    rng = np.random.default_rng(401)

    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    for _ in range(10):
        theta = rng.uniform(0.15, np.pi - 0.15)
        phi = rng.uniform(-np.pi, np.pi)
        gt = quantum_geometric_tensor(family, (theta, phi))
        ratio = gt.g[1, 1] / gt.g[0, 0]
        assert abs(ratio - np.sin(theta) ** 2) < 1e-6
        assert abs(gt.g[0, 1]) < 1e-8


def test_qgt_gauge_invariance():
    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    def regauged(a, b):
        return np.exp(1j * (0.4 * a - 0.9 * b + 0.3 * a * b)) * family(a, b)

    at = (0.7, -0.4)
    gt = quantum_geometric_tensor(family, at)
    gt2 = quantum_geometric_tensor(regauged, at)
    assert np.max(np.abs(gt.g - gt2.g)) < 1e-6
    assert np.max(np.abs(gt.curvature - gt2.curvature)) < 1e-6


def test_qgt_distance_expansion():
    at = (0.7, 0.3)
    dx = np.array([1e-3, -1e-3])

    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    gt = quantum_geometric_tensor(family, at)
    ds2 = float(dx @ gt.g @ dx)
    psi1 = family(*at)
    psi2 = family(at[0] + dx[0], at[1] + dx[1])
    # state_distance already returns 1 - |<psi1|psi2>|^2, the quadratic
    # form the metric expands.
    delta = state_distance(psi1, psi2)
    assert abs(ds2 - delta) < 1e-8


def test_qgt_h_validation_and_rough_family():
    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    with pytest.raises(ValueError):
        quantum_geometric_tensor(family, (0.4, 0.1), h=1e-2)
    with pytest.raises(ValueError):
        quantum_geometric_tensor(family, (0.4, 0.1), h=1e-9)

    def jumpy(a, b):
        shift = 0.15 if a > 0.0 else 0.0
        return bloch_sphere_state(0.5 + shift, b, +1)

    with pytest.raises(FiniteDifferenceError):
        quantum_geometric_tensor(jumpy, (0.0, 0.4))


@pytest.mark.parametrize("theta", [1e8, 1e13])
def test_qgt_refuses_a_stencil_that_rounding_distorts(theta):
    # At 1e10 the offsets x +- h are off by 0.8% and both Richardson
    # widths agree on g_tt = 0.2459 instead of 1/4; from 1e13 they collapse.
    def family(a, b):
        return bloch_sphere_state(a, b, +1)

    with pytest.raises(FiniteDifferenceError, match="stencil offset"):
        quantum_geometric_tensor(family, (theta, 0.3), h=1e-4)
    with pytest.raises(FiniteDifferenceError, match="stencil offset"):
        quantum_geometric_tensor(family, (0.3, theta), h=1e-4)


@given(theta=st.floats(-np.pi, np.pi), phi=st.floats(-np.pi, np.pi),
       h=st.floats(1e-7, 1e-3), band=st.sampled_from((+1, -1)))
@example(theta=np.pi, phi=-np.pi, h=1e-7, band=+1)
@example(theta=-np.pi, phi=np.pi, h=1e-3, band=-1)
def test_qgt_stencil_guard_passes_every_in_range_point(theta, phi, h, band):
    def family(a, b):
        return bloch_sphere_state(a, b, band)

    gt = quantum_geometric_tensor(family, (theta, phi), h=h)
    assert abs(gt.g[0, 0] - 0.25) < 1e-6
