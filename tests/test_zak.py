"""Zak phases: discrete Wilson chains, numeric integration, closed forms,
and the two-angle phase maps."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import SwappedCoinWalk, angles, swapped_coin_unitary, walk_models
from qwgeom import zak
from qwgeom.errors import GaplessPointError, OrthogonalStatesError
from qwgeom.models import (NonCommutingWalk, SplitStepWalk, StandardWalk,
                           make_model, sampled_band_edge, two_angle_class)
from qwgeom.spin import band_eigenvector, half_solid_angle
from qwgeom.utils import fold_angle
from qwgeom.zak import (_wilson_phases, discrete_berry_phase,
                        zak_difference, zak_map, zak_noncommuting_integrand,
                        zak_numeric, zak_splitstep_analytic)


def _circ(a, b):
    return abs(fold_angle(a - b))


def _gapped(model, floor=0.05):
    ks = np.linspace(-np.pi, np.pi, 256)
    return np.min(1.0 - np.abs(np.asarray(model.cos_energy(ks)))) > floor


def test_discrete_berry_phase_two_vectors():
    v0 = np.array([1.0, 0.0], dtype=complex)
    v1 = np.array([np.exp(0.3j) * np.sqrt(0.8), np.sqrt(0.2)], dtype=complex)
    assert abs(discrete_berry_phase(np.stack([v0, v1])) - 0.3) < 1e-14


def test_discrete_berry_phase_closed_chain_appends_wrap():
    rng = np.random.default_rng(307)
    vecs = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    open_phase = discrete_berry_phase(vecs)
    wrap = float(np.angle(np.vdot(vecs[-1], vecs[0])))
    closed_phase = discrete_berry_phase(vecs, closed=True)
    assert abs(closed_phase - (open_phase + wrap)) < 1e-13


def test_discrete_berry_phase_closed_chain_gauge_invariant():
    rng = np.random.default_rng(311)
    vecs = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    base = discrete_berry_phase(vecs, closed=True)
    regauged = vecs * np.exp(1j * rng.uniform(-np.pi, np.pi, size=(8, 1)))
    assert _circ(discrete_berry_phase(regauged, closed=True), base) < 1e-12


def test_discrete_berry_phase_open_chain_endpoint_gauge():
    # A smooth phase mu_i changes the open chain by mu_last - mu_first,
    # so profiles with equal endpoints leave it untouched.
    rng = np.random.default_rng(313)
    vecs = rng.normal(size=(30, 2)) + 1j * rng.normal(size=(30, 2))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    base = discrete_berry_phase(vecs)
    ts = np.linspace(0.0, 1.0, 30)
    mu = 0.8 * np.sin(2.0 * np.pi * ts) + 0.3 * ts * (1.0 - ts)
    regauged = vecs * np.exp(1j * mu)[:, None]
    # Individual links may wrap across +-pi, so the sum is preserved
    # only modulo 2 pi (which is all a phase needs).
    assert _circ(discrete_berry_phase(regauged), base) < 1e-12


def test_discrete_berry_phase_rejects_orthogonal_neighbors():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(OrthogonalStatesError):
        discrete_berry_phase(vecs)


def _oracle_phase(model, band, k_origin, n_points, span):
    """Zak phase from complex eigenvectors and their overlap chain."""
    half_width, weight = (np.pi / 2, 2.0) if span == "half" else (np.pi, 1.0)
    ks = np.linspace(k_origin - half_width, k_origin + half_width,
                     n_points + 1)
    vectors = band_eigenvector(model.bloch_numerators(ks), band)
    return fold_angle(weight * discrete_berry_phase(vectors))


def test_zak_of_a_family_declared_in_the_test():
    # Declared by its fields and step alone; both spans against the
    # overlap chain of the test's own dense eigenvectors.  The band s
    # state has the eigenvalue e^{-i s E}, E in (0, pi), and is taken in
    # band_eigenvector's gauge (lower component real, of sign -s), which
    # fixes the open chain's ends.
    theta, phi = 0.9, 0.3
    for span, width, weight in (("half", np.pi / 2, 2.0), ("full", np.pi, 1.0)):
        for band in (+1, -1):
            vectors = []
            for k in np.linspace(-width, width, 513):
                lam, vec = np.linalg.eig(swapped_coin_unitary(theta, phi, k))
                v = vec[:, np.argmin(band * lam.imag)]
                vectors.append(v * (-band * abs(v[1]) / v[1]))
            oracle = weight * discrete_berry_phase(np.array(vectors))
            zr = zak_numeric(SwappedCoinWalk(theta, phi), band, n_points=512,
                             span=span)
            assert _circ(zr.phase, oracle) < 1e-12


def test_zak_chart_pole_path_raises_gapless():
    # On these paths the Bloch vector lies on the z axis, so s n = +z (the
    # chart pole of the link kernel) at some samples; each path also
    # samples a gapless momentum, so it is refused before any link.
    for model in (StandardWalk(0.0), NonCommutingWalk(0.0, 0.0),
                  SplitStepWalk(0.0, 0.0)):
        n = model.bloch_numerators(np.linspace(-np.pi / 2, np.pi / 2, 65))
        assert np.all(n[:, :2] == 0.0)
        for band in (+1, -1):
            assert np.any(band * n[:, 2] > 0.0)
            for span in ("half", "full"):
                with pytest.raises(GaplessPointError):
                    zak_numeric(model, band, n_points=64, span=span)


def test_wilson_links_reject_antipodal_samples():
    # Off the momentum grid the same pole path jumps from +z to -z between
    # two samples, where the states of both bands are orthogonal.
    with pytest.raises(OrthogonalStatesError):
        zak_numeric(StandardWalk(0.0), +1, k_origin=0.1, n_points=16)
    # |<v_i|v_i+1>| = |n_i + n_i+1| / 2 against the 1e-12 threshold.
    for eps, refused in ((1e-13, True), (1e-11, False)):
        n = np.array([[0.0, 0.0, 1.0],
                      [np.sin(2.0 * eps), 0.0, -np.cos(2.0 * eps)]])
        for band in (+1, -1):
            if refused:
                with pytest.raises(OrthogonalStatesError):
                    _wilson_phases(n, 1.0, (band,))
            else:
                assert np.isfinite(_wilson_phases(n, 1.0, (band,))[0])


_SOUTH = np.array([0.0, 0.0, -1.0])


def _per_band_phase(numerators, band, weight):
    """One band's folded Wilson phase the per-band way: every link is a
    general-apex half_solid_angle(-z, s n_i, s n_i+1)."""
    xyz = np.moveaxis(numerators, -1, 0)
    x, y, z = xyz
    n = np.multiply(xyz, band / np.sqrt(x * x + y * y + z * z), order="C")
    links = half_solid_angle(_SOUTH, n[..., :-1], n[..., 1:])
    return zak.fold_angle_array(weight * links.sum(axis=-1))


# Axis and diagonal directions make exact zeros in the links' xy cross
# product, where the sign of a zero decides between +pi and -pi.
_directions = st.one_of(
    st.sampled_from([(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0),
                     (0.0, -1.0, 0.0), (1.0, -1.0, 0.0), (-1.0, 1.0, 0.0)]),
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda v: math.hypot(*v) > 1e-2))


@st.composite
def unit_chains(draw):
    """3 to 12 unit vectors; a link may instead lead to a point within
    1e-3 .. 1e-13 of the antipode of the previous vector."""
    chain = []
    for _ in range(draw(st.integers(3, 12))):
        v = np.array(draw(_directions))
        eps = draw(st.sampled_from([None] * 4 + [1e-3, 1e-8, 1e-11, 1e-13]))
        if chain and eps is not None:
            v = -chain[-1] + eps * v
        chain.append(v / np.linalg.norm(v))
    return np.array(chain)


@given(chain=unit_chains(), weight=st.sampled_from([1.0, 2.0]))
@example(chain=np.array([[0.7071067811865476, -0.7071067811865476, 0.0],
                         [-0.7071064276334225, 0.7071064276334225,
                          -0.000999999499481581],
                         [0.0, -1.0, 0.0]]), weight=1.0)
def test_fused_kernel_equals_per_band_links(chain, weight):
    chains = np.stack([chain, chain[::-1]])
    u = chains / np.linalg.norm(chains, axis=-1, keepdims=True)
    overlaps = np.sum((u[:, :-1] + u[:, 1:]) ** 2, axis=-1)
    # The kernel refuses |a + b| < 2e-12; chains within rounding of that
    # bound are skipped.
    if np.min(overlaps) < (1.5 * zak.OVERLAP_TOL) ** 2:
        for bands in ((+1, -1), (+1,), (-1,)):
            with pytest.raises(OrthogonalStatesError):
                _wilson_phases(chains, weight, bands)
        return
    assume(np.min(overlaps) > (2.5 * zak.OVERLAP_TOL) ** 2)
    plus, minus = _wilson_phases(chains, weight)
    assert np.array_equal(plus, _per_band_phase(chains, +1, weight))
    assert np.array_equal(minus, _per_band_phase(chains, -1, weight))
    for band, expected in ((+1, plus), (-1, minus)):
        (alone,) = _wilson_phases(chains, weight, (band,))
        assert np.array_equal(alone, expected)


def test_zak_trivial_case_both_bands():
    model = NonCommutingWalk(np.pi / 2, 0.0)
    for band in (+1, -1):
        zr = zak_numeric(model, band)
        assert _circ(zr.phase, np.pi) < 1e-7
        assert zr.converged
        assert zr.span == "half"
        assert zr.n_points == 2048


def test_zak_numeric_validation():
    model = NonCommutingWalk(0.9, 0.7)
    with pytest.raises(ValueError):
        zak_numeric(model, +1, n_points=31)
    with pytest.raises(ValueError):
        zak_numeric(model, +1, n_points=8)
    with pytest.raises(ValueError):
        zak_numeric(model, +1, span="quarter")
    with pytest.raises(ValueError):
        zak_numeric(model, 0)


def test_zak_gapless_path_raises():
    with pytest.raises(GaplessPointError):
        zak_numeric(NonCommutingWalk(0.0, 0.0), +1)


def test_zak_large_origin_reduces_to_its_remainder():
    # Far from zero, adjacent momenta of the window would round to one
    # float and every link would vanish.
    model = NonCommutingWalk(0.9, 0.3)
    far = zak_numeric(model, +1, k_origin=1e17)
    near = zak_numeric(model, +1, k_origin=math.remainder(1e17, 2 * math.pi))
    assert far.phase == near.phase
    assert far.k_origin == 1e17


def test_zak_doubling_convergence():
    rng = np.random.default_rng(331)
    checked = 0
    while checked < 6:
        model = NonCommutingWalk(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi, np.pi))
        if not _gapped(model):
            continue
        checked += 1
        for band in (+1, -1):
            z1 = zak_numeric(model, band, n_points=2048).phase
            z2 = zak_numeric(model, band, n_points=4096).phase
            assert _circ(z1, z2) < 1e-7


def test_zak_full_span_is_quantized_for_gapped_noncommuting():
    # The Bloch curves are planar and pass around the origin, so the
    # closed Wilson loop over the full zone is pinned to pi mod 2 pi.
    rng = np.random.default_rng(337)
    checked = 0
    while checked < 6:
        model = NonCommutingWalk(rng.uniform(-np.pi, np.pi),
                                 rng.uniform(-np.pi, np.pi))
        if not _gapped(model):
            continue
        checked += 1
        for band in (+1, -1):
            z = zak_numeric(model, band, span="full", n_points=1024).phase
            assert _circ(z, np.pi) < 1e-12


@given(model=walk_models(), band=st.sampled_from([1, -1]),
       span=st.sampled_from(["half", "full"]), k_origin=angles,
       n_points=st.sampled_from([16, 128, 2048]))
def test_zak_numeric_matches_eigenvector_chain(model, band, span, k_origin,
                                               n_points):
    width = np.pi if span == "half" else 2.0 * np.pi
    ks = np.linspace(k_origin - width / 2, k_origin + width / 2,
                     n_points + 1)
    # The window, not only its samples, must be gapped: a touching between
    # two samples flips the Bloch vector across one link.
    fine = np.linspace(ks[0], ks[-1], 4096 + 1)
    assume(np.min(model.gap(fine)) >= 1e-3)
    zr = zak_numeric(model, band, k_origin, n_points, span=span)
    oracle = _oracle_phase(model, band, k_origin, n_points, span)
    assert _circ(zr.phase, oracle) < 1e-11


@given(theta=angles, phi=angles, band=st.sampled_from([1, -1]))
def test_zak_full_span_quantized_property(theta, phi, band):
    model = NonCommutingWalk(theta, phi)
    assume(np.min(model.gap(np.linspace(-np.pi, np.pi, 1025))) >= 1e-3)
    z = zak_numeric(model, band, span="full", n_points=1024).phase
    assert _circ(z, np.pi) < 1e-9


def test_zak_difference_origin_invariance():
    a = NonCommutingWalk(np.pi / 2, 0.0)
    b = SplitStepWalk(0.4, np.pi / 2)
    d0 = zak_difference(a, b, -1)
    d1 = zak_difference(a, b, -1, k_origin=0.7)
    assert _circ(d0, np.pi) < 1e-7
    assert _circ(d0, d1) < 1e-7


def test_zak_difference_across_adjacent_dirac_sectors_full_span():
    a = NonCommutingWalk(0.08, 0.06)
    b = NonCommutingWalk(0.08, np.pi - 0.06)
    d0 = zak_difference(a, b, +1, span="full")
    d1 = zak_difference(a, b, +1, k_origin=0.7, span="full")
    assert _circ(d0, 0.0) < 1e-9
    assert _circ(d0, d1) < 1e-9


def test_zak_noncommuting_integrand_golden_value():
    value = zak_noncommuting_integrand(np.pi / 4, np.pi / 4, 0.0, -1)
    assert abs(value - 0.42264973081037427) < 1e-12


def test_zak_integrand_integral_matches_wilson_chain():
    for theta, phi in ((np.pi / 4, np.pi / 4), (0.9, -0.7)):
        model = NonCommutingWalk(theta, phi)
        ks = np.linspace(-np.pi / 2, np.pi / 2, 20001)
        for band in (+1, -1):
            vals = zak_noncommuting_integrand(theta, phi, ks, band)
            integral = float(np.trapezoid(vals, ks))
            z = zak_numeric(model, band).phase
            assert _circ(integral, z) < 1e-6


def test_zak_integrand_gapless_and_pole_guards():
    with pytest.raises(GaplessPointError):
        zak_noncommuting_integrand(0.0, 0.0, 0.0, +1)
    # Within 1e-8 of the trivial-phase axis the lower-band chart is
    # numerically poisoned by cancellation; the guard refuses it.
    with pytest.raises(GaplessPointError):
        zak_noncommuting_integrand(1e-8, 0.0, 0.3, -1)


def test_zak_integrand_band_limits_near_axis():
    # Approaching phi = 0: the upper-band integrand vanishes while the
    # lower band tends to 2/(pi-normalized) shape; spot values at k=0.3.
    plus = zak_noncommuting_integrand(1e-8, 0.0, 0.3, +1)
    assert abs(plus) < 1e-6
    minus = zak_noncommuting_integrand(1e-4, 0.0, 0.3, -1)
    assert abs(minus - 2.0) < 1e-3


def test_zak_splitstep_analytic_published_form():
    ss = zak_splitstep_analytic(np.pi / 4, np.pi / 4)
    assert ss.as_published is not None
    assert abs(ss.as_published - 1.0) < 1e-12
    assert not ss.planar


def test_zak_splitstep_analytic_planar_flag_and_endpoint_form():
    rng = np.random.default_rng(347)
    checked = 0
    while checked < 8:
        t2 = rng.uniform(-np.pi, np.pi)
        t1 = float(rng.choice([-np.pi / 2, np.pi / 2]))
        if rng.integers(2):
            t1, t2 = t2, t1
        model = SplitStepWalk(t1, t2)
        if not _gapped(model, floor=1e-3):
            continue
        checked += 1
        ss = zak_splitstep_analytic(model.theta1, model.theta2)
        assert ss.planar
        for band in (+1, -1):
            z = zak_numeric(model, band).phase
            assert _circ(z, ss.endpoint_form) < 1e-6


def _unwrapped_endpoint_form(theta1, theta2):
    """The in-plane angle unwrapped over 4097 momenta of the half zone,
    swept from -pi/2 to pi/2, or None where a sample has |N_perp| below
    1e-12: the sampled path zak_splitstep_analytic's three momenta
    replaced."""
    ks = np.linspace(-np.pi / 2.0, np.pi / 2.0, 4097)
    n = SplitStepWalk.numerators(theta1, theta2, ks)
    if np.any(np.hypot(n[:, 0], n[:, 1]) < 1e-12):
        return None
    swept = np.unwrap(np.arctan2(n[:, 1], n[:, 0]))
    return fold_angle(float(swept[0] - swept[-1]))


@given(angles, angles, st.sampled_from(["free", "axis", "antidiagonal"]))
@example(0.0, 0.0, "free")  # N_perp = 0 at every k
@example(0.0, 0.7, "free")  # constant N_perp
def test_zak_splitstep_endpoint_form_matches_the_unwrapped_samples(
        theta1, theta2, line):
    if line == "axis":
        theta1 = math.copysign(np.pi / 2.0, theta1)
    elif line == "antidiagonal":
        theta2 = -theta1
    want = _unwrapped_endpoint_form(theta1, theta2)
    if want is None:
        with pytest.raises(GaplessPointError):
            zak_splitstep_analytic(theta1, theta2)
    else:
        got = zak_splitstep_analytic(theta1, theta2).endpoint_form
        assert _circ(got, want) < 1e-12


def test_zak_splitstep_analytic_degenerate_tangent():
    ss = zak_splitstep_analytic(0.0, 0.7)
    assert ss.as_published is None


def test_zak_map_masks_grid_aligned_dirac_nodes():
    zm = zak_map("noncommuting", resolution=21, n_points=64)
    assert int(zm.masked.sum()) == 13
    assert np.all(np.isnan(zm.zak_plus[zm.masked]))
    assert np.all(np.isnan(zm.zak_minus[zm.masked]))
    assert np.all(np.isfinite(zm.zak_plus[~zm.masked]))
    assert np.all(np.isfinite(zm.zak_minus[~zm.masked]))


def test_zak_map_spot_values_match_zak_numeric():
    zm = zak_map("noncommuting", resolution=21, n_points=64)
    for i, j in ((3, 7), (10, 4), (16, 18)):
        if zm.masked[i, j]:
            continue
        model = NonCommutingWalk(float(zm.angles1[i]), float(zm.angles2[j]))
        zp = zak_numeric(model, +1, n_points=64).phase
        zmn = zak_numeric(model, -1, n_points=64).phase
        assert _circ(zm.zak_plus[i, j], zp) < 1e-12
        assert _circ(zm.zak_minus[i, j], zmn) < 1e-12


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
@pytest.mark.parametrize("span", ["half", "full"])
def test_zak_map_matches_eigenvector_chain(family, span):
    zm = zak_map(family, resolution=21, n_points=64, span=span)
    half_width = np.pi / 2 if span == "half" else np.pi
    ks = np.linspace(-half_width, half_width, 65)
    for i, a1 in enumerate(zm.angles1):
        for j, a2 in enumerate(zm.angles2):
            model = make_model(family, [a1, a2])
            masked = bool(np.any(model.gap(ks) < 1e-6))
            assert zm.masked[i, j] == masked
            if masked:
                continue
            for band, phases in ((+1, zm.zak_plus), (-1, zm.zak_minus)):
                oracle = _oracle_phase(model, band, 0.0, 64, span)
                assert _circ(phases[i, j], oracle) < 1e-12


def _full_sample_mask(family, a1, a2, ks, chunk=4096):
    """Whether any momentum in ks has gap < 1e-6, from every sample."""
    cos_e = two_angle_class(family).dispersion
    return np.concatenate([
        (1.0 - np.abs(cos_e(a1[i:i + chunk], a2[i:i + chunk], ks))
         < zak.PATH_GAP_TOL).any(axis=1)
        for i in range(0, a1.shape[0], chunk)])


def _edge_mask(family, a1, a2, lo, hi, n_points):
    """zak_map's mask from models.sampled_band_edge, per node of (nodes, 1)
    angle arrays."""
    best = sampled_band_edge(family, a1[:, 0], a2[:, 0], lo, hi, n_points)[0]
    return 1.0 - best < zak.PATH_GAP_TOL


def _angle_nodes(resolution):
    angles = np.linspace(-np.pi, np.pi, resolution)
    return [g.reshape(-1, 1)
            for g in np.meshgrid(angles, angles, indexing="ij")]


def _window_samples(n_points, span):
    """The n_points + 1 momenta of zak_map's window, and its weight."""
    lo, hi, weight = zak._window(0.0, n_points, span)
    return np.linspace(lo, hi, n_points + 1), weight


def _oracle_zak_map(family, resolution, n_points, span):
    """zak_map the per-band way: the mask from every momentum sample and
    each band's links from half_solid_angle, all nodes in one block."""
    ks, weight = _window_samples(n_points, span)
    a1, a2 = _angle_nodes(resolution)
    mask = _full_sample_mask(family, a1, a2, ks)
    n = two_angle_class(family).numerators(a1, a2, ks)
    n[mask] = (0.0, 0.0, 1.0)
    phases = [_per_band_phase(n, band, weight) for band in (+1, -1)]
    for p in phases:
        p[mask] = np.nan
    shape = (resolution, resolution)
    return [p.reshape(shape) for p in phases], mask.reshape(shape)


@functools.cache
def _chain_zak_map(family, resolution, n_points, span):
    """zak_map by the sampled Wilson chain, the oracle of its closed
    forms: the band-edge kernel's mask, then _wilson_phases over each
    node's n_points + 1 momenta, 64 nodes at a time.  Cached; the arrays
    are read only."""
    ks, weight = _window_samples(n_points, span)
    a1s, a2s = _angle_nodes(resolution)
    blocks = []
    for start in range(0, a1s.size, 64):
        a1, a2 = a1s[start:start + 64], a2s[start:start + 64]
        mask = _edge_mask(family, a1, a2, ks[0], ks[-1], n_points)
        n = two_angle_class(family).numerators(a1, a2, ks)
        # Off both chart poles, so the kernel is defined there.
        n[mask] = (1.0, 0.0, 0.0)
        blocks.append((*_wilson_phases(n, weight), mask))
    plus, minus, masked = (np.concatenate(b).reshape(resolution, resolution)
                           for b in zip(*blocks))
    plus[masked] = minus[masked] = np.nan
    return plus, minus, masked


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
@pytest.mark.parametrize("span", ["half", "full"])
@pytest.mark.parametrize("resolution, n_points", [(21, 64), (41, 512)])
def test_zak_map_equals_per_band_oracle(family, span, resolution, n_points):
    # The fused kernel over a whole map, bit for bit.
    plus, minus, masked = _chain_zak_map(family, resolution, n_points, span)
    (oracle_plus, oracle_minus), oracle_masked = _oracle_zak_map(
        family, resolution, n_points, span)
    assert np.array_equal(masked, oracle_masked)
    assert np.array_equal(plus, oracle_plus, equal_nan=True)
    assert np.array_equal(minus, oracle_minus, equal_nan=True)


# Largest |closed form - chain| measured: 6.2e-15 at 201 x 512 and
# 8.9e-15 at 301 x 128, both families and spans.
CLOSED_FORM_TOL = 1e-13


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
@pytest.mark.parametrize("span", ["half", "full"])
@pytest.mark.parametrize("resolution, n_points",
                         [(21, 64), (41, 512), (201, 512)])
def test_zak_map_closed_form_equals_chain_map(family, span, resolution,
                                              n_points):
    zm = zak_map(family, resolution, n_points, span=span)
    plus, minus, masked = _chain_zak_map(family, resolution, n_points, span)
    assert np.array_equal(zm.masked, masked)
    live = ~masked
    for got, chain in ((zm.zak_plus, plus), (zm.zak_minus, minus)):
        assert np.all(np.isnan(got[masked]))
        # A plain difference: a +pi / -pi flip would fail it too.
        assert np.max(np.abs(got[live] - chain[live])) < CLOSED_FORM_TOL


@given(family=st.sampled_from(["noncommuting", "splitstep"]), a1=angles,
       a2=angles, span=st.sampled_from(["half", "full"]))
def test_closed_forms_match_zak_numeric(family, a1, a2, span):
    model = make_model(family, [a1, a2])
    ks, _ = _window_samples(4096, span)
    assume(np.min(model.gap(ks)) >= 1e-3)
    plus, minus = zak._CLOSED_FORMS[family](a1, a2, span)
    for band, phase in ((+1, plus), (-1, minus)):
        chain = zak_numeric(model, band, n_points=512, span=span).phase
        assert _circ(float(phase), chain) < CLOSED_FORM_TOL


# Split-step nodes next to the gap-closing lines theta2 = +-theta1 and
# cos(theta2) = 0, where the Bloch curve turns fastest.
_near_closing = st.tuples(
    angles, st.sampled_from([1.0, -1.0]),
    st.sampled_from([0.0, 1e-9, 1e-7, -1e-6, 1e-4, -1e-2])).map(
        lambda t: (t[0], t[1] * t[0] + t[2]))


@given(nodes=st.one_of(st.tuples(angles, angles), _near_closing,
                       st.tuples(angles, st.sampled_from([np.pi / 2,
                                                          -np.pi / 2]))),
       span=st.sampled_from(["half", "full"]),
       n_points=st.sampled_from([16, 512, 2**40]))
def test_splitstep_coarse_chain_is_defined_on_unmasked_nodes(nodes, span,
                                                             n_points):
    a1, a2 = nodes
    lo, hi, _ = zak._window(0.0, n_points, span)
    assume(not _edge_mask("splitstep", np.array([[a1]]), np.array([[a2]]),
                          lo, hi, n_points)[0])
    # Raises OrthogonalStatesError should a coarse link meet antipodes.
    plus, minus = zak._splitstep_phases(a1, a2, span)
    assert np.isfinite(plus) and np.isfinite(minus)


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
@pytest.mark.parametrize("span", ["half", "full"])
@pytest.mark.parametrize("resolution", [21, 201, 401])
def test_path_gapless_equals_full_sample_mask(family, span, resolution):
    ks, _ = _window_samples(512, span)
    a1, a2 = _angle_nodes(resolution)
    mask = _edge_mask(family, a1, a2, ks[0], ks[-1], 512)
    assert mask.any() and not mask.all()
    assert np.array_equal(mask, _full_sample_mask(family, a1, a2, ks))


def test_zak_map_parity_symmetry():
    zm = zak_map("noncommuting", resolution=21, n_points=64)
    flipped = zm.zak_minus[::-1, ::-1]
    both = ~(np.isnan(zm.zak_minus) | np.isnan(flipped))
    err = np.abs(fold_angle(zm.zak_minus[both] - flipped[both]))
    assert np.max(err) < 1e-12
    assert np.array_equal(zm.masked, zm.masked[::-1, ::-1])


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
@pytest.mark.parametrize("span", ["half", "full"])
def test_zak_map_prints_pinned_pi_with_one_sign(default_zak_map, family,
                                                span):
    # Thousands of default-map phases sit within 2e-14 of pi; rounding
    # alone would fold some of them to -pi.
    zm = default_zak_map(family, span)
    live = ~zm.masked
    for phases in (zm.zak_plus[live], zm.zak_minus[live]):
        assert np.count_nonzero(phases == np.pi) > 0
        assert not np.any(phases <= -np.pi + 1e-12)
