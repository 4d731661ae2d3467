"""Momentum-space walk models: unitaries, dispersions, Bloch vectors."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwgeom.errors import GaplessPointError
from qwgeom.models import (FAMILY_CLASSES, TWO_ANGLE_FAMILIES,
                           NonCommutingWalk, SplitStepWalk, StandardWalk,
                           WalkModel, _harmonics, _peak, make_model,
                           sampled_band_edge, two_angle_class)
from qwgeom.spin import PAULI_X, PAULI_Y, PAULI_Z, rotation_y
from qwgeom.utils import canonical_angle
from qwgeom.zak import SPAN_FULL, SPAN_HALF, _SPANS
from qwgeom.zak import _angular_coeffs as angular_coeffs

from conftest import (SwappedCoinWalk, angles, swapped_coin_unitary,
                      swapped_coins_registered, walk_models)


def _ry(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _rx(phi):
    c, s = np.cos(phi), np.sin(phi)
    return np.array([[c, 1j * s], [1j * s, c]], dtype=complex)


def _unitary_oracle(model, k):
    """Independent step-operator construction: translations times coins."""
    if isinstance(model, StandardWalk):
        t = np.diag([np.exp(1j * k), np.exp(-1j * k)])
        return t @ _ry(model.theta)
    if isinstance(model, NonCommutingWalk):
        t = np.diag([np.exp(1j * k), np.exp(-1j * k)])
        return t @ _ry(model.theta) @ _rx(model.phi)
    th = np.diag([np.exp(1j * k), 1.0])
    tv = np.diag([1.0, np.exp(-1j * k)])
    return th @ _ry(model.theta2) @ tv @ _ry(model.theta1)


def _random_models(rng, count):
    for _ in range(count):
        pick = rng.integers(3)
        if pick == 0:
            yield StandardWalk(rng.uniform(-np.pi, np.pi))
        elif pick == 1:
            yield NonCommutingWalk(rng.uniform(-np.pi, np.pi),
                                   rng.uniform(-np.pi, np.pi))
        else:
            yield SplitStepWalk(rng.uniform(-np.pi, np.pi),
                                rng.uniform(-np.pi, np.pi))


# The closed forms each family used to state beside its step, kept as
# oracles of the forms WalkModel derives from the step.
def _standard_numerators(theta, k):
    st, ct = np.sin(theta), np.cos(theta)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(np.broadcast_arrays(sk * st, ck * st, -sk * ct), axis=-1)


def _standard_cos_energy(theta, k):
    return np.cos(k) * np.cos(theta)


def _noncommuting_numerators(theta, phi, k):
    a, b, c, d = angular_coeffs(theta, phi)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(
        np.broadcast_arrays(-a * ck + b * sk, b * ck + a * sk, c * ck - d * sk),
        axis=-1)


def _noncommuting_cos_energy(theta, phi, k):
    _, _, c, d = angular_coeffs(theta, phi)
    return np.cos(k) * d + np.sin(k) * c


def _noncommuting_envelope(theta, phi):
    _, _, c, d = angular_coeffs(theta, phi)
    return np.hypot(c, d), np.arctan2(c, d)


def _splitstep_numerators(theta1, theta2, k):
    s1, c1 = np.sin(theta1), np.cos(theta1)
    s2, c2 = np.sin(theta2), np.cos(theta2)
    sk, ck = np.sin(k), np.cos(k)
    return np.stack(
        np.broadcast_arrays(sk * s1 * c2, ck * s1 * c2 + s2 * c1, -sk * c1 * c2),
        axis=-1)


def _splitstep_cos_energy(theta1, theta2, k):
    return (np.cos(k) * np.cos(theta1) * np.cos(theta2)
            - np.sin(theta1) * np.sin(theta2))


def _splitstep_envelope(theta1, theta2):
    cc = np.cos(theta1) * np.cos(theta2)
    ss = np.sin(theta1) * np.sin(theta2)
    return np.abs(cc) + np.abs(ss), np.where(cc * ss > 0.0, np.pi, 0.0)


def _check_derived_forms(a1, a2, k):
    exact = [
        (StandardWalk.numerators(a1, k), _standard_numerators(a1, k)),
        (StandardWalk.dispersion(a1, k), _standard_cos_energy(a1, k)),
        (NonCommutingWalk.numerators(a1, a2, k),
         _noncommuting_numerators(a1, a2, k)),
        (NonCommutingWalk.dispersion(a1, a2, k),
         _noncommuting_cos_energy(a1, a2, k)),
        (NonCommutingWalk.envelope(a1, a2)[0], _noncommuting_envelope(a1, a2)[0]),
        (SplitStepWalk.envelope(a1, a2)[0], _splitstep_envelope(a1, a2)[0]),
    ]
    for derived, oracle in exact:
        assert np.shape(derived) == np.shape(oracle)
        assert np.array_equal(derived, oracle)
    # beta cos k rounds apart from cos k cos(theta1) cos(theta2): 1 ulp.
    for derived, oracle in (
            (SplitStepWalk.numerators(a1, a2, k), _splitstep_numerators(a1, a2, k)),
            (SplitStepWalk.dispersion(a1, a2, k), _splitstep_cos_energy(a1, a2, k))):
        assert np.shape(derived) == np.shape(oracle)
        assert np.max(np.abs(derived - oracle)) <= np.finfo(float).eps
    # k* +pi and -pi are one momentum.  Where sin(theta1) sin(theta2) = 0
    # a split-step |cos E| peaks at both 0 and pi, and either is k*.
    for derived, oracle, tie in (
            (NonCommutingWalk.envelope(a1, a2)[1],
             _noncommuting_envelope(a1, a2)[1], False),
            (SplitStepWalk.envelope(a1, a2)[1], _splitstep_envelope(a1, a2)[1],
             np.sin(a1) * np.sin(a2) == 0.0)):
        same = (np.remainder(derived, 2.0 * np.pi)
                == np.remainder(oracle, 2.0 * np.pi))
        assert np.all(same | tie)


_angle_lists = st.lists(angles, min_size=1, max_size=4)


@given(a1=_angle_lists, a2=_angle_lists, k=_angle_lists)
def test_derived_forms_match_hand_written_oracles(a1, a2, k):
    # One node with scalar angles (float coin entries), then every node
    # of the lists with broadcast angle arrays.
    _check_derived_forms(a1[0], a2[0], np.array(k))
    _check_derived_forms(np.array(a1)[:, None, None],
                         np.array(a2)[None, :, None], np.array(k))


def test_angular_coeffs_values_and_identity():
    theta, phi = 0.7, -1.2
    a, b, c, d = angular_coeffs(theta, phi)
    assert a == np.sin(phi) * np.cos(theta)
    assert b == np.cos(phi) * np.sin(theta)
    assert c == np.sin(phi) * np.sin(theta)
    assert d == np.cos(phi) * np.cos(theta)
    assert abs(a * a + b * b + c * c + d * d - 1.0) < 1e-15


def test_momentum_unitary_matches_independent_construction():
    rng = np.random.default_rng(101)
    for model in _random_models(rng, 40):
        k = rng.uniform(-np.pi, np.pi)
        u = model.momentum_unitary(k)
        expected = _unitary_oracle(model, k)
        assert np.max(np.abs(u - expected)) < 1e-14


def test_momentum_unitary_is_special_unitary():
    rng = np.random.default_rng(103)
    for model in _random_models(rng, 30):
        k = rng.uniform(-np.pi, np.pi)
        u = model.momentum_unitary(k)
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-13)
        assert abs(np.linalg.det(u) - 1.0) < 1e-12


@given(model=walk_models(), k=angles)
def test_momentum_unitaries_su2_property(model, k):
    u = model.momentum_unitaries(np.array([k]))[0]
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-12
    assert abs(np.linalg.det(u) - 1.0) < 1e-12


def test_momentum_unitaries_batch_agrees_with_scalar():
    ks = np.linspace(-np.pi, np.pi, 17)
    for model in (StandardWalk(0.6), NonCommutingWalk(0.8, -0.5),
                  SplitStepWalk(0.3, 1.1)):
        batch = model.momentum_unitaries(ks)
        assert batch.shape == (17, 2, 2)
        for i, k in enumerate(ks):
            assert np.allclose(batch[i], model.momentum_unitary(float(k)),
                               atol=1e-15)


def test_standard_dispersion():
    ks = np.linspace(-np.pi, np.pi, 101)
    theta = 0.7853981633974483
    model = StandardWalk(theta)
    assert np.allclose(model.cos_energy(ks), np.cos(ks) * np.cos(theta),
                       atol=1e-15)


def test_noncommuting_dispersion():
    ks = np.linspace(-np.pi, np.pi, 101)
    theta, phi = 0.9, -0.4
    _, _, c, d = angular_coeffs(theta, phi)
    model = NonCommutingWalk(theta, phi)
    assert np.allclose(model.cos_energy(ks),
                       np.cos(ks) * d + np.sin(ks) * c, atol=1e-15)


def test_splitstep_dispersion():
    ks = np.linspace(-np.pi, np.pi, 101)
    t1, t2 = 0.35, 1.2
    model = SplitStepWalk(t1, t2)
    expected = (np.cos(ks) * np.cos(t1) * np.cos(t2)
                - np.sin(t1) * np.sin(t2))
    assert np.allclose(model.cos_energy(ks), expected, atol=1e-15)


def test_cos_energy_equals_half_trace():
    rng = np.random.default_rng(107)
    for model in _random_models(rng, 40):
        k = rng.uniform(-np.pi, np.pi)
        u = model.momentum_unitary(k)
        assert abs(model.cos_energy(k) - 0.5 * np.trace(u).real) < 1e-13


def test_bloch_numerators_norm_is_sin_energy():
    rng = np.random.default_rng(109)
    for model in _random_models(rng, 40):
        ks = rng.uniform(-np.pi, np.pi, size=8)
        n = np.asarray(model.bloch_numerators(ks))
        ce = np.asarray(model.cos_energy(ks))
        sin_e = np.sqrt(np.clip(1.0 - ce * ce, 0.0, None))
        assert np.max(np.abs(np.linalg.norm(n, axis=-1) - sin_e)) < 1e-12


@given(model=walk_models(), k=angles)
def test_bloch_numerators_norm_squared_property(model, k):
    # Squared, since both sides are >= 0: next to a band touching
    # sqrt(1 - cos^2 E) turns a rounding of 1e-16 in cos^2 E into 1e-8.
    n = np.asarray(model.bloch_numerators(k))
    ce = float(model.cos_energy(k))
    assert abs(float(n @ n) - (1.0 - ce * ce)) < 1e-12


@given(model=walk_models(), k=angles)
def test_ellipse_rebuilds_the_bloch_numerators(model, k):
    n0, nc, ns = model.ellipse(*model.angles)
    n = np.asarray(model.bloch_numerators(k))
    assert np.max(np.abs(n0 + nc * np.cos(k) + ns * np.sin(k) - n)) < 1e-15


@given(model=walk_models(), k=angles)
def test_harmonics_rows_are_cos_energy_and_the_ellipse(model, k):
    h = model.harmonics(*model.angles)
    assert h.shape == (4, 3)
    wave = h[:, 0] + h[:, 1] * np.cos(k) + h[:, 2] * np.sin(k)
    assert abs(wave[0] - float(model.cos_energy(k))) < 1e-15
    assert np.max(np.abs(wave[1:] - model.bloch_numerators(k))) < 1e-15
    assert np.array_equal(np.stack(model.ellipse(*model.angles)),
                          np.moveaxis(h[1:], 0, -1))


def test_harmonics_broadcast_and_keep_absent_terms_out():
    a1, a2 = np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)
    h = NonCommutingWalk.harmonics(a1, a2)
    assert h.shape == (4, 3, 5, 4)
    assert np.array_equal(h[:, :, 2, 3],
                          NonCommutingWalk.harmonics(a1[2, 0], a2[3]))
    # At theta1 = 0 no term reaches N_x, which reads +0.0 at every k, and
    # N_z has only its sin k term, so at k = 0 it keeps the sign of 0 * hs.
    n = SplitStepWalk(0.0, np.pi / 2).bloch_numerators(np.array([0.0, 2.0]))
    assert np.all(np.signbit(n[:, 0]) == [False, False])
    assert np.signbit(n[0, 2])


def test_ellipse_broadcasts_over_angle_arrays():
    a1, a2 = np.linspace(-3.0, 3.0, 5)[:, None], np.linspace(-2.0, 2.0, 4)
    for cls in (NonCommutingWalk, SplitStepWalk, SwappedCoinWalk):
        parts = cls.ellipse(a1, a2)
        assert all(p.shape == (5, 4, 3) for p in parts)
        for i, j in ((0, 0), (2, 3), (4, 1)):
            one = cls.ellipse(float(a1[i, 0]), float(a2[j]))
            for p, q in zip(parts, one):
                assert np.array_equal(p[i, j], q)


@given(model=walk_models(), k=angles)
def test_chiral_axis_is_a_unit_normal_of_the_bloch_curve(model, k):
    axis = model.chiral_axis
    if model.family == "noncommuting":
        assert axis is None
        return
    assert abs(float(axis @ axis) - 1.0) < 1e-15
    assert abs(float(np.asarray(model.bloch_numerators(k)) @ axis)) < 1e-15


@given(family=st.sampled_from(TWO_ANGLE_FAMILIES), a1=angles, a2=angles)
def test_envelope_is_max_abs_cos_energy(family, a1, a2):
    env, k_star = two_angle_class(family).envelope(a1, a2)
    cos_e = two_angle_class(family).dispersion
    assert abs(abs(float(cos_e(a1, a2, k_star))) - env) < 1e-15
    ks = np.linspace(-np.pi, np.pi, 20_001)
    sampled = np.abs(cos_e(a1, a2, ks)).max()
    assert sampled <= env + 1e-15
    # The grid misses the peak by at most half a spacing, and |cos E| is
    # a unit-amplitude cosine in k (or flatter) near it.
    dk = ks[1] - ks[0]
    assert env - sampled <= dk * dk / 8 + 1e-15


@given(family=st.sampled_from(TWO_ANGLE_FAMILIES),
       a1=st.lists(angles, min_size=1, max_size=8),
       a2=st.lists(angles, min_size=1, max_size=8))
def test_peak_is_the_envelope_peak_bit_for_bit(family, a1, a2):
    # The Dirac census reads the peak alone, off the diagonal fold.
    cls = two_angle_class(family)
    a1, a2 = np.array(a1)[:, None], np.array(a2)
    peak = _peak(_harmonics(cls, (a1, a2), diagonal=True)[0])
    env = cls.envelope(a1, a2)[0]
    assert peak.shape == env.shape == (a1.size, a2.size)
    assert peak.tobytes() == env.tobytes()


_closings = st.sampled_from([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
# Nodes within 1e-9 to 1e-2 of the split-step closing lines theta2 = +-theta1.
_near_diagonal = st.tuples(
    angles, st.sampled_from([1.0, -1.0]),
    st.floats(1e-9, 1e-2).flatmap(lambda d: st.sampled_from([d, -d]))).map(
        lambda t: (t[0], t[1] * t[0] + t[2]))


@given(family=st.sampled_from(("standard", *TWO_ANGLE_FAMILIES,
                                SwappedCoinWalk.family)),
       node=st.one_of(st.tuples(st.one_of(angles, _closings),
                                st.one_of(angles, _closings)),
                      _near_diagonal),
       origin=angles, span=st.sampled_from([SPAN_HALF, SPAN_FULL]),
       cells=st.integers(7, 600))
# Non-commuting nodes with k* at +-pi and +-pi/2 or 1e-12 to 1e-1 off
# them, where the window's hi end is a grid neighbour or an end, and a
# split-step node with k* = pi, where cos E(pi) ties cos E(-pi).
@example(family="noncommuting", node=(0.7, np.pi), origin=0.0,
         span=SPAN_FULL, cells=360)
@example(family="noncommuting", node=(0.7, 3.1415926524025513), origin=0.0,
         span=SPAN_FULL, cells=361)
@example(family="noncommuting", node=(0.7, -3.1415926535886056), origin=0.0,
         span=SPAN_FULL, cells=7)
@example(family="noncommuting", node=(0.7, np.pi / 2), origin=0.0,
         span=SPAN_HALF, cells=600)
@example(family="noncommuting", node=(0.7, -1.5716386152569353), origin=0.0,
         span=SPAN_HALF, cells=512)
@example(family="noncommuting", node=(0.7, 1.4864859342063195), origin=0.0,
         span=SPAN_HALF, cells=9)
@example(family="splitstep", node=(0.5, 0.7), origin=0.0, span=SPAN_FULL,
         cells=360)
# A half window whose float width is not a whole fraction of 2 pi.
@example(family="noncommuting", node=(0.7, -1.3), origin=-2.8841484100105235,
         span=SPAN_HALF, cells=512)
# A shifted full window whose sweep peaks at hi, 0.6367314942092221; lo,
# one turn away, reads 0.636731494209222.
@example(family="noncommuting", node=(0.9027772999153676, 2.8309696585853388),
         origin=5.89679238426755, span=SPAN_FULL, cells=16)
def test_sampled_band_edge_equals_full_sweep(family, node, origin, span,
                                             cells):
    # The test-only family also runs, against its own dense U(k) too.  The
    # window is reduced about its origin as zak._window reduces it.
    origin = canonical_angle(origin)
    lo, hi = origin - _SPANS[span], origin + _SPANS[span]
    ks = np.linspace(lo, hi, cells + 1)
    with swapped_coins_registered():
        cls = FAMILY_CLASSES[family]
        node = node[:len(dataclasses.fields(cls))]
        sweep = np.abs(cls.dispersion(*node, ks))
        best, k_best, peak, k_star = sampled_band_edge(cls.harmonics(*node),
                                                       lo, hi, cells)
        assert (peak, k_star) == cls.envelope(*node)
    assert best == sweep.max()
    assert abs(cls.dispersion(*node, k_best)) == best
    # Split-step |cos E| can be flat to the last bit across several
    # momenta, where the sweep's first argmax need not be a neighbour of
    # k*; the value there is the same.
    if family != "splitstep":
        assert k_best == ks[np.argmax(sweep)]
    if family == SwappedCoinWalk.family:
        dense = np.abs([0.5 * np.trace(swapped_coin_unitary(*node, k)).real
                        for k in (*ks, k_best)])
        assert abs(best - dense[:-1].max()) <= 1e-15
        assert abs(dense[-1] - dense[:-1].max()) <= 1e-15


def test_unitary_reconstruction_from_energy_and_axis():
    rng = np.random.default_rng(113)
    checked = 0
    while checked < 30:
        model = next(iter(_random_models(rng, 1)))
        k = rng.uniform(-np.pi, np.pi)
        if model.gap(k) <= 0.1:
            continue
        checked += 1
        e = model.quasi_energy(k)
        n = model.bloch_vector(k)
        n_sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
        rebuilt = (np.cos(e) * np.eye(2) - 1j * np.sin(e) * n_sigma)
        assert np.linalg.norm(rebuilt - model.momentum_unitary(k)) < 1e-12


def test_noncommuting_at_zero_phi_reduces_to_standard():
    ks = np.linspace(-np.pi, np.pi, 64)
    theta = 1.0471975511965976
    nc = NonCommutingWalk(theta, 0.0)
    st = StandardWalk(theta)
    assert np.array_equal(nc.momentum_unitaries(ks), st.momentum_unitaries(ks))
    assert np.array_equal(np.asarray(nc.bloch_numerators(ks)),
                          np.asarray(st.bloch_numerators(ks)))


def test_quasi_energy_and_gap_ranges():
    rng = np.random.default_rng(127)
    for model in _random_models(rng, 20):
        ks = rng.uniform(-np.pi, np.pi, size=16)
        e = np.asarray(model.quasi_energy(ks))
        g = np.asarray(model.gap(ks))
        assert np.all((0.0 <= e) & (e <= np.pi))
        assert np.all((0.0 <= g) & (g <= 1.0))
        assert np.allclose(g, 1.0 - np.abs(np.cos(e)), atol=1e-14)


def test_bloch_vector_unit_norm_and_gapless_error():
    model = StandardWalk(0.0)
    with pytest.raises(GaplessPointError):
        model.bloch_vector(0.0)
    gapped = NonCommutingWalk(0.9, 0.7)
    ks = np.linspace(-3.0, 3.0, 25)
    n = gapped.bloch_vector(ks)
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) < 1e-12


def test_splitstep_gapless_line_detected():
    # cos E(0) = cos(theta1 + theta2), so theta2 = -theta1 closes the
    # gap at k = 0 (and theta1 + theta2 = pi closes it at the band top).
    model = SplitStepWalk(0.2, -0.2)
    assert model.gap(0.0) < 1e-15
    with pytest.raises(GaplessPointError):
        model.bloch_vector(0.0)


def test_make_model_dispatch_and_validation():
    assert isinstance(make_model("standard", (0.3,)), StandardWalk)
    assert isinstance(make_model("noncommuting", (0.3, 0.4)),
                      NonCommutingWalk)
    assert isinstance(make_model("splitstep", (0.3, 0.4)), SplitStepWalk)
    with pytest.raises(ValueError):
        make_model("hexagonal", (0.3,))
    with pytest.raises(ValueError):
        make_model("standard", (0.3, 0.4))
    with pytest.raises(ValueError):
        make_model("splitstep", (0.3,))


def test_angle_canonicalization():
    assert StandardWalk(np.pi).theta == np.pi
    assert StandardWalk(-np.pi).theta == -np.pi
    folded = StandardWalk(3.0 * np.pi)
    assert -np.pi <= folded.theta <= np.pi
    ks = np.linspace(-np.pi, np.pi, 33)
    assert np.allclose(folded.cos_energy(ks),
                       StandardWalk(np.pi).cos_energy(ks), atol=1e-12)


def test_non_finite_angles_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            canonical_angle(bad)
        with pytest.raises(ValueError):
            SplitStepWalk(0.3, bad)


def test_models_are_frozen():
    model = StandardWalk(0.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.theta = 1.0


def test_two_angle_helpers():
    nums = two_angle_class("noncommuting").numerators
    ce = two_angle_class("splitstep").dispersion
    n = np.asarray(nums(0.4, 0.9, 0.3))
    assert n.shape == (3,)
    assert abs(ce(0.4, 0.9, 0.3)
               - SplitStepWalk(0.4, 0.9).cos_energy(0.3)) < 1e-15
    assert two_angle_class("splitstep") is SplitStepWalk
    assert two_angle_class("noncommuting") is NonCommutingWalk
    with pytest.raises(ValueError):
        two_angle_class("standard")
    with pytest.raises(ValueError):
        sampled_band_edge(SplitStepWalk.harmonics(0.4, 0.9), -np.pi, np.pi,
                          0)


@dataclasses.dataclass(frozen=True)
class _DoubleShiftWalk(WalkModel):
    """A test-only family whose step moves each spin component two sites,
    so U(k) has degree 2 in e^{ik}."""

    theta: float

    family = "double-shift"

    @staticmethod
    def step(theta):
        return (rotation_y(theta), (1, -1), (1, -1))


def test_a_step_of_degree_two_is_refused():
    model = _DoubleShiftWalk(0.3)
    for call in (lambda: _DoubleShiftWalk.harmonics(0.3),
                 lambda: _DoubleShiftWalk.envelope(np.array([0.3, 0.4])),
                 lambda: model.momentum_unitaries(np.zeros(3))):
        with pytest.raises(ValueError, match="more than one site"):
            call()


def test_family_labels_and_angles():
    assert StandardWalk(0.2).family == "standard"
    assert NonCommutingWalk(0.2, 0.3).family == "noncommuting"
    assert SplitStepWalk(0.2, 0.3).family == "splitstep"
    assert StandardWalk(0.2).angles == (0.2,)
    assert SplitStepWalk(0.2, 0.3).angles == (0.2, 0.3)
