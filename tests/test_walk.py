"""Position-space evolution against the momentum-space oracle."""

import json
from dataclasses import dataclass, fields

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qwgeom import cli
from qwgeom.errors import GridMismatchError
from qwgeom.models import (NonCommutingWalk, SplitStepWalk, StandardWalk,
                           WalkModel)
from qwgeom.spin import rotation_x, rotation_y
from qwgeom.walk import (Distribution, WalkerState, evolve, initial_state,
                         momentum_oracle, probability_distribution,
                         similarity, total_variation, trajectory,
                         unitary_power, TRIM_STEPS)

from conftest import angles, walk_models


def _dense_oracle(state0, model, n_steps):
    """Reference momentum oracle: dense DFT matrices and an eigensolver.

    O(m^2) memory with m ~ 4 n_steps, so only for small walks; kept as an
    independent check of the FFT and matrix-power oracle.
    """
    width0 = state0.amplitudes.shape[0]
    m = width0 + 4 * n_steps + 4
    if m % 2 == 0:
        m += 1
    x_lo = state0.offset - 2 * n_steps - 2
    xs = np.arange(x_lo, x_lo + m)

    psi = np.zeros((m, 2), dtype=complex)
    start = state0.offset - x_lo
    psi[start:start + width0] = state0.amplitudes

    kgrid = 2.0 * np.pi * np.arange(m) / m
    psi_hat = np.exp(1.0j * np.outer(kgrid, xs)) @ psi
    eigvals, eigvecs = np.linalg.eig(model.momentum_unitaries(kgrid))
    powered = np.exp(1.0j * n_steps * np.angle(eigvals))
    coeff = np.einsum("kab,kb->ka", np.linalg.inv(eigvecs), psi_hat)
    psi_hat_n = np.einsum("kab,kb->ka", eigvecs, coeff * powered)
    psi_n = (np.exp(-1.0j * np.outer(xs, kgrid)) / m) @ psi_hat_n

    keep = (xs >= state0.offset - n_steps) & \
        (xs <= state0.offset + width0 - 1 + n_steps)
    p = np.sum(np.abs(psi_n[keep]) ** 2, axis=1)
    return Distribution(positions=xs[keep], p=p,
                        step_count=state0.step_count + n_steps)


def _reference_evolve(state0, model, n_steps):
    """Reference position-space evolution on a site-major buffer.

    One (L, 2) complex buffer; each coin is a complex matrix product on
    the whole light-cone window, each shift moves a spin column and
    zeros the sites it vacates, and no site is ever dropped.  trajectory
    must agree with it to TV <= 1e-14 and max |dp| <= 1e-15.
    """
    ops = model.step_ops()
    shifts = [op for op in ops if isinstance(op, tuple)]
    width0 = state0.amplitudes.shape[0]
    a = n_steps * sum(max(0, -min(s)) for s in shifts)
    b = a + width0
    buf = np.zeros((b + n_steps * sum(max(0, *s) for s in shifts), 2),
                   dtype=complex)
    buf[a:b] = state0.amplitudes
    base = state0.offset - a
    for _ in range(n_steps):
        for op in ops:
            if isinstance(op, tuple):
                for spin, d in enumerate(op):
                    if d:
                        buf[a + d:b + d, spin] = buf[a:b, spin]
                        vacated = slice(a, a + d) if d > 0 else slice(b + d, b)
                        buf[vacated, spin] = 0.0
                a, b = a + min(op), b + max(op)
            else:
                buf[a:b] = buf[a:b] @ op.T
    return WalkerState(amplitudes=buf[a:b].copy(), offset=base + a,
                       step_count=state0.step_count + n_steps)


def test_initial_state_chirality():
    for chi, sign in (("+", 1.0), ("-", -1.0)):
        s = initial_state(chi)
        assert s.step_count == 0
        assert s.offset == 0
        assert np.allclose(s.amplitudes,
                           [[1.0 / np.sqrt(2), sign * 1j / np.sqrt(2)]])
        assert abs(s.norm() - 1.0) < 1e-15
    for chi in ("x", +1, -1):
        with pytest.raises(ValueError):
            initial_state(chi)


def test_identity_coin_translates_components():
    state = evolve(initial_state("+"), StandardWalk(0.0), 5)
    dist = probability_distribution(state)
    support = dist.positions[dist.p > 1e-15]
    assert list(support) == [-5, 5]
    assert np.allclose(dist.p[dist.p > 1e-15], [0.5, 0.5])


def test_single_step_splits_evenly_from_chirality_state():
    # The rotation coin preserves the |H|, |V| balance of (1, +-i)/sqrt 2
    # for every angle, so one step always gives P(+-1) = 1/2.
    rng = np.random.default_rng(431)
    for theta in rng.uniform(-np.pi, np.pi, 5):
        dist = probability_distribution(
            evolve(initial_state("+"), StandardWalk(float(theta)), 1))
        live = {int(x): float(p) for x, p in zip(dist.positions, dist.p)
                if p > 1e-15}
        assert set(live) == {-1, 1}
        assert abs(live[1] - 0.5) < 1e-14
        assert abs(live[-1] - 0.5) < 1e-14


def test_hadamard_like_walk_symmetric_at_seven_steps():
    dist = probability_distribution(
        evolve(initial_state("+"), StandardWalk(np.pi / 4), 7))
    assert np.max(np.abs(dist.p - dist.p[::-1])) < 1e-10
    assert abs(dist.p.sum() - 1.0) < 1e-12


def test_oracle_matches_position_pipeline():
    rng = np.random.default_rng(433)
    for trial in range(30):
        family = trial % 3
        n = int(rng.integers(1, 21))
        chi = "+" if rng.integers(2) else "-"
        if family == 0:
            model = StandardWalk(rng.uniform(-np.pi, np.pi))
        elif family == 1:
            model = NonCommutingWalk(rng.uniform(-np.pi, np.pi),
                                     rng.uniform(-np.pi, np.pi))
        else:
            model = SplitStepWalk(rng.uniform(-np.pi, np.pi),
                                  rng.uniform(-np.pi, np.pi))
        state = evolve(initial_state(chi), model, n)
        assert abs(state.norm() - 1.0) < 1e-13
        dist = probability_distribution(state)
        oracle = momentum_oracle(initial_state(chi), model, n)
        assert np.array_equal(dist.positions, oracle.positions)
        assert total_variation(dist, oracle) < 1e-12


@dataclass(frozen=True)
class _HFirstSplitStep(WalkModel):
    """A family no built-in uses: the partial shifts in the order H, then V."""

    alpha: float
    beta: float

    family = "h-first-splitstep"

    @staticmethod
    def step(alpha, beta):
        return (rotation_y(alpha), (1, 0), rotation_x(beta), (0, -1))


@dataclass(frozen=True)
class _GlobalPhaseWalk(WalkModel):
    """A family no built-in uses: a coin with a global phase, det U = e^{2 i alpha}."""

    alpha: float
    theta: float
    phi: float

    family = "global-phase"

    @staticmethod
    def step(alpha, theta, phi):
        coin = np.exp(1j * alpha) * rotation_y(theta) @ rotation_x(phi)
        return (coin, (1, -1))


def test_family_declared_in_test_matches_oracle():
    # Only the step is declared here, so agreement shows that the
    # position step and the momentum unitary are derived generically;
    # the global-phase family makes the oracle's sqrt(det U) factor count.
    rng = np.random.default_rng(439)
    for cls in (_HFirstSplitStep, _GlobalPhaseWalk):
        for _ in range(6):
            model = cls(*rng.uniform(-np.pi, np.pi, len(fields(cls))))
            for chi in ("+", "-"):
                n = int(rng.integers(1, 41))
                state = evolve(initial_state(chi), model, n)
                assert abs(state.norm() - 1.0) < 1e-12
                dist = probability_distribution(state)
                oracle = momentum_oracle(initial_state(chi), model, n)
                assert np.array_equal(dist.positions, oracle.positions)
                assert total_variation(dist, oracle) < 1e-12


def test_oracle_zero_steps_returns_initial_distribution():
    oracle = momentum_oracle(initial_state("-"), StandardWalk(0.5), 0)
    assert list(oracle.positions) == [0]
    assert np.allclose(oracle.p, [1.0])


def test_even_odd_parity_support():
    model = NonCommutingWalk(0.9, -1.3)
    state = evolve(initial_state("-"), model, 6)
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    wrong = [(int(x), float(v)) for x, v in zip(state.positions, p)
             if (int(x) - 6) % 2 != 0 and v > 1e-30]
    assert wrong == []


def test_light_cone_window():
    for model in (StandardWalk(0.8), SplitStepWalk(0.4, -0.9)):
        state = evolve(initial_state("+"), model, 9)
        assert state.positions[0] == -9
        assert state.positions[-1] == 9
        assert state.amplitudes.shape == (19, 2)
        assert state.step_count == 9


def test_evolve_validation():
    with pytest.raises(ValueError):
        evolve(initial_state("+"), StandardWalk(0.1), -1)
    with pytest.raises(TypeError):
        evolve(initial_state("+"), object(), 1)


def test_similarity_identities():
    grid = np.array([0, 1])
    delta = Distribution(grid, np.array([1.0, 0.0]), 0)
    other = Distribution(grid, np.array([0.0, 1.0]), 0)
    uniform = Distribution(grid, np.array([0.5, 0.5]), 0)
    assert similarity(delta, delta) == 1.0
    assert similarity(delta, other) == 0.0
    assert abs(similarity(delta, uniform) - 0.5) < 1e-14
    assert total_variation(delta, delta) == 0.0
    assert abs(total_variation(delta, other) - 1.0) < 1e-15


def test_similarity_grid_mismatch():
    a = Distribution(np.array([0, 1]), np.array([1.0, 0.0]), 0)
    b = Distribution(np.array([1, 2]), np.array([1.0, 0.0]), 0)
    c = Distribution(np.array([0, 1, 2]), np.array([1.0, 0.0, 0.0]), 0)
    with pytest.raises(GridMismatchError):
        similarity(a, b)
    with pytest.raises(GridMismatchError):
        total_variation(a, c)


def test_walk_distribution_normalized_and_counted():
    model = SplitStepWalk(1.2, 0.3)
    dist = probability_distribution(evolve(initial_state("+"), model, 12))
    assert abs(dist.p.sum() - 1.0) < 1e-12
    assert dist.step_count == 12


def test_fft_oracle_matches_dense_reference():
    models = [StandardWalk(0.0), StandardWalk(np.pi), StandardWalk(0.7),
              NonCommutingWalk(0.0, 0.0), NonCommutingWalk(np.pi / 2, 0.0),
              NonCommutingWalk(0.3, 1.1), SplitStepWalk(0.0, 0.0),
              SplitStepWalk(np.pi / 2, 0.0), SplitStepWalk(0.4, -0.9)]
    for model in models:
        for chi in ("+", "-"):
            for n in (0, 1, 7, 60):
                fast = momentum_oracle(initial_state(chi), model, n)
                ref = _dense_oracle(initial_state(chi), model, n)
                assert np.array_equal(fast.positions, ref.positions)
                assert fast.step_count == ref.step_count == n
                assert np.max(np.abs(fast.p - ref.p)) < 1e-12


def test_evolve_and_step_leave_input_unchanged():
    model = SplitStepWalk(0.4, -0.9)
    state0 = evolve(initial_state("-"), model, 3)
    before = state0.amplitudes.copy()
    stepped = evolve(state0, model, 1)
    evolved = evolve(state0, model, 5)
    assert np.array_equal(state0.amplitudes, before)
    assert (state0.offset, state0.step_count) == (-3, 3)
    assert (stepped.offset, stepped.step_count) == (-4, 4)
    assert (evolved.offset, evolved.step_count) == (-8, 8)
    assert evolve(state0, model, 0) is state0


def test_trajectory_yields_every_step():
    model = NonCommutingWalk(0.9, -1.3)
    counts = [s.step_count for s in trajectory(initial_state("+"), model, 5)]
    assert counts == [1, 2, 3, 4, 5]
    state0 = WalkerState(amplitudes=np.array([[0.6, 0.0], [0.0, 0.8j]]),
                         offset=4, step_count=2)
    seen = [(s.step_count, s.offset, s.amplitudes.shape[0], s.norm())
            for s in trajectory(state0, model, 6)]
    assert [c for c, *_ in seen] == list(range(3, 9))
    assert [(o, w) for _, o, w, _ in seen] == [(4 - i, 2 + 2 * i)
                                               for i in range(1, 7)]
    assert max(abs(norm - 1.0) for *_, norm in seen) < 1e-14
    final = evolve(state0, model, 6)
    assert np.array_equal(final.amplitudes,
                          evolve(evolve(state0, model, 2), model, 4).amplitudes)
    # The live window is trimmed every TRIM_STEPS steps of one trajectory,
    # so this composition runs across a trim on one side only.
    assert TRIM_STEPS < 40
    final = evolve(state0, model, 70)
    parts = evolve(evolve(state0, model, 40), model, 30)
    assert (final.offset, final.step_count) == (parts.offset, parts.step_count)
    assert np.array_equal(final.amplitudes, parts.amplitudes)
    assert list(trajectory(state0, model, 0)) == []


def test_walk_zero_steps_cli(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code = cli.main(["walk", "--family", "standard", "--theta", "0.3",
                     "--steps", "0", "--manifest", str(manifest)])
    out, err = capsys.readouterr()
    assert code == 0
    assert out == "x,p\n0,0.99999999999999978\n"
    assert "oracle TV distance: 0.000e+00" in err
    meta = json.loads(manifest.read_text())
    assert (meta["n_steps"], meta["max_norm_drift"], meta["tv_vs_oracle"]) \
        == (0, 0.0, 0.0)


@given(model=walk_models(), chi=st.sampled_from("+-"),
       n=st.integers(min_value=0, max_value=200))
def test_walk_conserves_norm_and_matches_oracle(model, chi, n):
    state = evolve(initial_state(chi), model, n)
    assert abs(state.norm() - 1.0) < 1e-12
    dist = probability_distribution(state)
    oracle = momentum_oracle(initial_state(chi), model, n)
    assert np.array_equal(dist.positions, oracle.positions)
    assert total_variation(dist, oracle) < 1e-12


def _assert_matches_reference(state0, model, n_steps):
    """The kernel agrees with _reference_evolve within the stated bound."""
    new = evolve(state0, model, n_steps)
    ref = _reference_evolve(state0, model, n_steps)
    assert (new.offset, new.step_count) == (ref.offset, ref.step_count)
    assert new.amplitudes.shape == ref.amplitudes.shape
    p, q = probability_distribution(new), probability_distribution(ref)
    assert total_variation(p, q) <= 1e-14
    assert np.max(np.abs(p.p - q.p)) <= 1e-15
    assert abs(new.norm() - ref.norm()) <= 1e-14


@given(model=walk_models(), chi=st.sampled_from("+-"),
       n=st.integers(min_value=0, max_value=400))
def test_kernel_matches_reference_property(model, chi, n):
    _assert_matches_reference(initial_state(chi), model, n)


@pytest.mark.parametrize("model, n", [(StandardWalk(1.3), 2000),
                                      (SplitStepWalk(0.9, -0.4), 2000),
                                      (NonCommutingWalk(0.7, 0.3), 3000)],
                         ids=["standard", "splitstep", "noncommuting"])
def test_kernel_matches_reference_with_underflowed_tails(model, n):
    # Each reference walk carries subnormal tails at n steps (the
    # noncommuting one first does past 2500), which the kernel drops
    # from its live window.
    ref = _reference_evolve(initial_state("+"), model, n)
    floats = np.abs(ref.amplitudes.view(float))
    assert np.any((floats > 0) & (floats < np.finfo(float).tiny))
    _assert_matches_reference(initial_state("+"), model, n)


def test_live_window_drops_subnormal_tails():
    # The site-major reference kernel leaves 2744 subnormal components here.
    state = evolve(initial_state("+"), SplitStepWalk(0.9, -0.4), 3000)
    floats = np.abs(state.amplitudes.T.copy().view(float))
    assert np.count_nonzero((floats > 0) & (floats < np.finfo(float).tiny)) \
        <= 128


def test_live_window_keeps_interior_zeros():
    # Only the two end sites are nonzero, so a trim that stopped at the
    # first zero from either end would drop half the walker.
    amps = np.zeros((121, 2), dtype=complex)
    amps[0] = (0.6, 0.0)
    amps[-1] = (0.0, 0.8j)
    state0 = WalkerState(amplitudes=amps, offset=-60, step_count=0)
    for model in (StandardWalk(0.4), SplitStepWalk(0.9, -0.4),
                  NonCommutingWalk(0.7, 0.3)):
        _assert_matches_reference(state0, model, 3 * TRIM_STEPS + 5)
    zero = WalkerState(amplitudes=np.zeros((3, 2), dtype=complex), offset=5,
                       step_count=1)
    state = evolve(zero, SplitStepWalk(0.9, -0.4), 2 * TRIM_STEPS + 1)
    assert state.amplitudes.shape == (3 + 2 * (2 * TRIM_STEPS + 1), 2)
    assert not np.any(state.amplitudes)
    _assert_matches_reference(zero, SplitStepWalk(0.9, -0.4),
                              2 * TRIM_STEPS + 1)


@given(model=walk_models(), k=st.floats(min_value=-np.pi, max_value=np.pi),
       n=st.integers(min_value=0, max_value=200))
def test_matrix_power_matches_repeated_products(model, k, n):
    u = model.momentum_unitary(k)
    product = np.eye(2, dtype=complex)
    for _ in range(n):
        product = u @ product
    powered = np.linalg.matrix_power(model.momentum_unitaries(np.array([k])), n)
    assert np.max(np.abs(powered[0] - product)) < 1e-12


# The closed-form power's error grows like n ulps, as matrix_power's
# does; 300 random draws of the three families peaked at 6.4e-16 n.
POWER_TOL_PER_STEP = 2e-15


@given(model=st.one_of(walk_models(),
                       st.builds(_GlobalPhaseWalk, angles, angles, angles)),
       k=st.floats(min_value=-np.pi, max_value=np.pi),
       n=st.integers(min_value=0, max_value=20_000))
# StandardWalk(0) is U = I at k = 0, so |v| = 0 exactly there, and -I up
# to the rounding of e^{i pi} at k = pi; StandardWalk(pi/2) has trace 0
# up to rounding at k = 0, E = pi/2.
@example(model=StandardWalk(0.0), k=0.0, n=20_000)
@example(model=StandardWalk(0.0), k=np.pi, n=20_000)
@example(model=StandardWalk(np.pi / 2), k=0.0, n=20_000)
def test_unitary_power_matches_matrix_power(model, k, n):
    u = model.momentum_unitaries(np.array([k]))
    with np.errstate(divide="raise", invalid="raise"):
        power = unitary_power(u, n)
    assert np.max(np.abs(power - np.linalg.matrix_power(u, n))) \
        <= POWER_TOL_PER_STEP * max(n, 1)


@pytest.mark.parametrize("n", [0, 1, 31, 32, 33, 1000])
def test_walk_manifest_samples_norm_drift(n, tmp_path):
    # max_norm_drift is taken at every TRIM_STEPS-th step and the last.
    # At n = 33 this walk's drift peaks at a step that is not sampled.
    manifest = tmp_path / "run.json"
    code = cli.main(["walk", "--family", "noncommuting", "--theta", "0.9",
                     "--phi", "-1.3", "--steps", str(n),
                     "--out", str(tmp_path / "walk.csv"),
                     "--manifest", str(manifest)])
    assert code == 0
    state0 = initial_state("+")
    drifts = [abs(s.norm() - state0.norm())
              for s in trajectory(state0, NonCommutingWalk(0.9, -1.3), n)
              if s.step_count % TRIM_STEPS == 0 or s.step_count == n]
    assert json.loads(manifest.read_text())["max_norm_drift"] \
        == max(drifts, default=0.0)
