"""Position-space evolution against the momentum-space oracle."""

from dataclasses import dataclass

import numpy as np
import pytest

from qwgeom.errors import GridMismatchError
from qwgeom.models import (NonCommutingWalk, SplitStepWalk, StandardWalk,
                           WalkModel)
from qwgeom.spin import rotation_x, rotation_y
from qwgeom.walk import (Distribution, evolve, initial_state, momentum_oracle,
                         probability_distribution, similarity, step,
                         total_variation)


def test_initial_state_chirality():
    for chi, sign in (("+", 1.0), ("-", -1.0), (+1, 1.0), (-1, -1.0)):
        s = initial_state(chi)
        assert s.step_count == 0
        assert s.offset == 0
        assert np.allclose(s.amplitudes,
                           [[1.0 / np.sqrt(2), sign * 1j / np.sqrt(2)]])
        assert abs(s.norm() - 1.0) < 1e-15
    with pytest.raises(ValueError):
        initial_state("x")


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

    def step_ops(self):
        return (rotation_y(self.alpha), (1, 0), rotation_x(self.beta), (0, -1))


def test_family_declared_in_test_matches_oracle():
    # Only step_ops() is declared here, so agreement shows that the
    # position step and the momentum unitary are derived generically.
    rng = np.random.default_rng(439)
    for _ in range(6):
        model = _HFirstSplitStep(*rng.uniform(-np.pi, np.pi, 2))
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
        step(initial_state("+"), object())


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
