"""Position-space walk evolution and its momentum-space cross-check.

States live on a dense window of lattice sites that grows with the
light cone; each site carries a two-component spin amplitude (H, V).
One step runs through the model's step_ops() in order: a coin (2x2
matrix) acts sitewise, and a shift (du, dv) moves the H amplitudes du
sites and the V amplitudes dv sites (+1 is right), widening the window
to hold both.  The same list gives the momentum unitary U(k) that the
oracle below powers, but the oracle never calls the position step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .models import WalkModel


@dataclass(frozen=True)
class WalkerState:
    """Spin-resolved amplitudes on a contiguous window of sites.

    amplitudes[i, s] is the amplitude at position offset + i with spin
    s (0 = H, 1 = V); step_count tracks how many walk steps produced it.
    """

    amplitudes: np.ndarray
    offset: int
    step_count: int

    @property
    def positions(self) -> np.ndarray:
        return np.arange(self.offset, self.offset + self.amplitudes.shape[0])

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amplitudes) ** 2)))


@dataclass(frozen=True)
class Distribution:
    """Probability over lattice positions after some number of steps."""

    positions: np.ndarray
    p: np.ndarray
    step_count: int


def initial_state(chirality) -> WalkerState:
    """Walker at the origin in a chirality eigenstate (|H> +- i|V>)/sqrt(2)."""
    sign = {"+": 1.0, "-": -1.0, +1: 1.0, -1: -1.0}.get(chirality)
    if sign is None:
        raise ValueError("chirality must be '+' or '-'")
    amps = np.array([[1.0, sign * 1.0j]], dtype=complex) / np.sqrt(2.0)
    return WalkerState(amplitudes=amps, offset=0, step_count=0)


def _shift(amps: np.ndarray, du: int, dv: int) -> tuple[np.ndarray, int]:
    """Move H by du and V by dv sites on a window that holds both.

    Returns the new amplitudes and how far the window's left edge moved.
    """
    lo = min(du, dv)
    n = amps.shape[0]
    out = np.zeros((n + max(du, dv) - lo, 2), dtype=complex)
    out[du - lo:du - lo + n, 0] = amps[:, 0]
    out[dv - lo:dv - lo + n, 1] = amps[:, 1]
    return out, lo


def step(state: WalkerState, model: WalkModel) -> WalkerState:
    """One full walk step; returns a fresh state on an enlarged window."""
    if not isinstance(model, WalkModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    amps, offset = state.amplitudes, state.offset
    for op in model.step_ops():
        if isinstance(op, tuple):
            amps, moved = _shift(amps, *op)
            offset += moved
        else:
            amps = amps @ op.T
    return WalkerState(amplitudes=amps, offset=offset,
                       step_count=state.step_count + 1)


def evolve(state0: WalkerState, model: WalkModel, n_steps: int) -> WalkerState:
    """Apply n_steps walk steps (n_steps >= 0)."""
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    state = state0
    for _ in range(n_steps):
        state = step(state, model)
    return state


def probability_distribution(state: WalkerState) -> Distribution:
    """Spin-summed position distribution of a walker state."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    return Distribution(positions=state.positions.copy(), p=p,
                        step_count=state.step_count)


def momentum_oracle(state0: WalkerState, model: WalkModel,
                    n_steps: int) -> Distribution:
    """Distribution after n_steps computed entirely in momentum space.

    The state is Fourier transformed (psi_hat(k) = sum_x psi(x) e^{+ikx})
    on a discrete grid large enough that the transform of the final
    light-cone-bounded state is exact, U(k)^n is applied through the
    eigendecomposition of each momentum unitary, and the result is
    transformed back.  The returned grid matches the one position-space
    evolution would produce, so the two pipelines compare directly.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
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
    forward = np.exp(1.0j * np.outer(kgrid, xs))
    psi_hat = forward @ psi

    unitaries = model.momentum_unitaries(kgrid)
    eigvals, eigvecs = np.linalg.eig(unitaries)
    # The spectra are pure phases; powering the angle avoids modulus
    # drift from the general-purpose eigensolver.
    powered = np.exp(1.0j * n_steps * np.angle(eigvals))
    inv = np.linalg.inv(eigvecs)
    coeff = np.einsum("kab,kb->ka", inv, psi_hat)
    psi_hat_n = np.einsum("kab,kb->ka", eigvecs, coeff * powered)

    backward = np.exp(-1.0j * np.outer(xs, kgrid)) / m
    psi_n = backward @ psi_hat_n

    # Every family's full step moves a component by at most one net site
    # (the split-step partial shifts cancel on the cross terms), so the
    # position pipeline's window is the unit-speed light cone.
    lo = state0.offset - n_steps
    hi = state0.offset + width0 - 1 + n_steps
    keep = (xs >= lo) & (xs <= hi)
    p = np.sum(np.abs(psi_n[keep]) ** 2, axis=1)
    return Distribution(positions=xs[keep], p=p,
                        step_count=state0.step_count + n_steps)


def _check_same_grid(p: Distribution, q: Distribution) -> None:
    if p.positions.shape != q.positions.shape or np.any(p.positions != q.positions):
        raise GridMismatchError("distributions live on different position grids")


def similarity(p: Distribution, q: Distribution) -> float:
    """Bhattacharyya-style overlap (sum_x sqrt(p q))^2 on a shared grid.

    Equals 1 for identical and 0 for disjoint distributions.
    """
    _check_same_grid(p, q)
    return float(np.sum(np.sqrt(p.p * q.p)) ** 2)


def total_variation(p: Distribution, q: Distribution) -> float:
    """Total variation distance 0.5 sum_x |p - q| on a shared grid."""
    _check_same_grid(p, q)
    return 0.5 * float(np.sum(np.abs(p.p - q.p)))
