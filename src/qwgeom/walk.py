"""Position-space walk evolution and its momentum-space cross-check.

States live on a dense window of lattice sites that grows with the
light cone; each site carries a two-component spin amplitude (H, V).
One step runs through the model's step_ops() in order: a coin (2x2
matrix) acts sitewise, and a shift (du, dv) moves the H amplitudes du
sites and the V amplitudes dv sites (+1 is right), widening the window
to hold both.  The same list gives the momentum unitary U(k) that the
FFT oracle below powers, but the oracle never calls the position step.

All steps of a walk update one preallocated spin-major buffer in place
(trajectory): row 0 holds the H and row 1 the V amplitudes, so a shift
is a memmove of one row and a real coin (standard, split-step) runs on
the buffer's float64 view, treating real and imaginary parts alike.
Only a live range of sites is touched; it drops, every TRIM_STEPS
steps, the outer tail sites whose floats have all underflowed below
np.finfo(float).tiny.  That changes no probability (see trajectory).
Its rounding differs from a site-major complex matrix product, the
tests' reference kernel, by at most TV 1e-14 and max |dp| 1e-15.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .models import WalkModel

# Peak bytes per lattice site of a walk checked against the oracle and
# written as CSV (`qwgeom walk`): trajectory's spin-major buffer (32)
# and its two scratch rows (32), the oracle's amplitude and 2x2 unitary
# stacks (~330) and the CSV text (~200), not all live at once.  Peak RSS
# growth measured 0.32-0.47 kB per site at 3000-20000 steps for all
# three families (Linux x86-64, numpy 2.4), so 1 kB leaves 2x headroom.
SITE_BYTES = 1024

# trajectory drops underflowed tails from its live range every
# TRIM_STEPS steps: below this magnitude a float is zero or subnormal.
TRIM_STEPS = 32
_TINY = np.finfo(float).tiny


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


def peak_bytes(width0: int, n_steps: int) -> int:
    """Estimated peak bytes of evolving, checking and emitting a walk.

    The position window of trajectory and the momentum_oracle grid are
    both width0 + 2 n_steps sites wide for the built-in families; the
    estimate is linear in that width and allocates nothing.
    """
    return SITE_BYTES * (width0 + 2 * n_steps)


def trajectory(state0: WalkerState, model: WalkModel, n_steps: int):
    """Yield the state after each of n_steps walk steps, evolved in place.

    One spin-major (2, L) complex buffer, wide enough for every window
    of the walk, is allocated up front with two scratch rows of 2 L
    floats; each yielded amplitudes array is the (width, 2) view
    buf[:, a:b].T of the window [a, b).  Rows only ever move left: a
    shift (du, dv) moves spin s by d_s - max(du, dv) sites, a memmove of
    one contiguous row (numpy runs an overlapping right shift several
    times slower), and the position held at every buffer index advances
    by max(du, dv).  The buffer is then exactly the final window,
    width0 + n_steps * sum(max(op) - min(op)) sites.

    A coin whose imaginary part is exactly zero (standard, split-step)
    acts alike on the real and imaginary parts, so it runs on the
    buffer's float64 view with out= ufuncs into the scratch rows; a
    complex coin (noncommuting) runs the same ufuncs on the complex
    views of both.

    Coins and shifts touch only a live range [lo, hi) of the window
    outside which the buffer is exactly zero.  Every TRIM_STEPS steps
    the range shrinks from its outer ends to the outermost sites with
    a float component of at least np.finfo(float).tiny, zeroing the
    sites dropped; interior zeros are kept.  This removes the light
    cone's underflowed tails and the subnormal arithmetic on them.  It
    leaves every probability as it was: a dropped site's own p is 0
    (its squares underflow), and unitarity bounds the norm of all the
    flushed perturbation, carried to every other site, by about 1e-296,
    far below half an ulp of any amplitude whose square is nonzero.

    Each yielded WalkerState is a view of the buffer that the next step
    overwrites; copy it to keep it.  state0 is never modified.
    """
    if not isinstance(model, WalkModel):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    ops = model.step_ops()
    spread = sum(max(op) - min(op) for op in ops if isinstance(op, tuple))
    width0 = state0.amplitudes.shape[0]
    a = n_steps * spread
    b = a + width0
    buf = np.zeros((2, b), dtype=complex)
    buf[:, a:b] = state0.amplitudes.T
    floats = buf.view(float)
    scratch = np.empty((2, 2 * b))
    coins = [None if isinstance(op, tuple)
             else (op, buf, scratch.view(complex), 1) if np.any(op.imag)
             else (op.real, floats, scratch, 2) for op in ops]
    base = state0.offset - a
    lo, hi = a, b
    for i in range(1, n_steps + 1):
        for op, coin in zip(ops, coins):
            if coin is None:
                top = max(op)
                for row, d in zip(buf, op):
                    if d < top:
                        row[lo + d - top:hi + d - top] = row[lo:hi]
                        row[hi + d - top:hi] = 0.0
                base += top
                a, lo = a - (top - min(op)), lo - (top - min(op))
            else:
                ((c00, c01), (c10, c11)), rows, tmp, k = coin
                h, v = rows[0, k * lo:k * hi], rows[1, k * lo:k * hi]
                t0, t1 = tmp[0, :k * (hi - lo)], tmp[1, :k * (hi - lo)]
                np.multiply(h, c10, out=t1)
                np.multiply(v, c01, out=t0)
                h *= c00
                h += t0
                v *= c11
                v += t1
        if i % TRIM_STEPS == 0:
            live = np.flatnonzero(
                (np.abs(floats[:, 2 * lo:2 * hi]) >= _TINY).any(axis=0)) // 2
            new_lo, new_hi = ((lo + live[0], lo + live[-1] + 1) if live.size
                              else (lo, lo))
            buf[:, lo:new_lo] = 0.0
            buf[:, new_hi:hi] = 0.0
            lo, hi = new_lo, new_hi
        yield WalkerState(amplitudes=buf[:, a:b].T, offset=base + a,
                          step_count=state0.step_count + i)


def evolve(state0: WalkerState, model: WalkModel, n_steps: int) -> WalkerState:
    """Apply n_steps walk steps (n_steps >= 0); state0 is left unchanged."""
    state = state0
    for state in trajectory(state0, model, n_steps):
        pass
    return state


def step(state: WalkerState, model: WalkModel) -> WalkerState:
    """One full walk step; returns a fresh state on an enlarged window."""
    return evolve(state, model, 1)


def probability_distribution(state: WalkerState) -> Distribution:
    """Spin-summed position distribution of a walker state."""
    p = np.sum(np.abs(state.amplitudes) ** 2, axis=1)
    return Distribution(positions=state.positions.copy(), p=p,
                        step_count=state.step_count)


def momentum_oracle(state0: WalkerState, model: WalkModel,
                    n_steps: int) -> Distribution:
    """Distribution after n_steps computed entirely in momentum space.

    Every family's full step moves a component by at most one net site
    (the split-step partial shifts cancel on the cross terms), so the
    final state lives on the unit-speed light cone of m = width0 +
    2 n_steps sites starting at x_lo = offset - n_steps.  On the
    periodic grid of those m sites, k_j = 2 pi j / m, the transform
    psi_hat(k_j) = sum_x psi(x) e^{+i k_j x} equals m * ifft(psi)_j up
    to the phase e^{i k_j x_lo}; that phase is a scalar per k, commutes
    with U(k) and cancels in the inverse transform, so the evolved state
    is fft(U(k)^n ifft(psi)) with no wrap-around.  U(k)^n is a batched
    matrix power (repeated squaring) of the (m, 2, 2) stack of momentum
    unitaries, so time is O(m log m + m log n) and memory O(m): a few
    arrays of m two-component amplitudes or 2x2 matrices, no m x m
    transform matrix.  The returned grid matches the one position-space
    evolution would produce, so the two pipelines compare directly.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    width0 = state0.amplitudes.shape[0]
    m = width0 + 2 * n_steps
    psi = np.zeros((m, 2), dtype=complex)
    psi[n_steps:n_steps + width0] = state0.amplitudes
    kgrid = 2.0 * np.pi * np.arange(m) / m
    power = np.linalg.matrix_power(model.momentum_unitaries(kgrid), n_steps)
    psi_hat = np.fft.ifft(psi, axis=0)
    psi_n = np.fft.fft(np.einsum("kab,kb->ka", power, psi_hat), axis=0)
    p = np.sum(np.abs(psi_n) ** 2, axis=1)
    x_lo = state0.offset - n_steps
    return Distribution(positions=np.arange(x_lo, x_lo + m), p=p,
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
