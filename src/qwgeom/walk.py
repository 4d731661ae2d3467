"""Position-space walk evolution and its momentum-space cross-check.

States live on a dense window of lattice sites that grows with the
light cone; each site carries a two-component spin amplitude (H, V).
One step runs through the model's step_ops() in order: a coin (2x2
matrix) acts sitewise, and a shift (du, dv) moves the H amplitudes du
sites and the V amplitudes dv sites (+1 is right), widening the window
to hold both.  The same list gives the momentum unitary U(k) that the
FFT oracle below powers, but the oracle never calls the position step.
trajectory yields the state after every step and evolve returns the
last; one step is evolve(state, model, 1).

All steps of a walk update one preallocated spin-major buffer in place
(trajectory): row 0 holds the H and row 1 the V amplitudes, so a shift
is a memmove of one row and a real coin (standard, split-step) runs on
the buffer's float64 view, treating real and imaginary parts alike.
Before its loop, trajectory turns step_ops() into a plan: each coin
becomes its diagonal and off-diagonal as (2, 1) float or complex
columns, applied as three two-row ufunc calls, and each shift its
largest move, its widening and the rows it moves.  Only a live range
of sites is touched; it drops, every TRIM_STEPS steps, the outer tail
sites whose floats have all underflowed below np.finfo(float).tiny.
That changes no probability (see trajectory).  Its rounding differs
from a site-major complex matrix product, the tests' reference kernel,
by at most TV 1e-14 and max |dp| 1e-15.

The oracle raises each U(k) to the n-th power in closed form
(unitary_power): U = e^{i gamma}(c I - i v . sigma) gives
U^n = e^{i n gamma}(cos nE I - i sin nE v^ . sigma), E = atan2(|v|, c).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError
from .models import WalkModel

# Peak bytes per lattice site of a walk checked against the oracle and
# written as CSV (`qwgeom walk`): trajectory's spin-major buffer (32)
# and its two scratch rows (32), the oracle's amplitude and 2x2 unitary
# stacks (272 at their peak, by tracemalloc) and the CSV text, not all
# live at once.  Peak RSS growth measured 0.33-0.40 kB per site at
# 3000-20000 steps for all three families (Linux x86-64, numpy 2.4), so
# 1 kB leaves 2x headroom.
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
        """Euclidean norm: a float dot product over each spin's row,
        contiguous for trajectory's views, with no |psi|^2 array."""
        total = 0.0
        for row in self.amplitudes.T:
            floats = np.ascontiguousarray(row, dtype=complex).view(float)
            total += np.dot(floats, floats)
        return float(np.sqrt(total))


@dataclass(frozen=True)
class Distribution:
    """Probability over lattice positions after some number of steps."""

    positions: np.ndarray
    p: np.ndarray
    step_count: int


def initial_state(chirality: str) -> WalkerState:
    """Walker at the origin in a chirality eigenstate (|H> +- i|V>)/sqrt(2)."""
    sign = {"+": 1.0, "-": -1.0}.get(chirality)
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

    step_ops() becomes a plan before the loop.  A coin [[c00, c01],
    [c10, c11]] acts on the two live rows x as t = x[::-1] * [[c01],
    [c10]] into a scratch view, then x *= [[c00], [c11]] and x += t.  A
    coin whose imaginary part is exactly zero (standard, split-step)
    acts alike on the real and imaginary parts, so its columns are real
    and it runs on the buffer's float64 view and float scratch rows; a
    complex coin (noncommuting) runs on the complex views of both.

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
    plan = []
    for op in ops:
        if isinstance(op, tuple):
            top = max(op)
            moves = tuple((row, top - d) for row, d in zip(buf, op) if d < top)
            plan.append((None, (top, top - min(op), moves)))
        else:
            if np.any(op.imag):
                c, rows, tmp, k = op, buf, scratch.view(complex), 1
            else:
                c, rows, tmp, k = op.real, floats, scratch, 2
            diag = np.array([[c[0, 0]], [c[1, 1]]])
            off = np.array([[c[0, 1]], [c[1, 0]]])
            plan.append(((diag, off, rows, tmp, k), None))
    base = state0.offset - a
    lo, hi = a, b
    for i in range(1, n_steps + 1):
        for coin, shift in plan:
            if coin is None:
                top, widen, moves = shift
                for row, move in moves:
                    row[lo - move:hi - move] = row[lo:hi]
                    row[hi - move:hi] = 0.0
                base += top
                a, lo = a - widen, lo - widen
            else:
                diag, off, rows, tmp, k = coin
                x = rows[:, k * lo:k * hi]
                t = tmp[:, :k * (hi - lo)]
                np.multiply(x[::-1], off, out=t)
                x *= diag
                x += t
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
    is fft(U(k)^n ifft(psi)) with no wrap-around.  U(k) is the Laurent
    sum of step_ops() (momentum_unitaries) and U(k)^n taken in closed form
    (unitary_power), so time is O(m log m) and memory O(m): a few arrays
    of m two-component amplitudes or 2x2 matrices, no m x m transform
    matrix.  The returned grid matches the one position-space
    evolution would produce, so the two pipelines compare directly.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be non-negative")
    width0 = state0.amplitudes.shape[0]
    m = width0 + 2 * n_steps
    psi = np.zeros((m, 2), dtype=complex)
    psi[n_steps:n_steps + width0] = state0.amplitudes
    kgrid = 2.0 * np.pi * np.arange(m) / m
    power = unitary_power(model.momentum_unitaries(kgrid), n_steps)
    psi_hat = np.fft.ifft(psi, axis=0)
    psi_n = np.fft.fft(np.einsum("kab,kb->ka", power, psi_hat), axis=0)
    p = np.sum(np.abs(psi_n) ** 2, axis=1)
    x_lo = state0.offset - n_steps
    return Distribution(positions=np.arange(x_lo, x_lo + m), p=p,
                        step_count=state0.step_count + n_steps)


def unitary_power(u: np.ndarray, n: int) -> np.ndarray:
    """u^n for a stack of 2x2 unitaries u, shape (..., 2, 2), in closed form.

    Each u is e^{i gamma}(c I - i v . sigma) with e^{2 i gamma} = det u,
    c real and v a real 3-vector, so u^n = e^{i n gamma}(cos nE I -
    i sin nE v^ . sigma) with E = atan2(|v|, c).  Where |v| = 0 exactly,
    u is +-e^{i gamma} I, sin nE is 0 and v^ is never formed.
    """
    gamma = 0.5 * np.angle(u[..., 0, 0] * u[..., 1, 1]
                           - u[..., 0, 1] * u[..., 1, 0])
    w = u * np.exp(-1j * gamma)[..., None, None]
    c = 0.5 * (w[..., 0, 0] + w[..., 1, 1]).real
    v1 = -0.5 * (w[..., 0, 1] + w[..., 1, 0]).imag
    v2 = 0.5 * (w[..., 1, 0] - w[..., 0, 1]).real
    v3 = 0.5 * (w[..., 1, 1] - w[..., 0, 0]).imag
    r = np.sqrt(v1 * v1 + v2 * v2 + v3 * v3)
    angle = n * np.arctan2(r, c)
    s = np.divide(np.sin(angle), r, out=np.zeros_like(r), where=r > 0.0)
    # w's storage becomes u^n, written part by part with no complex
    # temporaries: cos nE on the diagonal, -i sin nE v^ . sigma, then
    # the phase.
    re, im = w.real, w.imag
    re[..., 0, 0] = re[..., 1, 1] = np.cos(angle)
    neg = -s
    np.multiply(neg, v3, out=im[..., 0, 0])
    np.multiply(s, v3, out=im[..., 1, 1])
    np.multiply(neg, v2, out=re[..., 0, 1])
    np.multiply(s, v2, out=re[..., 1, 0])
    np.multiply(neg, v1, out=im[..., 0, 1])
    np.multiply(neg, v1, out=im[..., 1, 0])
    w *= np.exp(1j * n * gamma)[..., None, None]
    return w


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
