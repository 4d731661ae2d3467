"""Small shared helpers: angle folding, circular comparison, worker pools."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

TWO_PI = 2.0 * math.pi


def fold_angle(x: float) -> float:
    """Fold a real number into the interval (-pi, pi]."""
    w = x % TWO_PI
    if w > math.pi:
        w -= TWO_PI
    return w


def canonical_angle(x: float) -> float:
    """Map an angle parameter into [-pi, pi].

    Values already inside the closed interval are kept as given, so both
    endpoints -pi and +pi survive round trips.  Anything outside is reduced
    with IEEE remainder, which lands in [-pi, pi].  Raises ValueError
    for nan and infinities.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"angle must be finite, got {x!r}")
    if -math.pi <= x <= math.pi:
        return x
    return math.remainder(x, TWO_PI)


def circular_distance(a: float, b: float) -> float:
    """Distance between two angles on the circle, in [0, pi]."""
    return abs(fold_angle(a - b))


def worker_count() -> int:
    """Number of worker threads for row-parallel scans.

    Controlled by the QWGEOM_WORKERS environment variable; defaults to the
    CPU count.  Always at least 1.
    """
    raw = os.environ.get("QWGEOM_WORKERS", "")
    if raw.strip():
        try:
            n = int(raw)
        except ValueError:
            n = 1
    else:
        n = os.cpu_count() or 1
    return max(1, n)


def run_rows(fn, n_rows: int):
    """Evaluate fn(i) for i in range(n_rows), possibly in a thread pool.

    Results are assembled by index, so the output order never depends on
    scheduling.  fn must be thread safe (the row scans here only call numpy).
    """
    workers = worker_count()
    if workers == 1 or n_rows <= 1:
        return [fn(i) for i in range(n_rows)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, range(n_rows)))
