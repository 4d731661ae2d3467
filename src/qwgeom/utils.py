"""Small shared helpers: angle folding and canonical angles."""

from __future__ import annotations

import math
import os

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


def worker_count() -> int:
    """QWGEOM_WORKERS as a count (default: CPU count), at least 1.

    No qwgeom code calls this or uses threads; perfbench/run.py reads it
    as the traced metric utils.workers.
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
