"""Small shared helpers: the package's one angle fold and canonical angles."""

from __future__ import annotations

import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
# Folded angles this close to +-pi read +pi, not a sign set by rounding.
PI_PIN_TOL = 1e-12


def fold_angle(x):
    """Fold a finite float, or an array of them, into (-pi, pi]; within
    PI_PIN_TOL of +-pi the result is pi.  A scalar gives a Python float,
    anything else np.where's array."""
    w = np.asarray(x, dtype=float) % TWO_PI
    folded = np.where(abs(w - np.pi) < PI_PIN_TOL, np.pi,
                      np.where(w > np.pi, w - TWO_PI, w))
    return folded if isinstance(x, np.ndarray) or w.ndim else float(folded)


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
