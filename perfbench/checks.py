"""Independent references and output checks for the benchmark.

Every check recomputes what an output must hold from closed forms or
from the coin definitions, never from a stored digest, so an intended
change in a sampled quantity (such as argmin_k in a gap map) is not
flagged.  A failed check raises CheckFailed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerances of the acceptance gates each check mirrors.
GAP_ENVELOPE_SLACK = 1e-4     # sampled gap may exceed the exact one by this
CENSUS_TOL = 1e-6             # AC1 point placement
ORACLE_TV_TOL = 1e-10         # AC7
NORM_DRIFT_TOL = 1e-12        # AC7
MIRROR_TOL = 1e-10
HOLONOMY_TOL = 1e-6           # AC8
TRANSPORT_DRIFT_TOL = 1e-9    # AC8
QGT_TOL = 1e-6
ZAK_TOL = 1e-6
MODEL_TOL = 1e-10


class CheckFailed(Exception):
    """An output disagrees with its reference."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fold(x):
    """Fold angles into (-pi, pi]."""
    w = np.mod(x, TWO_PI)
    return np.where(w > math.pi, w - TWO_PI, w)


def iter_csv(path: str, columns: int, chunk_rows: int | None = None):
    """Yield the data rows of a CSV file as float arrays, chunk_rows at a
    time (all at once for None), so large outputs are checked in bounded
    memory."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        require(len(header) == columns, f"{path}: header {header}")
        while lines := list(itertools.islice(fh, chunk_rows)):
            data = np.loadtxt(lines, delimiter=",", ndmin=2)
            require(data.shape[1] == columns, f"{path}: {data.shape[1]} columns")
            yield data


def load_csv(path: str, columns: int) -> np.ndarray:
    chunks = list(iter_csv(path, columns))
    require(len(chunks) == 1, f"{path}: no data rows")
    return chunks[0]


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------- scans

def census():
    """The thirteen gap closings of the non-commuting family on the closed
    angle square, with the momentum of each touching."""
    points = []
    for a1 in (-math.pi, 0.0, math.pi):
        for a2 in (-math.pi, 0.0, math.pi):
            k = 0.0 if math.cos(a1) * math.cos(a2) > 0 else math.pi
            points.append((a1, a2, k))
    for a1 in (-math.pi / 2, math.pi / 2):
        for a2 in (-math.pi / 2, math.pi / 2):
            k = math.pi / 2 if math.sin(a1) * math.sin(a2) > 0 else -math.pi / 2
            points.append((a1, a2, k))
    return points


def noncommuting_gap_envelope(theta, phi):
    """Exact min_k gap 1 - max_k |d cos k + c sin k| = 1 - sqrt(c^2 + d^2)."""
    c = np.sin(phi) * np.sin(theta)
    d = np.cos(phi) * np.cos(theta)
    return 1.0 - np.hypot(c, d)


def check_square_grid(a1, a2, resolution: int, first_row: int = 0) -> None:
    """Rows first_row.. of the row-major (resolution x resolution) square."""
    grid = np.linspace(-math.pi, math.pi, resolution)
    rows = np.arange(first_row, first_row + a1.size)
    require(rows[-1] < resolution * resolution, "more grid nodes than R^2")
    require(np.allclose(a1, grid[rows // resolution], rtol=0, atol=1e-12)
            and np.allclose(a2, grid[rows % resolution], rtol=0, atol=1e-12),
            "grid nodes are not the row-major angle square")


def check_gap_map(a1, a2, gap, resolution: int, first_row: int = 0) -> None:
    """Each sampled gap lies in [exact, exact + 1e-4] of the envelope."""
    a1, a2 = np.ravel(a1), np.ravel(a2)
    check_square_grid(a1, a2, resolution, first_row)
    excess = np.ravel(gap) - noncommuting_gap_envelope(a1, a2)
    require(np.all(np.isfinite(excess)), "non-finite gap")
    require(excess.min() >= -1e-12,
            f"sampled gap below the exact envelope by {-excess.min():.3e}")
    require(excess.max() <= GAP_ENVELOPE_SLACK,
            f"sampled gap exceeds the envelope by {excess.max():.3e}")


def check_gap_map_csv(path: str, resolution: int) -> None:
    rows = 0
    for d in iter_csv(path, 4, chunk_rows=20_000):
        check_gap_map(d[:, 0], d[:, 1], d[:, 2], resolution, rows)
        rows += d.shape[0]
    require(rows == resolution * resolution,
            f"{rows} grid nodes, expected {resolution}^2")


def _same_momentum(ka: float, kb: float) -> bool:
    return abs(float(fold(ka - kb))) < CENSUS_TOL


def check_census_points(points) -> None:
    """Exactly the thirteen census points, each within 1e-6 (AC1)."""
    require(len(points) == 13, f"{len(points)} Dirac points, expected 13")
    unmatched = census()
    for p in points:
        dists = [max(abs(p["angle1"] - a1), abs(p["angle2"] - a2))
                 for a1, a2, _ in unmatched]
        i = int(np.argmin(dists))
        require(dists[i] < CENSUS_TOL,
                f"point ({p['angle1']}, {p['angle2']}) is off the census")
        require(_same_momentum(p["k_star"], unmatched[i][2]),
                f"point ({p['angle1']}, {p['angle2']}) has k* {p['k_star']}")
        unmatched.pop(i)


def check_dirac_json(path: str, family: str, stderr: str) -> None:
    points = load_json(path)
    if family == "noncommuting":
        check_census_points(points)
    else:
        require(points == [], f"splitstep listed {len(points)} points")
        require("extended curves" in stderr,
                "splitstep did not report a continuous boundary")


def check_zak_map(a1, a2, plus, minus, masked, resolution: int) -> None:
    """Masks exactly the census nodes; every unmasked phase is finite."""
    require(np.size(a1) == resolution * resolution,
            f"{np.size(a1)} grid nodes, expected {resolution}^2")
    check_square_grid(np.ravel(a1), np.ravel(a2), resolution)
    masked = np.ravel(masked).astype(bool)
    got = {(round(float(x), 9), round(float(y), 9))
           for x, y in zip(np.ravel(a1)[masked], np.ravel(a2)[masked])}
    want = {(round(x, 9), round(y, 9)) for x, y, _ in census()}
    require(got == want, f"{len(got)} masked nodes differ from the census")
    live = ~masked
    require(np.all(np.isfinite(np.ravel(plus)[live]))
            and np.all(np.isfinite(np.ravel(minus)[live])),
            "non-finite Zak phase on an unmasked node")


def check_zak_map_csv(path: str, resolution: int) -> None:
    d = load_csv(path, 5)
    check_zak_map(d[:, 0], d[:, 1], d[:, 2], d[:, 3], d[:, 4], resolution)


# ----------------------------------------------------------------- walks

def check_walk_outputs(csv_path: str, manifest_path: str, steps: int) -> None:
    """AC7 gates from the manifest, and a normalized light-cone CSV."""
    manifest = load_json(manifest_path)
    require(manifest["tv_vs_oracle"] < ORACLE_TV_TOL,
            f"oracle TV {manifest['tv_vs_oracle']:.3e}")
    require(manifest["max_norm_drift"] < NORM_DRIFT_TOL,
            f"norm drift {manifest['max_norm_drift']:.3e}")
    d = load_csv(csv_path, 2)
    require(np.array_equal(d[:, 0], np.arange(-steps, steps + 1)),
            "walk positions are not the light cone")
    require(abs(d[:, 1].sum() - 1.0) < MIRROR_TOL, "distribution not normalized")


def check_long_evolve(norm: float, positions, p, text: str) -> None:
    """Norm kept, mirror-symmetric distribution, one CSV row per site."""
    require(abs(norm - 1.0) < NORM_DRIFT_TOL, f"norm drift {abs(norm - 1):.3e}")
    require(np.array_equal(positions, -positions[::-1]),
            "positions are not symmetric about the origin")
    asym = float(np.max(np.abs(p - p[::-1])))
    require(asym < MIRROR_TOL, f"mirror asymmetry {asym:.3e}")
    require(text.count("\n") == len(p) + 1, "CSV row count differs")


# -------------------------------------------------------------- geometry

def check_holonomy_csv(path: str, loops: int) -> None:
    """Rotation equals the enclosed solid angle 2 pi (1 - cos theta0)."""
    d = load_csv(path, 5)
    require(d.shape[0] == loops, f"{d.shape[0]} loops, expected {loops}")
    theta0 = math.pi * np.arange(1, loops + 1) / (loops + 1)
    require(np.allclose(d[:, 0], theta0, rtol=0, atol=1e-12), "loop latitudes")
    area = TWO_PI * (1.0 - np.cos(theta0))
    require(np.max(np.abs(fold(d[:, 1] - area))) < HOLONOMY_TOL,
            "rotation angle differs from the solid angle")
    require(np.max(np.abs(fold(d[:, 2] - area))) < HOLONOMY_TOL,
            "solid angle differs from 2 pi (1 - cos theta0)")
    require(np.all(d[:, 3] < HOLONOMY_TOL), "mismatch above 1e-6")
    require(np.all(d[:, 4] < TRANSPORT_DRIFT_TOL), "norm drift above 1e-9")


def noncommuting_unitaries(theta: float, phi: float, ks) -> np.ndarray:
    """U(k) = diag(e^{ik}, e^{-ik}) R_y(theta) R_x(phi) from the coins."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    ry = np.array([[ct, -st], [st, ct]], dtype=complex)
    rx = np.array([[cp, 1j * sp], [1j * sp, cp]], dtype=complex)
    coin = ry @ rx
    phase = np.exp(1j * np.asarray(ks))
    return np.stack([phase[:, None] * coin[0], np.conj(phase)[:, None] * coin[1]],
                    axis=1)


def _k_grid(n: int) -> np.ndarray:
    return np.linspace(-math.pi, math.pi, n)


def check_spectrum_csv(path: str, theta: float, phi: float,
                       k_samples: int) -> None:
    d = load_csv(path, 4)
    ks = _k_grid(k_samples)
    require(np.allclose(d[:, 0], ks, rtol=0, atol=1e-12), "k grid")
    cos_e = 0.5 * np.trace(noncommuting_unitaries(theta, phi, ks),
                           axis1=1, axis2=2).real
    require(np.max(np.abs(d[:, 1] - cos_e)) < MODEL_TOL, "cos E(k)")
    require(np.max(np.abs(d[:, 2] - np.arccos(np.clip(cos_e, -1, 1)))) < 1e-7,
            "E(k)")
    require(np.max(np.abs(d[:, 3] - (1 - np.abs(cos_e)))) < MODEL_TOL, "gap(k)")


def check_bloch_csv(path: str, theta: float, phi: float,
                    k_samples: int) -> None:
    """n(k) from U = cos E - i N . sigma, normalized."""
    d = load_csv(path, 4)
    ks = _k_grid(k_samples)
    require(np.allclose(d[:, 0], ks, rtol=0, atol=1e-12), "k grid")
    u = noncommuting_unitaries(theta, phi, ks)
    nx = -0.5 * (u[:, 0, 1] + u[:, 1, 0]).imag
    ny = 0.5 * (u[:, 1, 0] - u[:, 0, 1]).real
    nz = -0.5 * (u[:, 0, 0] - u[:, 1, 1]).imag
    n = np.stack([nx, ny, nz], axis=1)
    n /= np.linalg.norm(n, axis=1)[:, None]
    require(np.max(np.abs(d[:, 1:] - n)) < MODEL_TOL, "Bloch vector n(k)")


def check_zak_json(path: str, theta: float, phi: float, band: int,
                   integrand) -> None:
    """Phase equals the integrated closed-form integrand over the half zone."""
    payload = load_json(path)
    ks = np.linspace(-math.pi / 2, math.pi / 2, 20001)
    vals = integrand(theta, phi, ks, band)
    integral = float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(ks)))
    require(payload["band"] == band, "band label")
    err = abs(float(fold(payload["phase"] - integral)))
    require(err < ZAK_TOL, f"Zak phase off the integrand by {err:.3e}")


def check_winding_json(path: str, theta: float, phi: float) -> None:
    """The Bloch curve is the origin-centred ellipse cos k u + sin k v, so it
    winds once, signed by (u x v) against the normal whose largest
    component is positive."""
    st, ct = math.sin(theta), math.cos(theta)
    sp, cp = math.sin(phi), math.cos(phi)
    a, b, c, d = sp * ct, cp * st, sp * st, cp * ct
    normal = np.cross([-a, b, c], [b, a, -d])
    pivot = int(np.argmax(np.abs(normal)))
    expected = 1 if normal[pivot] > 0 else -1
    got = load_json(path)["winding"]
    require(got == expected, f"winding {got}, expected {expected}")


def check_qgt_json(path: str, theta: float, band: int) -> None:
    """g = diag(1, sin^2 theta) / 4 and curvature -band sin(theta) / 2."""
    payload = load_json(path)
    g = np.array(payload["g"])
    f = np.array(payload["curvature"])
    s = math.sin(theta)
    require(np.max(np.abs(g - 0.25 * np.diag([1.0, s * s]))) < QGT_TOL, "metric g")
    want = -0.5 * band * s
    require(abs(f[0, 1] - want) < QGT_TOL and abs(f[1, 0] + want) < QGT_TOL,
            "Berry curvature")
