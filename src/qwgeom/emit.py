"""Deterministic CSV/JSON rendering of computed artifacts.

Every emitter returns a complete text payload: CSV with one header row,
"\n" newlines, and floats at 17 significant digits; JSON with sorted
keys, two-space indent, and a trailing newline.  Identical inputs give
byte-identical text, so data files carry no timestamps or environment
details (a run manifest holds metadata separately).
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .holonomy import GeometricTensor
from .models import WalkModel
from .topology import DiracPointSet, GapMap
from .walk import Distribution
from .zak import ZakMap, ZakResult


def format_float(x) -> str:
    return "%.17g" % float(x)


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format_float(value)


# Peak bytes per row of a grid map's CSV (one row per angle node),
# counting the row's share of the arrays it renders: csv_text holds each
# line as its own string before joining.  Measured 304-306 for
# phase-diagram and 317-325 for zak-map from peak RSS growth at 201-2881
# nodes a side (Linux x86-64, numpy 2.4).
CSV_ROW_BYTES = 352
# Peak bytes per momentum sample of a spectrum or bloch CSV, counted the
# same way; measured 329-352 at 1e5-1.6e6 samples.
CURVE_ROW_BYTES = 384
# Peak bytes per row of a CSV rendered from a generator (text only);
# measured 295-306 per holonomy-sphere loop at 2e4-1.6e5 loops.
TABLE_ROW_BYTES = 352


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def model_payload(model: WalkModel) -> dict:
    return {"family": model.family, "angles": [float(a) for a in model.angles]}


def spectrum_csv(model: WalkModel, ks: np.ndarray) -> str:
    ce = np.asarray(model.cos_energy(ks), dtype=float)
    energy = np.arccos(np.clip(ce, -1.0, 1.0))
    gap = 1.0 - np.abs(ce)
    rows = zip(ks, ce, energy, gap)
    return csv_text(("k", "cos_energy", "energy", "gap"), rows)


def bloch_csv(model: WalkModel, ks: np.ndarray) -> str:
    n = model.bloch_vector(ks)
    rows = zip(ks, n[..., 0], n[..., 1], n[..., 2])
    return csv_text(("k", "nx", "ny", "nz"), rows)


def gap_map_csv(gm: GapMap) -> str:
    def rows():
        for i, a1 in enumerate(gm.angles1):
            for j, a2 in enumerate(gm.angles2):
                yield (a1, a2, gm.gap[i, j], gm.argmin_k[i, j])

    return csv_text(("angle1", "angle2", "min_gap", "argmin_k"), rows())


def dirac_points_json(ds: DiracPointSet) -> str:
    points = [
        {
            "angle1": float(p.angle1),
            "angle2": float(p.angle2),
            "k_star": float(p.momentum),
            "energy": float(p.energy),
        }
        for p in ds.points
    ]
    return json_text(points)


def zak_result_json(zr: ZakResult) -> str:
    payload = {
        "band": int(zr.band),
        "phase": float(zr.phase),
        "k_origin": float(zr.k_origin),
        "n_points": int(zr.n_points),
        "span": zr.span,
        "closed": bool(zr.closed),
        "converged": bool(zr.converged),
        "model": model_payload(zr.model),
    }
    return json_text(payload)


def zak_map_csv(zm: ZakMap) -> str:
    def rows():
        for i, a1 in enumerate(zm.angles1):
            for j, a2 in enumerate(zm.angles2):
                yield (a1, a2, zm.zak_plus[i, j], zm.zak_minus[i, j],
                       bool(zm.masked[i, j]))

    return csv_text(("angle1", "angle2", "zak_plus", "zak_minus", "masked"),
                    rows())


def distribution_csv(d: Distribution) -> str:
    return csv_text(("x", "p"), zip(d.positions, d.p))


def winding_json(model: WalkModel, winding: int, k_samples: int) -> str:
    payload = {
        "model": model_payload(model),
        "winding": int(winding),
        "k_samples": int(k_samples),
    }
    return json_text(payload)


def holonomy_table_csv(rows) -> str:
    header = ("theta0", "rotation_angle", "solid_angle", "mismatch",
              "norm_drift")
    return csv_text(header, rows)


def qgt_json(gt: GeometricTensor, band: int, h: float) -> str:
    payload = {
        "params": [float(x) for x in gt.params],
        "band": int(band),
        "h": float(h),
        "g": [[float(x) for x in row] for row in gt.g],
        "curvature": [[float(x) for x in row] for row in gt.curvature],
        "error_bound": float(gt.error_bound),
    }
    return json_text(payload)


def walk_manifest_json(model: WalkModel, n_steps: int, chirality: str,
                       norm_initial: float, norm_final: float,
                       max_norm_drift: float, similarity_vs_oracle: float,
                       tv_vs_oracle: float) -> str:
    payload = {
        "model": model_payload(model),
        "n_steps": int(n_steps),
        "chirality": chirality,
        "norm_initial": float(norm_initial),
        "norm_final": float(norm_final),
        "max_norm_drift": float(max_norm_drift),
        "similarity_vs_oracle": float(similarity_vs_oracle),
        "tv_vs_oracle": float(tv_vs_oracle),
    }
    return json_text(payload)


def write_text(text: str, out: str | None) -> None:
    """Write payload text to a path, or to stdout for None or '-'."""
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
