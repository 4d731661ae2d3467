"""Deterministic CSV/JSON rendering of computed artifacts.

Every emitter returns a complete text payload: CSV with one header row,
"\n" newlines, and floats at 17 significant digits; JSON with sorted
keys, two-space indent, and a trailing newline.  Identical inputs give
byte-identical text, so data files carry no timestamps or environment
details (a run manifest holds metadata separately).

Every CSV table goes through csv_text as arrays, CSV_BLOCK_ROWS rows per
% string; a grid map's axes broadcast as angles1[:, None] and angles2.
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

# Rows formatted by one % operation.
CSV_BLOCK_ROWS = 4096
# Peak bytes per row of any CSV command, counting the row's share of the
# arrays it renders and of the text (the formatted blocks and the joined
# text coexist once).  Peak RSS growth measured 161-196 for phase-diagram
# at 801-1601 nodes a side, 194-236 for zak-map at 401-1201, 191-197 for
# spectrum and bloch at 1e6-3e6 samples, and 225 per holonomy-sphere
# loop at 1e5 loops (Linux x86-64, numpy 2.4).
CSV_ROW_BYTES = 256


def csv_text(header, columns) -> str:
    """CSV text of columns that broadcast to one shape, rows in C order.

    Integer and bool columns print with %d, all others with %.17g.
    """
    columns = np.broadcast_arrays(*columns)
    width = len(columns)
    row_format = ",".join("%d" if c.dtype.kind in "biu" else "%.17g"
                          for c in columns) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, columns[0].size, CSV_BLOCK_ROWS):
        block = [c.flat[start:start + CSV_BLOCK_ROWS].tolist()
                 for c in columns]
        n = len(block[0])
        cells = [None] * (width * n)
        for j, values in enumerate(block):
            cells[j::width] = values
        parts.append((row_format * n) % tuple(cells))
    return "".join(parts)


def json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def model_payload(model: WalkModel) -> dict:
    return {"family": model.family, "angles": [float(a) for a in model.angles]}


def spectrum_csv(model: WalkModel, ks: np.ndarray) -> str:
    ce = np.asarray(model.cos_energy(ks), dtype=float)
    energy = np.arccos(np.clip(ce, -1.0, 1.0))
    return csv_text(("k", "cos_energy", "energy", "gap"),
                    (ks, ce, energy, 1.0 - np.abs(ce)))


def bloch_csv(model: WalkModel, ks: np.ndarray) -> str:
    n = model.bloch_vector(ks)
    return csv_text(("k", "nx", "ny", "nz"), (ks, *np.moveaxis(n, -1, 0)))


def gap_map_csv(gm: GapMap) -> str:
    return csv_text(("angle1", "angle2", "min_gap", "argmin_k"),
                    (gm.angles1[:, None], gm.angles2, gm.gap, gm.argmin_k))


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
        "converged": bool(zr.converged),
        "model": model_payload(zr.model),
    }
    return json_text(payload)


def zak_map_csv(zm: ZakMap) -> str:
    return csv_text(("angle1", "angle2", "zak_plus", "zak_minus", "masked"),
                    (zm.angles1[:, None], zm.angles2, zm.zak_plus,
                     zm.zak_minus, zm.masked))


def distribution_csv(d: Distribution) -> str:
    return csv_text(("x", "p"), (d.positions, d.p))


def winding_json(model: WalkModel, winding: int, k_samples: int) -> str:
    payload = {
        "model": model_payload(model),
        "winding": int(winding),
        "k_samples": int(k_samples),
    }
    return json_text(payload)


def holonomy_table_csv(table: np.ndarray) -> str:
    """CSV of a (loops, 5) table, one row per latitude loop."""
    header = ("theta0", "rotation_angle", "solid_angle", "mismatch",
              "norm_drift")
    return csv_text(header, table.T)


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
