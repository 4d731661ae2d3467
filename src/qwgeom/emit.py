"""Deterministic CSV/JSON rendering of computed artifacts.

Every emitter returns a complete text payload: CSV with one header row,
"\n" newlines, and floats at 17 significant digits; JSON with sorted
keys, two-space indent, and a trailing newline.  Identical inputs give
byte-identical text, so data files carry no timestamps or environment
details (a run manifest holds metadata separately).

Every CSV table goes through csv_text as arrays, CSV_BLOCK_ROWS rows per
% string; a grid map's axes broadcast as angles1[:, None] and angles2.
A table longer than one block formats each distinct value of a float64
column once, taken from the column before broadcasting and told apart by
bit pattern (so -0.0 and 0.0, or two NaN payloads, keep their own
text), when the column has at most half as many distinct values as the
table has rows; its cells then enter the block through %s.  The grid
maps' axes and most of their value columns repeat that much.  Shorter
tables, other float columns and the %d columns format every cell.
"""

from __future__ import annotations

import contextlib
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
# text coexist once).  Peak RSS growth measured 178-199 for phase-diagram
# at 801-1601 nodes a side, 186-207 for zak-map at 401-1201, 191-221 for
# spectrum and bloch at 1e6-3e6 samples, and 223 per holonomy-sphere
# loop at 4e4 loops (Linux x86-64, numpy 2.4).  The distinct-value path
# adds up to 20-40 of these bytes on some tables: its sort buffers, freed
# before the text is joined, leave the heap holding more of the blocks.
CSV_ROW_BYTES = 256
# Characters write_text encodes and writes at a time, so a long text is
# never held a second time as one encoded buffer.
WRITE_CHARS = 2**20


def csv_text(header, columns) -> str:
    """CSV text of columns that broadcast to one shape, rows in C order.

    Integer and bool columns print with %d, all others with %.17g.
    """
    parts = [",".join(header) + "\n"]
    parts.extend(_csv_blocks(columns))
    return "".join(parts)


def _csv_blocks(columns):
    """The CSV text of the broadcast columns, CSV_BLOCK_ROWS rows a string,
    with the float columns that repeat enough (see the module docstring)
    formatted once per distinct value.  The lookup tables die with this
    generator, before csv_text joins the blocks.
    """
    sources = [np.asarray(c) for c in columns]
    columns = np.broadcast_arrays(*sources)
    width = len(columns)
    rows = columns[0].size
    lookups, cell_formats = [], []
    for source, column in zip(sources, columns):
        shared = None
        if rows > CSV_BLOCK_ROWS and column.dtype == np.float64:
            shared = _distinct_text(source, rows)
        lookups.append(shared)
        cell_formats.append("%d" if column.dtype.kind in "biu"
                            else "%.17g" if shared is None else "%s")
    row_format = ",".join(cell_formats) + "\n"
    for start in range(0, rows, CSV_BLOCK_ROWS):
        n = min(CSV_BLOCK_ROWS, rows - start)
        cells = [None] * (width * n)
        for j, (column, shared) in enumerate(zip(columns, lookups)):
            values = column.flat[start:start + n]
            if shared is not None:
                distinct, text = shared
                values = text[np.searchsorted(distinct,
                                              values.view(np.uint64))]
            cells[j::width] = values.tolist()
        yield (row_format * n) % tuple(cells)


def _distinct_text(column, rows):
    """The sorted distinct bit patterns of a float64 column and their
    %.17g text, or None when there are more than rows / 2 of them.

    Bit patterns keep -0.0 apart from 0.0 and NaN payloads apart.
    """
    bits = np.sort(column.view(np.uint64), axis=None)
    first = np.empty(bits.size, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if 2 * np.count_nonzero(first) > rows:
        return None
    distinct = bits[first]
    text = np.array(["%.17g" % v for v in distinct.view(np.float64).tolist()],
                    dtype=object)
    return distinct, text


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


def winding_json(model: WalkModel, winding: int) -> str:
    payload = {
        "model": model_payload(model),
        "winding": int(winding),
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
    """The `walk` run manifest.  The CLI passes as max_norm_drift the
    largest |norm(t) - norm(0)| over the steps t that are multiples of
    walk.TRIM_STEPS and the last step, not over every step."""
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


def write_text(text: str, out: str) -> None:
    """Write payload text to a path, or to stdout for '-', WRITE_CHARS
    characters at a time."""
    with (contextlib.nullcontext(sys.stdout) if out == "-"
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        for start in range(0, len(text), WRITE_CHARS):
            fh.write(text[start:start + WRITE_CHARS])
