"""Deterministic CSV/JSON rendering of computed artifacts.

Every CSV table is declared once, by a *_table function that returns its
header and columns, and formatted by csv_chunks as arrays: one header
row, "\n" newlines and floats at 17 significant digits, CSV_BLOCK_ROWS
rows per % string; a grid map's axes broadcast as angles1[:, None] and
angles2.  The CLI hands the pieces to write_text, which writes each block
as it is formatted, so the whole text is never held; csv_text joins them
into one string.  A table longer than one block formats each distinct
value of a float64 column once, taken from the column before
broadcasting and told apart by bit pattern (so -0.0 and 0.0, or two NaN
payloads, keep their own text), when the column has at most half as many
distinct values as the table has rows; its cells then enter the block
through %s.  The grid maps' axes and most of their value columns repeat
that much.  Shorter tables, other float columns and the %d columns
format every cell.

Every *_json emitter returns JSON with sorted keys, two-space indent and
a trailing newline.  Identical inputs give byte-identical text, so data
files carry no timestamps or environment details (a run manifest holds
metadata separately).

write_text rewrites a file destination in place, with no truncate on
open: truncating an existing file to zero first cost several times the
write itself on small artifacts.  The file is written from its start and
then, if it is a regular file, cut to the bytes written, so a finished
write holds exactly the new text, on the same inode (hard links see it,
mode bits stay).  A write that fails, or a failure while the next piece
is formatted (a MemoryError, say), is cut there and leaves a prefix of
the new text; a process killed mid-write can leave the new bytes
followed by the old file's tail.
"""

from __future__ import annotations

import json
import os
import stat
import sys
from collections.abc import Iterable, Iterator

import numpy as np

from .holonomy import GeometricTensor
from .models import WalkModel
from .topology import DiracPointSet, GapMap
from .walk import Distribution
from .zak import ZakMap, ZakResult

# Rows formatted by one % operation.
CSV_BLOCK_ROWS = 4096
# Peak bytes per row of any CSV command, counting the row's share of the
# arrays it builds and renders and of csv_chunks' lookup tables; the CLI
# holds one block of text at a time.  Peak RSS growth over a bare import
# measured 42-43 for phase-diagram (non-commuting; split-step 27-30) at
# 801-1601 nodes a side, 102-112 for zak-map --n-points 16 (non-commuting
# half span; split-step full span 28-43) at 401-1201, 42-43 for spectrum
# and 72-73 for bloch at 1e6-3e6 samples, and 60-132 per holonomy-sphere
# --steps 100 loop at 1.6e5-4e4 loops, where about 3 MB of fixed transport
# temporaries dominate (Linux x86-64, numpy 2.4).  This covers the largest,
# zak-map, by 14%: its lookup tables of distinct phase text take about 74
# of its bytes.
CSV_ROW_BYTES = 128


def csv_chunks(header, columns) -> Iterator[str]:
    """The CSV text of columns that broadcast to one shape, rows in C
    order, as pieces: the header line, then CSV_BLOCK_ROWS rows a string.

    Integer and bool columns print with %d, all others with %.17g; the
    float columns that repeat enough (see the module docstring) are
    formatted once per distinct value.  The lookup tables live as long
    as this generator.
    """
    yield ",".join(header) + "\n"
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


def csv_text(header, columns) -> str:
    """The pieces of csv_chunks joined into one string."""
    return "".join(csv_chunks(header, columns))


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


def spectrum_table(model: WalkModel, ks: np.ndarray):
    ce = np.asarray(model.cos_energy(ks), dtype=float)
    energy = np.arccos(np.clip(ce, -1.0, 1.0))
    return (("k", "cos_energy", "energy", "gap"),
            (ks, ce, energy, 1.0 - np.abs(ce)))


def bloch_table(model: WalkModel, ks: np.ndarray):
    n = model.bloch_vector(ks)
    return ("k", "nx", "ny", "nz"), (ks, *np.moveaxis(n, -1, 0))


def gap_map_table(gm: GapMap):
    return (("angle1", "angle2", "min_gap", "argmin_k"),
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
        "model": model_payload(zr.model),
    }
    return json_text(payload)


def zak_map_table(zm: ZakMap):
    return (("angle1", "angle2", "zak_plus", "zak_minus", "masked"),
            (zm.angles1[:, None], zm.angles2, zm.zak_plus, zm.zak_minus,
             zm.masked))


def distribution_table(d: Distribution):
    return ("x", "p"), (d.positions, d.p)


def distribution_csv(d: Distribution) -> str:
    return csv_text(*distribution_table(d))


def winding_json(model: WalkModel, winding: int) -> str:
    payload = {
        "model": model_payload(model),
        "winding": int(winding),
    }
    return json_text(payload)


def holonomy_table(table: np.ndarray):
    """The CSV declaration of a (loops, 5) table, one row per latitude
    loop."""
    return (("theta0", "rotation_angle", "solid_angle", "mismatch",
             "norm_drift"), table.T)


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


def write_text(pieces: str | Iterable[str], out: str) -> None:
    """Write text to stdout for '-', or in place to the path out (see
    the module docstring).  pieces is one str or an iterable of str,
    each encoded and written as it arrives, so a table streamed from
    csv_chunks is never held whole."""
    if isinstance(pieces, str):
        pieces = (pieces,)
    if out == "-":
        for piece in pieces:
            sys.stdout.write(piece)
        return
    fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        # ftruncate refuses devices and FIFOs (/dev/null: EINVAL), which
        # hold no stale tail anyway.
        regular = stat.S_ISREG(os.fstat(fd).st_mode)
        try:
            for piece in pieces:
                data = memoryview(piece.encode())
                while data:
                    data = data[os.write(fd, data):]
        finally:
            # The offset counts the bytes written, all or up to a failure
            # in writing or in making the next piece.
            if regular:
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        os.close(fd)
