"""CSV formatting: the block formatter against a per-cell row writer,
and write_text's in-place rewrite of a destination."""

import io
import math
import os
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SwappedCoinWalk, swapped_coin_unitary
from qwgeom import emit
from qwgeom.holonomy import (TangentVector, latitude_loop, parallel_transport,
                              solid_angle, sphere_point)
from qwgeom.models import make_model
from qwgeom.topology import scan_gap
from qwgeom.utils import fold_angle
from qwgeom.walk import evolve, initial_state, probability_distribution
from qwgeom.zak import zak_map

B = emit.CSV_BLOCK_ROWS


def _cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def oracle_csv(header, rows) -> str:
    """The CSV text of an iterable of row tuples, formatted cell by cell."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def lines(text):
    """The text split at every newline: compared as lists, a mismatch in a
    long CSV is reported by its first differing line, not a full diff."""
    return text.split("\n")


FLOATS = np.array([math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                   math.inf, -math.inf, 0.1 + 0.2, 1.0 / 3.0,
                   np.nextafter(1.0, 2.0), -2.0 / 3.0, 1.0, -7.0, math.pi])
INTS = np.array([0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                 -123456789012345678, 42], dtype=np.int64)
BOOLS = np.array([True, False, False])
# Floats with distinct bit patterns: signed zeros, NaNs with different
# payloads, infinities, subnormals, int64 extremes as floats, then
# thousands of ordinary values so a column can reach any distinct count.
POOL = np.concatenate([
    np.array([0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324,
              np.nextafter(2.2250738585072014e-308, 0.0), 1e308, -1e308,
              float(np.iinfo(np.int64).min), float(np.iinfo(np.int64).max),
              0.1 + 0.2]),
    np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123,
              0x7FF0000000000001], dtype=np.uint64).view(np.float64),
    np.arange(1, 8000) / 7.0])
ROW_COUNTS = [0, 1, B, B + 1, 2 * B + 7, 3 * B]


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_csv_text_matches_cell_oracle_on_edge_values(n):
    columns = (np.resize(FLOATS, n), np.resize(INTS, n), np.resize(BOOLS, n),
               np.resize(FLOATS[::-1], n))
    header = ("f", "i", "b", "g")
    assert lines(emit.csv_text(header, columns)) == lines(
        oracle_csv(header, zip(*columns)))


def _column(kind, rows, rng):
    """A column of rows values; "few" draws from a handful of pool values,
    "half-1", "half" and "half+1" have rows // 2 - 1, rows // 2 and
    rows // 2 + 1 distinct values (capped at rows)."""
    if kind == "int":
        return rng.choice(INTS, rows)
    if kind == "bool":
        return rng.choice(BOOLS, rows)
    if kind == "few":
        return rng.choice(rng.choice(POOL[:40], 6), rows)
    offset = {"half-1": -1, "half": 0, "half+1": 1}[kind]
    distinct = min(max(rows // 2 + offset, 1), rows)
    picks = POOL[rng.choice(POOL.size, distinct, replace=False)]
    values = np.concatenate([picks, rng.choice(picks, rows - distinct)])
    return rng.permutation(values)


@given(rows=st.sampled_from(ROW_COUNTS),
       kinds=st.lists(st.sampled_from(["few", "half-1", "half", "half+1",
                                       "int", "bool"]), min_size=1,
                      max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_csv_text_matches_cell_oracle_on_pooled_tables(rows, kinds, seed):
    rng = np.random.default_rng(seed)
    columns = [_column(kind, rows, rng) for kind in kinds]
    header = [f"c{j}" for j in range(len(columns))]
    assert lines(emit.csv_text(header, columns)) == lines(
        oracle_csv(header, zip(*columns)))
    for kind, column in zip(kinds, columns):
        if kind.startswith("half") and rows > B:
            # Shared text only for at most rows / 2 distinct values.
            assert ((emit._distinct_text(column, rows) is None)
                    == (kind == "half+1"))


@given(m=st.integers(0, 90), n=st.integers(0, 90),
       seed=st.integers(0, 2**32 - 1))
def test_csv_text_matches_cell_oracle_on_pooled_grids(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.choice(POOL[:40], m)
    b = rng.choice(POOL[:40], n)
    ints = rng.choice(INTS, n)
    grid = rng.choice(POOL[:40], (m, n))
    flags = rng.choice(BOOLS, (m, n))
    header = ("a", "b", "i", "v", "f")
    expected = oracle_csv(header, ((a[i], b[j], ints[j], grid[i, j],
                                    flags[i, j])
                                   for i in range(m) for j in range(n)))
    assert lines(emit.csv_text(header, (a[:, None], b, ints, grid,
                                         flags))) == lines(expected)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1), (7, 5),
                                   (B + 1, 2), (3, B // 2 + 1)])
def test_csv_text_broadcasts_in_c_order(shape):
    m, n = shape
    a = np.resize(FLOATS, m)
    b = np.resize(INTS, n)
    grid = np.resize(FLOATS[::-1], shape)
    flags = np.resize(BOOLS, shape)
    expected = oracle_csv(("a", "b", "v", "m"),
                          ((a[i], b[j], grid[i, j], flags[i, j])
                           for i in range(m) for j in range(n)))
    assert lines(emit.csv_text(("a", "b", "v", "m"),
                               (a[:, None], b, grid, flags))) == lines(expected)


def test_curve_emitters_match_cell_oracle():
    ks = np.linspace(-np.pi, np.pi, 37)
    for family, angles in (("standard", [0.9]),
                           ("noncommuting", [0.9, 0.3]),
                           ("splitstep", [0.9, -0.4])):
        model = make_model(family, angles)
        ce = np.asarray(model.cos_energy(ks), dtype=float)
        energy = np.arccos(np.clip(ce, -1.0, 1.0))
        assert emit.spectrum_csv(model, ks) == oracle_csv(
            ("k", "cos_energy", "energy", "gap"),
            zip(ks, ce, energy, 1.0 - np.abs(ce)))
        n = model.bloch_vector(ks)
        assert emit.bloch_csv(model, ks) == oracle_csv(
            ("k", "nx", "ny", "nz"), zip(ks, n[..., 0], n[..., 1], n[..., 2]))
        dist = probability_distribution(evolve(initial_state("+"), model, 25))
        assert emit.distribution_csv(dist) == oracle_csv(
            ("x", "p"), zip(dist.positions, dist.p))


def test_spectrum_of_a_family_declared_in_the_test():
    # Declared by its fields and step alone; every column against the
    # test's own dense U(k): cos E = Re tr U / 2, E = |arg| of each
    # eigenvalue.
    ks = np.linspace(-np.pi, np.pi, 37)
    table = np.loadtxt(io.StringIO(emit.spectrum_csv(SwappedCoinWalk(0.9, 0.3),
                                                     ks)),
                       delimiter=",", skiprows=1)
    us = [swapped_coin_unitary(0.9, 0.3, k) for k in ks]
    cos_e = np.array([0.5 * np.trace(u).real for u in us])
    phases = np.abs(np.angle([np.linalg.eigvals(u) for u in us]))
    assert np.array_equal(table[:, 0], ks)
    assert np.max(np.abs(table[:, 1] - cos_e)) <= 1e-15
    assert np.max(np.abs(table[:, 2, None] - phases)) <= 1e-12
    assert np.max(np.abs(table[:, 3] - (1.0 - np.abs(cos_e)))) <= 1e-15


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
def test_grid_emitters_match_cell_oracle(family, monkeypatch):
    shared = []
    distinct_text = emit._distinct_text

    def spy(column, rows):
        shared.append(distinct_text(column, rows))
        return shared[-1]

    monkeypatch.setattr(emit, "_distinct_text", spy)
    # 81 x 81 = 6561 rows: more than one block, so the maps' columns are
    # formatted once per distinct value.
    gm = scan_gap(family, resolution=81, k_samples=16)
    assert lines(emit.gap_map_csv(gm)) == lines(oracle_csv(
        ("angle1", "angle2", "min_gap", "argmin_k"),
        ((a1, a2, gm.gap[i, j], gm.argmin_k[i, j])
         for i, a1 in enumerate(gm.angles1)
         for j, a2 in enumerate(gm.angles2))))
    zm = zak_map(family, resolution=81, n_points=16)
    assert zm.masked.any() and not zm.masked.all()
    assert lines(emit.zak_map_csv(zm)) == lines(oracle_csv(
        ("angle1", "angle2", "zak_plus", "zak_minus", "masked"),
        ((a1, a2, zm.zak_plus[i, j], zm.zak_minus[i, j], bool(zm.masked[i, j]))
         for i, a1 in enumerate(zm.angles1)
         for j, a2 in enumerate(zm.angles2))))
    # Every float column of both maps repeats enough to share its text.
    assert len(shared) == 8 and all(s is not None for s in shared)


def test_holonomy_table_matches_cell_oracle():
    rows = []
    for theta0 in (0.4, 1.2, 2.5):
        curve = latitude_loop(theta0)
        v0 = TangentVector(v=np.array([0.0, 1.0, 0.0]),
                           base=sphere_point(theta0, 0.0))
        vf, rotation = parallel_transport(curve, v0, steps=100)
        area = solid_angle(curve, steps=100)
        rows.append((theta0, rotation, area, abs(fold_angle(rotation - area)),
                     abs(vf.norm - v0.norm)))
    header = ("theta0", "rotation_angle", "solid_angle", "mismatch",
              "norm_drift")
    assert emit.holonomy_table_csv(np.array(rows)) == oracle_csv(header, rows)


def test_write_text_writes_chunks_of_multibyte_text_in_place(tmp_path,
                                                              monkeypatch):
    # Each piece is encoded and written as it arrives, one write each.
    pieces = ["θ,φ,π\n"] * 11
    writes, os_write = [], os.write

    def spy(fd, data):
        writes.append(bytes(data))
        return os_write(fd, data)

    monkeypatch.setattr(os, "write", spy)
    path = tmp_path / "t.txt"
    path.write_bytes(b"stale " * 100)
    emit.write_text(iter(pieces), str(path))
    assert writes == [piece.encode("utf-8") for piece in pieces]
    assert path.read_bytes() == "".join(pieces).encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, B, B + 1, 2 * B + 3])
def test_csv_chunks_yield_the_header_then_one_piece_per_block(n):
    columns = (np.resize(FLOATS, n), np.resize(INTS, n))
    pieces = list(emit.csv_chunks(("f", "i"), columns))
    assert pieces[0] == "f,i\n"
    assert [p.count("\n") for p in pieces[1:]] == [
        min(B, n - start) for start in range(0, n, B)]
    assert "".join(pieces) == emit.csv_text(("f", "i"), columns)


def test_write_text_writes_to_a_fifo(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    emit.write_text("a,b\n1,2\n", str(fifo))
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert received == [b"a,b\n1,2\n"]
