"""CSV formatting: the block formatter against a per-cell row writer."""

import math

import numpy as np
import pytest

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


FLOATS = np.array([math.nan, 0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308,
                   math.inf, -math.inf, 0.1 + 0.2, 1.0 / 3.0,
                   np.nextafter(1.0, 2.0), -2.0 / 3.0, 1.0, -7.0, math.pi])
INTS = np.array([0, -1, 1, np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                 -123456789012345678, 42], dtype=np.int64)
BOOLS = np.array([True, False, False])


@pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 3])
def test_csv_text_matches_cell_oracle_on_edge_values(n):
    columns = (np.resize(FLOATS, n), np.resize(INTS, n), np.resize(BOOLS, n),
               np.resize(FLOATS[::-1], n))
    header = ("f", "i", "b", "g")
    assert emit.csv_text(header, columns) == oracle_csv(header, zip(*columns))


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
    assert emit.csv_text(("a", "b", "v", "m"),
                         (a[:, None], b, grid, flags)) == expected


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


@pytest.mark.parametrize("family", ["noncommuting", "splitstep"])
def test_grid_emitters_match_cell_oracle(family):
    gm = scan_gap(family, resolution=9, k_samples=16)
    assert emit.gap_map_csv(gm) == oracle_csv(
        ("angle1", "angle2", "min_gap", "argmin_k"),
        ((a1, a2, gm.gap[i, j], gm.argmin_k[i, j])
         for i, a1 in enumerate(gm.angles1)
         for j, a2 in enumerate(gm.angles2)))
    zm = zak_map(family, resolution=9, n_points=16)
    assert zm.masked.any() and not zm.masked.all()
    assert emit.zak_map_csv(zm) == oracle_csv(
        ("angle1", "angle2", "zak_plus", "zak_minus", "masked"),
        ((a1, a2, zm.zak_plus[i, j], zm.zak_minus[i, j], bool(zm.masked[i, j]))
         for i, a1 in enumerate(zm.angles1)
         for j, a2 in enumerate(zm.angles2)))


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
