"""The benchmark's workloads: one pass of jobs each, built from a seeded
random generator, with a correctness check per job.

Every job is one operation.  CLI jobs call qwgeom.cli.main(argv)
in-process with --out pointing at a file in the run's scratch directory;
library jobs call the public functions directly.  Jobs run closed-loop:
each starts after the previous one returns.  The scan grids are fixed;
the seed draws the walk angles and the query stream.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import qwgeom.cli
import qwgeom.emit
import qwgeom.models
import qwgeom.walk
import qwgeom.zak

import checks

SCAN_RESOLUTION, SCAN_K_SAMPLES = 721, 361
ZAK_MAP_RESOLUTION, ZAK_MAP_POINTS = 201, 512
WALK_STEPS = (("standard", 500), ("noncommuting", 1000), ("splitstep", 1500))
EVOLVE_STEPS = 8000
HOLONOMY_LOOPS, HOLONOMY_STEPS = 9, 40_000
QUERIES_PER_PASS = 2000
QUERY_KINDS = ("spectrum", "bloch", "zak", "winding", "qgt")
SPECTRUM_K_SAMPLES = 361
ZAK_POINTS = 2048


@dataclass
class Op:
    """One operation: group names the metric its time adds to."""

    group: str
    run: Callable[[], object]
    check: Callable[[object], None]
    cli: bool = False


def cli_op(group: str, argv: list[str], out: str,
           check: Callable[[str], None]) -> Op:
    """A CLI job; check receives the captured stderr text."""

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = qwgeom.cli.main([*argv, "--out", out])
        return code, err.getvalue()

    def verify(result):
        code, err = result
        checks.require(code == 0, f"{argv[0]} exited {code}: {err[-500:]}")
        check(err)

    return Op(group, run, verify, cli=True)


def _angle(rng) -> float:
    """A coin angle in +-[0.15, 1.4], away from every gap closing."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 1.4))


def _model_flags(family: str, rng) -> tuple[list[str], tuple[float, ...]]:
    if family == "standard":
        theta = _angle(rng)
        return [f"--theta={theta!r}"], (theta,)
    a, b = _angle(rng), _angle(rng)
    names = ("--theta", "--phi") if family == "noncommuting" \
        else ("--theta1", "--theta2")
    return [f"{names[0]}={a!r}", f"{names[1]}={b!r}"], (a, b)


class Scan:
    """Grid scans: gap map, Dirac-point census and Zak map."""

    name = "scan"
    details = {"cmd.phase_diagram_s": "s", "cmd.dirac_points_s": "s",
               "cmd.zak_map_s": "s"}

    def __init__(self, tmp: str):
        self.tmp = tmp

    def build_pass(self, rng) -> list[Op]:
        gap_csv = os.path.join(self.tmp, "gap_map.csv")
        zak_csv = os.path.join(self.tmp, "zak_map.csv")
        ops = [cli_op("cmd.phase_diagram_s",
                      ["phase-diagram", "--family", "noncommuting",
                       "--resolution", str(SCAN_RESOLUTION),
                       "--k-samples", str(SCAN_K_SAMPLES)], gap_csv,
                      lambda err: checks.check_gap_map_csv(gap_csv,
                                                           SCAN_RESOLUTION))]
        for family in ("noncommuting", "splitstep"):
            out = os.path.join(self.tmp, f"dirac_{family}.json")
            ops.append(cli_op(
                "cmd.dirac_points_s", ["dirac-points", "--family", family], out,
                lambda err, out=out, family=family:
                    checks.check_dirac_json(out, family, err)))
        ops.append(cli_op("cmd.zak_map_s",
                          ["zak-map", "--family", "noncommuting",
                           "--resolution", str(ZAK_MAP_RESOLUTION),
                           "--n-points", str(ZAK_MAP_POINTS)], zak_csv,
                          lambda err: checks.check_zak_map_csv(
                              zak_csv, ZAK_MAP_RESOLUTION)))
        return ops


class Walk:
    """CLI walks checked against the momentum oracle, then a long evolve."""

    name = "walk"
    details = {"cmd.walk_s": "s", "evolve_long_s": "s"}

    def __init__(self, tmp: str):
        self.tmp = tmp

    def build_pass(self, rng) -> list[Op]:
        ops = []
        for family, steps in WALK_STEPS:
            flags, _ = _model_flags(family, rng)
            out = os.path.join(self.tmp, f"walk_{family}.csv")
            manifest = os.path.join(self.tmp, f"walk_{family}.json")
            ops.append(cli_op(
                "cmd.walk_s",
                ["walk", "--family", family, *flags, "--steps", str(steps),
                 "--manifest", manifest], out,
                lambda err, out=out, manifest=manifest, steps=steps:
                    checks.check_walk_outputs(out, manifest, steps)))
        theta = _angle(rng)

        def evolve_long():
            model = qwgeom.models.StandardWalk(theta)
            state = qwgeom.walk.evolve(qwgeom.walk.initial_state("+"), model,
                                       EVOLVE_STEPS)
            dist = qwgeom.walk.probability_distribution(state)
            return state, dist, qwgeom.emit.distribution_csv(dist)

        def check_long(result):
            state, dist, text = result
            checks.check_long_evolve(state.norm(), dist.positions, dist.p, text)

        ops.append(Op("evolve_long_s", evolve_long, check_long))
        return ops


class Geometry:
    """Sphere holonomy, then a stream of small single-model queries."""

    name = "geometry"
    details = {"cmd.holonomy_sphere_s": "s", "queries_s": "s"}

    def __init__(self, tmp: str):
        self.tmp = tmp

    def _query(self, kind: str, rng) -> Op:
        out = os.path.join(self.tmp, f"query_{kind}.out")
        if kind == "qgt":
            theta = float(rng.uniform(0.2, math.pi - 0.2))
            phi = float(rng.uniform(-math.pi, math.pi))
            band = int(rng.choice([1, -1]))
            argv = ["qgt", f"--theta={theta!r}", f"--phi={phi!r}",
                    "--band", "plus" if band > 0 else "minus"]
            return cli_op("queries_s", argv, out,
                          lambda err: checks.check_qgt_json(out, theta, band))
        flags, (theta, phi) = _model_flags("noncommuting", rng)
        argv = [kind, "--family", "noncommuting", *flags]
        if kind == "spectrum":
            check = lambda err: checks.check_spectrum_csv(
                out, theta, phi, SPECTRUM_K_SAMPLES)
        elif kind == "bloch":
            check = lambda err: checks.check_bloch_csv(
                out, theta, phi, SPECTRUM_K_SAMPLES)
        elif kind == "winding":
            check = lambda err: checks.check_winding_json(out, theta, phi)
        else:
            band = int(rng.choice([1, -1]))
            argv += ["--band", "plus" if band > 0 else "minus",
                     "--n-points", str(ZAK_POINTS)]
            check = lambda err: checks.check_zak_json(
                out, theta, phi, band, qwgeom.zak.zak_noncommuting_integrand)
        return cli_op("queries_s", argv, out, check)

    def build_pass(self, rng) -> list[Op]:
        table = os.path.join(self.tmp, "holonomy.csv")
        ops = [cli_op("cmd.holonomy_sphere_s",
                      ["holonomy-sphere", "--loops", str(HOLONOMY_LOOPS),
                       "--steps", str(HOLONOMY_STEPS)], table,
                      lambda err: checks.check_holonomy_csv(table,
                                                            HOLONOMY_LOOPS))]
        for i in range(QUERIES_PER_PASS):
            ops.append(self._query(QUERY_KINDS[i % len(QUERY_KINDS)], rng))
        return ops


WORKLOADS = {w.name: w for w in (Scan, Walk, Geometry)}
