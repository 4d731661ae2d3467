"""Command-line surface: deterministic CSV/JSON artifacts for each tool.

Exit codes: 0 success, 2 usage error (argparse, including a non-finite
angle; a size over the memory budget; an --out or --manifest path that
cannot be written), 3 domain error (gapless point, degenerate input,
finite-difference failure).  main parses with one parser per process
and checks that --out (and walk's --manifest) can be written before it
runs the command; each _cmd_* handler returns its artifact text (walk
also its manifest text) and main writes --out, then --manifest, so a
refused path leaves no half run.  Angles are radians, given either
as decimals or as exact multiples of pi ("pi/4", "-pi/2", "1.5pi"), so
special points are not blurred by rounding.  A family's angle flags are
its model's field names.  No command uses threads.  phase-diagram
finds the minimum over its --k-samples grid from each node's k*.
dirac-points evaluates the exact gap envelope on its angle grid, with
no momentum samples, so its k* is exact.  zak and zak-map evaluate each
Wilson link as a spherical-triangle area of real unit Bloch vectors,
which matches the complex eigenvector overlap chain to about 1e-14.
zak reduces --k-origin into [-pi, pi] before it builds the window and
echoes the value as given.  winding needs --k-samples >= 16.  A size
flag whose estimated peak memory exceeds MEMORY_BUDGET bytes is refused
up front with exit 2, before anything is allocated: --steps of walk,
--loops and --steps of holonomy-sphere, --k-samples of spectrum, bloch
and winding, --n-points of zak, and --resolution, --k-samples and
--n-points of the grid commands.  Every CSV row costs emit.CSV_ROW_BYTES
in these estimates (spectrum, bloch, phase-diagram, zak-map and the
holonomy-sphere loops); walk's per-site figure covers its CSV.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
from dataclasses import fields

import numpy as np

from . import emit
from .errors import QwGeomError
from .holonomy import (QGT_STEP_RANGE, STEP_BYTES, TangentVector,
                       latitude_loop, parallel_transport,
                       quantum_geometric_tensor, solid_angle, sphere_point)
from .models import FAMILY_CLASSES, TWO_ANGLE_FAMILIES, WalkModel, make_model
from .spin import bloch_sphere_state
from .topology import (ENVELOPE_NODE_BYTES, SCAN_SAMPLE_BYTES,
                       WINDING_SAMPLE_BYTES, find_dirac_points, scan_gap,
                       winding_number)
from .utils import fold_angle
from .walk import (initial_state, momentum_oracle, peak_bytes,
                   probability_distribution, similarity, total_variation,
                   trajectory)
from .zak import ZAK_BLOCK_NODES, ZAK_CELL_BYTES, zak_map, zak_numeric

_PI_FORM = re.compile(
    r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?pi(?:/(\d+(?:\.\d*)?|\.\d+))?$")

_BAND = {"plus": +1, "minus": -1}

# Bytes one run may take for the arrays and text its size flags set
# (see the module docstring for the flags).
MEMORY_BUDGET = 2**30

# Every family's angle field names, each also a CLI flag.
_ANGLE_FLAGS = tuple(dict.fromkeys(
    f.name for cls in FAMILY_CLASSES.values() for f in fields(cls)))


def parse_angle(text: str) -> float:
    """Finite angle in radians from a decimal or an exact pi-multiple string."""
    s = text.strip().lower().replace(" ", "")
    try:
        value = float(s)
    except ValueError:
        m = _PI_FORM.match(s)
        if m is None:
            raise argparse.ArgumentTypeError(
                f"cannot parse angle {text!r} (use a decimal or forms like "
                "pi/4, -pi/2, 1.5pi)")
        sign = -1.0 if m.group(1) == "-" else 1.0
        coef = float(m.group(2)) if m.group(2) else 1.0
        den = float(m.group(3)) if m.group(3) else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError("zero denominator in angle")
        value = sign * coef * math.pi / den
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"angle {text!r} is not finite")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value <= 0.0:
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _qgt_step(text: str) -> float:
    value = float(text)
    lo, hi = QGT_STEP_RANGE
    if not lo <= value <= hi:  # also false for nan
        raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi:g}]")
    return value


def _int_at_least(flag: str, minimum: int):
    """argparse type for an integer flag with a lower bound."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {minimum}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_resolution = _int_at_least("resolution", 3)
_k_samples = _int_at_least("k-samples", 8)


def _zak_points(text: str) -> int:
    value = int(text)
    if value < 16 or value % 2:
        raise argparse.ArgumentTypeError("n-points must be even and >= 16")
    return value


class UsageError(Exception):
    """Arguments argparse accepted but the command refuses (exit 2)."""


def _add_model_args(sp: argparse.ArgumentParser, families=tuple(FAMILY_CLASSES)):
    sp.add_argument("--family", required=True, choices=families)
    for name in _ANGLE_FLAGS:
        sp.add_argument(f"--{name}", type=parse_angle, default=None)


def _add_out(sp: argparse.ArgumentParser):
    sp.add_argument("--out", default="-",
                    help="output path ('-' for stdout, the default)")


def _build_model(args: argparse.Namespace) -> WalkModel:
    names = [f.name for f in fields(FAMILY_CLASSES[args.family])]
    given = {n: getattr(args, n) for n in _ANGLE_FLAGS
             if getattr(args, n) is not None}
    if args.family == "standard" and given.get("phi") == 0.0:
        del given["phi"]  # a standard walk is the noncommuting one at phi = 0
    if set(given) != set(names):
        raise UsageError(f"{args.family} family takes "
                         + " ".join(f"--{n}" for n in names))
    return make_model(args.family, [given[n] for n in names])


def _k_grid(n: int) -> np.ndarray:
    return np.linspace(-np.pi, np.pi, n)


def _cmd_spectrum(args) -> str:
    model = _build_model(args)
    _check_budget(args, emit.CSV_ROW_BYTES * args.k_samples, "k-samples")
    return emit.spectrum_csv(model, _k_grid(args.k_samples))


def _cmd_bloch(args) -> str:
    model = _build_model(args)
    _check_budget(args, emit.CSV_ROW_BYTES * args.k_samples, "k-samples")
    return emit.bloch_csv(model, _k_grid(args.k_samples))


def _cmd_phase_diagram(args) -> str:
    need = (emit.CSV_ROW_BYTES * args.resolution**2
            + SCAN_SAMPLE_BYTES * args.k_samples)
    _check_budget(args, need, "resolution", "k-samples")
    gm = scan_gap(args.family, resolution=args.resolution,
                  k_samples=args.k_samples)
    return emit.gap_map_csv(gm)


def _cmd_dirac_points(args) -> str:
    need = ENVELOPE_NODE_BYTES * args.resolution**2
    _check_budget(args, need, "resolution")
    ds = find_dirac_points(args.family, coarse_resolution=args.resolution,
                           accept_gap=args.tol)
    if ds.continuous_boundary:
        print("note: gapless set includes extended curves; only isolated "
              "points are listed", file=sys.stderr)
    if ds.dropped:
        print(f"note: {ds.dropped} candidate cluster(s) failed refinement",
              file=sys.stderr)
    return emit.dirac_points_json(ds)


def _cmd_zak(args) -> str:
    model = _build_model(args)
    _check_budget(args, ZAK_CELL_BYTES * (args.n_points + 1), "n-points")
    zr = zak_numeric(model, _BAND[args.band], k_origin=args.k_origin,
                     n_points=args.n_points, span=args.span)
    return emit.zak_result_json(zr)


def _cmd_zak_map(args) -> str:
    need = (emit.CSV_ROW_BYTES * args.resolution**2
            + ZAK_CELL_BYTES * ZAK_BLOCK_NODES * (args.n_points + 1))
    _check_budget(args, need, "resolution", "n-points")
    zm = zak_map(args.family, resolution=args.resolution,
                 n_points=args.n_points, span=args.span)
    return emit.zak_map_csv(zm)


def _cmd_winding(args) -> str:
    model = _build_model(args)
    _check_budget(args, WINDING_SAMPLE_BYTES * args.k_samples, "k-samples")
    w = winding_number(model, k_samples=args.k_samples)
    return emit.winding_json(model, w, args.k_samples)


def _check_budget(args, need: int, *flags: str) -> None:
    """Raise UsageError when an estimated peak of need bytes exceeds
    MEMORY_BUDGET; the message names the command and the size flags
    behind need."""
    if need > MEMORY_BUDGET:
        given = " ".join(f"--{flag} {getattr(args, flag.replace('-', '_'))}"
                         for flag in flags)
        raise UsageError(f"{args.command} {given} needs about {need >> 20}"
                         f" MiB, over the {MEMORY_BUDGET >> 20} MiB"
                         f" {args.command} budget")


def _cmd_walk(args) -> tuple[str, str]:
    model = _build_model(args)
    state0 = initial_state(args.chirality)
    _check_budget(args, peak_bytes(state0.amplitudes.shape[0], args.steps),
                  "steps")
    norm0 = state0.norm()
    max_drift = 0.0
    state = state0
    for state in trajectory(state0, model, args.steps):
        max_drift = max(max_drift, abs(state.norm() - norm0))
    dist = probability_distribution(state)
    oracle = momentum_oracle(state0, model, args.steps)
    tv = total_variation(dist, oracle)
    sim = similarity(dist, oracle)
    print(f"oracle TV distance: {tv:.3e}, similarity: {sim:.12f}",
          file=sys.stderr)
    manifest = emit.walk_manifest_json(model, args.steps, args.chirality,
                                       norm0, state.norm(), max_drift, sim,
                                       tv)
    return emit.distribution_csv(dist), manifest


def _cmd_holonomy_sphere(args) -> str:
    need = STEP_BYTES * args.steps + emit.CSV_ROW_BYTES * args.loops
    _check_budget(args, need, "loops", "steps")
    table = np.empty((args.loops, 5))
    for i, row in enumerate(table):
        theta0 = math.pi * (i + 1) / (args.loops + 1)
        curve = latitude_loop(theta0)
        v0 = TangentVector(v=np.array([0.0, 1.0, 0.0]),
                           base=sphere_point(theta0, 0.0))
        vf, rotation = parallel_transport(curve, v0, steps=args.steps)
        area = solid_angle(curve, steps=args.steps)
        row[:] = (theta0, rotation, area, abs(fold_angle(rotation - area)),
                  abs(vf.norm - v0.norm))
    return emit.holonomy_table_csv(table)


def _cmd_qgt(args) -> str:
    band = _BAND[args.band]

    def family(a: float, b: float) -> np.ndarray:
        return bloch_sphere_state(a, b, band)

    gt = quantum_geometric_tensor(family, (args.theta, args.phi), h=args.h)
    return emit.qgt_json(gt, band, args.h)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwgeom",
        description="Quantum-walk band geometry: spectra, Dirac points, "
                    "Zak phases, windings, walks, and sphere transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="quasi-energy curve E(k)")
    _add_model_args(sp)
    sp.add_argument("--k-samples", type=_k_samples, default=361)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_spectrum)

    sp = sub.add_parser("bloch", help="Bloch vector samples n(k)")
    _add_model_args(sp)
    sp.add_argument("--k-samples", type=_k_samples, default=361)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_bloch)

    sp = sub.add_parser("phase-diagram",
                        help="minimum-gap map over a two-angle grid")
    _add_model_args(sp, families=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", type=_resolution, default=201)
    sp.add_argument("--k-samples", type=_k_samples, default=361)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_phase_diagram)

    sp = sub.add_parser("dirac-points",
                        help="isolated gap closings in the angle square, "
                             "with the exact touching momentum")
    _add_model_args(sp, families=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", type=_resolution, default=721)
    sp.add_argument("--tol", type=_positive_float, default=1e-9,
                    help="residual gap accepted after refinement")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_dirac_points)

    sp = sub.add_parser("zak", help="Zak phase of one band")
    _add_model_args(sp)
    sp.add_argument("--band", required=True, choices=("plus", "minus"))
    sp.add_argument("--k-origin", type=parse_angle, default=0.0)
    sp.add_argument("--n-points", type=_zak_points, default=2048)
    sp.add_argument("--span", choices=("half", "full"), default="half")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_zak)

    sp = sub.add_parser("zak-map",
                        help="Zak phases of both bands over an angle grid")
    _add_model_args(sp, families=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", type=_resolution, default=201)
    sp.add_argument("--n-points", type=_zak_points, default=512)
    sp.add_argument("--span", choices=("half", "full"), default="half")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_zak_map)

    sp = sub.add_parser("winding",
                        help="winding number of the Bloch curve")
    _add_model_args(sp)
    sp.add_argument("--k-samples", type=_int_at_least("k-samples", 16),
                    default=1024)
    _add_out(sp)
    sp.set_defaults(handler=_cmd_winding)

    sp = sub.add_parser("walk",
                        help="position distribution after N steps")
    _add_model_args(sp)
    sp.add_argument("--steps", type=_int_at_least("steps", 0), required=True,
                    help="walk steps (>= 0; the window and the oracle grid must "
                         f"fit in {MEMORY_BUDGET >> 20} MiB)")
    sp.add_argument("--chirality", choices=("+", "-"), default="+")
    sp.add_argument("--manifest", default=None,
                    help="also write a JSON run manifest to this path")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_walk)

    sp = sub.add_parser("holonomy-sphere",
                        help="parallel-transport table for latitude loops")
    sp.add_argument("--loops", type=_int_at_least("loops", 3), default=9,
                    help="number of latitude loops (>= 3)")
    sp.add_argument("--steps", type=_int_at_least("steps", 100), default=20_000,
                    help="curve samples per loop (>= 100)")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_holonomy_sphere)

    sp = sub.add_parser("qgt",
                        help="quantum geometric tensor of the spin family")
    sp.add_argument("--theta", type=parse_angle, required=True)
    sp.add_argument("--phi", type=parse_angle, required=True)
    sp.add_argument("--band", choices=("plus", "minus"), default="plus")
    sp.add_argument("--h", type=_qgt_step, default=1e-4,
                    help="finite-difference step, in [1e-7, 1e-3]")
    _add_out(sp)
    sp.set_defaults(handler=_cmd_qgt)

    return parser


# parse_args leaves its parser unchanged, so every call can share one.
_parser = functools.cache(build_parser)


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing path would meet for a missing
    directory, a directory or a read-only place, before any work is
    done.  None and '-' (stdout) pass."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        manifest_path = getattr(args, "manifest", None)
        for path in (args.out, manifest_path):
            _check_writable(path)
        outputs = args.handler(args)
        if isinstance(outputs, str):
            outputs = (outputs, None)
        text, manifest = outputs
        emit.write_text(text, args.out)
        if manifest_path is not None:
            emit.write_text(manifest, manifest_path)
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except QwGeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
