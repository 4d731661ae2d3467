"""Command-line surface: deterministic CSV/JSON artifacts for each tool.

Exit codes: 0 success, 2 usage error, 3 domain error.  Usage errors go
through the failing subcommand's parser, which prints its usage line and
"qwgeom <command>: error: ...": flags argparse refuses (a non-finite
angle, a flag the command does not take), angle flags that do not match
the family, a size over the memory budget, and --out and walk's
--manifest naming one destination (both '-', one real path, or two names
of one existing file, such as a hard link).  An unwritable --out or
--manifest and a MemoryError exit 2 with one "error: ..." line.  Exit 3:
a gapless point, degenerate input, a finite-difference failure (qgt also
where rounding distorts its stencil offsets, at large angles) or any
other ValueError the library raises.  main parses with one parser per
process and checks --out (and walk's --manifest) before it runs the
command; each _cmd_* handler returns its artifact, a JSON text or a
table's emit.csv_chunks pieces (walk also its manifest text), and main
writes --out, then --manifest, so a refused path leaves no half run.
A table is written block by block as it is formatted, never joined.
Each file is rewritten in place (emit.write_text): a write that fails
later, or a failure while a block is formatted (a MemoryError exits 2),
leaves a prefix of the new text; a process killed mid-write can leave
the new bytes followed by the old file's tail.
Angles are radians, decimals or exact pi multiples ("pi/4", "1.5pi")
that keep special points exact; a negative one may follow its flag as
the next token ("--theta -pi/2").  Only the model commands take angle
flags, a family's model field names.  No command uses threads.  The
angle-square commands and zak build no momentum grid and fold the step
once per block or model (models.WalkModel.harmonics): phase-diagram
(--k-samples 8 to 2**53 + 1), the zak-map mask and zak's sampled refusal
read five momenta per node, and dirac-points the exact envelope
(--resolution from topology.min_census_resolution(), 101).  zak's and
zak-map's phases are exact, so their --n-points (even, 16 to 2**53) sets
only the sampled refusal.  winding and zak exit 3, and zak-map masks
the node, for a closing within topology.CLOSING_GAP (zak, zak-map: in
the window).  zak reduces --k-origin into [-pi, pi], echoes it as given.
A size flag whose estimated peak memory exceeds MEMORY_BUDGET bytes is
refused with exit 2 before anything is allocated: --steps of walk,
--loops and --steps of holonomy-sphere, --k-samples of spectrum and
bloch, and --resolution of phase-diagram, dirac-points and zak-map.
Each CSV row counts emit.CSV_ROW_BYTES (phase-diagram and zak-map: that
alone, one row per node); walk's per-site figure covers its CSV.
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import fields

import numpy as np

from . import emit
from .errors import QwGeomError
from .holonomy import (QGT_STEP_RANGE, STEP_BYTES, TangentVector,
                       _transport_and_area, latitude_loop,
                       quantum_geometric_tensor, sphere_point)
from .models import (FAMILY_CLASSES, MAX_CELLS, TWO_ANGLE_FAMILIES,
                     WalkModel, make_model)
from .spin import bloch_sphere_state
from .topology import (ENVELOPE_NODE_BYTES, find_dirac_points,
                       min_census_resolution, scan_gap, winding_number)
from .utils import fold_angle
from .walk import (TRIM_STEPS, _Walk, initial_state, momentum_oracle,
                   peak_bytes, probability_distribution, similarity,
                   total_variation)
from .zak import zak_map, zak_numeric

_PI_FORM = re.compile(
    r"^([+-]?)(\d+(?:\.\d*)?|\.\d+)?pi(?:/(\d+(?:\.\d*)?|\.\d+))?$")

_BAND = {"plus": +1, "minus": -1}

# Bytes one run may take for the arrays and text its size flags set
# (see the module docstring for the flags).
MEMORY_BUDGET = 2**30

# Every family's angle field names, each also a CLI flag.
_ANGLE_FLAGS = tuple(dict.fromkeys(
    f.name for cls in FAMILY_CLASSES.values() for f in fields(cls)))
# Every flag that takes an angle (qgt's --theta and --phi among them).
_ANGLE_OPTIONS = frozenset(f"--{name}" for name in (*_ANGLE_FLAGS, "k-origin"))


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


class _Parser(argparse.ArgumentParser):
    """Joins an angle flag and a next token with one leading '-', which
    argparse takes for a flag: "--theta -pi/2" parses as "--theta=-pi/2".
    An angle flag is one of _ANGLE_OPTIONS or, as argparse resolves an
    abbreviation, a prefix of one angle option of this parser and of no
    other option ("--k-orig -pi" in zak, "--thet -pi" in qgt).  An
    ambiguous prefix stays a token of its own, which argparse refuses."""

    def parse_known_args(self, args=None, namespace=None):
        tokens = []
        for token in sys.argv[1:] if args is None else args:
            if (tokens and token.startswith("-") and not token.startswith("--")
                    and self._takes_angle(tokens[-1])):
                tokens[-1] += "=" + token
            else:
                tokens.append(token)
        return super().parse_known_args(tokens, namespace)

    def _takes_angle(self, flag: str) -> bool:
        if flag in _ANGLE_OPTIONS:
            return True
        if not flag.startswith("--") or "=" in flag:
            return False
        matches = [action for name, action in self._option_string_actions.items()
                   if name.startswith(flag)]
        return len(matches) == 1 and matches[0].type is parse_angle


def _qgt_step(text: str) -> float:
    value = float(text)
    lo, hi = QGT_STEP_RANGE
    if not lo <= value <= hi:  # also false for nan
        raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi:g}]")
    return value


def _int_at_least(flag: str, minimum: int, maximum: float = math.inf):
    """argparse type for an integer flag with a lower (and an upper)
    bound."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{flag} must be >= {minimum}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"{flag} must be <= {maximum}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_resolution = _int_at_least("resolution", 3)
_k_samples = _int_at_least("k-samples", 8)


def _zak_points(text: str) -> int:
    value = int(text)
    if not 16 <= value <= MAX_CELLS or value % 2:
        raise argparse.ArgumentTypeError(
            "n-points must be even, >= 16 and <= 2**53")
    return value


def _add_model_args(sp: argparse.ArgumentParser):
    sp.add_argument("--family", required=True, choices=tuple(FAMILY_CLASSES))
    for name in _ANGLE_FLAGS:
        sp.add_argument(f"--{name}", type=parse_angle, default=None)


def _add_out(sp: argparse.ArgumentParser, handler) -> None:
    """Add --out, every command's last flag, and keep the handler main
    runs and the parser the command's refusals go through."""
    sp.add_argument("--out", default="-",
                    help="output path ('-' for stdout, the default)")
    sp.set_defaults(parser=sp, handler=handler)


def _build_model(args: argparse.Namespace) -> WalkModel:
    names = [f.name for f in fields(FAMILY_CLASSES[args.family])]
    given = {n: getattr(args, n) for n in _ANGLE_FLAGS
             if getattr(args, n) is not None}
    if args.family == "standard" and given.get("phi") == 0.0:
        del given["phi"]  # a standard walk is the noncommuting one at phi = 0
    if set(given) != set(names):
        args.parser.error(f"{args.family} family takes "
                          + " ".join(f"--{n}" for n in names))
    return make_model(args.family, [given[n] for n in names])


def _k_grid(n: int) -> np.ndarray:
    return np.linspace(-np.pi, np.pi, n)


def _cmd_spectrum(args) -> Iterator[str]:
    model = _build_model(args)
    _check_budget(args, emit.CSV_ROW_BYTES * args.k_samples, "k-samples")
    return emit.csv_chunks(*emit.spectrum_table(model,
                                                _k_grid(args.k_samples)))


def _cmd_bloch(args) -> Iterator[str]:
    model = _build_model(args)
    _check_budget(args, emit.CSV_ROW_BYTES * args.k_samples, "k-samples")
    return emit.csv_chunks(*emit.bloch_table(model, _k_grid(args.k_samples)))


def _cmd_phase_diagram(args) -> Iterator[str]:
    _check_budget(args, emit.CSV_ROW_BYTES * args.resolution**2,
                  "resolution")
    gm = scan_gap(args.family, resolution=args.resolution,
                  k_samples=args.k_samples)
    return emit.csv_chunks(*emit.gap_map_table(gm))


def _cmd_dirac_points(args) -> str:
    need = ENVELOPE_NODE_BYTES * args.resolution**2
    _check_budget(args, need, "resolution")
    ds = find_dirac_points(args.family, coarse_resolution=args.resolution)
    if ds.continuous_boundary:
        print("note: gapless set includes extended curves; only isolated "
              "points are listed", file=sys.stderr)
    if ds.dropped:
        print(f"note: {ds.dropped} candidate cluster(s) failed refinement",
              file=sys.stderr)
    return emit.dirac_points_json(ds)


def _cmd_zak(args) -> str:
    model = _build_model(args)
    zr = zak_numeric(model, _BAND[args.band], k_origin=args.k_origin,
                     n_points=args.n_points, span=args.span)
    return emit.zak_result_json(zr)


def _cmd_zak_map(args) -> Iterator[str]:
    _check_budget(args, emit.CSV_ROW_BYTES * args.resolution**2,
                  "resolution")
    zm = zak_map(args.family, resolution=args.resolution,
                 n_points=args.n_points, span=args.span)
    return emit.csv_chunks(*emit.zak_map_table(zm))


def _cmd_winding(args) -> str:
    model = _build_model(args)
    return emit.winding_json(model, winding_number(model))


def _check_budget(args, need: int, *flags: str) -> None:
    """Refuse through the command's parser when an estimated peak of need
    bytes exceeds MEMORY_BUDGET; the message names the size flags behind
    need."""
    if need > MEMORY_BUDGET:
        given = " ".join(f"--{flag} {getattr(args, flag.replace('-', '_'))}"
                         for flag in flags)
        args.parser.error(f"{given} needs about {need >> 20} MiB, over the"
                          f" {MEMORY_BUDGET >> 20} MiB budget")


def _cmd_walk(args) -> tuple[Iterator[str], str]:
    """Evolve, check against the momentum oracle, and return the CSV's
    pieces and the manifest.  max_norm_drift is sampled, not taken at
    every step: it is the largest |norm(t) - norm(0)| over the steps t
    that are a multiple of TRIM_STEPS and the last step t = --steps, the
    only steps whose full-window state the walk builds from its compact
    lattice."""
    model = _build_model(args)
    state0 = initial_state(args.chirality)
    _check_budget(args, peak_bytes(state0.amplitudes.shape[0], args.steps),
                  "steps")
    norm0 = norm_final = state0.norm()
    max_drift = 0.0
    state = state0
    walk = _Walk(state0, model, args.steps)
    for i, rows, base in walk:
        if i % TRIM_STEPS == 0 or i == args.steps:
            state = walk.state(i, rows, base)
            norm_final = state.norm()
            max_drift = max(max_drift, abs(norm_final - norm0))
    dist = probability_distribution(state)
    oracle = momentum_oracle(state0, model, args.steps)
    tv = total_variation(dist, oracle)
    sim = similarity(dist, oracle)
    print(f"oracle TV distance: {tv:.3e}, similarity: {sim:.12f}",
          file=sys.stderr)
    manifest = emit.walk_manifest_json(model, args.steps, args.chirality,
                                       norm0, norm_final, max_drift, sim, tv)
    return emit.csv_chunks(*emit.distribution_table(dist)), manifest


def _cmd_holonomy_sphere(args) -> Iterator[str]:
    need = STEP_BYTES * args.steps + emit.CSV_ROW_BYTES * args.loops
    _check_budget(args, need, "loops", "steps")
    table = np.empty((args.loops, 5))
    for i, row in enumerate(table):
        theta0 = math.pi * (i + 1) / (args.loops + 1)
        curve = latitude_loop(theta0)
        v0 = TangentVector(v=np.array([0.0, 1.0, 0.0]),
                           base=sphere_point(theta0, 0.0))
        vf, rotation, area = _transport_and_area(curve, v0, args.steps)
        row[:] = (theta0, rotation, area, abs(fold_angle(rotation - area)),
                  abs(vf.norm - v0.norm))
    return emit.csv_chunks(*emit.holonomy_table(table))


def _cmd_qgt(args) -> str:
    band = _BAND[args.band]

    def family(a: float, b: float) -> np.ndarray:
        return bloch_sphere_state(a, b, band)

    gt = quantum_geometric_tensor(family, (args.theta, args.phi), h=args.h)
    return emit.qgt_json(gt, band, args.h)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qwgeom",
        description="Quantum-walk band geometry: spectra, Dirac points, "
                    "Zak phases, windings, walks, and sphere transport.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="quasi-energy curve E(k)")
    _add_model_args(sp)
    sp.add_argument("--k-samples", type=_k_samples, default=361)
    _add_out(sp, _cmd_spectrum)

    sp = sub.add_parser("bloch", help="Bloch vector samples n(k)")
    _add_model_args(sp)
    sp.add_argument("--k-samples", type=_k_samples, default=361)
    _add_out(sp, _cmd_bloch)

    sp = sub.add_parser("phase-diagram",
                        help="minimum-gap map over a two-angle grid")
    sp.add_argument("--family", required=True, choices=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", type=_resolution, default=201)
    sp.add_argument("--k-samples", default=361,
                    type=_int_at_least("k-samples", 8, MAX_CELLS + 1))
    _add_out(sp, _cmd_phase_diagram)

    sp = sub.add_parser("dirac-points",
                        help="isolated gap closings in the angle square, "
                             "with the exact touching momentum")
    sp.add_argument("--family", required=True, choices=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", default=721,
                    type=_int_at_least("resolution", min_census_resolution()))
    _add_out(sp, _cmd_dirac_points)

    sp = sub.add_parser("zak", help="Zak phase of one band")
    _add_model_args(sp)
    sp.add_argument("--band", required=True, choices=("plus", "minus"))
    sp.add_argument("--k-origin", type=parse_angle, default=0.0)
    sp.add_argument("--n-points", type=_zak_points, default=2048)
    sp.add_argument("--span", choices=("half", "full"), default="half")
    _add_out(sp, _cmd_zak)

    sp = sub.add_parser("zak-map",
                        help="Zak phases of both bands over an angle grid")
    sp.add_argument("--family", required=True, choices=TWO_ANGLE_FAMILIES)
    sp.add_argument("--resolution", type=_resolution, default=201)
    sp.add_argument("--n-points", type=_zak_points, default=512)
    sp.add_argument("--span", choices=("half", "full"), default="half")
    _add_out(sp, _cmd_zak_map)

    sp = sub.add_parser("winding",
                        help="winding number of the Bloch curve")
    _add_model_args(sp)
    _add_out(sp, _cmd_winding)

    sp = sub.add_parser("walk",
                        help="position distribution after N steps")
    _add_model_args(sp)
    sp.add_argument("--steps", type=_int_at_least("steps", 0), required=True,
                    help="walk steps (>= 0; the window and the oracle grid must "
                         f"fit in {MEMORY_BUDGET >> 20} MiB)")
    sp.add_argument("--chirality", choices=("+", "-"), default="+")
    sp.add_argument("--manifest", default=None,
                    help="also write a JSON run manifest to this path")
    _add_out(sp, _cmd_walk)

    sp = sub.add_parser("holonomy-sphere",
                        help="parallel-transport table for latitude loops")
    sp.add_argument("--loops", type=_int_at_least("loops", 3), default=9,
                    help="number of latitude loops (>= 3)")
    sp.add_argument("--steps", type=_int_at_least("steps", 100), default=20_000,
                    help="curve samples per loop (>= 100)")
    _add_out(sp, _cmd_holonomy_sphere)

    sp = sub.add_parser("qgt",
                        help="quantum geometric tensor of the spin family")
    sp.add_argument("--theta", type=parse_angle, required=True)
    sp.add_argument("--phi", type=parse_angle, required=True)
    sp.add_argument("--band", choices=("plus", "minus"), default="plus")
    sp.add_argument("--h", type=_qgt_step, default=1e-4,
                    help="finite-difference step, in [1e-7, 1e-3]")
    _add_out(sp, _cmd_qgt)

    return parser


# parse_args leaves its parser unchanged, so every call can share one.
_parser = functools.cache(build_parser)


def _check_writable(path: str | None) -> None:
    """Raise the OSError that writing path would meet for an empty path,
    a missing directory, a directory or a read-only place, before any
    work is done.  None and '-' (stdout) pass."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not path or not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _one_destination(a: str, b: str) -> bool:
    """Whether paths a and b name one destination: both '-' (stdout), one
    existing file (also through a symlink or a hard link), or one path."""
    if "-" in (a, b):
        return a == b
    if os.path.exists(a) and os.path.exists(b):
        return os.path.samestat(os.stat(a), os.stat(b))
    return os.path.realpath(a) == os.path.realpath(b)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        manifest_path = getattr(args, "manifest", None)
        if (manifest_path is not None
                and _one_destination(args.out, manifest_path)):
            args.parser.error(f"--manifest {manifest_path!r} is also --out")
        for path in (args.out, manifest_path):
            _check_writable(path)
        outputs = args.handler(args)
        if not isinstance(outputs, tuple):
            outputs = (outputs, None)
        text, manifest = outputs
        emit.write_text(text, args.out)
        if manifest_path is not None:
            emit.write_text(manifest, manifest_path)
        return 0
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (QwGeomError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory: {exc}".removesuffix(": "),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
