"""Run-time span tracing of qwgeom's public functions.

The tracer replaces functions where the calling module binds them (for
example qwgeom.cli.step, which the walk command calls, and
qwgeom.walk.step, which evolve calls) with wrappers that record a span:
name, layer, parent span, start and end.  Spans stay in memory; the
caller writes them out when the run ends.  Only calls made on the
installing thread are recorded, so rows computed in qwgeom's worker
threads count toward the span that started them.

A layer's self time is the duration of its spans minus the part their
child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
import time
from collections import defaultdict

import qwgeom.cli
import qwgeom.emit
import qwgeom.holonomy
import qwgeom.models
import qwgeom.topology
import qwgeom.walk
import qwgeom.zak

LAYERS = ("cli", "topology", "zak", "walk", "holonomy", "models", "emit",
          "utils")

# Functions as bound in their calling modules.
_CLI_CALLS = ("scan_gap", "find_dirac_points", "winding_number", "zak_map",
              "zak_numeric", "step", "momentum_oracle", "initial_state",
              "probability_distribution", "similarity", "total_variation",
              "parallel_transport", "solid_angle", "latitude_loop",
              "sphere_point", "quantum_geometric_tensor", "make_model",
              "bloch_sphere_state", "fold_angle")
_EMITTERS = ("csv_text", "json_text", "write_text", "spectrum_csv",
             "bloch_csv", "gap_map_csv", "dirac_points_json",
             "zak_result_json", "zak_map_csv", "distribution_csv",
             "winding_json", "holonomy_table_csv", "qgt_json",
             "walk_manifest_json")
_MODEL_METHODS = ("cos_energy", "bloch_numerators", "bloch_vector", "gap",
                  "quasi_energy", "momentum_unitaries")

NAME, LAYER, PARENT, START, END, INFO = range(6)


def _layer_of(fn) -> str:
    module = fn.__module__.rsplit(".", 1)[-1]
    return "models" if module == "spin" else module


def _argument(fn, name: str, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _oracle_bytes(args, kwargs) -> int:
    """Bytes of the two dense m x m complex128 DFT matrices the oracle
    builds, computed from the array sizes rather than measured."""
    oracle = qwgeom.walk.momentum_oracle
    width0 = _argument(oracle, "state0", args, kwargs).amplitudes.shape[0]
    m = width0 + 4 * int(_argument(oracle, "n_steps", args, kwargs)) + 4
    m += 1 - m % 2
    return 2 * m * m * 16


class Tracer:
    """Installs the span wrappers and holds the spans of one pass."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []
        fdp = inspect.signature(qwgeom.topology.find_dirac_points)
        self._candidate_gap = fdp.parameters["candidate_gap"].default

    # -- spans ------------------------------------------------------------
    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, layer, parent, time.perf_counter(), 0.0, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    def spanned(self, name: str, layer: str, fn):
        """fn() recorded as one span, for calls the benchmark itself makes."""
        def traced():
            index = self.open(name, layer)
            try:
                return fn()
            finally:
                self.close(index)
        return traced

    def _wrap(self, owner, attr: str, hook=None) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if not callable(original):
            return  # renamed or removed in this version of qwgeom
        layer = _layer_of(original)
        name = f"{layer}.{original.__qualname__}"
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return original(*args, **kwargs)
            index = tracer.open(name, layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                tracer.spans[index][INFO] = hook(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def _scan_gap_info(self, args, kwargs, gm):
        """Cells of the scan, and its candidate nodes when the scan seeds a
        Dirac-point search (the caller's span is still open)."""
        info = {"cells": int(gm.gap.size) * int(gm.k_samples)}
        parent = self.spans[self._stack[-1]] if self._stack else None
        if parent is not None and parent[NAME].endswith("find_dirac_points"):
            info["candidates"] = int((gm.gap < self._candidate_gap).sum())
        return info

    def install(self) -> None:
        hooks = {
            "scan_gap": self._scan_gap_info,
            "find_dirac_points": lambda a, k, r: {"points": len(r.points)},
            "zak_map": lambda a, k, r: {"masked": int(r.masked.sum())},
            "step": lambda a, k, r: {"sites": int(a[0].amplitudes.shape[0])},
            "momentum_oracle": lambda a, k, r: {
                "oracle_bytes": _oracle_bytes(a, k)},
            "parallel_transport": lambda a, k, r: {"steps": int(_argument(
                qwgeom.holonomy.parallel_transport, "steps", a, k))},
            "csv_text": lambda a, k, r: {"rows": r.count("\n") - 1,
                                         "bytes": len(r)},
            "json_text": lambda a, k, r: {"bytes": len(r)},
        }
        for attr in _CLI_CALLS:
            self._wrap(qwgeom.cli, attr, hooks.get(attr))
        self._wrap(qwgeom.topology, "scan_gap", hooks["scan_gap"])
        for attr in ("step", "evolve", "probability_distribution"):
            self._wrap(qwgeom.walk, attr, hooks.get(attr))
        for attr in _EMITTERS:
            self._wrap(qwgeom.emit, attr, hooks.get(attr))
        for cls in (qwgeom.models.WalkModel, *qwgeom.models.FAMILY_CLASSES.values()):
            for attr in _MODEL_METHODS:
                self._wrap(cls, attr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def pass_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals and counts of one pass of a workload."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    self_time = [s[END] - s[START] - c for s, c in zip(spans, covered)]

    out: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = 0.0
    for s, own in zip(spans, self_time):
        out[f"{s[LAYER]}.self_s"] += own
        short = s[NAME].rsplit(".", 1)[-1]
        info = s[INFO] or {}
        dur = s[END] - s[START]
        if short == "scan_gap":
            out["topology.scan_gap_s"] += dur
            out["topology.cells"] += info["cells"]
            out["topology.candidates"] += info.get("candidates", 0)
        elif short == "find_dirac_points":
            out["topology.refine_s"] += own
            out["topology.points"] += info["points"]
        elif short == "zak_map":
            out["zak.zak_map_s"] += dur
            out["zak.masked_nodes"] += info["masked"]
        elif short == "step":
            out["walk.step_s"] += dur
            out["walk.site_steps"] += info["sites"]
        elif short == "evolve":
            out["walk.evolve_s"] += dur
        elif short == "momentum_oracle":
            out["walk.oracle_s"] += dur
            out["walk.oracle_bytes"] = max(out["walk.oracle_bytes"],
                                           info["oracle_bytes"])
        elif short == "parallel_transport":
            out["holonomy.transport_s"] += dur
            out["holonomy.transport_steps"] += info["steps"]
        elif short == "solid_angle":
            out["holonomy.solid_angle_s"] += dur
        if s[LAYER] == "emit":
            if short.endswith("csv") or short == "csv_text":
                out["emit.csv_s"] += own
            out["emit.rows"] += info.get("rows", 0)
            out["emit.bytes"] += info.get("bytes", 0)
    out["cli.dispatch_s"] = out["cli.self_s"]
    return dict(out)


def per_call_ms(spans: list[list]) -> dict[str, float]:
    """Median duration of one call, in ms, for the single-model layers."""
    groups = {
        "zak.zak_numeric_ms": lambda s: s[NAME].endswith(".zak_numeric"),
        "topology.winding_ms": lambda s: s[NAME].endswith(".winding_number"),
        "holonomy.qgt_ms": lambda s: s[NAME].endswith(".quantum_geometric_tensor"),
        "models.eval_ms": lambda s: s[LAYER] == "models"
        and s[NAME].rsplit(".", 1)[-1] in _MODEL_METHODS,
    }
    out = {}
    for key, match in groups.items():
        durs = [s[END] - s[START] for s in spans if match(s)]
        out[key] = 1e3 * statistics.median(durs) if durs else 0.0
    return out
