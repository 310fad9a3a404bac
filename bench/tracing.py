"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of each nilflat module, in every
module namespace that looks them up (``curvature_from_structure`` is looked
up in ``metric``, ``scan``, ``certify`` and ``submersion``, and each of those
references is replaced).  A wrapper keeps a stack of open spans; when a span
closes, its duration minus the time of its child spans is its self time.
Totals are kept per function and per operation in memory and written out
when the run ends.

The vector helpers of ``algebra`` (``vec``, ``vec_add``, ``basis_vec``, ...)
are left unwrapped: they run millions of times for a microsecond each, so a
wrapper would multiply their cost.  Their time counts as self time of the
function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List

MODULES = ("cli", "fileio", "algebra", "intlinalg", "bch", "coords", "tower",
           "metric", "submersion", "scan", "certify")

UNWRAPPED = {"algebra.vec", "algebra.vec_zero", "algebra.vec_add",
             "algebra.vec_sub", "algebra.vec_scale", "algebra.basis_vec",
             "algebra.is_zero"}


def _count_planes(counters, args, kwargs, result):
    # sup_abs_sectional(r4, g, horizontal_dim, gen, n_samples, polish=...)
    n_samples = kwargs["n_samples"] if "n_samples" in kwargs else args[4]
    counters["scan.planes"] += int(n_samples)


def _count_rounds(counters, args, kwargs, report):
    counters["certify.rounds"] += sum(report.rounds)
    counters["certify.curved_levels"] += len(report.curved_levels)


def _count_bytes(counters, args, kwargs, result):
    text = kwargs["text"] if "text" in kwargs else args[1]
    counters["fileio.bytes_written"] += len(text.encode("utf-8"))


NAMED_CALLS = ("scan.sup_abs_sectional", "submersion.frame_structure",
               "metric.curvature_from_structure", "algebra.validate_algebra",
               "algebra.lower_central_series", "intlinalg.saturate_lattice")
NAMED_SELF = ("scan.sup_abs_sectional", "scan.lemma_scan",
              "submersion.frame_structure", "submersion.oneill_tensors",
              "metric.curvature_from_structure", "algebra.validate_algebra",
              "tower.pick_primitive_central", "tower.extend_by_cocycle",
              "tower.cocycles_cohomologous", "coords.lattice_closed",
              "fileio.load_lattice")


HOOKS = {"scan.sup_abs_sectional": _count_planes,
         "certify.certify_almost_flat": _count_rounds,
         "fileio.write_text": _count_bytes}


class Tracer:
    """Self time and call counts per wrapped function, totals per operation."""

    def __init__(self):
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counters: Dict[str, int] = {"scan.planes": 0, "certify.rounds": 0,
                                         "certify.curved_levels": 0,
                                         "fileio.bytes_written": 0}
        self.ops: List[dict] = []
        self._stack: List[float] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        calls[name] = 0
        self_s[name] = 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every reference to a public nilflat function by a wrapper."""
        modules = [importlib.import_module(f"nilflat.{m}") for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__
                        or name in UNWRAPPED):
                    continue
                wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for module in modules + [importlib.import_module("nilflat")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    setattr(module, attr, wrappers[id(obj)][1])

    def snapshot(self) -> Dict[str, float]:
        """Self time per module so far (to attribute time to one operation)."""
        out: Dict[str, float] = {}
        for name, value in self.self_s.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + value
        return out

    def record_op(self, op_id: str, pass_index: int, seconds: float,
                  before: Dict[str, float]) -> None:
        after = self.snapshot()
        self.ops.append({"op": op_id, "pass": pass_index, "seconds": seconds,
                         "self_s": {m: after[m] - before.get(m, 0.0) for m in after
                                    if after[m] != before.get(m, 0.0)}})

    def per_layer(self, passes: int, import_s: float) -> Dict[str, float]:
        """Every per-layer metric, as totals per pass over the operation list."""
        out = {"nilflat.import_s": import_s}
        for module in MODULES:
            names = [n for n in self.calls if n.split(".", 1)[0] == module]
            out[f"{module}.calls"] = sum(self.calls[n] for n in names) / passes
            out[f"{module}.self_s"] = sum(self.self_s[n] for n in names) / passes
        # a function a later change removes reports 0
        for name in NAMED_CALLS:
            out[f"{name}.calls"] = self.calls.get(name, 0) / passes
        for name in NAMED_SELF:
            out[f"{name}.self_s"] = self.self_s.get(name, 0.0) / passes
        for name in ("scan.planes", "certify.rounds", "fileio.bytes_written"):
            out[name] = self.counters[name] / passes
        rounds = self.counters["certify.rounds"]
        out["certify.accept_ratio"] = (self.counters["certify.curved_levels"] / rounds
                                       if rounds else 0.0)
        return out
