"""In-memory span recorder that wraps obscert's public module functions,
and counts phase points in the two Husimi overlap kernels.

Wrapping a module attribute reaches every internal caller that looks the
function up through its module (``certify`` calls ``classical.…`` and
``phasespace.…`` that way, ``observed_mass_series`` calls
``propagate_series`` as a module global), so the library needs no edits.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from functools import wraps

import numpy as np


class Tracer:
    """Spans (name, start, end, parent, tags) plus named counters."""

    def __init__(self, **tags):
        self.spans: list[dict] = []
        self.counters: Counter = Counter()
        self.tags = dict(tags)
        self._stack: list[dict] = []
        self._patched: list[tuple] = []
        self.unwrapped: list[str] = []
        self._distinct_passes: set = set()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        rec = {"id": len(self.spans), "name": name,
               "parent": None if parent is None else parent["id"],
               "tags": dict(self.tags), "start": time.perf_counter(), "end": None,
               "child_s": 0.0, "aggregated_child_s": 0.0}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent["child_s"] += rec["end"] - rec["start"]

    def set_config(self, config: str) -> None:
        """Start a new config: tags change and pass distinctness resets."""
        self.tags["config"] = config
        self.tags.pop("hbar", None)
        self._distinct_passes.clear()

    @staticmethod
    def self_s(rec: dict) -> float:
        """Duration minus child spans and minus the time aggregated into the
        span by its untimed children (the propagation observer)."""
        return rec["end"] - rec["start"] - rec["child_s"] - rec["aggregated_child_s"]

    def self_times(self) -> Counter:
        """Self time summed per span name."""
        out: Counter = Counter()
        for rec in self.spans:
            out[rec["name"]] += self.self_s(rec)
        return out

    def root_time(self) -> float:
        return sum(r["end"] - r["start"] for r in self.spans if r["parent"] is None)

    def dump(self, path, **header) -> None:
        payload = dict(header)
        payload["counters"] = dict(self.counters)
        payload["unwrapped"] = list(self.unwrapped)
        payload["spans"] = [
            {"id": r["id"], "name": r["name"], "parent": r["parent"], "tags": r["tags"],
             "start": r["start"], "end": r["end"],
             "self_s": self.self_s(r),
             **({"observer_s": r["aggregated_child_s"]} if r["aggregated_child_s"] else {})}
            for r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    # -- wrapping ------------------------------------------------------------

    def patch(self, module, attr: str, wrapper) -> None:
        """Replace module.attr by wrapper(original); a wrap point the package
        no longer has is listed in `unwrapped` and its metrics read 0."""
        original = getattr(module, attr, None)
        if original is None:
            self.unwrapped.append(f"{module.__name__}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, wraps(original)(wrapper(original)))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def install(self) -> None:
        """Wrap the layer boundaries of the imported obscert package.

        Hooks read arguments by name, so a call made with keywords or a
        reordered signature is still counted."""
        from obscert import certify, classical, phasespace, quantum, scenario, transport
        tr = self

        def spanned(name, before=None):
            def wrapper(fn):
                sig = inspect.signature(fn)

                def call(*args, **kwargs):
                    if before is not None:
                        before(sig.bind(*args, **kwargs).arguments)
                    with tr.span(name):
                        return fn(*args, **kwargs)
                return call
            return wrapper

        def on_build_state(a):
            tr.counters["scenario.columns"] += 1
            tr.tags["hbar"] = float(a["hbar"])

        def on_occupation(a):
            tr.counters["classical.passes"] += 1
            chi = a["chi"]
            region = getattr(chi, "region", None)
            key = (np.asarray(a["points"], dtype=float).tobytes(), type(chi).__name__,
                   None if region is None else (region.boxes.tobytes(), region.inflate),
                   getattr(chi, "delta", None), float(a["T"]), float(a["dt"]))
            if key not in tr._distinct_passes:
                tr._distinct_passes.add(key)
                tr.counters["classical.distinct_passes"] += 1

        def verlet_counter(fn):
            # hot path (one call per step and per bisection step): no binding
            def call(*args, **kwargs):
                x = args[1] if len(args) > 1 else kwargs["x"]
                if len(x) == 1:
                    tr.counters["classical.bisection_steps"] += 1
                else:
                    tr.counters["classical.sample_steps"] += len(x)
                return fn(*args, **kwargs)
            return call

        def propagate_wrapper(fn):
            sig = inspect.signature(fn)

            def call(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                observer = bound.arguments["observer"]
                points = bound.arguments["psi"].values.size
                tr.counters["quantum.propagations"] += 1
                with tr.span("quantum.propagate_series") as rec:
                    def timed_observer(t, state):
                        t0 = time.perf_counter()
                        observer(t, state)
                        rec["aggregated_child_s"] += time.perf_counter() - t0
                        tr.counters["quantum.strang_steps"] += 1
                        tr.counters["quantum.step_points"] += points
                    bound.arguments["observer"] = timed_observer
                    return fn(*bound.args, **bound.kwargs)
            return call

        def overlap_counter(points_of):
            def wrapper(fn):
                sig = inspect.signature(fn)

                def call(*args, **kwargs):
                    a = sig.bind(*args, **kwargs).arguments
                    n = points_of(a)
                    tr.counters["phasespace.overlap_points"] += n
                    tr.counters["phasespace.overlap_point_nodes"] += n * a["psi"].values.size
                    return fn(*args, **kwargs)
                return call
            return wrapper

        def on_plan(a):
            tr.counters["transport.lp_vars"] += len(a["f"].weights) * len(a["mu"].weights)

        self.patch(scenario, "load_config", spanned("scenario.load_config"))
        self.patch(scenario, "build_state", spanned("scenario.build_state", on_build_state))
        self.patch(certify, "certify_pure_sweep", spanned("certify.sweep"))
        self.patch(certify, "certify_toeplitz_sweep", spanned("certify.sweep"))
        self.patch(classical, "occupation_batch",
                   spanned("classical.occupation_batch", on_occupation))
        self.patch(classical, "verlet_step", verlet_counter)
        self.patch(quantum, "propagate_series", propagate_wrapper)
        self.patch(phasespace, "husimi_mass", spanned("phasespace.husimi_mass"))
        self.patch(phasespace, "coherent_overlaps",
                   overlap_counter(lambda a: len(a["q_nodes"]) * len(a["p_nodes"])))
        self.patch(phasespace, "_overlap_sq_points",
                   overlap_counter(lambda a: len(a["phase_points"])))
        self.patch(transport, "transport_plan", spanned("transport.transport_plan", on_plan))
