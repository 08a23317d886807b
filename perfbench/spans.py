"""Spans around calls into the lexcohom layers, installed from outside.

The package has no tracing of its own.  ``Tracer.install`` replaces every
module attribute bound to a target function with a wrapper (``from .linalg
import rank_mod_p`` copies the name into other modules, and all copies are
replaced).  Spans are recorded only inside an operation's root span.

* Each layer's public functions get a span when called from another
  module: a layer's helpers count towards the span that entered the layer.
* ``ALWAYS`` functions get a span on every call, also from their own module,
  because the per-layer metrics count all of their calls.
* ``core`` is the shared data model: like the methods of its ideal and
  monomial classes, its functions count towards their caller, except
  ``saturate``.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("linalg", "homology", "betti", "localcohom", "hilbert", "embeddings",
          "groebner", "zstable", "core", "ioformat", "cli")

ALWAYS = {
    "linalg": ("rank_mod_p",),
    "homology": ("reduced_homology_dims",),
    "betti": ("betti_table", "lcm_lattice", "upper_koszul_faces"),
    "localcohom": ("cohomology_table",),
    "hilbert": ("hilbert_series",),
    "embeddings": ("cl_embed", "ideal_dims", "_embed_matching_series"),
    "groebner": ("buchberger", "initial_ideal"),
    "zstable": ("z_stabilize", "z_order_compare"),
    "core": ("saturate",),
    "ioformat": ("parse_ideal_file", "format_ideal"),
    "cli": ("main",),
}
RENAMED = {"embeddings._embed_matching_series": "embeddings.embed"}

WIDTH_BUCKETS = ((1, "1"), (2, "2"), (4, "3to4"), (8, "5to8"), (16, "9to16"),
                 (32, "17to32"))

ROOT = "verify.op"  # the span around each whole operation


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()  # work counts measured at the spans
        self.betti_ideals: set = set()
        self._open: list[list[float]] = []  # child time of each open span
        self._depth: Counter = Counter()  # open spans by name

    def span(self, name, fn, *args, **kwargs):
        child = [0.0]
        self._open.append(child)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._open.pop()
            self._depth[name] -= 1
            self.calls[name] += 1
            self.self_s[name] += dt - child[0]
            if self._open:
                self._open[-1][0] += dt

    # -- work counts, taken at the span boundary --------------------------

    def _count(self, name, args, result):
        if name == "linalg.rank_mod_p":
            rows, cols = getattr(args[0], "shape", None) or (len(args[0]), len(args[0][0]))
            self.counts[name + ".cells"] += rows * cols
            self.counts[name + ".max_cols"] = max(self.counts[name + ".max_cols"], cols)
            label = next((lab for top, lab in WIDTH_BUCKETS if cols <= top), "gt32")
            self.counts[f"{name}.cols_{label}"] += 1
        elif name == "betti.lcm_lattice":
            self.counts[name + ".points"] += len(result)
        elif name == "betti.betti_table":
            I = args[0]
            self.betti_ideals.add((I.ctx, I.gens))
        elif name == "groebner.initial_ideal" and self._depth["zstable.z_stabilize"]:
            self.counts["zstable.rounds"] += 1

    def _wrap(self, fn, name: str, module: str, always: bool):
        tracer = self
        if name == "localcohom.cohomology_table":
            sig = inspect.signature(fn)

            def span_name(args, kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                return f"{name}.{bound.arguments['backend']}"
        else:
            def span_name(args, kwargs):
                return name

        def wrapper(*args, **kwargs):
            if not tracer._open or (
                    not always and sys._getframe(1).f_globals.get("__name__") == module):
                return fn(*args, **kwargs)
            result = tracer.span(span_name(args, kwargs), fn, *args, **kwargs)
            tracer._count(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap the layers' functions in every loaded lexcohom module."""
        replacements = {}
        for layer in LAYERS:
            mod = sys.modules["lexcohom." + layer]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                always = attr in ALWAYS[layer]
                if not always and (attr.startswith("_") or layer == "core"):
                    continue
                name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                replacements[fn] = self._wrap(fn, name, mod.__name__, always)
        for modname, mod in list(sys.modules.items()):
            if modname != "lexcohom" and not modname.startswith("lexcohom."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replacements:
                    setattr(mod, attr, replacements[value])

    # -- report -----------------------------------------------------------

    def metrics(self, numerator_cache) -> dict[str, float]:
        """Every span's calls and self time, the work counts and ratios, and
        each layer's share of the self time inside the operations."""
        out: dict[str, float] = {}
        for name in sorted(self.calls):
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counts)

        def ratio(num, den):
            return num / den if den else 0.0

        rank = "linalg.rank_mod_p"
        out[rank + ".le4_frac"] = ratio(
            sum(self.counts[f"{rank}.cols_{lab}"] for lab in ("1", "2", "3to4")),
            self.calls[rank])
        out["betti.betti_table.distinct_frac"] = ratio(
            len(self.betti_ideals), self.calls["betti.betti_table"])
        out["embeddings.first_horizon_frac"] = ratio(
            self.calls["embeddings.embed"], self.calls["embeddings.cl_embed"])
        out["hilbert.numerator.hit_frac"] = ratio(
            numerator_cache.hits, numerator_cache.hits + numerator_cache.misses)
        total = sum(self.self_s.values())
        for layer in LAYERS + ("verify",):
            share = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
            out[f"{layer}.self_frac"] = ratio(share, total)
        return out
