"""Per-layer tracing from outside the package.

install() wraps the public functions of each rowmotion layer and rebinds every
name under which the package holds them, including the copies other modules
took at import time (verify.orbit_reports, cli.orbit_reports,
homomesy.all_orbits, ...) and methods on the classes themselves
(Poset.rowmotion_ideal_mask, IdealSet.__post_init__).  Without the rebinding
those calls would escape the trace.

Every wrapped call adds its self time (duration minus the time of wrapped
calls nested inside it) to a layer key.  Hot per-item functions only count
and time; the coarser calls are also kept as spans (name, start, end, parent)
in memory and returned with the report.
"""

from __future__ import annotations

import argparse
import sys
import time

perf_counter = time.perf_counter

# (module, attribute, layer key, counter, span)
# counter names what a call adds one to: "calls", "steps", or None when the
# function only lends its time to the key (a loop around a counted call).
TARGETS = [
    ("rowmotion.cli", "main", "cli.main", "calls", True),
    ("rowmotion.cli", "build_parser", "cli.parse", None, False),
    ("rowmotion.cli", "parse_poset_expr", "cli.parse", "calls", False),
    ("rowmotion.verify", "verify_grid", "verify.suite", "calls", True),
    ("rowmotion.verify", "verify_k_product", "verify.suite", "calls", True),
    ("rowmotion.verify", "verify_catalog_entry", "verify.suite", "calls", True),
    ("rowmotion.verify", "verify_classical_layer", "verify.suite", "calls", True),
    ("rowmotion.verify", "word_iterate_rows", "verify.suite", "calls", True),
    ("rowmotion.verify", "check_constant_average", "homomesy.average", "calls", True),
    ("rowmotion.homomesy", "verify_constant_average", "homomesy.average", "calls", True),
    ("rowmotion.homomesy", "check_conjecture_ideals", "homomesy.conjecture", "calls", True),
    ("rowmotion.homomesy", "check_conjecture_antichains", "homomesy.conjecture", "calls", True),
    ("rowmotion.homomesy", "occurrence_counts", "homomesy.occurrence", "calls", False),
    # orbit_reports only dispatches to all_orbits; both are the sweep itself
    ("rowmotion.homomesy", "orbit_reports", "poset.walk", None, True),
    ("rowmotion.poset", "all_orbits", "poset.walk", None, True),
    ("rowmotion.poset", "OrbitReport.from_seed_mask", "poset.walk", "calls", False),
    ("rowmotion.poset", "Poset.rowmotion_ideal_mask", "poset.walk", "steps", False),
    ("rowmotion.poset", "IdealSet.__post_init__", "poset.idealset", "calls", False),
    ("rowmotion.constructions", "build", "constructions.build", "calls", True),
    ("rowmotion.roots", "layer", "roots.layer", "calls", False),
    ("rowmotion.isomorphism", "are_isomorphic", "isomorphism", "calls", True),
    ("rowmotion.catalog", "CatalogEntry.realize_layer", "catalog", "calls", False),
    ("rowmotion.words", "encode_grid", "words.encode", "calls", False),
    ("rowmotion.words", "encode_K_fullrank", "words.encode", "calls", False),
    ("rowmotion.words", "encode_K_starred", "words.encode", "calls", False),
    ("rowmotion.words", "decode_grid", "words.decode", "calls", False),
    ("rowmotion.words", "decode_K_fullrank", "words.decode", "calls", False),
    ("rowmotion.words", "decode_K_starred", "words.decode", "calls", False),
    ("rowmotion.words", "psi", "words.psi", "calls", False),
    ("rowmotion.words", "psi_iterates", "words.psi", None, False),
    ("rowmotion.words", "psi_bar", "words.psi_bar", "calls", False),
    ("rowmotion.words", "psi_bar_iterates", "words.psi_bar", None, False),
    ("rowmotion.words", "size_profile", "words.profile", "calls", False),
    ("rowmotion.words", "size_by_formula", "words.profile", "calls", False),
    ("rowmotion.words", "long_sequences", "words.sequences", "calls", False),
    ("rowmotion.words", "long_zero_sequence_K", "words.sequences", "calls", False),
    ("rowmotion.words", "window_sizes_K", "words.sequences", "calls", False),
    ("rowmotion.words", "zigzag", "words.sequences", "calls", False),
    ("rowmotion.words", "MarkedSequence.window", "words.sequences", "calls", False),
]

# ideal_masks is a generator: each resumption is timed, each yield counted
ENUMERATE = ("rowmotion.poset", "ideal_masks", "poset.enumerate")


class Tracer:
    def __init__(self):
        self.layers: dict[str, dict[str, float]] = {}
        self.stack = [[0.0, None]]  # [child time, span index] per open call
        self.spans: list[dict] = []
        self.build_elements = 0
        # keyed by the Poset itself, which hashes by identity
        self.swept: dict[object, int] = {}  # full orbit sweeps per poset
        self.enumerated: dict[object, int] = {}  # most ideals in one enumeration
        self.originals: dict[str, object] = {}

    def layer(self, key: str) -> dict[str, float]:
        return self.layers.setdefault(key, {"self_s": 0.0})

    def timed(self, key, counter, span, fn, args, kwargs):
        stats = self.layer(key)
        frame = [0.0, None]
        if span:
            frame[1] = len(self.spans)
            self.spans.append({"name": key + ":" + fn.__name__,
                               "parent": self.stack[-1][1]})
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            duration = end - start
            self.stack[-1][0] += duration
            stats["self_s"] += duration - frame[0]
            if counter is not None:
                stats[counter] = stats.get(counter, 0) + 1
            if span:
                self.spans[frame[1]].update(start=start, end=end)

    def wrap(self, fn, key, counter, span):
        tracer = self

        def wrapper(*args, **kwargs):
            return tracer.timed(key, counter, span, fn, args, kwargs)
        return wrapper

    def wrap_build(self, fn):
        depth = [0]  # build recurses; elements count the outermost result

        def build(expr, *args, **kwargs):
            depth[0] += 1
            try:
                poset = self.timed("constructions.build", "calls", True, fn,
                                   (expr,) + args, kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                self.build_elements += poset.n_elements
            return poset
        return build

    def wrap_sweep(self, fn, key):
        def sweep(poset, *args, **kwargs):
            if fn.__name__ == "all_orbits":  # orbit_reports delegates to it
                self.swept[poset] = self.swept.get(poset, 0) + 1
            return self.timed(key, None, True, fn, (poset,) + args, kwargs)
        return sweep

    def wrap_enumerate(self, fn, key):
        def ideal_masks(poset, *args, **kwargs):
            stats = self.layer(key)
            stats["calls"] = stats.get("calls", 0) + 1
            return self._resumed(key, poset, fn(poset, *args, **kwargs))
        return ideal_masks

    def _resumed(self, key, poset, gen):
        stats = self.layer(key)
        seen = 0
        try:
            while True:
                parent = self.stack[-1]
                start = perf_counter()
                try:
                    mask = next(gen)
                except StopIteration:
                    return
                finally:
                    duration = perf_counter() - start
                    parent[0] += duration
                    stats["self_s"] += duration
                seen += 1
                stats["ideals"] = stats.get("ideals", 0) + 1
                yield mask
        finally:
            self.enumerated[poset] = max(self.enumerated.get(poset, 0), seen)

    def report(self) -> dict:
        from rowmotion import constructions, roots

        def cache(*cached):
            infos = [c.cache_info() for c in cached]
            return [sum(i.hits for i in infos), sum(i.misses for i in infos)]

        return {
            "layers": self.layers,
            "build_elements": self.build_elements,
            "sweeps": sum(self.swept.values()),
            "swept_posets": len(self.swept),
            "distinct_ideals": sum(self.enumerated.values()),
            "cache": {
                "constructions": cache(constructions.grid_poset,
                                       constructions.k_product_poset),
                "roots": cache(self.originals["rowmotion.roots.layer"],
                               roots.root_system),
            },
            "spans": self.spans,
        }


def _rebind(original, replacement) -> None:
    """Point every name in the package that holds original at replacement."""
    for name, module in list(sys.modules.items()):
        if name != "rowmotion" and not name.startswith("rowmotion."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install() -> Tracer:
    """Wrap every target once; the package must already be imported."""
    tracer = Tracer()
    for module_name, path, key, counter, span in TARGETS:
        module = sys.modules[module_name]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(tracer.wrap(raw.__func__, key, counter, span)))
            else:
                setattr(owner, attr, tracer.wrap(raw, key, counter, span))
            continue
        original = getattr(module, attr)
        tracer.originals[f"{module_name}.{attr}"] = original
        if attr == "build":
            wrapper = tracer.wrap_build(original)
        elif key == "poset.walk":
            wrapper = tracer.wrap_sweep(original, key)
        else:
            wrapper = tracer.wrap(original, key, counter, span)
        _rebind(original, wrapper)
    module_name, attr, key = ENUMERATE
    original = getattr(sys.modules[module_name], attr)
    _rebind(original, tracer.wrap_enumerate(original, key))
    argparse.ArgumentParser.parse_args = tracer.wrap(
        argparse.ArgumentParser.parse_args, "cli.parse", None, False)
    return tracer
