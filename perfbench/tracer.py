"""Per-layer tracing of triplepoint, installed from outside the package.

``Tracer.install`` replaces the entry points of each module with wrappers
that record one span per call: name, start, end and the enclosing span.  The
entry points are the public functions and methods of each module (the
arithmetic operators of its classes included), every callable the
``kernel`` facade exports, and ``ideals._groebner_terms``, the one
Buchberger entry every basis goes through.  ``Ring.key`` is too hot for a
span and only counts calls.  A few probes count work that a span cannot
show, such as distinct Groebner inputs or candidates drawn by the reduction
search.

A layer's time is its self time: its spans' durations minus the parts their
child spans cover.  The program is single-threaded and does no I/O, so no
layer waits on another and there is no wait time to report.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from time import perf_counter

# Modules of the package, one layer each; cli spans are opened by the worker.
LAYERS = (
    "kernel",
    "polyring",
    "ideals",
    "presentations",
    "ulrich",
    "dualgraph",
    "graphcatalog",
    "expectations",
)
_OPERATORS = frozenset(
    ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
     "__pow__", "__neg__", "__str__")
)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self._stack = [-1]
        self.counts = Counter()

    # -- spans ---------------------------------------------------------

    def _name(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name, fn):
        """``fn`` with one span named ``name`` around each call."""
        nid = self._name(name)
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()

        return traced

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap every entry point of the imported triplepoint modules."""
        modules = {layer: importlib.import_module(f"triplepoint.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for owner, attr, fn in _entry_points(layer, mod):
                name = f"{layer}.{getattr(fn, '__qualname__', attr)}"
                wrapper = replaced.get(id(fn))
                if wrapper is None:
                    wrapper = self._instrument(name, fn)
                    replaced[id(fn)] = wrapper
                setattr(owner, attr, wrapper)
        for name in _PRIVATE:
            layer, attr = name.split(".")
            mod = modules[layer]
            setattr(mod, attr, self._instrument(name, getattr(mod, attr)))

        # Names imported with ``from .x import f`` still point at the originals.
        cli = importlib.import_module("triplepoint.cli")
        for mod in list(modules.values()) + [cli]:
            for attr, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)

    def _instrument(self, name, fn):
        probe = _PROBES.get(name)
        if name not in _NO_SPAN:
            fn = self.wrap(name, fn)
        if probe is not None:
            fn = functools.wraps(fn)(probe(self.counts, fn))
        return fn

    # -- results -------------------------------------------------------

    def summary(self):
        """Calls and self time per span name, probe counts, and the summed
        duration of root spans."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        roots_s = 0.0
        for i in range(n):
            p = self.parent[i]
            if p < 0:
                roots_s += dur[i]
            else:
                child[p] += dur[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name_id[i]
            calls[k] += 1
            self_s[k] += dur[i] - child[i]
        return {
            "spans": {nm: [calls[k], self_s[k]] for k, nm in enumerate(self.names)},
            "counts": dict(self.counts),
            "roots_s": roots_s,
            "open_spans": len(self._stack) - 1,
        }


def _entry_points(layer, mod):
    """(owner, attribute, function) for each public entry point of ``mod``."""
    for attr, value in list(vars(mod).items()):
        if attr.startswith("_"):
            continue
        if layer == "kernel":
            # The facade re-exports the backend's functions, compiled or not.
            if callable(value):
                yield mod, attr, value
        elif inspect.isfunction(value) and value.__module__ == mod.__name__:
            if not inspect.isgeneratorfunction(value):
                yield mod, attr, value
        elif inspect.isclass(value) and value.__module__ == mod.__name__:
            for mattr, method in list(vars(value).items()):
                public = not mattr.startswith("_") or mattr in _OPERATORS
                if public and inspect.isfunction(method):
                    if not inspect.isgeneratorfunction(method):
                        yield value, mattr, method


def _count_raises(key, exc_name):
    def factory(counts, fn):
        exc_type = getattr(importlib.import_module("triplepoint.errors"), exc_name)

        def probe(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except exc_type:
                counts[key] += 1
                raise

        return probe

    return factory


def _key_calls(counts, fn):
    def key(self, exp):
        counts["key_calls"] += 1
        return fn(self, exp)

    return key


def _groebner_inputs(counts, fn):
    seen = set()

    def probe(gens, ring, assume_prefix=0):
        seen.add((ring, tuple(map(tuple, gens))))
        counts["gb_distinct"] = len(seen)
        counts["gb_input_terms"] += sum(map(len, gens))
        if assume_prefix:
            counts["truncation_gb_calls"] += 1
        return fn(gens, ring, assume_prefix)

    return probe


def _candidates(counts, fn):
    def probe(*args, **kwargs):
        for pair in fn(*args, **kwargs):
            counts["candidates"] += 1
            yield pair

    return probe


def _search_hits(counts, fn):
    def probe(*args, **kwargs):
        found = fn(*args, **kwargs)
        if found is not None:
            counts["search_hits"] += 1
        return found

    return probe


def _chains(counts, fn):
    def probe(*args, **kwargs):
        enum = fn(*args, **kwargs)
        counts["chains"] += len(enum.chains)
        return enum

    return probe


# Private functions that are entry points too: the Buchberger entry every
# basis goes through, and the reduction search's candidate stream.
_PRIVATE = ("ideals._groebner_terms", "ulrich._candidate_pairs")
# Too hot for a span (Ring.key), or a generator whose span would end at once.
_NO_SPAN = frozenset(("polyring.Ring.key", "ulrich._candidate_pairs"))
# Counts that a span's calls and self time cannot show.
_PROBES = {
    "polyring.Ring.key": _key_calls,
    "ideals._groebner_terms": _groebner_inputs,
    "ideals.PresentedQuotient.colength": _count_raises("colength_errors", "ColengthBudgetError"),
    "ulrich._candidate_pairs": _candidates,
    "ulrich.find_reduction": _search_hits,
    "dualgraph.enumerate_ulrich_chains": _chains,
    "graphcatalog.graph_catalog": _count_raises("rejected", "GraphInvariantError"),
}
