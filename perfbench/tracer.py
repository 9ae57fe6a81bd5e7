"""Span-recording wrappers around ringlab's public functions.

The tracer replaces every public function of the layer modules with a
wrapper, in every ringlab namespace that binds it, so that calls made through
module globals (``validate_axioms`` from ``FiniteRing.__init__``,
``power_seq`` from ``deciders``) are seen too. Each call is a span: name,
start, end and parent span. Calls of HOT functions are only aggregated
(calls, total, self time), because they run once per ring element; all other
spans are kept in compact arrays and written out when the worker ends.

Self time is a span's duration minus that of its traced children. Time spent
in untraced helpers and ring closures counts toward the traced caller.
Total time counts only the outermost call of a recursive function.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from array import array
from typing import Callable, Dict, List, Optional

LAYERS = ("cli", "construct", "core", "structure", "deciders", "harness")

# Digit packing runs inside every composite ring operation (millions of calls
# per run); power_from_seq is an index lookup. Wrapping them would measure
# the wrapper, so their time stays with the caller.
UNTRACED = frozenset({
    "construct.pack_digits", "construct.unpack_digits",
    "core.power_from_seq",
})

HOT = frozenset({
    "core.power_seq", "core.power", "core.nil_index_of",
    "deciders.check_wncl", "deciders.check_pi_regular",
    "deciders.check_strong_pi", "deciders.check_exchange",
    "deciders.check_sum", "deciders.check_strongly_regular",
    "deciders.pi_regular_witness_fast", "deciders.strong_pi_witness_fast",
    "deciders.strong_pi_core_fast", "deciders.wncl_from_pi_regular",
})

# ring.cache keys that the structure scans memoize under at the seed.
STRUCTURE_MEMO_KEYS = {
    "structure.idempotents": "idempotents",
    "structure.nilpotents": "nilpotents",
    "structure.nil_index_map": "nil_index",
    "structure.units": "units",
    "structure.inverse_map": "inverse",
    "structure.center": "center",
    "structure.is_abelian": "is_abelian",
    "structure.jacobson_radical": "jacobson_radical",
    "structure.bounded_index": "bounded_index",
}

# The eight element witness searches; each memoizes under (name, element).
WITNESS_SEARCHES = frozenset({
    "wncl_witness", "wncl_witness_alt", "pi_regular_witness",
    "strong_pi_witness", "exchange_witness", "clean_witness",
    "nil_clean_witness", "strongly_regular_witness",
})


class Tracer:
    """Wraps ringlab's public functions and accumulates spans and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.calls = array("q")
        self.total_ns = array("q")
        self.self_ns = array("q")
        self._active = array("q")
        # recorded spans, one entry per array
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack: List[list] = []
        self.counters: Dict[str, int] = {
            "construct.tabled_cells": 0,
            "core.validated_cells": 0,
            "construct.build_cached.hits": 0,
            "construct.build_cached.misses": 0,
            "structure.memo_lookups": 0,
            "structure.memo_hits": 0,
            "deciders.witness_memo_lookups": 0,
            "deciders.witness_memo_hits": 0,
            "deciders.witness_attempted": 0,
            "deciders.witness_found": 0,
        }
        self._builds = 0

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of package's layer modules, and count
        the cells of every ring built with tables. For the rest of the
        process: there is no uninstall."""
        modules = [sys.modules[f"{package.__name__}.{layer}"] for layer in LAYERS]
        namespaces = [package] + modules
        for layer, mod in zip(LAYERS, modules):
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                if name in UNTRACED:
                    continue
                wrapper = self._wrap(name, fn)
                for ns in namespaces:
                    for bound, obj in list(vars(ns).items()):
                        if obj is fn:
                            setattr(ns, bound, wrapper)
        ring_cls = sys.modules[f"{package.__name__}.core"].FiniteRing
        init = ring_cls.__init__
        counters = self.counters

        def counting_init(ring, *args, **kwargs):
            init(ring, *args, **kwargs)
            if ring.mul_table is not None:
                counters["construct.tabled_cells"] += ring.order * ring.order

        ring_cls.__init__ = counting_init

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for arr in (self.calls, self.total_ns, self.self_ns, self._active):
                arr.append(0)
        return nid

    def _hook(self, name: str) -> Optional[Callable]:
        """Counter bookkeeping for one function: a callable run before the
        call that returns the callable to run on its result, or None."""
        c = self.counters
        if name == "core.validate_axioms":
            def pre(args, kwargs):
                c["core.validated_cells"] += args[0].order ** 3
            return pre
        if name == "construct.build":
            def pre(args, kwargs):
                self._builds += 1
            return pre
        if name == "construct.build_cached":
            def pre(args, kwargs):
                before = self._builds

                def post(result):
                    key = ("construct.build_cached.misses" if self._builds > before
                           else "construct.build_cached.hits")
                    c[key] += 1
                return post
            return pre
        if name in STRUCTURE_MEMO_KEYS:
            key = STRUCTURE_MEMO_KEYS[name]

            def pre(args, kwargs):
                c["structure.memo_lookups"] += 1
                c["structure.memo_hits"] += key in args[0].cache
            return pre
        search = name.split(".", 1)[1]
        if name.startswith("deciders.") and search in WITNESS_SEARCHES:
            def pre(args, kwargs):
                ring, a = args[0], args[1] if len(args) > 1 else kwargs["a"]
                c["deciders.witness_memo_lookups"] += 1
                c["deciders.witness_memo_hits"] += (search, a) in ring.cache

                def post(result):
                    c["deciders.witness_attempted"] += 1
                    c["deciders.witness_found"] += result is not None
                return post
            return pre
        return None

    def _wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._name_id(name)
        hot = name in HOT
        hook = self._hook(name)
        stack = self._stack
        calls, total_ns, self_ns, active = (self.calls, self.total_ns,
                                            self.self_ns, self._active)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            post = hook(args, kwargs) if hook is not None else None
            if hot:
                span = stack[-1][1] if stack else -1
            else:
                span = len(span_name)
                span_name.append(nid)
                span_parent.append(stack[-1][1] if stack else -1)
                span_start.append(0)
                span_end.append(0)
            frame = [0, span]  # [traced child time in ns, span index]
            stack.append(frame)
            active[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                self_ns[nid] += dur - frame[0]
                active[nid] -= 1
                if not active[nid]:
                    total_ns[nid] += dur
                if stack:
                    stack[-1][0] += dur
                if not hot:
                    span_start[span] = start
                    span_end[span] = end
            if post is not None:
                post(result)
            return result

        return wrapper

    # -- results ------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def span_bytes(self) -> int:
        return sum(a.itemsize * len(a) for a in (
            self.span_name, self.span_parent, self.span_start, self.span_end))

    def functions(self) -> Dict[str, dict]:
        """Per traced function that was called: calls, total_s, self_s."""
        return {name: {"calls": self.calls[i],
                       "total_s": self.total_ns[i] / 1e9,
                       "self_s": self.self_ns[i] / 1e9}
                for i, name in enumerate(self.names) if self.calls[i]}

    def write_spans(self, path) -> None:
        """Write the recorded spans as parallel arrays (times in ns)."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names,
                       "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start_ns": self.span_start.tolist(),
                       "end_ns": self.span_end.tolist()}, fh)
