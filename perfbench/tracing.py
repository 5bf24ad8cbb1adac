"""Outside-in layer tracing: wrap the public functions of each lattice_succ module.

Every binding of a wrapped function is replaced, including names re-bound by
`from ... import` in other modules (for example `cf_engine.compare_fraction`,
`oracle.compare_affine`, `tiling.next_point`) and the package re-exports.
Spans (name, start, end, parent) go into flat in-memory arrays and are written
out when the run ends. The table accessors are only counted, because a span
around each of them would cost more than the call it measures.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
from array import array
from collections import Counter, defaultdict

MODULES = ("core_arith", "cf_engine", "successor", "oracle", "sequences", "tiling", "cli")
EXTEND_METHODS = ("extend_to", "extend_until")

# core_arith's float pre-filter trusts a bit gap wider than this relative
# margin (plus a small absolute one); narrower gaps fall through to exact
# big-integer powers. The benchmark classifies calls with these documented
# values, so the share stays comparable when the implementation changes.
FILTER_REL_MARGIN = 1e-12
FILTER_ABS_MARGIN = 1e-9


def _pair_key(pair) -> str:
    return f"{pair.p1}_{pair.p2}"


class Tracer:
    """Span recorder and counters for one traced process."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self.stack = [-1]
        self.accessor_calls: Counter = Counter()
        self.fraction_calls = 0
        self.extend_noop = 0
        self._depth_of = None
        self.max_operand_bits = 0.0
        self.filter_decided = 0
        self.exact_path = 0
        self.rows = Counter()
        self.row_probes = Counter()
        self.row_ns_max: dict[str, int] = defaultdict(int)
        self.max_depth: dict[str, int] = defaultdict(int)
        self._originals: list[tuple[object, str, object]] = []

    def full(self) -> bool:
        return len(self.span_start) >= self.max_spans

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, before=None, after=None):
        """Wrap fn in a span; `before(args)` returns state handed to `after`."""
        nid = self._name_id(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args) if before else None
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            starts.append(0)
            stack.append(idx)
            starts[idx] = clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                ends[idx] = end
                stack.pop()
                if after:
                    after(args, state, ok, end - starts[idx])

        return wrapper

    def counter(self, name: str, fn):
        counts = self.accessor_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- per-layer bookkeeping -------------------------------------------

    def _operand_bits(self, lhs_bits: float, rhs_bits: float, budget: int, classify: bool) -> None:
        big = max(lhs_bits, rhs_bits)
        if big > budget:
            return  # refused before any power is built
        self.max_operand_bits = max(self.max_operand_bits, big)
        if classify:
            margin = (lhs_bits + rhs_bits) * FILTER_REL_MARGIN + FILTER_ABS_MARGIN
            if abs(lhs_bits - rhs_bits) > margin:
                self.filter_decided += 1
            else:
                self.exact_path += 1

    def _fraction_args(self, args):
        self.fraction_calls += 1
        pair, h, k = args[:3]
        if h >= 0 and k >= 0:
            self._operand_bits(h * math.log2(pair.p2), k * math.log2(pair.p1), pair.bit_budget, True)

    def _affine_args(self, args):
        pair, u, v = args[:3]
        dk, dn = u.coeff - v.coeff, u.const - v.const
        lp1, lp2 = math.log2(pair.p1), math.log2(pair.p2)
        self._operand_bits(
            max(dk, 0) * lp1 + max(-dn, 0) * lp2,
            max(-dk, 0) * lp1 + max(dn, 0) * lp2,
            pair.bit_budget,
            False,
        )

    def _extend_before(self, args):
        return self._depth_of(args[0])

    def _extend_after(self, args, depth_before, ok, ns):
        table = args[0]
        depth = self._depth_of(table)
        if depth == depth_before:
            self.extend_noop += 1
        key = _pair_key(table.pair)
        self.max_depth[key] = max(self.max_depth[key], depth)

    def _row_before(self, args):
        return self.fraction_calls

    def _row_after(self, args, probes_before, ok, ns):
        if not ok:
            return
        key = _pair_key(args[0].pair)
        self.rows[key] += 1
        self.row_probes[key] += self.fraction_calls - probes_before
        self.row_ns_max[key] = max(self.row_ns_max[key], ns)

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of MODULES and re-point every binding."""
        layers = {short: importlib.import_module(f"{package.__name__}.{short}") for short in MODULES}
        modules = [m for name, m in sys.modules.items()
                   if name == package.__name__ or name.startswith(package.__name__ + ".")]
        replacements: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in layers.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replacements[id(obj)] = (obj, self._wrap_function(short, name, obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._rebind(mod, name, hit[1])

    def _rebind(self, owner, name: str, new) -> None:
        self._originals.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        """Restore every binding install() replaced."""
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()

    def _wrap_function(self, short: str, name: str, fn):
        full = f"{short}.{name}"
        if full == "core_arith.compare_fraction":
            return self.span(full, fn, before=self._fraction_args)
        if full == "core_arith.compare_affine":
            return self.span(full, fn, before=self._affine_args)
        return self.span(full, fn)

    def _wrap_class(self, short: str, cls) -> None:
        attrs = vars(cls)
        if cls.__name__ == "ConvergentTable":
            self._depth_of = attrs["depth"].fget
            self._rebind(cls, "depth", property(self.counter("cf_engine.depth", self._depth_of)))
            for name in ("h", "k", "quotient"):
                self._rebind(cls, name, self.counter(f"cf_engine.{name}", attrs[name]))
            for name in EXTEND_METHODS:
                self._rebind(cls, name, self.span("cf_engine.extend", attrs[name],
                                                  self._extend_before, self._extend_after))
            if "_append_row" in attrs:
                self._rebind(cls, "_append_row", self.span("cf_engine.append_row", attrs["_append_row"],
                                                           self._row_before, self._row_after))
            return
        if cls.__name__ == "SortedStream" and "__next__" in attrs:
            self._rebind(cls, "__next__", self.span("oracle.SortedStream.next", attrs["__next__"]))
            return
        for name, obj in list(attrs.items()):
            if not name.startswith("_") and inspect.isfunction(obj):
                self._rebind(cls, name, self.span(f"{short}.{cls.__name__}.{name}", obj))

    # -- results ----------------------------------------------------------

    def self_times(self) -> tuple[Counter, Counter]:
        """(calls, self seconds) per span name; self = duration minus direct children."""
        n = len(self.span_start)
        child = [0] * n
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for i in range(n):
            name = self.names[self.span_name[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - child[i]
        return calls, Counter({k: v / 1e9 for k, v in self_ns.items()})

    def write_spans(self, path) -> None:
        """Write spans as gzip text: a JSON header with the names, then one span per line as four integers."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"]}) + "\n")
            for row in zip(self.span_name, self.span_start, self.span_end, self.span_parent):
                fh.write("%d %d %d %d\n" % row)
