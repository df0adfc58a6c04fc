"""Spans around the calls into each cm_octic layer, for the traced run.

A span is recorded for every call into a wrapped public function: its
name, start and end (perf_counter_ns) and the index of the enclosing span
(-1 at top level).  Spans stay in memory until the run ends.  The
wrapping is done from here, by replacing the function in every cm_octic
module namespace that holds it, so the package itself is unchanged;
`restore` puts the originals back.
"""

from __future__ import annotations

import functools
import gzip
import json
import resource
import sys
import time
from array import array
from collections import Counter

# (module, function, namespaces to patch).  None patches every cm_octic
# module that holds the function, its own included.  is_prime is patched in
# the harness only, so that it counts the wheel's candidates and not the
# proof that Prime() repeats inside modular; that proof is timed by wrapping
# Prime.__post_init__ as "modular.Prime".
LAYERS = (
    ("harness", "scan", None),
    ("harness", "primes_1_mod_8", None),
    ("harness", "write_scan_csv", None),
    ("modular", "is_prime", ("harness",)),
    ("modular", "sqrt_mod", None),
    ("decompose", "two_squares", None),
    ("decompose", "eight_decomposition", None),
    ("criteria", "chi_one_plus_sqrt2", None),
    ("criteria", "check_prime", None),
    ("criteria", "proof_trace", None),
    ("classnumber", "class_number", None),
    ("curve", "find_point_of_order", None),
    ("curve", "eta_level_sets", None),
    ("curve", "eta_preimages", None),
    ("curve", "curve_order", None),
)


def _cpu(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Spans in a flat array: (name id, parent index, start ns, end ns) each."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def begin(self, name_id: int) -> int:
        idx = len(self.spans) // 4
        self.spans.extend((name_id, self._stack[-1], time.perf_counter_ns(), 0))
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[4 * idx + 3] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        """fn with a span around each call; after(result, args) updates counts."""
        nid = self._name_id(name)
        # Locals, not attribute lookups: this runs several times per prime.
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans) >> 2
            spans.extend((nid, stack[-1], clock(), 0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[4 * idx + 3] = clock()
                stack.pop()
            if after is not None:
                after(result, args)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        # One span per item drawn, so the draining time excludes the consumer.
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx = self.begin(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.counts["harness.stream_primes"] += 1
                yield item

        return traced

    def _wrap_scan(self, fn, name: str):
        # CPU of this process and of the pool workers it reaps during the scan.
        inner = self.wrap(fn, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self_0, kids_0 = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["harness.scan_parent_cpu_s"] += _cpu(resource.RUSAGE_SELF) - self_0
                self.counts["harness.scan_worker_cpu_s"] += (
                    _cpu(resource.RUSAGE_CHILDREN) - kids_0
                )

        return traced

    def _wrapper_for(self, fn, name: str):
        if name == "harness.primes_1_mod_8":
            return self._wrap_generator(fn, name)
        if name == "harness.scan":
            return self._wrap_scan(fn, name)
        if name == "harness.write_scan_csv":
            def csv_bytes(_result, args):
                self.counts["harness.csv_bytes"] += args[1].tell()
            return self.wrap(fn, name, csv_bytes)
        if name == "criteria.proof_trace":
            def inconsistent(trace, _args):
                self.counts["criteria.proof_trace_inconsistent"] += not trace.consistent
            return self.wrap(fn, name, inconsistent)
        if name == "curve.find_point_of_order":
            def misses(point, _args):
                self.counts["curve.find_point_of_order_misses"] += point is None
            return self.wrap(fn, name, misses)
        return self.wrap(fn, name)

    def install(self) -> None:
        """Wrap every function in LAYERS, and Prime's primality proof."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "cm_octic" or name.startswith("cm_octic.")}
        for module, func, only in LAYERS:
            original = getattr(package[f"cm_octic.{module}"], func)
            wrapper = self._wrapper_for(original, f"{module}.{func}")
            targets = package.values() if only is None else [
                package[f"cm_octic.{m}"] for m in only]
            for mod in targets:
                if getattr(mod, func, None) is original:
                    self._restore.append((mod, func, original))
                    setattr(mod, func, wrapper)
        prime = package["cm_octic.modular"].Prime
        self._restore.append((prime, "__post_init__", prime.__post_init__))
        prime.__post_init__ = self.wrap(prime.__post_init__, "modular.Prime")

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], Counter[str]]:
        """Seconds and calls per span name.  No wrapped function reaches
        itself, so the spans of one name never nest and their sum is the
        time spent in that layer."""
        seconds: dict[str, float] = dict.fromkeys(self.names, 0.0)
        calls: Counter[str] = Counter()
        s = self.spans
        for k in range(0, len(s), 4):
            name = self.names[s[k]]
            seconds[name] += (s[k + 3] - s[k + 2]) * 1e-9
            calls[name] += 1
        return seconds, calls

    def write(self, path) -> None:
        """Write the spans, gzipped: one JSON header line naming the fields and
        the span names, then the int64 array, four values per span."""
        header = {"fields": ["name", "parent", "start_ns", "end_ns"], "names": self.names}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(self.spans.tobytes())
