"""Per-layer tracing from outside the package.

Each traced public function of quintic is replaced, in every quintic module
that holds a reference to it, by a wrapper that records a span: id, parent
span, name, start, end and the unit of work (report process, sweep pass or
query) it belongs to.  A span's self time is its duration minus the time
its child spans cover.  Spans are kept in memory and written out at the end
of the child process.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# (module, public function) -> span name.  Several functions may share a span.
SPAN_TARGETS = {
    ("quintic.lattice", "enumerate_roots"): "lattice.box_scan",
    ("quintic.lattice", "minus_one_classes"): "lattice.box_scan",
    ("quintic.lattice", "weyl_group_elements"): "lattice.weyl_closure",
    ("quintic.lattice", "weyl_orbit"): "lattice.weyl_closure",
    ("quintic.lattice", "is_weyl_stable"): "lattice.weyl_closure",
    ("quintic.surfaces", "catalog"): "surfaces.catalog",
    ("quintic.surfaces", "z_scheme"): "surfaces.catalog",
    ("quintic.surfaces", "a3_chains"): "surfaces.catalog",
    ("quintic.euler", "verify_chi_identities"): "euler.chi_identity",
    ("quintic.euler", "normal_bundle_cherns"): "euler.chern",
    ("quintic.mutations", "replay"): "mutations.replay",
    ("quintic.cohomology", "sweep_box"): "cohomology.sweep",
    ("quintic.cohomology", "h_all"): "cohomology.h_all",
    ("quintic.grassmannian", "bott"): "grassmannian.bott",
    ("quintic.grassmannian", "rhom"): "grassmannian.rhom",
    ("quintic.grassmannian", "tensor_decompose"): "grassmannian.tensor",
    ("quintic.grassmannian", "verify_lefschetz"): "grassmannian.lefschetz",
    ("quintic.grassmannian", "verify_appendix_identities"): "grassmannian.appendix",
}

# Counted, not spanned: every atomic mutation is a replay step.
COUNT_TARGETS = {
    ("quintic.mutations", "right_mutate"): "mutations.replay_steps",
    ("quintic.mutations", "left_mutate"): "mutations.replay_steps",
}

# lru-cached functions whose hit ratio is reported.
CACHES = {
    "negative_curves": ("quintic.cohomology", "negative_curves"),
    "bott": ("quintic.grassmannian", "bott"),
    "lr": ("quintic.grassmannian", "lr_coefficients"),
}

# Span records beyond this many are counted in the totals but not kept.
MAX_KEPT_SPANS = 200_000


def _rebind(original, replacement) -> None:
    """Point every quintic module-level name bound to original at replacement."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "quintic" or name.startswith("quintic.")):
            continue
        namespace = vars(module)
        for attr in [a for a, v in namespace.items() if v is original]:
            namespace[attr] = replacement


class Tracer:
    def __init__(self) -> None:
        self.enabled = True
        self.unit = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.failed: Counter = Counter()
        self.sweep: dict[str, list] = {}
        self._stack: list[list] = []
        self._next_id = 0
        self._cache_fns: dict = {}
        self._cache_start: dict = {}

    def span(self, name: str, fn, after=None):
        """Wrap fn so each call records a span; after(args, kwargs, result, seconds)."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed[name] += 1
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
                if len(self.spans) < MAX_KEPT_SPANS:
                    self.spans.append((span_id, parent, name, start, end, self.unit))
                else:
                    self.dropped += 1
            if after is not None:
                after(args, kwargs, result, duration)
            return result

        return traced

    @contextmanager
    def paused(self):
        """Calls made inside are neither spanned nor counted."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def count(self, name: str, fn):
        @wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _record_sweep(self, args, kwargs, info, seconds) -> None:
        key = f"b{info['bound']}.{info['type']}"
        classes, total = self.sweep.get(key, (0, 0.0))
        self.sweep[key] = [classes + info["classes"], total + seconds]

    def install(self) -> None:
        """Instrument the already imported quintic modules."""
        import importlib

        for key, (module_name, attr) in CACHES.items():
            fn = getattr(importlib.import_module(module_name), attr)
            self._cache_fns[key] = fn
            self._cache_start[key] = fn.cache_info()
        for (module_name, attr), name in SPAN_TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr)
            after = self._record_sweep if name == "cohomology.sweep" else None
            _rebind(original, self.span(name, original, after))
        for (module_name, attr), name in COUNT_TARGETS.items():
            original = getattr(importlib.import_module(module_name), attr)
            _rebind(original, self.count(name, original))
        suites = importlib.import_module("quintic.suites")
        for suite, runner in list(suites._SUITES.items()):
            suites._SUITES[suite] = self.span(f"suites.{suite}", runner)

    def summary(self) -> dict:
        caches = {}
        for key, fn in self._cache_fns.items():
            now, start = fn.cache_info(), self._cache_start[key]
            caches[key] = [now.hits - start.hits, now.misses - start.misses]
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "failed": dict(self.failed),
            "sweep": self.sweep,
            "caches": caches,
            "spans_kept": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def write_spans(self, path) -> None:
        fields = ["id", "parent", "name", "start", "end", "unit"]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans, "dropped": self.dropped}, fh)
