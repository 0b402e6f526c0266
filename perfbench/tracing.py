"""Span tracer for the traced run, attached from outside the package.

Every span is recorded by a wrapper around a public graphbell function or
method.  The wrappers are installed by rebinding the names that the calling
modules imported (``coloring_engine.canonical_key``, ``Graph.merge``,
``BigSeqCache.bell``, ...) and are removed again by ``Hooks.uninstall``;
nothing under ``src/`` is edited.  A hook whose target no longer exists is
listed in ``Hooks.missing`` and the traced run fails, so a refactor of the
package cannot silently zero a per-layer number.

Spans are kept in memory (aggregated per name, plus a capped sample of raw
spans) and written out by the caller when the run ends.  Self time is a
span's duration minus the time its child spans cover; the run is single
threaded, so children are properly nested.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN_SAMPLE_CAP = 20_000

# Span names, one per layer boundary.
CANONICAL = "graph_core.canonical_key"
REWRITE = "graph_core.rewrite"
PROFILE = "coloring_engine.profile"
BELL = "sequences.bell"
STIRLING = "sequences.stirling2"
CLOSED_FORMS = "closed_forms"
SCAN = "inequality_verifier.scan"
CLI_MAIN = "cli.main"

# Counter names (not spans).
GROWTH_S = "sequences.growth_s"
LABELED_LOOKUPS = "memo.labeled_lookups"
LABELED_HITS = "memo.labeled_hits"
CANONICAL_LOOKUPS = "memo.canonical_lookups"
CANONICAL_HITS = "memo.canonical_hits"
MEMO_ENTRIES_MAX = "memo.entries_max"
PROFILE_IN_SCAN_S = "profile_in_scan_s"
SCAN_POINTS = "scan_points"


class Tracer:
    """Aggregates nested spans by name and keeps a capped raw sample."""

    def __init__(self):
        self._stack: list[list] = []  # open spans: [child_time, span_id]
        self._next_id = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.open: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.root_s = 0.0  # summed duration of spans without a parent
        self.missing: set[str] = set()  # hook targets that were not found
        self.spans: list[tuple] = []  # (id, parent, name, start, end, request)
        self.request = None

    def wrap(self, name: str, fn, within: tuple[tuple[str, str], ...] = (), leaf=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``within`` pairs (outer span, counter): the span's duration is also
        added to the counter whenever an ``outer`` span is open around it.
        A ``leaf`` span opens no spans of its own, so it skips the span stack;
        this keeps the cost of tracing tiny functions called millions of times
        (``BigSeqCache.bell``) down.
        """
        stack = self._stack
        calls, self_s, open_, counters = self.calls, self.self_s, self.open, self.counters
        spans = self.spans
        clock = time.perf_counter
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def traced_leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    d = t1 - t0
                    calls[name] += 1
                    self_s[name] += d
                    if stack:
                        stack[-1][0] += d
                        parent = stack[-1][1]
                    else:
                        tracer.root_s += d
                        parent = 0
                    if len(spans) < SPAN_SAMPLE_CAP:
                        tracer._next_id += 1
                        spans.append((tracer._next_id, parent, name, t0, t1, tracer.request))

            return traced_leaf

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._next_id += 1
            frame = [0.0, tracer._next_id]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            open_[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                open_[name] -= 1
                calls[name] += 1
                self_s[name] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                else:
                    tracer.root_s += d
                for outer, counter in within:
                    if open_[outer]:
                        counters[counter] += d
                if len(spans) < SPAN_SAMPLE_CAP:
                    spans.append((frame[1], parent, name, t0, t1, tracer.request))

        return traced

    def merge(self, agg: dict) -> None:
        """Add the aggregates another process wrote with :meth:`aggregates`."""
        for name, n in agg["calls"].items():
            self.calls[name] += n
        for name, s in agg["self_s"].items():
            self.self_s[name] += s
        for name, v in agg["counters"].items():
            if name == MEMO_ENTRIES_MAX:
                self.counters[name] = max(self.counters[name], v)
            else:
                self.counters[name] += v
        self.root_s += agg["root_s"]
        self.missing.update(agg["missing"])
        room = SPAN_SAMPLE_CAP - len(self.spans)
        for span in agg["spans"][: max(room, 0)]:
            self.spans.append(tuple(span[:5]) + (self.request,))

    def aggregates(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "root_s": self.root_s,
            "missing": sorted(self.missing),
            "spans": self.spans,
        }


def counting_cache_class(base: type, tracer: Tracer) -> type:
    """Subclass of ``ProfileCache`` that counts lookups and hits and tracks its size."""
    counters = tracer.counters

    def lookup(method, lookups, hits):
        orig = getattr(base, method)

        def counted(self, *args, **kwargs):
            found = orig(self, *args, **kwargs)
            counters[lookups] += 1
            if found is not None:
                counters[hits] += 1
            return found

        return counted

    def store(method):
        orig = getattr(base, method)

        def counted(self, *args, **kwargs):
            orig(self, *args, **kwargs)
            counters[MEMO_ENTRIES_MAX] = max(counters[MEMO_ENTRIES_MAX], len(self))

        return counted

    return type("CountingProfileCache", (base,), {
        "get_labeled": lookup("get_labeled", LABELED_LOOKUPS, LABELED_HITS),
        "get_canonical": lookup("get_canonical", CANONICAL_LOOKUPS, CANONICAL_HITS),
        "put": store("put"),
        "put_labeled": store("put_labeled"),
    })


class Hooks:
    """Installs a tracer's wrappers into the imported graphbell modules."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = tracer.missing
        self._saved: list[tuple[object, str, object, object]] = []

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr], value))
        setattr(owner, attr, value)

    def _package_modules(self):
        return [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "graphbell" or name.startswith("graphbell."))
        ]

    def _function(self, module: str, attr: str, span: str, within=(), count_len=None):
        """Wrap ``module.attr`` in every graphbell module that imported it.

        With ``count_len``, the length of each result is added to that counter.
        """
        fn = vars(sys.modules[module]).get(attr)
        if fn is None:
            self.missing.add(f"{module}.{attr}")
            return
        target = fn
        if count_len is not None:
            counters = self.tracer.counters

            @functools.wraps(fn)
            def target(*args, **kwargs):
                result = fn(*args, **kwargs)
                counters[count_len] += len(result)
                return result

        wrapped = self.tracer.wrap(span, target, within)
        for m in self._package_modules():
            for name, value in list(vars(m).items()):
                if value is fn:
                    self._set(m, name, wrapped)

    def _method(self, cls, attr: str, span: str, leaf=False):
        if attr not in vars(cls):
            self.missing.add(f"{cls.__name__}.{attr}")
            return
        self._set(cls, attr, self.tracer.wrap(span, vars(cls)[attr], leaf=leaf))

    def _growth(self, cls):
        """Time ``BigSeqCache.ensure`` calls that extend the table."""
        if "ensure" not in vars(cls):
            self.missing.add(f"{cls.__name__}.ensure")
            return
        orig = vars(cls)["ensure"]
        counters = self.tracer.counters
        clock = time.perf_counter

        @functools.wraps(orig)
        def ensure(cache, n, *args, **kwargs):
            if n < len(cache._bell):
                return orig(cache, n, *args, **kwargs)
            t0 = clock()
            try:
                return orig(cache, n, *args, **kwargs)
            finally:
                counters[GROWTH_S] += clock() - t0

        self._set(cls, "ensure", ensure)

    def install(self, cli: bool = False) -> "Hooks":
        """Install every hook; with ``cli``, also ``graphbell.cli.main``."""
        import graphbell.closed_forms as cf
        from graphbell import coloring_engine, graph_core, sequences

        self._function("graphbell.graph_core", "canonical_key", CANONICAL)
        for attr in ("remove_vertex", "merge", "add_edge", "delete_edge"):
            self._method(graph_core.Graph, attr, REWRITE)
        self._function(
            "graphbell.coloring_engine", "profile", PROFILE,
            within=((SCAN, PROFILE_IN_SCAN_S),),
        )
        self._method(sequences.BigSeqCache, "bell", BELL, leaf=True)
        self._method(sequences.BigSeqCache, "stirling2", STIRLING, leaf=True)
        self._growth(sequences.BigSeqCache)
        closed = [
            attr for attr, fn in sorted(vars(cf).items())
            if callable(fn) and getattr(fn, "__module__", None) == cf.__name__
            and (attr.endswith("_aggregates") or attr in ("aggregates_for", "lemma15_identity_check"))
        ]
        if not closed:
            self.missing.add(f"{cf.__name__}.*_aggregates")
        for attr in closed:
            self._function(cf.__name__, attr, CLOSED_FORMS)
        self._function("graphbell.inequality_verifier", "scan", SCAN, count_len=SCAN_POINTS)
        if cli:
            self._function("graphbell.cli", "main", CLI_MAIN)
        self.cache_class = counting_cache_class(coloring_engine.ProfileCache, self.tracer)
        return self

    def count_shared_memo(self) -> None:
        """Route the package's own memo objects through the counting cache.

        Used in CLI children, where the package, not the harness, creates
        the caches: every imported ``ProfileCache`` name is rebound and the
        module-global cache object is switched to the counting class.
        """
        from graphbell import coloring_engine

        base = coloring_engine.ProfileCache
        for m in self._package_modules():
            for name, value in list(vars(m).items()):
                if value is base:
                    self._set(m, name, self.cache_class)
        coloring_engine.SHARED_PROFILE_CACHE.__class__ = self.cache_class

    def uninstall(self) -> None:
        """Restore every name this object rebound and nobody rebound since."""
        while self._saved:
            owner, attr, original, installed = self._saved.pop()
            if owner.__dict__.get(attr) is installed:
                setattr(owner, attr, original)
