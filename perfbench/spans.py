"""Outside-in span recorder for the traced benchmark run.

The recorder wraps each layer's entry points *as the driver looks them up*
(module attributes and class methods) and restores the originals when the
traced run ends; nothing under ``src/`` knows it exists.  Spans stay in
memory and are written as Chrome trace-event JSON at the end.

A span's parent is carried in a :class:`contextvars.ContextVar`, not a
thread-local stack: the driver hops onto node-worker threads and onto the
per-task Cyclades ``ThreadPoolExecutor`` (used even at ``n_threads=1``), and
a thread-local stack would orphan every span on those threads, billing
their time to the region executor's self time.  Two shims carry the context
across those hops: a ``Thread`` subclass installed as the driver module's
``threading.Thread``, and a ``ThreadPoolExecutor`` subclass installed as the
executor module's ``ThreadPoolExecutor``.

Spawned process node-workers import none of this, so on the process
executor the trace holds parent-side spans only.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

#: (module path, attribute path, span name).  The span name's first dotted
#: part is the layer.
ENTRY_POINTS = (
    ("repro.driver.pipeline", "run_photo", "photo.run"),
    ("repro.driver.pipeline", "generate_tasks", "partition.generate"),
    ("repro.driver.pipeline", "optimize_region_parallel", "parallel.region"),
    ("repro.driver.pipeline", "merge_catalogs", "driver.merge"),
    ("repro.driver.pipeline", "dedup_catalog", "driver.merge"),
    ("repro.driver.pipeline", "save_checkpoint", "driver.checkpoint"),
    ("repro.driver.pipeline", "append_task_record", "driver.journal"),
    ("repro.sched.dtree", "Dtree.request", "sched.request"),
    ("repro.driver.shards", "ShardedCatalog.get_entries", "pgas.get"),
    ("repro.driver.shards", "ShardedCatalog.put_entries", "pgas.put"),
    ("repro.core.joint", "RegionOptimizer.__init__", "core.region_setup"),
    ("repro.parallel.executor", "build_conflict_graph", "parallel.conflict"),
    ("repro.parallel.executor", "cyclades_batches", "parallel.cyclades"),
    ("repro.core.joint", "make_context", "core.context"),
    ("repro.core.joint", "expected_contribution", "core.render"),
    ("repro.core.single", "elbo", "core.elbo"),
    ("repro.core.single", "elbo_batch", "core.elbo"),
    ("repro.optim.newton", "solve_trust_region", "optim.tr"),
    ("repro.optim.lockstep", "solve_trust_region", "optim.tr"),
)

#: Span names whose return values the recorder keeps, for counts the
#: program does not report itself (converged sources, Cyclades rounds).
KEEP_RESULTS = ("parallel.region", "parallel.cyclades")


class SpanRecorder:
    """In-memory spans ``(id, parent, name, thread, t0, t1)``."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: ``(name, result)`` of calls whose results a caller asked to keep.
        self.results: list[tuple] = []
        self._ids = itertools.count(1)
        self._current = contextvars.ContextVar("perfbench_span", default=0)
        self._patches: list[tuple] = []

    def span(self, name: str, fn, keep_result: bool = False):
        """``fn`` wrapped so each call records one span named ``name``."""
        current, spans, ids = self._current, self.spans, self._ids

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                current.reset(token)
                spans.append((sid, parent, name,
                              threading.get_ident(), t0, t1))
            if keep_result:
                self.results.append((name, out))
            return out

        return wrapper

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a root span named ``name``."""
        return self.span(name, fn)(*args, **kwargs)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point and the two thread-hop shims."""
        import importlib

        for module_name, path, name in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._patch(owner, attr, self.span(
                name, owner.__dict__[attr],
                keep_result=name in KEEP_RESULTS))
        pipeline = importlib.import_module("repro.driver.pipeline")
        executor = importlib.import_module("repro.parallel.executor")
        self._patch(pipeline, "threading", _ThreadingWithContext())
        self._patch(executor, "ThreadPoolExecutor", _ContextPool)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict:
        """Per span name: ``(calls, total seconds, self seconds)``.

        Self time is a span's duration minus the part of its interval that
        its children (on any thread) cover.
        """
        children: dict[int, list] = {}
        for s in self.spans:
            children.setdefault(s[1], []).append(s)
        out: dict[str, list] = {}
        for sid, _, name, _, t0, t1 in self.spans:
            covered = _union_length(
                (max(c[4], t0), min(c[5], t1)) for c in children.get(sid, ()))
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += (t1 - t0) - covered
        return {k: tuple(v) for k, v in out.items()}

    def chrome_events(self, pid: int = 1) -> list[dict]:
        """The spans as Chrome trace-event "complete" events (µs)."""
        if not self.spans:
            return []
        origin = min(s[4] for s in self.spans)
        return [
            {"name": name, "cat": name.split(".")[0], "ph": "X",
             "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
             "pid": pid, "tid": tid, "args": {"id": sid, "parent": parent}}
            for sid, parent, name, tid, t0, t1 in sorted(
                self.spans, key=lambda s: s[4])
        ]


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


class _ContextThread(threading.Thread):
    """A thread that runs in a copy of its creator's context."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._perfbench_context = contextvars.copy_context()

    def run(self):
        self._perfbench_context.run(super().run)


class _ThreadingWithContext:
    """The ``threading`` module, with :class:`_ContextThread` as ``Thread``."""

    Thread = _ContextThread

    def __getattr__(self, name):
        return getattr(threading, name)


class _ContextPool(ThreadPoolExecutor):
    """A pool whose tasks run in a copy of the submitter's context."""

    def submit(self, fn, /, *args, **kwargs):
        return super().submit(contextvars.copy_context().run, fn,
                              *args, **kwargs)
