"""Tracing for the benchmark's traced crawl.

Everything here lives in the benchmark: for the duration of one crawl,
``traced()`` replaces module globals of ``doonop_ray.pipelines.crawler``
with wrappers, and restores them afterwards.

- Chunk stages: the callables built by ``make_fetch_fn``,
  ``make_validate_fn``, ``make_persist_fn`` and ``make_link_router`` are
  wrapped in timers. A chunk's four spans travel together in one
  fire-and-forget message to a ``num_cpus=0`` collector actor when the
  chunk's last stage ends.
- State actors: subclasses of ``SeenRouterShard`` and ``FrontierShard``
  count their work and busy time; the driver reads them after the run.
- Driver: bulk/list seeding and checkpoint writes are timed on the
  crawler instance.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

import ray

from doonop_ray.pipelines import crawler as crawler_mod

STAGES = ("fetch", "validate", "persist", "route")


@ray.remote(num_cpus=0)
class SpanCollector:
    def __init__(self):
        self.chunks: list = []

    def add_chunk(self, pid: int, spans: list) -> None:
        self.chunks.append((pid, spans))

    def count(self) -> int:
        return len(self.chunks)

    def spans(self) -> list:
        return self.chunks


class _ChunkSpans:
    """Shared by the four stage wrappers of one crawl. They are pickled
    together in one object, so each worker holds one instance; it
    buffers the running chunk's spans until the chunk's last stage."""

    def __init__(self, collector):
        self.collector = collector
        self.open: list = []


def _timed_stage(rec: _ChunkSpans, stage: str, fn, batch):
    if stage == STAGES[0]:
        rec.open = []
    t0 = time.time()
    out = fn(batch)
    rec.open.append((stage, t0, time.time(), batch.num_rows))
    if stage == STAGES[-1]:
        rec.collector.add_chunk.remote(os.getpid(), rec.open)
        rec.open = []
    return out


class TracedSeenRouterShard(crawler_mod.SeenRouterShard):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.trace = {"busy_s": 0.0, "urls_in": 0, "new": 0}
        self._in_ingest = False

    def ingest(self, urls, depths):
        t0 = time.perf_counter()
        self._in_ingest = True
        try:
            return super().ingest(urls, depths)
        finally:
            self._in_ingest = False
            self.trace["busy_s"] += time.perf_counter() - t0

    def check_and_add(self, urls):
        t0 = time.perf_counter()
        mask = super().check_and_add(urls)
        self.trace["urls_in"] += len(urls)
        self.trace["new"] += sum(mask)
        if not self._in_ingest:  # seeding calls this directly
            self.trace["busy_s"] += time.perf_counter() - t0
        return mask

    def trace_stats(self) -> dict:
        return dict(self.trace)


class TracedFrontierShard(crawler_mod.FrontierShard):
    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.trace = {"busy_s": 0.0, "push_items": 0, "drain_calls": 0,
                      "drain_empty": 0, "depth_max": 0}

    def _note_depth(self) -> None:
        depth = len(self.core.heap) + len(self.core.retry_heap)
        self.trace["depth_max"] = max(self.trace["depth_max"], depth)

    def push(self, items):
        t0 = time.perf_counter()
        n = super().push(items)
        self.trace["push_items"] += len(items)
        self._note_depth()
        self.trace["busy_s"] += time.perf_counter() - t0
        return n

    def keep_retry_batch(self, items, now_ms):
        t0 = time.perf_counter()
        kept = super().keep_retry_batch(items, now_ms)
        self._note_depth()
        self.trace["busy_s"] += time.perf_counter() - t0
        return kept

    def drain(self, budget, now_ms, per_host_cap):
        t0 = time.perf_counter()
        out = super().drain(budget, now_ms, per_host_cap)
        self.trace["drain_calls"] += 1
        self.trace["drain_empty"] += not out
        self.trace["busy_s"] += time.perf_counter() - t0
        return out

    def trace_stats(self) -> dict:
        return dict(self.trace)


def _stage_factory(rec: _ChunkSpans, stage: str, make):
    @functools.wraps(make)
    def traced_make(*a, **kw):
        return functools.partial(_timed_stage, rec, stage, make(*a, **kw))

    return traced_make


def _timed_method(obj, name: str, acc: dict) -> None:
    inner = getattr(obj, name)

    @functools.wraps(inner)
    def timed(*a, **kw):
        t0 = time.perf_counter()
        try:
            return inner(*a, **kw)
        finally:
            acc["busy_s"] += time.perf_counter() - t0
            acc["count"] += 1

    setattr(obj, name, timed)


def time_driver_layers(crawler) -> dict[str, dict]:
    """Time seeding and checkpoint writes on one crawler instance."""
    acc = {k: {"busy_s": 0.0, "count": 0} for k in ("seed", "ckpt")}
    _timed_method(crawler, "_seed_frontier", acc["seed"])
    _timed_method(crawler, "_seed_frontier_dataset", acc["seed"])
    _timed_method(crawler, "_stream_checkpoint", acc["ckpt"])
    return acc


@contextlib.contextmanager
def traced(collector):
    """Install the stage wrappers and traced state actors for crawls
    started inside the block."""
    rec = _ChunkSpans(collector)
    saved = {n: getattr(crawler_mod, n) for n in (
        "make_fetch_fn", "make_validate_fn", "make_persist_fn",
        "make_link_router", "SeenRouterShard", "FrontierShard")}
    for stage, name in zip(STAGES, ("make_fetch_fn", "make_validate_fn",
                                    "make_persist_fn", "make_link_router")):
        setattr(crawler_mod, name, _stage_factory(rec, stage, saved[name]))
    crawler_mod.SeenRouterShard = TracedSeenRouterShard
    crawler_mod.FrontierShard = TracedFrontierShard
    try:
        yield
    finally:
        for name, v in saved.items():
            setattr(crawler_mod, name, v)


def wait_for_chunks(collector, expected: int, timeout: float = 10.0) -> list:
    """Collected chunk spans once ``expected`` have arrived (or the
    timeout passed: the caller's self-check then reports the shortfall)."""
    deadline = time.monotonic() + timeout
    while (ray.get(collector.count.remote()) < expected
           and time.monotonic() < deadline):
        time.sleep(0.05)
    return ray.get(collector.spans.remote())
