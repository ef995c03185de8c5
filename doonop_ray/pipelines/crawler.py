"""The crawl driver — the reference's dispatch/completion loop
(/root/reference/src/workload.rs:79-200) re-expressed over Ray.

Three execution modes share the same operator implementations
(Fetcher/Validator batch callables, link router, frontier/seen shards):

- ``run_conformance()`` — single in-flight lane, virtual clock: byte-
  exact reproduction of the reference's deterministic j=1 crawl order
  (pinned by /root/reference/src/lib.rs:117-134). Uses the SAME
  Fetcher/Validator batch callables, applied inline on 1-row batches.
- ``run()`` — scaled mode: frontier + seen state sharded across actors,
  each wave drained with per-host politeness, fetched/validated by an
  actor-pool `map_batches` pipeline, links routed back to the seen /
  frontier shards from inside the tasks (no driver bottleneck), wave
  artifacts written to partitioned parquet (resumable layout: one
  directory per wave). Guarantees set-equality of visited/collected/
  seen with the reference (whose own N>1 interleave is nondeterministic,
  lib.rs:136-155) plus identical stats counters.
- ``run_streaming()`` — the round-2 default for unbounded runs
  (``cfg.streaming``): one long-lived chunk-task loop instead of
  repeated per-wave Dataset pipelines; same set/stats guarantees, no
  per-wave executor startup, retries picked up by the next drain poll.

Checkpointing (north_rule): after each wave the frontier shards, seen
shards and per-wave metrics snapshot to ``checkpoint_dir``; ``resume()``
restores the newest complete wave and continues — a killed job repeats
at most one wave's fetches (artifacts are re-written per wave dir, so
the output stays exact).
"""

from __future__ import annotations

import json
import os
import pickle
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
from ..state.seen import HASH_IMPL, SeenCore, host_shard_of, shards_of_batch

def _stub_fsspec_http_once():
    """aiohttp is absent here, so ``fsspec.implementations.http`` can
    never import. Ray Data's path resolution re-attempts that import on
    every read/write (failed imports aren't cached), and two concurrent
    wave threads racing the import surface as flaky ``ImportError:
    cannot import name 'HTTPFileSystem'``. Register a minimal stub once,
    single-threaded, so the import succeeds and is cached; no HTTP
    filesystem is ever used in this sandbox."""
    import sys
    import types

    try:
        from fsspec.implementations.http import HTTPFileSystem  # noqa: F401

        return
    except ImportError:
        pass

    mod = types.ModuleType("fsspec.implementations.http")

    class HTTPFileSystem:  # placeholder type; never instantiated
        pass

    mod.HTTPFileSystem = HTTPFileSystem
    sys.modules["fsspec.implementations.http"] = mod


def _wave_table(entries: list[tuple[str, int, int]]) -> pa.Table:
    return pa.table(
        {
            "url": pa.array([e[0] for e in entries], pa.string()),
            "attempt": pa.array([e[1] for e in entries], pa.int32()),
            "depth": pa.array([e[2] for e in entries], pa.int32()),
        }
    )


def _newest_checkpoint(cfg: CrawlConfig, prefix: str):
    """(dir, manifest) of the newest complete ``<prefix>NNNNN``
    checkpoint under ``cfg.checkpoint_dir``, or None. Refuses one this
    crawl cannot route identically: a different shard-routing hash (or a
    manifest that predates recording it) or different shard counts would
    send URLs to the wrong seen/frontier shard, or drop shard files."""
    root = cfg.checkpoint_dir
    ckpts = sorted(
        d for d in os.listdir(root)
        if d.startswith(prefix)
        and os.path.exists(os.path.join(root, d, "manifest.json"))
    ) if os.path.isdir(root) else []
    if not ckpts:
        return None
    ckpt = os.path.join(root, ckpts[-1])
    with open(os.path.join(ckpt, "manifest.json")) as fh:
        manifest = json.load(fh)
    expected = {"hash_impl": HASH_IMPL,
                "num_seen_shards": cfg.num_seen_shards,
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


class SeenRouterShard(SeenCore):
    """Seen-set shard that also forwards first-discovery URLs to the
    frontier shards itself (actor→actor), so data-plane tasks never
    block on membership answers. ``n_ingested`` + ``flush`` implement
    the settlement protocol the driver uses at termination."""

    def __init__(self, mode, capacity, seed, frontier_handles, num_frontier):
        super().__init__(mode, capacity, seed)
        self.frontier_handles = frontier_handles
        self.num_frontier = num_frontier
        self.n_ingested = 0
        self._push_futs: list = []

    def ingest(self, urls: list[str], depths: list[int]) -> None:
        """urls/depths are parallel arrays (one batched message per seen
        shard per chunk — the router pre-partitions, so no per-link
        tuples cross the wire)."""
        import ray

        self.n_ingested += len(urls)
        mask = self.check_and_add(urls)
        per: dict[int, list[tuple[str, int]]] = {}
        for u, d, new in zip(urls, depths, mask):
            if new:
                per.setdefault(host_shard_of(u, self.num_frontier), []).append((u, d))
        for f, it in per.items():
            self._push_futs.append(self.frontier_handles[f].push.remote(it))
        if len(self._push_futs) >= 64:  # bound the outstanding-push queue
            ray.get(self._push_futs)
            self._push_futs = []

    def flush(self) -> int:
        """Await outstanding frontier pushes; returns total ingested
        (ingest forwards immediately, so settlement == futures landed)."""
        import ray

        if self._push_futs:
            ray.get(self._push_futs)
            self._push_futs = []
        return self.n_ingested


def make_link_router(seen_handles, frontier_handles, retry_policy: str,
                     num_seen: int, num_frontier: int,
                     now_ms: float | None,
                     counters_only: bool = False):
    """Stateless map_batches fn: candidate links hash-partition to the
    seen/router shards and timeouts to the frontier retry lanes — all
    FIRE-AND-FORGET from inside the task (a blocking ray.get in a task
    pins its CPU slot and makes Ray spawn extra workers, silently
    oversubscribing the node). Emits per-row ``n_links`` so the driver
    can settle counters against the shards at termination.

    Streaming mode (``now_ms=None``): retry timestamps use the batch's
    wall clock, and ``counters_only=True`` shrinks the output to a 1-row
    counter table so the chunk task returns counters, not artifacts."""

    def route(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        batch_now = now_ms if now_ms is not None else time.monotonic() * 1000.0
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

        # ---- candidate links → seen/router shards (first discovery wins;
        # vectorized: flatten the Arrow list column once, hash it batch-
        # wise straight off the offsets+data buffers (round-5: no
        # to_pylist + per-URL crc32 in the hash step), stable-argsort
        # into shard runs, ONE batched ingest message per shard — the
        # only remaining Python-object work is materializing each
        # shard's payload strings for the actor message)
        if n_links.sum():
            ok_tb = batch.filter(ok_mask)
            flat = pc.list_flatten(ok_tb.column("links")).combine_chunks()
            ok_lens = lens[okb]
            depths_rep = np.repeat(
                ok_tb.column("depth").to_numpy(zero_copy_only=False).astype(np.int64)
                + 1,
                ok_lens,
            )
            shard = shards_of_batch(flat, num_seen)
            order = np.argsort(shard, kind="stable")  # stable ⇒ within-shard
            ss = shard[order]                         # page order preserved
            bounds = np.searchsorted(ss, np.arange(num_seen + 1))
            take_idx = pa.array(order)
            depths_sorted = depths_rep[order]
            for s in range(num_seen):
                a, b = int(bounds[s]), int(bounds[s + 1])
                if b > a:
                    seen_handles[s].ingest.remote(
                        flat.take(take_idx.slice(a, b - a)).to_pylist(),
                        depths_sorted[a:b].tolist(),
                    )

        # ---- timeouts → retry lanes (retry.rs:24-36 accounting); the
        # attempt number rides along so redelivered batches (Ray task
        # retry) are recognized as stale and ignored — exactly-once
        # retry accounting without coordination. Timeouts are rare, so
        # the per-row host_shard_of loop runs on the FILTERED rows only.
        to_mask = pc.equal(st, "timeout")
        n_to = int(pc.sum(to_mask).as_py() or 0)
        if retry_policy != "no" and n_to:
            tt = batch.filter(to_mask)
            per_retry: dict[int, list[tuple[str, int, int]]] = {}
            for u, d, at in zip(
                tt.column("url").to_pylist(),
                tt.column("depth").to_numpy(zero_copy_only=False),
                tt.column("attempt").to_numpy(zero_copy_only=False),
            ):
                per_retry.setdefault(host_shard_of(u, num_frontier), []).append(
                    (u, int(d), int(at))
                )
            for f, items in per_retry.items():
                frontier_handles[f].keep_retry_batch.remote(items, batch_now)

        n_ok = int(np.count_nonzero(okb))
        n_err = int(pc.sum(pc.equal(st, "error")).as_py() or 0)
        total_links = int(n_links.sum())
        if counters_only:
            return pa.table({
                "visited": pa.array([len(batch)], pa.int64()),
                "ok": pa.array([n_ok], pa.int64()),
                "timeout": pa.array([n_to], pa.int64()),
                "error": pa.array([n_err], pa.int64()),
                "links": pa.array([total_links], pa.int64()),
            })
        return batch.drop_columns(["links"]).append_column(
            "n_links", pa.array(n_links, pa.int32())
        )

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

            # same on-disk schema as wave mode: links dropped, n_links kept
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


def _run_stream_chunk(entries, fns_ref_box):
    """One streaming chunk: fetch→validate→persist→route a drained batch
    as a plain Ray task. The stage closures ship once via ray.put and are
    cached per worker process (the box keeps the ObjectRef from being
    auto-dereferenced per task); the broadcast page/image state inside
    them uses the existing per-worker caches, so a worker pays index
    build exactly once for the whole crawl."""
    import ray

    ref = fns_ref_box[0]
    key = getattr(ref, "hex", lambda: id(ref))()
    fns = _CHUNK_FNS_CACHE.get(key)
    if fns is None:
        _CHUNK_FNS_CACHE.clear()
        fns = ray.get(ref)
        _CHUNK_FNS_CACHE[key] = fns
    fetch_fn, validate_fn, persist_fn, route_fn, meta_cols = fns
    t0 = time.monotonic()
    batch = _wave_table(entries)
    t1 = time.monotonic()
    batch = fetch_fn(batch)
    t2 = time.monotonic()
    batch = validate_fn(batch)
    t3 = time.monotonic()
    persist_fn(batch)
    t4 = time.monotonic()
    c = route_fn(batch)
    t5 = time.monotonic()
    out = {
        "visited": int(c.column("visited")[0].as_py()),
        "ok": int(c.column("ok")[0].as_py()),
        "timeout": int(c.column("timeout")[0].as_py()),
        "error": int(c.column("error")[0].as_py()),
        "links": int(c.column("links")[0].as_py()),
    }
    if meta_cols:
        out["meta"] = batch.select(meta_cols)
    if os.environ.get("DOONOP_WAVE_TIMING"):
        out["timing"] = (round(t1 - t0, 3), round(t2 - t1, 3),
                         round(t3 - t2, 3), round(t4 - t3, 3),
                         round(t5 - t4, 3))
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
        self.wave = 0
        self._stop_requested = False
        # bulk-seed source as a Ray Dataset (reference EP3 at 10^10 scale):
        # seeding then runs distributed — no driver-side url list
        self._seeds_ds = seeds_ds

    # ------------------------------------------------------------------
    def _spawn_state(self, ray):
        cfg = self.cfg
        seen_cls = ray.remote(SeenRouterShard)
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
            )
            for i in range(cfg.num_frontier_shards)
        ]
        # budgeted cuckoo capacity (round-3 VERDICT #6): a hardcoded
        # 1<<18 overflows into the exact stash at 10^10-URL scale —
        # exactly the memory-budget failure the filter exists to avoid
        cap = cfg.seen_capacity_per_shard
        if cap is None:
            if cfg.expected_total_urls is not None:
                cap = max(
                    1 << 12,
                    int(cfg.expected_total_urls * 1.3)
                    // max(1, cfg.num_seen_shards),
                )
            else:
                cap = 1 << 18
        self.seen = [
            seen_cls.remote(
                "exact" if cfg.seen_mode != "cuckoo" else "cuckoo",
                cap,
                i,
                self.frontier,
                cfg.num_frontier_shards,
            )
            for i in range(cfg.num_seen_shards)
        ]

    def _seed_frontier(self, ray, seeds: list[str]):
        cfg = self.cfg
        per_seen = [[] for _ in range(cfg.num_seen_shards)]
        for u, s in zip(seeds, shards_of_batch(seeds, cfg.num_seen_shards)):
            per_seen[s].append(u)
        masks = ray.get(
            [self.seen[s].check_and_add.remote(us) for s, us in enumerate(per_seen)]
        )
        fresh = []
        for us, mask in zip(per_seen, masks):
            fresh.extend(u for u, new in zip(us, mask) if new)
        # preserve sorted seed order for LIFO parity: push in sorted order
        fresh.sort()
        per_frontier = [[] for _ in range(cfg.num_frontier_shards)]
        for u in fresh:
            per_frontier[host_shard_of(u, cfg.num_frontier_shards)].append((u, 0))
        ray.get(
            [self.frontier[f].push.remote(it) for f, it in enumerate(per_frontier) if it]
        )

    def _seed_frontier_dataset(self, ray, ds) -> int:
        """Distributed bulk seeding: each batch task dedups its urls
        against the seen shards and pushes the fresh ones to the
        host-hashed frontier shards — the driver never holds the url
        list (round-2 VERDICT #3: ``to_pylist()`` bulk seeding doesn't
        survive a 10^10-URL frontier). Bulk mode is set-equality mode,
        so the global sorted-seed LIFO order of ``_seed_frontier`` is
        not required — per-batch push order is preserved.

        Returns the number of fresh urls seeded.
        """
        cfg = self.cfg
        seen, frontier = self.seen, self.frontier
        ns, nf = cfg.num_seen_shards, cfg.num_frontier_shards
        # mirror the list-seeding guard: unless the caller declared the
        # urls pre-canonical AND no filters are configured, every batch
        # goes through the same clean pass (canonicalize + dedup +
        # filter) the reference applies to seeds (cfg.rs:338-342)
        clean_needed = not (cfg.seeds_canonical and not cfg.ignore_regexes
                            and cfg.allow_domains is None)
        filters = self.filters

        def seed_batch(t: pa.Table) -> pa.Table:
            import ray as _ray

            urls = t.column("url").to_pylist()
            if clean_needed:
                urls = clean_seeds(urls, filters)
            per_seen: list[list[str]] = [[] for _ in range(ns)]
            for u, s in zip(urls, shards_of_batch(urls, ns)):
                per_seen[s].append(u)
            masks = _ray.get([seen[s].check_and_add.remote(us)
                              for s, us in enumerate(per_seen)])
            per_frontier: list[list] = [[] for _ in range(nf)]
            fresh = 0
            for us, mask in zip(per_seen, masks):
                for u, new in zip(us, mask):
                    if new:
                        fresh += 1
                        per_frontier[host_shard_of(u, nf)].append((u, 0))
            _ray.get([frontier[f].push.remote(it)
                      for f, it in enumerate(per_frontier) if it])
            return pa.table({"n": pa.array([fresh], pa.int64())})

        out = ds.map_batches(
            seed_batch, batch_format="pyarrow", batch_size=8192).to_pandas()
        return int(out["n"].sum()) if len(out) else 0

    # ------------------------------------------------------------------
    def run(self, max_waves: int | None = None, resume: bool = False):
        """Continuous-dispatch crawl: up to ``max_inflight_waves`` wave
        pipelines run concurrently (mirrors the reference's re-dispatch-
        on-completion loop, workload.rs:151-176, rather than a global
        barrier per wave); the frontier shards absorb pushes from running
        waves while the next wave drains. Limit runs fall back to one
        in-flight wave so the overshoot stays bounded by one wave."""
        from concurrent.futures import FIRST_COMPLETED
        from concurrent.futures import ThreadPoolExecutor
        from concurrent.futures import wait as fwait

        import ray
        import ray.data as rd

        _stub_fsspec_http_once()
        cfg = self.cfg
        if cfg.streaming and cfg.limit is None and max_waves is None:
            return self.run_streaming(resume=resume)
        if not (resume and cfg.checkpoint_dir) and os.path.isdir(self.out_dir):
            import shutil

            shutil.rmtree(self.out_dir)  # fresh run: drop stale wave dirs
        os.makedirs(self.out_dir, exist_ok=True)
        ckpt = (_newest_checkpoint(cfg, "wave=")
                if resume and cfg.checkpoint_dir else None)
        self._spawn_state(ray)

        start_wave = 0
        if ckpt is not None:
            start_wave = self._restore_checkpoint(ray, *ckpt)
            # a killed run may have half-written newer wave dirs: drop any
            # wave output past the checkpoint, then redo it
            for d in os.listdir(self.out_dir):
                if d.startswith("wave=") and int(d.split("=")[1]) >= start_wave:
                    import shutil

                    shutil.rmtree(os.path.join(self.out_dir, d))
        # seed on EVERY run (idempotent through the restored seen set) —
        # same incremental-recrawl semantics as run_streaming: a resume
        # whose cfg carries new seeds crawls exactly the unseen subset
        if self._seeds_ds is not None:
            if (self._seed_frontier_dataset(ray, self._seeds_ds) == 0
                    and start_wave == 0):
                return self.stats
        else:
            if (cfg.seeds_canonical and not cfg.ignore_regexes
                    and cfg.allow_domains is None):
                seeds = sorted(set(cfg.seeds))  # cfg.rs:338-342 minus the
                # canonicalize pass (inputs already canonical)
            else:
                seeds = clean_seeds(cfg.seeds, self.filters)
            if not seeds and start_wave == 0:
                return self.stats
            if seeds:
                self._seed_frontier(ray, seeds)

        if self.fetch_backend is None:
            pages_ref = self._pages_ref or ray.put(self.pages)
            images_ref = self._images_ref or ray.put(self.images)
            backend_fetch = None
        else:
            pages_ref = images_ref = None
            backend_fetch = make_backend_fetch_fn(self.fetch_backend)
        self.wave = start_wave
        n_inflight = 1 if cfg.limit is not None else max(1, cfg.max_inflight_waves)
        executor = ThreadPoolExecutor(max_workers=n_inflight)
        inflight: dict = {}

        def build_wave_ds(entries):
            # split the wave into blocks so the fetch stage fans out (a
            # single from_arrow block would serialize on one worker)
            wave_t = _wave_table(entries)
            n_blocks = max(
                1, min(cfg.engines * 2, -(-len(entries) // cfg.fetch_batch_size))
            )
            step = -(-len(entries) // n_blocks)
            blocks = [wave_t.slice(i, step) for i in range(0, len(entries), step)]
            if backend_fetch is not None:
                # custom transport (e.g. HttpFetcher): session built once
                # per worker, no synthetic payload to validate
                ds = rd.from_arrow(blocks).map_batches(
                    backend_fetch,
                    batch_format="pyarrow",
                    batch_size=cfg.fetch_batch_size,
                )
            elif cfg.use_actor_pools:
                ds = (
                    rd.from_arrow(blocks)
                    .map_batches(
                        Fetcher,
                        fn_constructor_args=(pages_ref, self.filters,
                                             cfg.extractor),
                        batch_format="pyarrow",
                        batch_size=cfg.fetch_batch_size,
                        concurrency=(1, cfg.engines),
                        num_cpus=1,
                    )
                    .map_batches(
                        Validator,
                        fn_constructor_args=(images_ref, self.world_seed),
                        fn_constructor_kwargs={
                            "img_min": self.img_bounds[0],
                            "img_max": self.img_bounds[1],
                        },
                        batch_format="pyarrow",
                        batch_size=cfg.fetch_batch_size,
                        concurrency=(1, cfg.engines),
                        num_cpus=1,
                    )
                )
            else:
                # stateless tasks + per-worker-process broadcast-state
                # cache: the page/image index builds once per worker for
                # the whole crawl, not per wave
                ds = (
                    rd.from_arrow(blocks)
                    .map_batches(
                        make_fetch_fn(pages_ref, self.filters, cfg.extractor),
                        batch_format="pyarrow",
                        batch_size=cfg.fetch_batch_size,
                    )
                    .map_batches(
                        make_validate_fn(images_ref, self.world_seed,
                                         img_min=self.img_bounds[0],
                                         img_max=self.img_bounds[1]),
                        batch_format="pyarrow",
                        batch_size=cfg.fetch_batch_size,
                    )
                )
            return ds, len(blocks)

        def run_wave(entries, wave_idx, now_ms):
            wave_dir = os.path.join(self.out_dir, f"wave={wave_idx:05d}")
            router = make_link_router(
                self.seen, self.frontier, cfg.retry_policy,
                cfg.num_seen_shards, cfg.num_frontier_shards, now_ms,
            )
            ds, n_blocks = build_wave_ds(entries)
            ds = ds.map_batches(router, batch_format="pyarrow",
                                batch_size=max(2048, cfg.fetch_batch_size))
            t0 = time.monotonic()
            ds.write_parquet(wave_dir)
            if wave_idx == 0:
                # keep the big wave's per-stage breakdown for tuning
                try:
                    with open(os.path.join(self.out_dir,
                                           "_wave0_stats.txt"), "w") as fh:
                        fh.write(ds.stats())
                except Exception:
                    pass
            if os.environ.get("DOONOP_WAVE_TIMING"):
                print(
                    f"wave={wave_idx} n={len(entries)} blocks={n_blocks} "
                    f"pipe={time.monotonic() - t0:.2f}s",
                    flush=True,
                )
            # light read-back of one column for the wave's stats
            wt = pq.read_table(wave_dir, columns=["status", "n_links"])
            st = wt.column("status").to_pylist()
            return {
                "wave": wave_idx,
                "visited": len(st),
                "ok": sum(s == "ok" for s in st),
                "timeout": sum(s == "timeout" for s in st),
                "error": sum(s == "error" for s in st),
                "links": int(pa.compute.sum(wt.column("n_links")).as_py() or 0),
                "wall_sec": round(time.monotonic() - t0, 3),
                "wave_dir": wave_dir,
            }

        routed = self._routed = {"links": 0, "retries": 0}
        self.wave_metrics: list[dict] = getattr(self, "wave_metrics", [])
        self._occ_pending: list[dict] = getattr(self, "_occ_pending", [])

        def absorb(futs):
            # resolve occupancy futures minted by EARLIER absorb calls
            # first (one-absorb lag: they are long since done, so this
            # ray.get is a local fetch, not a barrier) — bounds how many
            # unresolved futures a raising run can leak
            for r in self._occ_pending:
                of = r.pop("_occ_futs", None)
                if of is not None:
                    occ = ray.get(of)
                    r["seen_count"] = sum(o["count"] for o in occ)
                    r["seen_stash"] = sum(o["stash"] for o in occ)
            self._occ_pending = []
            for fut in futs:
                c = fut.result()
                del inflight[fut]
                # seen-set memory telemetry per wave (three ints per
                # shard; a nonzero stash means the cuckoo capacity is
                # undersized for this crawl). Fire-and-forget — Ray
                # gives no cross-caller actor-task ordering, so under a
                # busy seen shard the value is an APPROXIMATE per-wave
                # snapshot (it may include a later wave's adds); exact
                # ordering would need a per-wave ray.get barrier on
                # every shard, which telemetry does not justify
                c["_occ_futs"] = [s.occupancy.remote() for s in self.seen]
                self._occ_pending.append(c)
                self.wave_metrics.append(c)
                self.stats.visited += c["visited"]
                self.stats.collected += c["ok"]
                routed["links"] += c["links"]
                if cfg.retry_policy != "no":
                    self.stats.retries += c["timeout"]
                    routed["retries"] += c["timeout"]
                else:
                    self.stats.errors += c["timeout"]
                self.stats.errors += c["error"]

        _t = {"drain": 0.0, "settle": 0.0, "wait": 0.0, "loops": 0}
        # drains are PREFETCHED: the next wave's frontier drain runs while
        # current waves execute, so drain latency (actor queueing under a
        # busy node) never sits on the dispatch critical path. Limit runs
        # stay synchronous so the budget sees fresh collected counts.
        use_prefetch = cfg.limit is None
        prefetch = None  # (now_ms, [drain futures])
        pending: list = []  # coalesced small drains awaiting critical mass

        def start_drain():
            budget = cfg.wave_size()
            if cfg.limit is not None:
                budget = max(1, min(budget, cfg.limit - self.stats.collected))
            per_shard = max(1, budget // cfg.num_frontier_shards)
            now_ms = time.monotonic() * 1000.0
            return (
                now_ms,
                [
                    f.drain.remote(per_shard, now_ms, cfg.max_per_host_per_wave)
                    for f in self.frontier
                ],
            )

        while True:
            _t["loops"] += 1
            absorb([f for f in list(inflight) if f.done()])

            closed = (
                cfg.limit is not None
                and self.stats.collected > 0
                and self.stats.collected >= cfg.limit
            )
            can_submit = (
                not closed
                and not self._stop_requested
                and (max_waves is None or self.wave < max_waves)
                and len(inflight) < n_inflight
            )

            entries = []
            if can_submit:
                if prefetch is None:
                    prefetch = start_drain()
                now_ms, futs = prefetch
                prefetch = None
                _t0 = time.monotonic()
                drains = ray.get(futs)
                entries = pending + [e for d in drains for e in d]
                pending = []
                _dt = time.monotonic() - _t0
                _t["drain"] += _dt
                if _dt > 0.2 and os.environ.get("DOONOP_WAVE_TIMING"):
                    print(f"SLOWDRAIN {_dt:.2f}s n={len(entries)} inflight={len(inflight)}",
                          flush=True)
                if (entries and inflight and cfg.limit is None
                        and len(entries) < cfg.min_wave_size):
                    # tail coalescing: a tiny wave would pay full dataset
                    # startup; hold it until a running wave lands (more
                    # links/retries arrive meanwhile) — when nothing is in
                    # flight it submits regardless, so no livelock
                    pending = entries
                    entries = []
                    fwait(list(inflight), return_when=FIRST_COMPLETED)
                    continue

            if entries:
                fut = executor.submit(run_wave, entries, self.wave, now_ms)
                inflight[fut] = self.wave
                self.wave += 1
                if use_prefetch and prefetch is None and (
                    max_waves is None or self.wave < max_waves
                ):
                    prefetch = start_drain()
                if cfg.checkpoint_dir and (
                    self.wave % cfg.checkpoint_every_waves == 0
                ):
                    # checkpoint barrier: quiesce so the snapshot is a
                    # consistent cut across frontier + seen + artifacts
                    fwait(list(inflight))
                    absorb(list(inflight))
                    self._write_checkpoint(ray, wave_done=self.wave - 1)
                continue

            if inflight:
                _t0 = time.monotonic()
                fwait(list(inflight), return_when=FIRST_COMPLETED)
                _t["wait"] += time.monotonic() - _t0
                continue
            # nothing in flight and nothing drained: finish or spin once
            if closed or self._stop_requested or (
                max_waves is not None and self.wave >= max_waves
            ):
                break
            # settle the fire-and-forget routing: every candidate link and
            # retry emitted by completed waves must have reached its shard
            # (and seen→frontier forwards must have landed) before
            # is_empty can be trusted
            _t0 = time.monotonic()
            ingested = sum(ray.get([s_.flush.remote() for s_ in self.seen]))
            retry_rcvd = sum(
                ray.get([f.retry_received.remote() for f in self.frontier])
            )
            if ingested < routed["links"] or retry_rcvd < routed["retries"]:
                _t["settle"] += time.monotonic() - _t0
                time.sleep(0.02)
                continue
            empty = all(ray.get([f.is_empty.remote() for f in self.frontier]))
            _t["settle"] += time.monotonic() - _t0
            if empty:
                break

        executor.shutdown(wait=True)
        if pending:
            # coalesced-but-unsubmitted entries go back to their shards so
            # a graceful stop / final checkpoint never loses them (attempt
            # counts already live in the frontier's retry state)
            per: dict[int, list[tuple[str, int]]] = {}
            for url, _attempt, depth in pending:
                per.setdefault(
                    host_shard_of(url, cfg.num_frontier_shards), []
                ).append((url, depth))
            ray.get([
                self.frontier[f].push.remote(it) for f, it in per.items()
            ])
            pending = []
        if cfg.checkpoint_dir and self.wave > 0:
            # checkpoint on graceful shutdown (T12 analog, main.rs:41-48 /
            # workload.rs:191-195) AND on normal completion — the
            # finished run's seen/frontier state is the warm-start for a
            # later incremental recrawl (resume=True with new seeds)
            self._write_checkpoint(ray, wave_done=self.wave - 1)
        self._write_metrics()
        if os.environ.get("DOONOP_WAVE_TIMING"):
            print(f"LOOP {_t}", flush=True)
        return self.stats

    # ------------------------------------------------------------------
    def run_streaming(self, resume: bool = False):
        """Continuous chunk-task crawl (the round-2 scaling fix): ONE
        long-lived loop submits a plain Ray task per frontier drain chunk
        — fetch→validate→persist→route runs inside the task against
        per-worker-cached broadcast state — with a driver-bounded
        in-flight window for backpressure. No per-wave Dataset/executor
        startup (~2 s at 32 CPUs in wave mode) and no retry-tail wave
        chaining: a fired retry is picked up by the next drain poll.

        Why not a Ray Data pipeline: a Dataset source cannot feed
        downstream operators from a STILL-RUNNING task — measured on this
        Ray version, a map task's yielded blocks are only delivered when
        the task finishes, so an unbounded poller generator deadlocks
        against its own backpressure. The crawl's dynamic feedback loop
        (drained urls → fetched links → frontier → drained urls) is
        exactly the shape the Dataset API can't express; per the design
        rules this drops to raw tasks, keeping the SAME batch callables
        the wave-mode Dataset pipeline uses.

        Stats are exact: every chunk's counters return through the task
        result (no fire-and-forget on the stats path); links/retries
        settle against the shard counters exactly like wave mode.

        Politeness note: ``max_per_host_per_wave`` becomes a per-POLL
        cap here (polls are much more frequent than waves); use the
        time-based token buckets (``host_rate_per_sec``/``host_burst``)
        for real rate limiting in streaming mode — their semantics are
        identical in both modes.
        """
        import ray

        cfg = self.cfg
        assert cfg.limit is None, "limit runs use wave mode (bounded overshoot)"
        if (cfg.max_per_host_per_wave is not None
                and cfg.host_rate_per_sec is None):
            import warnings

            warnings.warn(
                "max_per_host_per_wave is a PER-POLL cap in streaming mode "
                "(polls are far more frequent than waves, so the effective "
                "per-host release rate is much higher than wave mode's); "
                "use host_rate_per_sec/host_burst token buckets for "
                "time-based politeness — their semantics are identical in "
                "both modes.",
                RuntimeWarning, stacklevel=2)
        if not (resume and cfg.checkpoint_dir) and os.path.isdir(self.out_dir):
            import shutil

            shutil.rmtree(self.out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        ckpt = (_newest_checkpoint(cfg, "stream=")
                if resume and cfg.checkpoint_dir else None)
        self._spawn_state(ray)

        run_idx = 0
        base_stats = {"visited": 0, "collected": 0, "errors": 0, "retries": 0}
        if ckpt is not None:
            run_idx, base_stats = self._restore_stream_checkpoint(ray, *ckpt)
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
                return self.stats
            if seeds:
                self._seed_frontier(ray, seeds)

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
        route_fn = make_link_router(self.seen, self.frontier,
                                    cfg.retry_policy, cfg.num_seen_shards,
                                    cfg.num_frontier_shards, None,
                                    counters_only=True)
        meta_cols = (
            ["url", "depth", "status", "image_id", "caption_ok",
             "pixel_ok", "psnr_db"]
            if cfg.collect_artifact_meta else None
        )
        # ship the stage closures ONCE; workers cache the deserialized
        # tuple per process (same pattern as the broadcast state caches)
        fns_ref = ray.put((fetch_fn, validate_fn, persist_fn, route_fn,
                           meta_cols))
        chunk_task = ray.remote(num_cpus=1)(_run_stream_chunk)

        n_shards = cfg.num_frontier_shards
        # drain granularity and task granularity are decoupled: each
        # drain RTT amortizes over several task chunks (the drain path is
        # a serial per-shard actor loop — small drains would make it the
        # critical path at high core counts), while tasks stay
        # fetch_batch_size-sized so enough chunks are in flight to fill
        # every core
        chunk_rows = max(1, cfg.fetch_batch_size)
        per_poll = int(os.environ.get("DOONOP_STREAM_DRAIN",
                                      8 * chunk_rows))
        cap = cfg.max_per_host_per_wave
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

        inflight: set = set()
        routed = self._routed = {"links": 0, "retries": 0}
        stats = self.stats
        stream_stats = {"visited": 0, "collected": 0, "errors": 0,
                        "retries": 0}

        self._artifact_meta: list = []

        def absorb(done_refs):
            nonlocal absorbed_chunks
            absorbed_chunks += len(done_refs)
            for c in ray.get(list(done_refs)):
                if "meta" in c:
                    self._artifact_meta.append(c["meta"])
                if "timing" in c and absorbed_chunks < 80:
                    print(f"CHUNK {absorbed_chunks} {c['visited']} rows "
                          f"{c['timing']}", flush=True)
                stream_stats["visited"] += c["visited"]
                stream_stats["collected"] += c["ok"]
                routed["links"] += c["links"]
                if cfg.retry_policy != "no":
                    stream_stats["retries"] += c["timeout"]
                    routed["retries"] += c["timeout"]
                else:
                    stream_stats["errors"] += c["timeout"]
                stream_stats["errors"] += c["error"]

        def settle_and_empty() -> bool:
            """True when every routed link/retry landed AND all frontier
            shards are empty — the wave loop's terminal protocol."""
            if seed_thread is not None and seed_thread.is_alive():
                return False  # mid-seeding emptiness is not termination
            if "err" in seed_box:
                raise seed_box["err"]
            ingested = sum(ray.get([s_.flush.remote() for s_ in self.seen]))
            if ingested < routed["links"]:
                return False
            rr = sum(ray.get(
                [f.retry_received.remote() for f in self.frontier]))
            if rr < routed["retries"]:
                return False
            return all(ray.get([f.is_empty.remote() for f in self.frontier]))

        def quiesce():
            nonlocal drains
            while inflight:
                done, _ = ray.wait(list(inflight), num_returns=len(inflight))
                inflight.difference_update(done)
                absorb(done)
            # drained-but-unsubmitted entries (prefetch in flight) go back
            for d in ray.get(drains):
                if d:
                    per: dict[int, list] = {}
                    for url, _at, depth in d:
                        per.setdefault(
                            host_shard_of(url, n_shards), []).append(
                                (url, depth))
                    ray.get([self.frontier[f].push.remote(it)
                             for f, it in per.items()])
            drains = []

        last_ckpt = time.monotonic()
        idle_sleep = 0.002
        _t = {"drain": 0.0, "wait": 0.0, "idle": 0.0, "loops": 0,
              "chunks": 0}
        # prefetched drains: next chunk's drain runs while chunks execute
        drains = [f.drain.remote(per_poll, time.monotonic() * 1000.0, cap)
                  for f in self.frontier]
        while True:
            _t["loops"] += 1
            if self._stop_requested:
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
                        inflight.discard(r)
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
                            inflight.difference_update(done)
                            absorb(done)
                            _t["wait"] += time.monotonic() - _t0
                        inflight.add(chunk_task.remote(
                            entries[i:i + rows_this], [fns_ref]))
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
                inflight.difference_update(done)
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
                quiesce()
                # settle only (emptiness not required for a periodic
                # checkpoint): loop until every routed link/retry landed
                while True:
                    ingested = sum(ray.get(
                        [s_.flush.remote() for s_ in self.seen]))
                    rr = sum(ray.get([f.retry_received.remote()
                                      for f in self.frontier]))
                    if (ingested >= routed["links"]
                            and rr >= routed["retries"]):
                        break
                    time.sleep(0.02)
                self._stream_checkpoint(ray, run_idx, base_stats,
                                        stream_stats)
                last_ckpt = time.monotonic()
            drains = [f.drain.remote(per_poll, time.monotonic() * 1000.0,
                                     cap)
                      for f in self.frontier]

        if seed_thread is not None:
            # a stop mid-seeding must not checkpoint a partial frontier:
            # wait for the seeder (its pushes are idempotent via the seen
            # set, but the snapshot below must see them all)
            seed_thread.join()
            if "err" in seed_box:
                raise seed_box["err"]
        quiesce()
        if os.environ.get("DOONOP_WAVE_TIMING"):
            print(f"STREAM {_t}", flush=True)
        stats.visited = base_stats["visited"] + stream_stats["visited"]
        stats.collected = base_stats["collected"] + stream_stats["collected"]
        stats.errors = base_stats["errors"] + stream_stats["errors"]
        stats.retries = base_stats["retries"] + stream_stats["retries"]
        if cfg.checkpoint_dir:
            # final checkpoint on BOTH graceful stop and normal
            # completion: a finished run's seen/frontier state is what a
            # later resume=True warm-starts from (incremental recrawl —
            # re-seeded URLs dedup against the restored seen set, only
            # genuinely new seeds expand)
            while True:
                ingested = sum(ray.get(
                    [s_.flush.remote() for s_ in self.seen]))
                rr = sum(ray.get([f.retry_received.remote()
                                  for f in self.frontier]))
                if ingested >= routed["links"] and rr >= routed["retries"]:
                    break
                time.sleep(0.02)
            self._stream_checkpoint(ray, run_idx, base_stats, stream_stats)
        # lineage/metrics row for this streaming run (the wave loop's
        # _wave_metrics.parquet analog; north_rule audit trail)
        metrics = {
            "mode": "stream",
            "run_idx": run_idx,
            "run_dir": run_dir,
            "chunks": _t["chunks"],
            "loops": _t["loops"],
            "drain_sec": round(_t["drain"], 3),
            "wait_sec": round(_t["wait"], 3),
            "stats": stats.as_dict(),
            "artifact_files": len(self._list_artifact_files()),
        }
        occ = ray.get([s_.occupancy.remote() for s_ in self.seen])
        metrics["seen_count"] = sum(o["count"] for o in occ)
        metrics["seen_stash"] = sum(o["stash"] for o in occ)
        hist = os.path.join(self.out_dir, "_stream_metrics.jsonl")
        with open(hist, "a") as fh:
            fh.write(json.dumps(metrics) + "\n")
        return stats

    def _list_artifact_files(self) -> list[str]:
        return sorted(
            os.path.relpath(os.path.join(dp, f), self.out_dir)
            for dp, _, fs in os.walk(self.out_dir)
            for f in fs
            if f.endswith(".parquet") and not f.startswith("_")
        )

    def _stream_checkpoint(self, ray, run_idx: int,
                           base_stats: dict, stream_stats: dict):
        """Quiesced streaming checkpoint. The caller has already drained
        the in-flight chunk window and settled the link/retry counters —
        and persist runs BEFORE route inside each chunk, so every counted
        row's artifact is on disk. Snapshot = shard state + the artifact
        file manifest; a resume deletes files not in the manifest, so at
        most one checkpoint interval of fetches is repeated and the
        output stays exact."""
        cfg = self.cfg
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
        seq = getattr(self, "_ckpt_seq", 0)
        ckpt = os.path.join(cfg.checkpoint_dir, f"stream={seq:05d}")
        os.makedirs(ckpt, exist_ok=True)
        f_blobs = ray.get([f.snapshot.remote() for f in self.frontier])
        s_blobs = ray.get([s.snapshot.remote() for s in self.seen])
        for i, b in enumerate(f_blobs):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "wb") as fh:
                fh.write(b)
        for i, b in enumerate(s_blobs):
            with open(os.path.join(ckpt, f"seen_{i:03d}.pkl"), "wb") as fh:
                fh.write(b)
        manifest = {
            "mode": "stream",
            "run_idx": run_idx,
            "files": self._list_artifact_files(),
            "stats": {k: base_stats[k] + stream_stats[k] for k in stream_stats},
            "num_frontier_shards": cfg.num_frontier_shards,
            "num_seen_shards": cfg.num_seen_shards,
            "hash_impl": HASH_IMPL,
        }
        tmp = os.path.join(ckpt, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(ckpt, "manifest.json"))
        self._ckpt_seq = seq + 1

    def _restore_shards(self, ray, ckpt: str) -> None:
        futs = []
        for i, f in enumerate(self.frontier):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "rb") as fh:
                futs.append(f.restore.remote(fh.read()))
        for i, s in enumerate(self.seen):
            with open(os.path.join(ckpt, f"seen_{i:03d}.pkl"), "rb") as fh:
                futs.append(s.restore.remote(fh.read()))
        ray.get(futs)

    def _restore_stream_checkpoint(self, ray, ckpt: str, manifest: dict):
        """Restore the stream checkpoint ``ckpt`` (from
        ``_newest_checkpoint``); returns (next_run_idx, stats_at_cut).
        Artifact files not in the manifest (written after the cut by the
        killed run) are deleted so output matches the restored seen/
        frontier state exactly."""
        keep = set(manifest["files"])
        for rel in self._list_artifact_files():
            if rel not in keep:
                os.unlink(os.path.join(self.out_dir, rel))
        self._restore_shards(ray, ckpt)
        self._ckpt_seq = int(os.path.basename(ckpt).split("=")[1]) + 1
        return manifest["run_idx"] + 1, manifest["stats"]

    # ------------------------------------------------------------------
    def request_stop(self):
        """Graceful shutdown: stop dispatching, drain in-flight waves,
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

    def _write_metrics(self):
        """Per-wave lineage + metrics rows (north_rule): which wave dir
        holds which rows, with status counts and wall time — the audit
        trail a resume inspects alongside the checkpoint manifests."""
        if not self.wave_metrics:
            return
        rows = sorted(self.wave_metrics, key=lambda r: r["wave"])
        # resolve the deferred per-wave occupancy futures (values were
        # computed on the actors at each wave's absorb time)
        import ray

        for r in rows:
            futs = r.pop("_occ_futs", None)
            if futs is not None:
                occ = ray.get(futs)
                r["seen_count"] = sum(o["count"] for o in occ)
                r["seen_stash"] = sum(o["stash"] for o in occ)
        t = pa.table(
            {
                "wave": pa.array([r["wave"] for r in rows], pa.int32()),
                "visited": pa.array([r["visited"] for r in rows], pa.int64()),
                "collected": pa.array([r["ok"] for r in rows], pa.int64()),
                "timeouts": pa.array([r["timeout"] for r in rows], pa.int64()),
                "errors": pa.array([r["error"] for r in rows], pa.int64()),
                "links_routed": pa.array([r["links"] for r in rows], pa.int64()),
                "wall_sec": pa.array([r["wall_sec"] for r in rows], pa.float64()),
                "wave_dir": pa.array([r["wave_dir"] for r in rows], pa.string()),
                "seen_count": pa.array(
                    [r.get("seen_count", 0) for r in rows], pa.int64()),
                "seen_stash": pa.array(
                    [r.get("seen_stash", 0) for r in rows], pa.int64()),
            }
        )
        pq.write_table(t, os.path.join(self.out_dir, "_wave_metrics.parquet"))

    # ------------------------------------------------------------------
    def seen_sets(self):
        import ray

        out: set[str] = set()
        for s in self.seen:
            blob = ray.get(s.snapshot.remote())
            out.update(pickle.loads(blob)["exact"])
        return out

    # ------------------------------------------------------------------
    def _write_checkpoint(self, ray, wave_done: int):
        ckpt = os.path.join(self.cfg.checkpoint_dir, f"wave={wave_done:05d}")
        os.makedirs(ckpt, exist_ok=True)
        # settle the fire-and-forget routing before snapshotting: Ray
        # gives no cross-caller actor-task ordering, so links/retries
        # emitted by completed waves can still be in transit when the
        # quiesce barrier passes. Loop on the same routed-counter
        # settlement the terminal drain uses — otherwise a resume from
        # this checkpoint silently drops the in-transit URLs (absent
        # from both the seen set and the frontier).
        routed = getattr(self, "_routed", None)
        while True:
            ingested = sum(ray.get([s.flush.remote() for s in self.seen]))
            if routed is None:
                break
            retry_rcvd = sum(
                ray.get([f.retry_received.remote() for f in self.frontier])
            )
            if (ingested >= routed["links"]
                    and retry_rcvd >= routed["retries"]):
                break
            time.sleep(0.02)
        f_blobs = ray.get([f.snapshot.remote() for f in self.frontier])
        s_blobs = ray.get([s.snapshot.remote() for s in self.seen])
        for i, b in enumerate(f_blobs):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "wb") as fh:
                fh.write(b)
        for i, b in enumerate(s_blobs):
            with open(os.path.join(ckpt, f"seen_{i:03d}.pkl"), "wb") as fh:
                fh.write(b)
        manifest = {
            "wave_done": wave_done,
            "stats": self.stats.as_dict(),
            "num_frontier_shards": self.cfg.num_frontier_shards,
            "num_seen_shards": self.cfg.num_seen_shards,
            # shard-routing hash of the writing process: a resume under
            # an environment with a different impl would silently route
            # URLs to the wrong seen shard — fail loudly instead
            "hash_impl": HASH_IMPL,
        }
        tmp = os.path.join(ckpt, "manifest.json.tmp")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, os.path.join(ckpt, "manifest.json"))  # atomic commit

    def _restore_checkpoint(self, ray, ckpt: str, manifest: dict) -> int:
        self._restore_shards(ray, ckpt)
        st = manifest["stats"]
        self.stats.visited = st["visited"]
        self.stats.collected = st["collected"]
        self.stats.errors = st["errors"]
        self.stats.retries = st["retries"]
        return manifest["wave_done"] + 1


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
            _wave_table([(url, attempt, depth)])
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
