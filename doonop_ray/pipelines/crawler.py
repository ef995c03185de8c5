"""The crawl driver — the reference's dispatch/completion loop
(/root/reference/src/workload.rs:79-200) re-expressed over Ray.

Two execution modes share the same operator implementations
(Fetcher/Validator batch callables, link router, frontier shards with
their seen-set partitions):

- ``run_conformance()`` — single in-flight lane, virtual clock: byte-
  exact reproduction of the reference's deterministic j=1 crawl order
  (pinned by /root/reference/src/lib.rs:117-134). Uses the SAME
  Fetcher/Validator batch callables, applied inline on 1-row batches,
  and ONE in-process ``FrontierShard`` built like the scaled mode's.
- ``RayCrawler.run()`` — scaled mode: the crawl state is sharded by
  host over ``FrontierShard``s, each holding its hosts' frontier AND
  their partition of the seen set; ONE long-lived loop submits a plain
  Ray task per frontier drain chunk (fetch→validate→persist→route
  against per-worker-cached broadcast state). Each task partitions its
  links by host and returns one payload per shard with its counters;
  the loop passes each payload on to its host's shard, where the
  membership check and the push happen together (no actor→actor
  messages), and each chunk's artifacts land in one parquet part file
  under ``run=NNN/``. Seeds reach the shards through the loop too (a
  seed Dataset's tasks return payloads instead of calling a shard), so
  the loop is every shard's only caller from its first call. Every
  crawl starts on in-process shards while their actors (one process
  per shard) start, and hands them over once the actors answer; a
  crawl that ends first keeps its state in-process (the boot, see
  ``run()``).
  Guarantees set-equality of visited/collected/seen with
  the reference (whose own N>1 interleave is nondeterministic,
  lib.rs:136-155) plus identical stats counters; an artifact ``limit``
  bounds what each drain takes, so a limit run stops at the limit.

Checkpointing (north_rule): one format, ``stream=NNNNN`` under
``checkpoint_dir`` — one snapshot per shard (frontier + seen) plus the
artifact-file manifest, taken at a quiesced cut every
``checkpoint_every_sec`` and when a run ends or is stopped.
``run(resume=True)`` restores the newest one, deletes artifact files
written after the cut and continues, so the output stays exact.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import queue
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..config import CrawlConfig
from ..filters import FilterSpec
from ..oracle import clean_seeds
from ..stages.fetch import (Fetcher, Validator, _cached,
                            identity_validate_fn, make_backend_fetch_fn,
                            make_fetch_fn, make_validate_fn)
from ..state.frontier import FrontierShard
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


def shard_payloads(urls: pa.Array, depths: np.ndarray, n_shards: int,
                   what: str) -> list[tuple[int, str, bytes]]:
    """One ``FrontierShard.ingest`` payload ``(shard, urls, depths)`` per
    shard ``urls`` route to: the shard's URLs in input order joined by
    newlines into one ``str`` (one ``pc.binary_join`` call for all
    shards), and their ``depths`` as little-endian int32 bytes. The shard
    splits the string on newlines, so a null URL or one holding a newline
    cannot travel in it: that raises ``ValueError`` naming the URL (and
    ``what`` it is) instead of arriving as no URL or as two."""
    import pyarrow.compute as pc

    if not len(urls):
        return []
    if not urls.null_count:
        runs = _shard_runs(urls, n_shards)
        order = np.concatenate([idx for _, idx in runs])
        offsets = np.cumsum([0] + [len(idx) for _, idx in runs],
                            dtype=np.int32)
        joined = pc.binary_join(pa.ListArray.from_arrays(
            pa.array(offsets), urls.take(pa.array(order))), "\n")
        texts = joined.to_pylist()
        if all(t.count("\n") == len(idx) - 1
               for (_, idx), t in zip(runs, texts)):
            return [(s, t, depths[idx].astype("<i4", copy=False).tobytes())
                    for (s, idx), t in zip(runs, texts)]
    bad = next(u for u in urls.to_pylist() if u is None or "\n" in u)
    raise ValueError(f"{what} {bad!r} is null or holds a newline, which "
                     "the shard ingest payload cannot carry")


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


def make_link_router(n_shards: int, retry_policy: str):
    """Stateless chunk-stage fn: partitions the chunk's candidate links
    and timeouts by host (``host_shards_of_batch``) over ``n_shards``
    frontier shards and returns them with the chunk's counters (visited
    / ok / timeout / error / links). It calls no shard: ``ingest`` holds
    one ``(shard, urls, depths)`` payload per shard the links reach and
    ``retry`` one ``(shard, [(url, depth, attempt)])`` per shard with
    timeouts, and the crawl loop passes each on to its shard. The loop
    is every shard's only caller, so Ray runs each shard's calls in the
    order they were sent, and a shard that still lives in the loop's
    process (while its actor starts) takes them the same way.

    An ``ingest`` payload is ``shard_payloads``'s: one ``str`` of the
    shard's links plus their depths as bytes, so no Python object is
    made per link. No canonical URL holds a newline, but a custom fetch
    backend may return one; such a link (or a null) raises
    ``ValueError`` here, failing the chunk, since the payload cannot
    carry it. The payload is not Arrow: the shard needs one Python
    ``str`` per link for its set check, and splitting one string makes
    them in C (see ``FrontierShard.ingest``)."""

    def route(batch: pa.Table) -> dict:
        import pyarrow.compute as pc

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
        # there): flatten the Arrow list column once, ONE ingest payload
        # per shard
        ingest = []
        if n_links.sum():
            ok_tb = batch.filter(ok_mask)
            depths = np.repeat(
                ok_tb.column("depth").to_numpy(zero_copy_only=False)
                .astype(np.int32) + 1,
                lens[okb],
            )
            try:
                ingest = shard_payloads(
                    pc.list_flatten(ok_tb.column("links")).combine_chunks(),
                    depths, n_shards, "link")
            except ValueError as exc:
                raise ValueError(
                    f"chunk part-{chunk_signature(batch)}: {exc}") from None

        # ---- timeouts → retry lanes (retry.rs:24-36 accounting); the
        # attempt number rides along so redelivered batches (Ray task
        # retry) are recognized as stale and ignored — exactly-once
        # retry accounting without coordination.
        to_mask = pc.equal(st, "timeout")
        n_to = int(pc.sum(to_mask).as_py() or 0)
        retry = []
        if retry_policy != "no" and n_to:
            tt = batch.filter(to_mask)
            urls = tt.column("url").combine_chunks()
            depth = tt.column("depth").to_numpy(zero_copy_only=False)
            attempt = tt.column("attempt").to_numpy(zero_copy_only=False)
            for s, idx in _shard_runs(urls, n_shards):
                retry.append((s, list(zip(urls.take(pa.array(idx)).to_pylist(),
                                          depth[idx].tolist(),
                                          attempt[idx].tolist()))))

        return {
            "visited": len(batch),
            "ok": int(np.count_nonzero(okb)),
            "timeout": n_to,
            "error": int(pc.sum(pc.equal(st, "error")).as_py() or 0),
            "links": int(n_links.sum()),
            "ingest": ingest,
            "retry": retry,
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
    every chunk the crawl loop has absorbed then has its artifacts on
    disk, which is what makes a mid-stream checkpoint cut consistent
    (snapshot = shard state + file manifest)."""

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


STAGES = ("table", "fetch", "validate", "persist", "route")

MIN_CHUNK_ROWS = 32


def _chunk_spans(n: int, free: int, chunk_rows: int) -> list[tuple[int, int]]:
    """The ``(start, stop)`` spans, in order, of the chunks a drain of
    ``n`` entries becomes while ``free`` engines have no chunk: as few
    chunks as ``chunk_rows`` rows each allow, or more, up to ``free``,
    while each keeps ``MIN_CHUNK_ROWS`` rows; sizes differ by at most
    one. A chunk pays ~6 ms of fixed cost over its stages against
    ~40 µs per row (organic world, outside Ray), so a drain is split
    finer only when engines are free to take the pieces."""
    if n == 0:
        return []
    k = max(-(-n // chunk_rows), min(free, n // MIN_CHUNK_ROWS))
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


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
    fetch_fn, validate_fn, persist_fn, route_fn = _cached(
        ("chunk_fns", ref.hex()), lambda: ray.get(ref))
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


@functools.cache
def _remote(obj):
    """``ray.remote(obj)``, made once per process. A new wrapper exports
    its class or function again on first use (pickling it, and
    disassembling a class): 15-55 ms of driver time per crawl for the
    shard class. A kept one is exported once per (cluster, job), so it
    stays valid across ``ray.shutdown()``/``ray.init()``."""
    import ray

    return ray.remote(obj)


def _shard_args(cfg: CrawlConfig, robots_map, shard_id: int) -> tuple:
    """``FrontierShard``'s constructor arguments for shard ``shard_id``
    of a crawl under ``cfg``; every shard, actor or in-process, scaled or
    conformance, is built from them."""
    # cuckoo capacity per seen partition, budgeted from the expected
    # crawl size: a fixed 1<<18 overflows into the exact stash at
    # 10^10-URL scale, the memory failure the filter exists to avoid
    if cfg.expected_total_urls is None:
        cap = 1 << 18
    else:
        cap = max(1 << 12, int(cfg.expected_total_urls * 1.3)
                  // cfg.num_frontier_shards)
    return (shard_id, cfg.retry_policy, cfg.retry_threshold_ms,
            cfg.retry_count, robots_map if cfg.use_robots else None, cfg.robot,
            cfg.use_robots, cfg.host_rate_per_sec, cfg.host_burst,
            cfg.seen_mode, cap)


class _Shards:
    """Where each shard's state lives: from the start of ``run()`` in one
    in-process shard per actor (``local``, built with the same
    arguments), and from a handover on in its ``FrontierShard`` actor.
    Every call goes to the current owner: ``send`` leaves its result
    unread, and ``call`` returns every shard's, answered directly by an
    in-process shard and through one ``ray.get`` by the actors.
    ``hand_over`` moves each local shard into its actor with one
    ``restore``, and only once every actor answers, so a crawl that
    ends first never waits for them."""

    def __init__(self, ray, actors: list, local: list):
        self.ray = ray
        self.actors = actors
        self.local = local
        # one real call per actor: it answers once the actor is up
        self._up = [a.is_empty.remote() for a in actors]

    def send(self, s: int, method: str, *args) -> None:
        """``method(*args)`` on shard ``s``, its result unread."""
        if self.local is None:
            getattr(self.actors[s], method).remote(*args)
        else:
            getattr(self.local[s], method)(*args)

    def call(self, method: str, args: list | None = None) -> list:
        """``method`` on every shard, shard ``i`` with the arguments
        ``args[i]`` (none by default); the results in shard order."""
        args = args or [()] * len(self.actors)
        if self.local is None:
            return self.ray.get([getattr(a, method).remote(*x)
                                 for a, x in zip(self.actors, args)])
        return [getattr(sh, method)(*x) for sh, x in zip(self.local, args)]

    def hand_over(self) -> bool:
        """Move every local shard, with its robots cache, into its actor
        if all the actors answer by now. True if this call handed them
        over."""
        if self.local is None:
            return False
        up, _ = self.ray.wait(self._up, num_returns=len(self._up), timeout=0)
        if len(up) < len(self._up):
            return False
        self.ray.get([a.restore.remote(sh.snapshot(), sh.robots_verdicts())
                      for a, sh in zip(self.actors, self.local)])
        self.local = None
        return True


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
        # a worker's Table.combine_chunks then keeps the broadcast
        # buffers, where one of several chunks per column would copy
        # the whole table in every worker
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
        # seeds, from a list or a Dataset, go through the clean pass the
        # reference applies to them (canonicalize + dedup + filter,
        # cfg.rs:338-342) unless the caller declared them pre-canonical
        # AND no filter is configured
        self.clean_needed = not (cfg.seeds_canonical and not cfg.ignore_regexes
                                 and cfg.allow_domains is None)
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
        """Start the shard actors, and build one in-process shard per
        actor for the crawl to run on until they are up."""
        args = [_shard_args(self.cfg, self.robots_map, i)
                for i in range(self.cfg.num_frontier_shards)]
        # built through this module's global name, which the traced
        # benchmark swaps for its subclass
        self.frontier = [_remote(FrontierShard).remote(*a) for a in args]
        self._shards = _Shards(ray, self.frontier,
                               [FrontierShard(*a) for a in args])

    def _seed_frontier(self, ray, seeds: list[str]) -> None:
        """Seed the sorted ``seeds`` the way seed Dataset batches go: one
        ``ingest`` payload per shard (``shard_payloads``, all depths 0),
        each pushing its fresh URLs in sorted order (LIFO parity)."""
        for s, urls, depths in shard_payloads(
                pa.array(seeds, pa.string()), np.zeros(len(seeds), np.int32),
                self.cfg.num_frontier_shards, "seed"):
            self._shards.send(s, "ingest", urls, depths)

    def _seed_frontier_dataset(self, ray, ds, put) -> None:
        """Distributed bulk seeding: each Dataset batch task partitions
        its urls by host and returns one ``ingest`` payload per shard
        they reach (``shard_payloads``, all depths 0), and this method
        hands each ``(shard, urls, depths)`` to ``put``. ``run()`` calls
        it in a seeder thread whose ``put`` blocks while the loop's
        bounded queue is full, so the driver holds at most the queue's
        bound of payloads, never the url list (round-2 VERDICT #3:
        ``to_pylist()`` bulk seeding doesn't survive a 10^10-URL
        frontier). The tasks call no shard: the crawl loop passes the
        payloads on, and stays every shard's only caller from its first
        call. An ``ingest`` of seeds is a ``seed``: first occurrence
        wins, fresh urls are pushed in batch order. Bulk mode is
        set-equality mode, so the global sorted-seed LIFO order of
        ``_seed_frontier`` is not required. A batch holding a seed its
        payload cannot carry returns ``shard_payloads``'s refusal as a
        row, raised here as the ``ValueError`` it is."""
        cfg = self.cfg
        n_shards = cfg.num_frontier_shards
        clean_needed = self.clean_needed
        filters = self.filters

        def seed_batch(t: pa.Table) -> pa.Table:
            urls = t.column("url").combine_chunks()
            if clean_needed:
                urls = pa.array(clean_seeds(urls.to_pylist(), filters),
                                pa.string())
            error = None
            try:
                payloads = shard_payloads(
                    urls, np.zeros(len(urls), np.int32), n_shards, "seed")
            except ValueError as exc:
                # returned as a row, not raised: Ray Data would re-raise
                # it under its own exception type
                payloads, error = [(None, None, None)], str(exc)
            return pa.table({
                "shard": pa.array([p[0] for p in payloads], pa.int32()),
                "urls": pa.array([p[1] for p in payloads], pa.string()),
                "depths": pa.array([p[2] for p in payloads], pa.binary()),
                "error": pa.array([error] * len(payloads), pa.string())})

        for t in ds.map_batches(seed_batch, batch_format="pyarrow",
                                batch_size=8192).iter_batches(
                                    batch_size=None, batch_format="pyarrow"):
            for *payload, error in zip(*(
                    t.column(c).to_pylist()
                    for c in ("shard", "urls", "depths", "error"))):
                if error is not None:
                    raise ValueError(error)
                put(tuple(payload))

    # ------------------------------------------------------------------
    def run(self, resume: bool = False):
        """Continuous chunk-task crawl: ONE long-lived loop submits a
        plain Ray task per frontier drain chunk — fetch→validate→
        persist→route runs inside the task against per-worker-cached
        broadcast state — with a bounded in-flight window for
        backpressure. A fired retry is picked up by the next drain.

        Chunks and window: each loop turn drains every shard once, up to
        8 × ``fetch_batch_size`` entries per shard, and submits every
        entry it drained in that same turn, so a stop leaves no entry
        drained but unvisited. Each shard's drain becomes chunks of at
        most ``fetch_batch_size`` rows, split finer (never below 32
        rows) only into as many chunks as engines are free when it is
        cut (``_chunk_spans``): a chunk's fixed cost is worth paying
        again only when an engine would otherwise wait. At most
        ``engines + max(1, engines // 4)`` chunks are in flight (at
        most ``max(2, engines)`` until the first engines-worth finish);
        a full window makes the turn wait for a chunk before it submits
        the next. The metrics row's ``peak_inflight`` and
        ``underfill_sec`` (the seconds the loop ran with fewer than
        ``engines`` chunks in flight) show how full the window ran;
        ``drain_sec`` is the time spent in the drain calls, in-process
        or to the actors, and ``wait_sec`` the time spent waiting for
        chunks.

        Why not a Ray Data pipeline: a Dataset source cannot feed
        downstream operators from a STILL-RUNNING task — measured on this
        Ray version, a map task's yielded blocks are only delivered when
        the task finishes, so an unbounded poller generator deadlocks
        against its own backpressure. The crawl's dynamic feedback loop
        (drained urls → fetched links → frontier → drained urls) is
        exactly the shape the Dataset API can't express; per the design
        rules this drops to raw tasks.

        Seeds, links and retries reach the shards through this loop: a
        seed list is seeded by the loop itself, a seed Dataset's tasks
        return one payload per shard (``_seed_frontier_dataset``, in a
        seeder thread whose payloads the loop passes on before each
        drain), and each chunk returns its shards' payloads with its
        counters, which the loop passes on as it absorbs the chunk. So
        the loop is every shard's only caller from its first call, and
        Ray runs one caller's calls to an actor in order: an emptiness
        check or a checkpoint snapshot sees every payload sent before
        it, and nothing needs settling. The crawl is not done while
        seed payloads are still to come.

        Boot: starting the shard actors takes about a second (a new Ray
        worker process each). Until every actor answers its first call,
        the loop holds each shard's state in-process, built with the
        same arguments, seeds it and crawls against it, whether the
        seeds come from a list or a Dataset; then it hands each shard
        over with one ``restore`` (plus the robots verdicts, so no
        robots.txt is fetched twice). A crawl that ends first does not
        wait for the actors: its state stays in-process, and the final
        checkpoint, the metrics row and ``seen_sets()`` read it there.

        Stats are exact and live: every chunk's counters return through
        the task result and are added to ``self.stats`` as the chunk is
        absorbed.

        Artifact limit: with ``cfg.limit`` set, a turn drains at most
        ``max(limit, 1)`` minus the collected count minus the rows of
        submitted, unabsorbed chunks (split over the frontier shards, at
        least one each), and the loop closes once ``max(limit, 1)`` are
        collected — the reference's limit=0 quirk (workload.rs:213-222).
        With one frontier shard a limit run collects exactly that many
        (when the world holds them); each further shard can add at most
        one.

        Politeness: with ``host_rate_per_sec`` set, each host's shard
        releases its URLs through a token bucket (``host_burst``
        capacity), so a host sees at most ``host_burst + rate·Δt``
        requests in any window of Δt; held-back URLs wait in the
        frontier, never dropped.

        A stop mid-seeding still takes every seed payload before its
        final checkpoint; an error ends the seeder thread too.
        """
        loop_gone = threading.Event()
        try:
            return self._run(resume, loop_gone)
        finally:
            loop_gone.set()  # a seeder blocked on the queue gives up

    def _run(self, resume: bool, loop_gone: threading.Event):
        """``run()``'s body; ``loop_gone`` is set once it has left."""
        import ray

        t_start = time.monotonic()
        # the loop thread's CPU and the whole driver process's (Ray's
        # core-worker threads, the seeder thread) over this run
        cpu_start = (time.thread_time(), time.process_time())
        cfg = self.cfg
        if not (resume and cfg.checkpoint_dir) and os.path.isdir(self.out_dir):
            import shutil

            shutil.rmtree(self.out_dir)
        os.makedirs(self.out_dir, exist_ok=True)
        ckpt = (_newest_checkpoint(cfg)
                if resume and cfg.checkpoint_dir else None)
        self._spawn_state(ray)
        shards = self._shards
        n_shards = cfg.num_frontier_shards

        stats = self.stats = CrawlStats()
        run_idx = 0
        if ckpt is not None:
            run_idx = self._restore_checkpoint(ray, *ckpt)
        visited0 = stats.visited
        # bulk seed payloads on their way to the loop; the bound is what
        # the driver holds of them
        seed_q: queue.Queue = queue.Queue(maxsize=4 * n_shards)
        seeding = self._seeds_ds is not None
        seed_done = None
        # Seed on EVERY run, not just run 0: seed pushes are idempotent
        # through the seen set (restored from the checkpoint), so a
        # resumed run re-pushing its original seeds visits nothing twice
        # — and a resume whose cfg carries NEW seeds (sitemap refresh)
        # crawls exactly the unseen subset: incremental recrawl.
        if seeding:
            # OVERLAP bulk seeding with the crawl loop: the loop passes
            # payloads on and drains while seed batches are still
            # running, so the first chunks execute during seeding instead
            # of after it. The queue's last item is None, or the
            # seeder's exception; until the loop takes it the crawl is
            # not done (a momentarily-empty frontier mid-seeding is not
            # termination).
            def put_seed(item) -> None:
                while not loop_gone.is_set():
                    try:
                        return seed_q.put(item, timeout=0.1)
                    except queue.Full:
                        pass
                raise queue.Full  # the loop is gone: stop seeding

            def _seed():
                end = None
                try:
                    self._seed_frontier_dataset(ray, self._seeds_ds,
                                                put_seed)
                except BaseException as exc:  # raised by the loop
                    end = exc
                with contextlib.suppress(queue.Full):
                    put_seed(end)

            threading.Thread(target=_seed, daemon=True).start()
        else:
            if self.clean_needed:
                seeds = clean_seeds(cfg.seeds, self.filters)
            else:
                seeds = sorted(set(cfg.seeds))
            if seeds:
                self._seed_frontier(ray, seeds)
            seed_done = time.monotonic()

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
        route_fn = make_link_router(cfg.num_frontier_shards, cfg.retry_policy)
        # ship the stage closures ONCE; workers cache the deserialized
        # tuple per process (same pattern as the broadcast state caches)
        fns_ref = ray.put((fetch_fn, validate_fn, persist_fn, route_fn))
        chunk_task = _remote(_run_stream_chunk)  # one CPU, Ray's default

        # a drain is up to 8 chunks' worth, so each drain RTT amortizes
        # over several chunk tasks (the drain path is a serial per-shard
        # loop; small drains would make it the critical path at high
        # core counts); ``_chunk_spans`` cuts it by the free engines
        chunk_rows = max(1, cfg.fetch_batch_size)
        per_poll = 8 * chunk_rows
        goal = None if cfg.limit is None else max(cfg.limit, 1)
        # in-flight window: one chunk per engine plus a cushion of a
        # quarter of the engines (at least one), so an engine that
        # finishes finds its next chunk queued; the window IS the
        # backpressure (object store holds at most window × chunk bytes
        # of artifacts). It RAMPS: until the first engines-worth of
        # chunks complete, cap at engines — a cold burst of tasks all
        # blocking on the broadcast ray.get makes Ray treat their CPUs
        # as released and over-spawn workers, each paying its own index
        # build (measured 10x cold slowdown at 2x engines)
        window_full = cfg.engines + max(1, cfg.engines // 4)
        window_ramp = max(2, cfg.engines)
        absorbed_chunks = 0

        inflight: dict = {}  # submitted, unabsorbed chunk ref → its rows
        # the window's fill: its peak, and the seconds the loop ran with
        # fewer than engines chunks in flight (``under`` since ``since``)
        fill = {"peak": 0, "under": 0.0, "since": time.monotonic()}

        def note_fill() -> None:
            """Account the fill after ``inflight`` changed."""
            now = time.monotonic()
            fill["peak"] = max(fill["peak"], len(inflight))
            if len(inflight) < cfg.engines:
                if fill["since"] is None:
                    fill["since"] = now
            elif fill["since"] is not None:
                fill["under"] += now - fill["since"]
                fill["since"] = None

        # links counted by the chunks (the benchmark's runner reads it)
        routed = self._routed = {"links": 0}
        stage_sec = dict.fromkeys(STAGES, 0.0)

        def absorb(done_refs):
            """Count finished chunks and pass their payloads on to the
            shards; retry times are stamped with this loop's clock, the
            one its drains are given."""
            nonlocal absorbed_chunks
            absorbed_chunks += len(done_refs)
            for r in done_refs:
                del inflight[r]
            note_fill()
            chunks = ray.get(list(done_refs))
            now_ms = time.monotonic() * 1000.0
            for c in chunks:
                stats.visited += c["visited"]
                stats.collected += c["ok"]
                routed["links"] += c["links"]
                if cfg.retry_policy != "no":
                    stats.retries += c["timeout"]
                else:
                    stats.errors += c["timeout"]
                stats.errors += c["error"]
                for stage, sec in zip(STAGES, c["stage_sec"]):
                    stage_sec[stage] += sec
                for s, urls, depths in c["ingest"]:
                    shards.send(s, "ingest", urls, depths)
                for s, items in c["retry"]:
                    shards.send(s, "keep_retry_batch", items, now_ms)

        def forward_seeds(timeout: float | None = 0) -> None:
            """Pass the queued seed payloads on to their shards, waiting
            up to ``timeout`` (None: for ever) for the first."""
            nonlocal seeding, seed_done
            try:
                item = seed_q.get(block=timeout != 0, timeout=timeout)
                while isinstance(item, tuple):
                    shards.send(item[0], "ingest", *item[1:])
                    item = seed_q.get_nowait()
            except queue.Empty:
                return
            seeding, seed_done = False, time.monotonic()
            if item is not None:
                raise item

        def drain() -> list:
            """Every shard's drained entries, in shard order: one call
            per shard, answered directly by an in-process shard and
            through one ``ray.get`` by the actors. The third argument is
            the benchmark's traced drain override's required
            per_host_cap (always None)."""
            budget = per_poll
            if goal is not None:
                budget = goal - stats.collected - sum(inflight.values())
                if budget <= 0:
                    return []  # the in-flight chunks may reach the goal
                budget = max(1, budget // n_shards)
            t0 = time.monotonic()
            drained = shards.call(
                "drain", [(budget, t0 * 1000.0, None)] * n_shards)
            _t["drain"] += time.monotonic() - t0
            return drained

        def crawl_done() -> bool:
            """True when seeding finished and every shard's frontier is
            empty (the caller has absorbed every chunk). One call per
            shard, run after every payload sent before it."""
            if seeding:
                return False  # mid-seeding emptiness is not termination
            t0 = time.monotonic()
            done = all(shards.call("is_empty"))
            _t["settle"] += time.monotonic() - t0
            return done

        def quiesce():
            while inflight:
                done, _ = ray.wait(list(inflight), num_returns=len(inflight))
                absorb(done)

        boot_sec = boot_visited = 0

        def end_boot() -> None:
            nonlocal boot_sec, boot_visited
            boot_sec = time.monotonic() - t_start
            boot_visited = stats.visited - visited0

        last_ckpt = time.monotonic()
        idle_sleep = 0.002
        _t = {"drain": 0.0, "wait": 0.0, "idle": 0.0, "settle": 0.0,
              "loops": 0, "chunks": 0}
        while True:
            _t["loops"] += 1
            if shards.hand_over():
                end_boot()
            if self._stop_requested or (
                    goal is not None and stats.collected >= goal):
                break
            if seeding:
                forward_seeds()
            # every drained entry goes into a chunk this turn, so a stop
            # leaves no entry drained but unvisited
            n_new = 0
            for entries in drain():
                for lo, hi in _chunk_spans(len(entries),
                                           cfg.engines - len(inflight),
                                           chunk_rows):
                    # the window caps SUBMISSION, not just outstanding
                    # count — already-submitted tasks that block on the
                    # cold broadcast over-spawn workers regardless of
                    # any later wait
                    while len(inflight) >= (
                        window_full if absorbed_chunks >= cfg.engines
                        else window_ramp
                    ):
                        _t0 = time.monotonic()
                        done, _ = ray.wait(list(inflight), num_returns=1)
                        absorb(done)
                        _t["wait"] += time.monotonic() - _t0
                    chunk = entries[lo:hi]
                    inflight[chunk_task.remote(chunk, [fns_ref])] = len(chunk)
                    note_fill()
                    n_new += 1
            _t["chunks"] += n_new
            if inflight:
                _t0 = time.monotonic()
                # non-blocking sweep of finished chunks; BLOCK when this
                # turn's drain came back empty (otherwise the loop would
                # spin, re-draining shards that only a finished chunk's
                # payloads can refill)
                done, _ = ray.wait(
                    list(inflight),
                    num_returns=1,
                    timeout=None if n_new == 0 else 0,
                )
                absorb(done)
                _t["wait"] += time.monotonic() - _t0
            if n_new == 0 and not inflight:
                if crawl_done():
                    break
                _t0 = time.monotonic()
                if seeding:
                    # a seed payload ends the wait as it arrives
                    forward_seeds(timeout=idle_sleep)
                else:
                    time.sleep(idle_sleep)
                _t["idle"] += time.monotonic() - _t0
                idle_sleep = min(idle_sleep * 2, 0.05)
            else:
                idle_sleep = 0.002
            if (cfg.checkpoint_dir and cfg.checkpoint_every_sec
                    and not seeding and time.monotonic() - last_ckpt
                    >= cfg.checkpoint_every_sec):
                # a quiesced cut; emptiness is not required for a
                # periodic checkpoint
                quiesce()
                self._stream_checkpoint(ray, run_idx)
                last_ckpt = time.monotonic()
        if fill["since"] is not None:  # underfilled until the loop's end
            fill["under"] += time.monotonic() - fill["since"]

        # a stop mid-seeding must not checkpoint a partial frontier: take
        # the seeder's payloads until it ends (their pushes are idempotent
        # via the seen set, but the snapshot below must see them all; the
        # seeder blocks on the bounded queue, so only taking them lets
        # it end)
        while seeding:
            forward_seeds(timeout=None)
        quiesce()
        if shards.local is not None:
            # the crawl ended before the actors were up: no handover, its
            # state stays in-process (final checkpoint, seen_sets())
            end_boot()
        if cfg.checkpoint_dir:
            # final checkpoint on BOTH graceful stop and normal
            # completion: a finished run's seen/frontier state is what a
            # later resume=True warm-starts from (incremental recrawl —
            # re-seeded URLs dedup against the restored seen set, only
            # genuinely new seeds expand)
            self._stream_checkpoint(ray, run_idx)
        # one metrics row per run (north_rule audit trail): where the
        # crawl loop's time went, the summed in-task stage seconds, and the
        # seen partitions' occupancy (a nonzero stash means the cuckoo
        # capacity is undersized for this crawl)
        occ = shards.call("occupancy")
        metrics = {
            "run_idx": run_idx,
            "run_dir": run_dir,
            "chunks": _t["chunks"],
            "loops": _t["loops"],
            # the most chunks in flight at once, and the seconds the
            # loop ran with fewer than engines in flight (a tail-bound
            # or drain-bound crawl reads high)
            "peak_inflight": fill["peak"],
            "underfill_sec": round(fill["under"], 3),
            "drain_sec": round(_t["drain"], 3),
            "wait_sec": round(_t["wait"], 3),
            "idle_sec": round(_t["idle"], 3),
            # run() start → seeding finished (bulk seeding overlaps the
            # loop); time spent in emptiness checks
            "seed_sec": round(seed_done - t_start, 3),
            "settle_sec": round(_t["settle"], 3),
            # run() start → the shards' handover to their actors (or the
            # loop's end, without one), and the visits absorbed by then
            "boot_sec": round(boot_sec, 3),
            "boot_visited": boot_visited,
            "stage_sec": {k: round(v, 3) for k, v in stage_sec.items()},
            "driver_cpu_sec": round(time.thread_time() - cpu_start[0], 3),
            "driver_proc_cpu_sec": round(
                time.process_time() - cpu_start[1], 3),
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
        """Quiesced checkpoint. The caller has already absorbed the
        in-flight chunk window and passed its payloads on to the shards,
        whose snapshot calls run after them — and persist runs BEFORE
        route inside each chunk, so every counted row's artifact is on
        disk. Snapshot = shard state + the artifact file manifest; a
        resume deletes files not in the manifest, so at most one
        checkpoint interval of fetches is repeated and the output stays
        exact."""
        cfg = self.cfg
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
        seq = getattr(self, "_ckpt_seq", 0)
        ckpt = os.path.join(cfg.checkpoint_dir, f"stream={seq:05d}")
        os.makedirs(ckpt, exist_ok=True)
        for i, b in enumerate(self._shards.call("snapshot")):
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
        blobs = []
        for i in range(self.cfg.num_frontier_shards):
            with open(os.path.join(ckpt, f"frontier_{i:03d}.pkl"), "rb") as fh:
                blobs.append((fh.read(),))
        self._shards.call("restore", blobs)
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
        """The last run's seen set (exact mode), wherever it lives."""
        out: set[str] = set()
        for part in self._shards.call("seen_urls"):
            out.update(part)
        return out

    def close(self) -> None:
        """Kill this crawler's shard actors, including any that never
        took the state, and drop their handles (idempotent). ``run()``
        leaves them up, so a handed-over state can still be read after
        it; call this, or use the crawler as a context manager, when
        done."""
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
    """Single-in-flight crawl on the engine's own objects: one
    in-process ``FrontierShard`` (frontier, seen set and robots cache,
    built by the scaled mode's ``_shard_args``) and the Fetcher/Validator
    batch fns applied inline — produces the reference's exact j=1 order.

    ``fetch_backend`` (zero-arg factory) swaps in a custom transport
    (e.g. the loopback HttpFetcher); image validation is then skipped —
    payload truth is a synthetic-world notion.

    The reference has no politeness, so a ``host_rate_per_sec`` is
    refused rather than dropped."""
    if cfg.host_rate_per_sec is not None:
        raise ValueError(
            f"host_rate_per_sec={cfg.host_rate_per_sec}: conformance mode "
            "reproduces the reference's order, which has no politeness")
    filters = FilterSpec(tuple(cfg.ignore_regexes), cfg.allow_domains)
    if fetch_backend is not None:
        fetcher = fetch_backend()
        validator = None
    else:
        fetcher = Fetcher(pages, filters, cfg.extractor)
        validator = Validator(images, world_seed, img_min=img_bounds[0],
                              img_max=img_bounds[1])
    shard = FrontierShard(*_shard_args(cfg, robots_map, 0))

    stats = CrawlStats()
    order: list[str] = []
    collected: list[dict] = []
    clock_ms = 0.0
    limit_left = cfg.limit
    closed = False

    shard.seed(clean_seeds(cfg.seeds, filters))
    while not closed:
        got = shard.drain(1, clock_ms)
        if not got:
            break
        url, attempt, depth = got[0]
        order.append(url)
        stats.visited += 1
        row = fetcher(_entries_table([(url, attempt, depth)]))
        status = row.column("status")[0].as_py()
        clock_ms += row.column("latency_ms")[0].as_py()
        if status == "timeout" and cfg.retry_policy != "no":
            stats.retries += 1
            shard.keep_retry_batch([(url, depth, attempt)], clock_ms)
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
        if limit_left is not None:  # limit=0 collects one (the quirk)
            limit_left -= 1
            closed = limit_left <= 0
        links = v.column("links")[0].as_py()
        shard.push_fresh(links, [depth + 1] * len(links))

    return {
        "order": order,
        "collected": collected,
        "seen": set(shard.seen_urls()) if cfg.seen_mode == "exact" else None,
        "stats": stats.as_dict(),
    }
