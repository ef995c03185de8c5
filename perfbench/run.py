"""Crawl benchmark: drives ``RayCrawler(cfg, ...).run()`` over a generated
world and checks every crawl against the pure-Python oracle.

    python3 perfbench/run.py --workload organic_ckpt --seed 1 \
        --seconds 36 --trace 0

One run: build (or load from cache) the world and its oracle result; set
up the Ray session several times (Ray start, world load, broadcast puts,
a short warm-up crawl) and keep the last; crawl repeatedly for
``--seconds``, gating each crawl for correctness outside its timed
window. ``--trace 1`` adds one traced crawl and reports per-layer
metrics instead of end-to-end ones. The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# import the repository's packages, and not this directory's modules as
# top-level names
sys.path[0] = ROOT

SETUP_REPS = 3
MAX_CRAWLS = 40
# a crawl still running after this long is stopped and fails the gate,
# so a crawl that never ends cannot hold the run past its time limit
CRAWL_TIMEOUT_S = 30.0
CHUNK_ROWS = 512     # rows per chunk task (the bench tier's batch size)
# Ray's socket paths live under its temp dir, so keep that path short
RAY_TMP = os.path.join(ROOT, ".pbray")
AF_UNIX_MAX = 107
RAY_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_9999999"
                      "/sockets/plasma_store")

END_TO_END = {
    "crawl_s": "s",
    "pages_per_s": "1/s",
    "validated_per_s": "1/s",
    "first_artifact_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_S = ("driver.drain_s", "driver.wait_s", "driver.other_s", "driver.tail_s",
      "fetch.busy_s", "validate.busy_s", "persist.busy_s", "route.busy_s",
      "chunk.stage_s_p50", "chunk.stage_s_p90", "seen.busy_s",
      "frontier.busy_s", "seed.busy_s", "ckpt.busy_s", "ckpt.restore_s",
      "trace.crawl_s", "trace.overhead_s")
_COUNT = ("driver.loops", "driver.chunks", "fetch.rows", "validate.rows",
          "persist.rows", "route.rows", "seen.urls_in", "seen.stash",
          "frontier.push_items", "frontier.drain_calls",
          "frontier.depth_max", "ckpt.count", "ray.procs_peak",
          "ray.actors_leaked", "count.visited", "count.collected",
          "count.errors", "count.retries", "count.links", "count.validated")
LAYER_UNITS = {**dict.fromkeys(_S, "s"), **dict.fromkeys(_COUNT, "count"),
               "seen.new_frac": "ratio", "frontier.drain_empty_frac": "ratio",
               "ckpt.bytes": "B"}


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: the affinity mask, capped by
    OMP_NUM_THREADS and OMP_THREAD_LIMIT when they are set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


class Session:
    """One Ray session plus the workload's world, as a user would hold it
    for a sequence of crawls."""

    def __init__(self, workload, world_dir: str, seed: int, work: str):
        self.w = workload
        self.world_dir = world_dir
        self.seed = seed
        self.work = work
        self.ncpu = nproc()
        self.ray_tmp = (RAY_TMP if len(RAY_TMP) + RAY_SOCKET_TAIL
                        <= AF_UNIX_MAX else None)
        if self.ray_tmp is None:
            print(f"perfbench: {RAY_TMP} is too long for Ray's sockets; "
                  "Ray uses its default temp dir", file=sys.stderr)

    # -- session lifetime ----------------------------------------------
    def start(self) -> float:
        """Set up and return the seconds it took: Ray start, world load,
        broadcast puts and one warm-up crawl."""
        import logging

        import ray
        from ray.data import DataContext

        from doonop_ray.stages.fetch import prep_images_table
        from doonop_ray.synth import read_world

        t0 = time.monotonic()
        ray.init(address="local", num_cpus=self.ncpu,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, object_store_memory=512 << 20,
                 _temp_dir=self.ray_tmp)
        DataContext.get_current().enable_progress_bars = False
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        world = read_world(self.world_dir)
        self.params = world.params
        self.pages = world.pages.combine_chunks()
        self.images = prep_images_table(world.images)
        self.robots = world.robots_map()
        self.seeds = world.seeds.column("url").to_pylist()
        self.pages_ref = ray.put(self.pages)
        self.images_ref = ray.put(self.images)
        self._warm_up()
        return time.monotonic() - t0

    def stop(self) -> None:
        """Shut Ray down and wait until every process it started ended."""
        import ray

        from perfbench import procfs

        if not ray.is_initialized():
            return
        started = procfs.descendants(os.getpid())
        ray.shutdown()
        left = procfs.wait_gone(started, 20.0)
        for p in left:
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if procfs.wait_gone(left, 10.0):
            raise RuntimeError(f"processes {sorted(left)} did not exit")

    def _warm_up(self) -> None:
        """Crawl until the first chunk is persisted, then stop: workers
        start and build their per-worker caches of the broadcast world.
        (The warm-up must use the timed crawls' filters: workers cache
        the fetcher per pages ref, not per filter set.)"""
        out = os.path.join(self.work, "warmup")
        # bulk seeding finishes before a stop returns: seed a slice only
        c = self.crawler(out, os.path.join(self.work, "warmup_ckpt"),
                         bulk_rows=2 * CHUNK_ROWS)
        done = threading.Event()

        def watch():
            while not done.wait(0.01):
                if glob.glob(os.path.join(out, "run=*", "part-*.parquet")):
                    c.request_stop()
                    return

        th = threading.Thread(target=watch, daemon=True)
        th.start()
        try:
            c.run()
        finally:
            done.set()
            th.join()
            self.release(c)

    # -- crawls --------------------------------------------------------
    def crawler(self, out_dir: str, ckpt_dir: str, fresh: bool = True,
                bulk_rows: int | None = None):
        import ray.data as rd

        from doonop_ray.config import CrawlConfig
        from doonop_ray.pipelines.crawler import RayCrawler
        from perfbench.workloads import CRAWL_SEMANTICS

        if fresh:
            for d in (out_dir, ckpt_dir):
                shutil.rmtree(d, ignore_errors=True)
        w = self.w
        shards = max(1, self.ncpu // 8)
        cfg = CrawlConfig(
            seeds=[] if w.bulk else self.seeds,
            engines=self.ncpu,
            fetch_batch_size=CHUNK_ROWS,
            num_seen_shards=shards,
            num_frontier_shards=shards,
            streaming=True,
            seeds_canonical=w.bulk,
            checkpoint_dir=ckpt_dir if w.checkpoint_every_sec else None,
            checkpoint_every_sec=w.checkpoint_every_sec,
            **CRAWL_SEMANTICS,
        )
        seeds_ds = None
        if w.bulk:
            urls = self.pages.select(["url"]).slice(0, bulk_rows)
            seeds_ds = rd.from_arrow(
                [urls.slice(i, 8192) for i in range(0, len(urls), 8192)])
        return RayCrawler(cfg, self.pages, self.images, self.robots, out_dir,
                          world_seed=self.seed,
                          img_bounds=(self.params.img_min,
                                      self.params.img_max),
                          pages_ref=self.pages_ref,
                          images_ref=self.images_ref, seeds_ds=seeds_ds)

    @staticmethod
    def release(c) -> None:
        """Kill a finished crawler's frontier and seen actors and wait for
        their processes, so the next crawl starts from the same state."""
        import ray

        from perfbench import procfs

        for h in getattr(c, "frontier", []) + getattr(c, "seen", []):
            ray.kill(h)
        deadline = time.monotonic() + 10.0
        while procfs.leaked_state_actors() and time.monotonic() < deadline:
            time.sleep(0.05)

    def crawl(self, oracle, trace: dict | None = None) -> dict:
        """One gated crawl. ``trace`` (a dict) receives the state actors'
        counters and the driver-side layer timers."""
        import ray

        from perfbench import gate, procfs, spans

        out = os.path.join(self.work, "out")
        ckpt = os.path.join(self.work, "ckpt")
        c = self.crawler(out, ckpt)
        driver_acc = spans.time_driver_layers(c) if trace is not None else None
        timed_out = threading.Event()

        def stop():
            timed_out.set()
            c.request_stop()

        watchdog = threading.Timer(CRAWL_TIMEOUT_S, stop)
        watchdog.start()
        try:
            wall0 = time.time()
            t0 = time.monotonic()
            stats = c.run().as_dict()
            crawl_s = time.monotonic() - t0
            wall1 = time.time()
            watchdog.cancel()
            r = {"crawl_s": crawl_s, "wall0": wall0, "wall1": wall1,
                 "leaked": procfs.leaked_state_actors(),
                 "peak_rss_mb": procfs.peak_rss_mb(),
                 "links": c._routed["links"], **stats}
            seen = c.seen_sets()
            if trace is not None:
                trace["seen"] = ray.get(
                    [s.trace_stats.remote() for s in c.seen])
                trace["frontier"] = ray.get(
                    [f.trace_stats.remote() for f in c.frontier])
                trace["driver"] = driver_acc
        finally:
            watchdog.cancel()
            self.release(c)
        r.update(read_artifacts(out))
        with open(os.path.join(out, "_stream_metrics.jsonl")) as fh:
            r["stream"] = json.loads(fh.read().splitlines()[-1])
        r["first_artifact_s"] = r["parts"][0][0] - wall0
        r["pages_per_s"] = r["visited"] / crawl_s
        r["validated_per_s"] = r["validated"] / crawl_s
        r["problems"] = gate.check(stats, seen,
                                   sum(n for _, n in r["parts"]),
                                   r["validated"], oracle)
        if timed_out.is_set():
            r["problems"].append(f"crawl stopped after {CRAWL_TIMEOUT_S}s")
        return r

    def resume(self, expect: dict) -> tuple[float, list[str]]:
        """Resume the last crawl from its final checkpoint; returns the
        seconds ``run(resume=True)`` took and any stats mismatch."""
        crawler = self.crawler(os.path.join(self.work, "out"),
                               os.path.join(self.work, "ckpt"), fresh=False)
        try:
            t0 = time.monotonic()
            stats = crawler.run(resume=True).as_dict()
            dt = time.monotonic() - t0
        finally:
            self.release(crawler)
        bad = [] if stats == expect else [f"resumed stats {stats} != {expect}"]
        return dt, bad


def read_artifacts(out: str) -> dict:
    """Validated rows and (mtime, rows) per part file."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    validated = 0
    parts = []
    for f in glob.glob(os.path.join(out, "run=*", "part-*.parquet")):
        t = pq.read_table(f, columns=["pixel_ok", "caption_ok"])
        ok = pc.and_(t.column("pixel_ok"), t.column("caption_ok"))
        validated += int(pc.sum(ok.fill_null(False).cast("int64")).as_py()
                         or 0)
        parts.append((os.stat(f).st_mtime, t.num_rows))
    parts.sort()
    return {"validated": validated, "parts": parts}


def layer_metrics(r: dict, trace: dict, chunks: list, untraced_s: float,
                  procs_peak: int, leaked: int, ckpt_bytes: int,
                  restore_s: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced crawl ``r`` and the traced run's
    self-check problems."""
    from perfbench.spans import STAGES

    sm = r["stream"]
    m = {
        "driver.drain_s": sm["drain_sec"],
        "driver.wait_s": sm["wait_sec"],
        "driver.other_s": r["crawl_s"] - sm["drain_sec"] - sm["wait_sec"],
        "driver.loops": sm["loops"],
        "driver.chunks": sm["chunks"],
    }
    # the time by which 99% of the visits were persisted
    total, done, t99 = sum(n for _, n in r["parts"]), 0, r["wall1"]
    for mtime, n in r["parts"]:
        done += n
        if done >= 0.99 * total:
            t99 = mtime
            break
    m["driver.tail_s"] = r["wall1"] - t99

    per_chunk = []
    for stage in STAGES:
        m[f"{stage}.busy_s"] = 0.0
        m[f"{stage}.rows"] = 0
    for _pid, spans in chunks:
        per_chunk.append(sum(t1 - t0 for _s, t0, t1, _n in spans))
        for stage, t0, t1, n in spans:
            m[f"{stage}.busy_s"] += t1 - t0
            m[f"{stage}.rows"] += n
    per_chunk = per_chunk or [0.0]  # every span lost: the self-check says so
    m["chunk.stage_s_p50"] = statistics.median(per_chunk)
    m["chunk.stage_s_p90"] = _p90(per_chunk)

    seen, front = trace["seen"], trace["frontier"]
    urls_in = sum(s["urls_in"] for s in seen)
    calls = sum(f["drain_calls"] for f in front)
    m.update({
        "seen.busy_s": sum(s["busy_s"] for s in seen),
        "seen.urls_in": urls_in,
        "seen.new_frac": sum(s["new"] for s in seen) / max(1, urls_in),
        "seen.stash": sm["seen_stash"],
        "frontier.busy_s": sum(f["busy_s"] for f in front),
        "frontier.push_items": sum(f["push_items"] for f in front),
        "frontier.drain_calls": calls,
        "frontier.drain_empty_frac":
            sum(f["drain_empty"] for f in front) / max(1, calls),
        "frontier.depth_max": max(f["depth_max"] for f in front),
        "seed.busy_s": trace["driver"]["seed"]["busy_s"],
        "ckpt.count": trace["driver"]["ckpt"]["count"],
        "ckpt.busy_s": trace["driver"]["ckpt"]["busy_s"],
        "ckpt.bytes": ckpt_bytes,
        "ckpt.restore_s": restore_s,
        "ray.procs_peak": procs_peak,
        "ray.actors_leaked": leaked,
    })
    for k in ("visited", "collected", "errors", "retries", "links",
              "validated"):
        m[f"count.{k}"] = r[k]
    m["trace.crawl_s"] = r["crawl_s"]
    m["trace.overhead_s"] = r["crawl_s"] - untraced_s

    bad = []
    if len(chunks) != sm["chunks"]:
        bad.append(f"{len(chunks)} chunk spans != driver.chunks "
                   f"{sm['chunks']}")
    for stage in STAGES:
        if m[f"{stage}.rows"] != r["visited"]:
            bad.append(f"{stage}.rows {m[f'{stage}.rows']} != visited "
                       f"{r['visited']}")
    return m, bad


def _sample_procs(stop: threading.Event, peak: list) -> None:
    from perfbench import procfs

    while not stop.wait(0.05):
        peak[0] = max(peak[0], len(procfs.ray_procs()))


def traced_crawl(sess: Session, oracle, untraced_s: float,
                 leaked: int) -> tuple[dict, list[str]]:
    import ray

    from perfbench import spans

    collector = spans.SpanCollector.remote()
    trace: dict = {}
    peak = [0]
    stop = threading.Event()
    sampler = threading.Thread(target=_sample_procs, args=(stop, peak),
                               daemon=True)
    sampler.start()
    try:
        with spans.traced(collector):
            r = sess.crawl(oracle, trace)
        chunks = spans.wait_for_chunks(collector, r["stream"]["chunks"])
    finally:
        stop.set()
        sampler.join()
        ray.kill(collector)
    problems = list(r["problems"])
    ckpt_bytes = sum(os.path.getsize(f) for f in glob.glob(
        os.path.join(sess.work, "ckpt", "*", "*")))
    restore_s = 0.0
    if sess.w.checkpoint_every_sec:
        stats = {k: r[k] for k in ("visited", "collected", "errors",
                                   "retries")}
        restore_s, bad = sess.resume(stats)
        problems += bad
    m, bad = layer_metrics(r, trace, chunks, untraced_s, peak[0],
                           max(leaked, r["leaked"]), ckpt_bytes, restore_s)
    return m, problems + bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still shuts Ray down (the cleanup is in finally)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        import doonop_ray  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: the crawl engine is not importable from {ROOT}: "
              f"{exc}", file=sys.stderr)
        return 2
    from perfbench.workloads import (WORK, WORKLOADS, ensure_prepared,
                                     load_oracle)

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    t_run = time.monotonic()

    def note(msg):
        print(f"perfbench: {time.monotonic() - t_run:7.2f}s {msg}",
              file=sys.stderr, flush=True)

    world_dir = ensure_prepared(w, args.seed)
    oracle = load_oracle(world_dir)
    note("world and oracle ready")
    # workers import doonop_ray and this package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    work = os.path.join(WORK, f"run-{os.getpid()}")
    # temp files of this process and of Ray's workers stay in the checkout
    os.makedirs(os.path.join(work, "tmp"))
    os.environ["TMPDIR"] = os.path.join(work, "tmp")
    sess = Session(w, world_dir, args.seed, work)

    # crawls that passed the gate, and every crawl that completed; the
    # metrics come from the first, or from the second when none passed
    setup, crawls, completed, problems = [], [], [], []
    attempted = failed = 0
    layers = None
    # Crawls follow each set-up in turn, so a run's samples spread over
    # its whole length instead of one stretch of host weather.
    per_round = args.seconds / SETUP_REPS
    try:
        for i in range(SETUP_REPS):
            setup.append(sess.start())
            note(f"setup {i + 1}: {setup[-1]:.3f}s")
            t_round = time.monotonic()
            while attempted < MAX_CRAWLS:
                attempted += 1
                try:
                    r = sess.crawl(oracle)
                except Exception:  # a crawl that raises counts as failed
                    traceback.print_exc()
                    r = {"problems": ["crawl raised"], "crawl_s": 0.0}
                if "pages_per_s" in r:
                    completed.append(r)
                if r["problems"]:
                    failed += 1
                    problems += r["problems"]
                    note(f"crawl {attempted}: failed")
                else:
                    crawls.append(r)
                    note(f"crawl {attempted}: {r['crawl_s']:.3f}s, first "
                         f"artifact {r['first_artifact_s']:.3f}s")
                if time.monotonic() - t_round + r["crawl_s"] > per_round:
                    break
            if not completed:
                raise RuntimeError(f"no crawl completed: {problems}")
            if args.trace and i == SETUP_REPS - 1:
                attempted += 1
                layers, bad = traced_crawl(
                    sess, oracle,
                    statistics.median(r["crawl_s"] for r in completed),
                    max(r["leaked"] for r in completed))
                if bad:
                    failed += 1
                    problems += bad
                note("traced crawl done")
            sess.stop()
            note("stopped")
    finally:
        sess.stop()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(RAY_TMP, ignore_errors=True)

    crawls = crawls or completed
    samples = {k: setup if k == "setup_s" else [r[k] for r in crawls]
               for k in END_TO_END}
    e2e = {k: statistics.median(xs) for k, xs in samples.items()}
    print(f"# {w.name} seed={args.seed} cpus={sess.ncpu} "
          f"crawls={len(crawls)} setups={len(setup)}")
    for name, xs in samples.items():
        print(f"{name:>18} {e2e[name]:12.4f} {END_TO_END[name]:<5} median of "
              f"{len(xs)}, range {min(xs):.4f}..{max(xs):.4f}")
    print(f"{'failed_frac':>18} {failed / attempted:12.4f} ratio "
          f"{failed} of {attempted} crawls")
    for p in problems:
        print(f"  problem: {p}")
    if layers is not None:
        for name, v in layers.items():
            print(f"{name:>25} {v} {LAYER_UNITS[name]}")
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]}
                   for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
