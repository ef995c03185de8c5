"""Engine-vs-oracle conformance: the Ray engine's operators must
reproduce the reference scheduler semantics exactly in single-lane mode
(reference j=1 order is deterministic, lib.rs:117-134) and match on
sets/stats in scaled mode (reference N>1 interleave is nondeterministic,
lib.rs:136-155)."""

import os

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doonop_ray.config import CrawlConfig
from doonop_ray.oracle import run_oracle
from doonop_ray.pipelines.crawler import RayCrawler, run_conformance
from doonop_ray.synth import WorldParams, build_world

WORLDS = [
    WorldParams(seed=7, n_hosts=3, pages_per_host=6),
    WorldParams(seed=21, n_hosts=5, pages_per_host=12, fanout=4, p_cross=0.4),
    WorldParams(seed=99, n_hosts=2, pages_per_host=20, fanout=5,
                p_timeout=0.15, p_error=0.08),
]

CONFIGS = [
    dict(),
    dict(use_robots=True),
    dict(retry_policy="no"),
    dict(retry_policy="last", retry_threshold_ms=0),
    dict(limit=5),
    dict(limit=0),
    dict(ignore_regexes=(r"/p/1$",)),
    dict(allow_domains=("h000.example.com", "h001.example.com")),
]


@pytest.fixture(autouse=True)
def _close_crawlers():
    """Close every crawler a test runs when the test ends. A crawl may
    end before its shard actors are up, and the actors of a crawler left
    open would start during the next test, slowing the actor start that
    the handover tests race their crawls against."""
    ran = []
    spawn = RayCrawler._spawn_state

    def tracked(self, ray):
        ran.append(self)
        spawn(self, ray)

    RayCrawler._spawn_state = tracked
    try:
        yield
    finally:
        RayCrawler._spawn_state = spawn
        for crawler in ran:
            crawler.close()


def _cfg(world, **kw):
    base = dict(seeds=world.seeds.column("url").to_pylist(), retry_threshold_ms=0)
    base.update(kw)
    return CrawlConfig(**base)


@pytest.mark.parametrize("wi", range(len(WORLDS)))
@pytest.mark.parametrize("ci", range(len(CONFIGS)))
def test_conformance_mode_matches_oracle(wi, ci):
    w = build_world(WORLDS[wi])
    cfg = _cfg(w, **CONFIGS[ci])
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    engine = run_conformance(cfg, w.pages, w.images, w.robots_map(), WORLDS[wi].seed)
    assert engine["order"] == oracle.order
    assert engine["seen"] == oracle.seen
    assert engine["stats"] == oracle.stats()
    assert [c["data"] for c in engine["collected"]] == oracle.collected
    # per-row image invariant holds for every collected payload
    for c in engine["collected"]:
        if c["image_id"] is not None:
            assert c["caption_ok"] and c["pixel_ok"]


def test_conformance_refuses_politeness():
    """The reference has no politeness, so conformance mode refuses a
    host rate instead of crawling unthrottled."""
    w = build_world(WORLDS[0])
    with pytest.raises(ValueError, match="host_rate_per_sec"):
        run_conformance(_cfg(w, host_rate_per_sec=2.0), w.pages, w.images,
                        w.robots_map(), WORLDS[0].seed)


def test_conformance_deep_retry_world():
    w = build_world(WorldParams(seed=5, n_hosts=4, pages_per_host=15,
                                fanout=4, p_timeout=0.25, max_fail=4))
    cfg = _cfg(w, retry_policy="first", retry_threshold_ms=30, retry_count=3)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    engine = run_conformance(cfg, w.pages, w.images, w.robots_map(), 5)
    assert engine["order"] == oracle.order
    assert engine["stats"] == oracle.stats()


def _live_actors() -> dict[str, str]:
    """actor id -> class name of every live actor in the session."""
    from ray._private import state

    return {aid: a["ActorClassName"] for aid, a in state.actors().items()
            if a["State"] == "ALIVE"}


@pytest.mark.parametrize("shards", [dict(num_frontier_shards=1),
                                    dict(num_frontier_shards=3)])
def test_scaled_mode_set_equality(ray_session, tmp_path, shards):
    w = build_world(WORLDS[1])
    cfg = _cfg(w, use_robots=True, engines=2, fetch_batch_size=8, **shards)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    before = _live_actors()
    stats = crawler.run()
    # one state actor per shard: the frontier shard holds the seen set
    # (the crawl may end before the actors are up: wait for them)
    ray_session.get([f.is_empty.remote() for f in crawler.frontier])
    spawned = [c for aid, c in _live_actors().items() if aid not in before]
    assert spawned == ["FrontierShard"] * cfg.num_frontier_shards
    assert stats.as_dict() == oracle.stats()
    assert crawler.seen_sets() == oracle.seen

    # artifacts: visited set equality + per-row invariants
    import pyarrow.parquet as pq

    t = pq.read_table(str(tmp_path / "out"))
    assert set(t.column("url").to_pylist()) == set(oracle.order)
    ok = t.filter(__import__("pyarrow").compute.equal(t.column("status"), "ok"))
    for row in ok.to_pylist():
        if row["image_id"] is not None:
            assert row["caption_ok"] and row["pixel_ok"]


def _artifact_rows(out_dir) -> int:
    import glob

    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in
               glob.glob(str(out_dir / "run=*" / "part-*.parquet")))


def test_scaled_mode_with_politeness_and_limit(ray_session, tmp_path):
    """Two frontier shards: each poll drains at least one URL per shard,
    so a limit run may overshoot by one (the reference overshoots by its
    in-flight count, workload.rs:127-131) — also when the host token
    buckets hold URLs back."""
    w = build_world(WORLDS[1])
    cfg = _cfg(
        w,
        engines=2,
        num_frontier_shards=2,
        limit=10,
        fetch_batch_size=4,
        host_rate_per_sec=20.0,
        host_burst=2.0,
    )
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    stats = crawler.run()
    assert 10 <= stats.collected <= 11
    assert _artifact_rows(tmp_path / "out") == stats.visited


@pytest.mark.parametrize("limit", [0, 10])
def test_scaled_limit_is_exact_with_one_frontier_shard(ray_session, tmp_path,
                                                       limit):
    """One frontier shard: a poll never drains more than the limit minus
    the collected and in-flight rows, so the crawl collects exactly
    max(limit, 1) — limit=0 collects one, the reference's quirk
    (workload.rs:213-222)."""
    w = build_world(WORLDS[1])
    cfg = _cfg(w, engines=2, limit=limit, fetch_batch_size=4,
               checkpoint_dir=str(tmp_path / "ckpt"))
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    stats = crawler.run()
    assert stats.collected == max(limit, 1)
    full = run_oracle(_cfg(w), w.pages_by_url(), w.robots_map())
    assert stats.visited < full.stats()["visited"]
    assert _artifact_rows(tmp_path / "out") == stats.visited
    # the final checkpoint holds the exact counters of the stopped crawl
    import json

    with open(_newest_manifest(tmp_path / "ckpt", "stream=")) as fh:
        assert json.load(fh)["stats"] == stats.as_dict()


def _stop_after_first_part(crawler) -> None:
    """Run ``crawler`` and request a graceful stop as soon as its first
    chunk's part file is on disk."""
    import glob
    import threading

    done = threading.Event()

    def watch():
        while not done.wait(0.005):
            if glob.glob(os.path.join(crawler.out_dir, "run=*",
                                      "part-*.parquet")):
                crawler.request_stop()
                return

    th = threading.Thread(target=watch, daemon=True)
    th.start()
    try:
        crawler.run()
    finally:
        done.set()
        th.join()


def test_scaled_resume_from_checkpoint(ray_session, tmp_path):
    w = build_world(WORLDS[1])

    def mk(tag, rate=None):
        cfg = _cfg(
            w,
            use_robots=True,
            engines=2,
            fetch_batch_size=4,
            checkpoint_dir=str(tmp_path / "ckpt"),
            # throttle so the graceful stop lands mid-crawl
            host_rate_per_sec=rate,
        )
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          str(tmp_path / f"out_{tag}"), world_seed=WORLDS[1].seed)

    # full run for the golden final state
    golden = mk("full")
    golden_stats = golden.run()
    golden_seen = golden.seen_sets()

    import shutil

    shutil.rmtree(tmp_path / "ckpt")

    # partial run stopped after its first part file, then resumed
    part = mk("part", rate=10.0)
    _stop_after_first_part(part)
    assert 0 < part.stats.visited < golden_stats.visited
    resumed = mk("part")  # same out dir: files past the cut are pruned
    stats = resumed.run(resume=True)
    assert stats.as_dict() == golden_stats.as_dict()
    assert resumed.seen_sets() == golden_seen


@pytest.mark.parametrize("kind", ["limit", "bulk", "organic"])
def test_stream_metrics_schema(ray_session, tmp_path, kind):
    """Every run mode appends the same ``_stream_metrics.jsonl`` row: the
    crawl-loop timers, the boot (a seed Dataset's crawl boots too), the
    summed in-task stage seconds, the seen occupancy and the run's stats,
    equal to what ``run()`` returned."""
    import json

    import ray.data as rd

    w = build_world(WORLDS[0])
    seeds_ds = None
    kw = dict(engines=2, fetch_batch_size=8)
    if kind == "limit":
        kw["limit"] = 5
    elif kind == "bulk":
        kw.update(seeds=[], seeds_canonical=True)
        seeds_ds = rd.from_arrow(w.pages.select(["url"]))
    crawler = RayCrawler(_cfg(w, **kw), w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[0].seed,
                         seeds_ds=seeds_ds)
    stats = crawler.run()
    with open(tmp_path / "out" / "_stream_metrics.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert len(rows) == 1
    row = rows[0]
    assert {"run_idx", "run_dir", "chunks", "loops", "drain_sec",
            "wait_sec", "idle_sec", "seed_sec", "settle_sec", "boot_sec",
            "boot_visited", "stage_sec", "stats", "artifact_files",
            "seen_count", "seen_stash"} <= set(row)
    assert 0 <= row["seed_sec"] and 0 <= row["settle_sec"]
    assert row["boot_sec"] > 0
    assert 0 <= row["boot_visited"] <= stats.visited
    assert set(row["stage_sec"]) == {"table", "fetch", "validate",
                                     "persist", "route"}
    assert all(v >= 0 for v in row["stage_sec"].values())
    assert row["stats"] == stats.as_dict()
    assert row["chunks"] > 0
    assert row["seen_stash"] == 0
    engines = kw["engines"]
    assert 1 <= row["peak_inflight"] <= engines + max(1, engines // 4)
    assert 0 <= row["underfill_sec"]
    assert _artifact_rows(tmp_path / "out") == stats.visited


@given(st.integers(0, 5000), st.integers(-8, 64), st.integers(1, 1024))
@example(904, 1, 512)  # one engine: one drain, two chunks (not eight)
@example(40, 4, 512)   # two 20-row chunks would undercut the floor
@settings(max_examples=500, deadline=None)
def test_chunk_spans_follow_the_free_engines(n, free, chunk_rows):
    """A drain of ``n`` entries becomes chunks that cover it in order,
    hold at most ``chunk_rows`` rows each, number at most ``max(1,
    free)`` whenever ``free`` chunks of ``chunk_rows`` rows can hold the
    drain, and keep 32 rows each unless the drain (or, for a
    ``chunk_rows`` under 64, the cap's own split) is smaller."""
    from doonop_ray.pipelines.crawler import MIN_CHUNK_ROWS, _chunk_spans

    spans = _chunk_spans(n, free, chunk_rows)
    bounds = [0] + [hi for _, hi in spans]
    assert [lo for lo, _ in spans] == bounds[:-1] and bounds[-1] == n
    sizes = [hi - lo for lo, hi in spans]
    assert all(0 < s <= chunk_rows for s in sizes)
    if n <= free * chunk_rows:
        assert len(spans) <= max(1, free)
    if n:
        floor = min(MIN_CHUNK_ROWS, n, n // -(-n // chunk_rows))
        assert min(sizes) >= floor
        if chunk_rows >= 2 * MIN_CHUNK_ROWS:
            assert min(sizes) >= min(MIN_CHUNK_ROWS, n)


def test_streaming_false_is_refused():
    with pytest.raises(ValueError, match="wave loop"):
        CrawlConfig(streaming=False)


def test_seen_shard_count_other_than_frontier_is_refused():
    with pytest.raises(ValueError, match="num_seen_shards"):
        CrawlConfig(num_seen_shards=3, num_frontier_shards=2)
    assert CrawlConfig(num_seen_shards=2, num_frontier_shards=2)


def test_close_leaves_no_shard_actor(ray_session, tmp_path):
    """Sequential crawls in one session, each closed (directly or as a
    context manager): every shard actor they spawned is dead afterwards
    and the live-actor count is back where it started."""
    import time as _time

    from ray._private import state

    w = build_world(WORLDS[0])
    base = _live_actors()
    spawned = []
    for i in range(3):
        c = RayCrawler(_cfg(w, engines=2, num_frontier_shards=2),
                       w.pages, w.images, w.robots_map(),
                       str(tmp_path / f"out{i}"), world_seed=WORLDS[0].seed)
        with c:
            c.run()
            spawned += [f._actor_id.hex() for f in c.frontier]
        assert c.frontier == [] and c.seen == []
        c.close()  # idempotent
    assert len(spawned) == 6
    deadline = _time.monotonic() + 30
    while (set(spawned) & set(_live_actors())
           and _time.monotonic() < deadline):
        _time.sleep(0.1)
    assert all(state.actors(a)["State"] == "DEAD" for a in spawned)

    def n_shards(actors):
        return list(actors.values()).count("FrontierShard")

    assert n_shards(_live_actors()) <= n_shards(base)


def test_two_crawls_wrap_the_shard_class_once(ray_session, tmp_path,
                                              monkeypatch):
    """Two crawls in one session call ``ray.remote`` on the shard class
    once: the wrapper is kept per process, so ``run()`` does not export
    the class anew. The class is read from the module global when the
    shards spawn, so a class swapped in there (as the traced benchmark
    and the handover tests do) is the one wrapped, and it crawls."""
    from doonop_ray.pipelines import crawler as crawler_mod

    shard_cls = _slow_start_shard(0.0)
    monkeypatch.setattr(crawler_mod, "FrontierShard", shard_cls)
    wrapped = []
    remote = ray_session.remote

    def counting(*a, **kw):
        wrapped.extend(a)
        return remote(*a, **kw)

    monkeypatch.setattr(ray_session, "remote", counting)
    w = build_world(WORLDS[0])
    oracle = run_oracle(_cfg(w), w.pages_by_url(), w.robots_map())
    for i in range(2):
        with RayCrawler(_cfg(w, engines=2), w.pages, w.images,
                        w.robots_map(), str(tmp_path / f"out{i}"),
                        world_seed=WORLDS[0].seed) as c:
            assert c.run().as_dict() == oracle.stats()
    assert wrapped.count(shard_cls) == 1
    assert wrapped.count(crawler_mod._run_stream_chunk) <= 1


def _failing_side_extractor(w):
    """A .side script whose assertText passes on exactly ONE page (page
    data embeds the URL, so it is unique per page): every other OK page
    must land in the per-URL error lane (workload.rs:145-148), not abort
    the crawl. The passing page is the first OK-fetched one — frontier
    evolution is identical up to it, since earlier fetch-errors/timeouts
    contribute no links in either run."""
    import json as _json

    from doonop_ray.functions.checkfile import SideCheck

    base = run_oracle(_cfg(w), w.pages_by_url(), w.robots_map())
    keep_data = base.collected[0]
    side = _json.dumps({"tests": [{"commands": [
        {"command": "assertText", "target": "css=body", "value": keep_data},
        {"command": "executeScript",
         "target": "return document.body.innerText", "value": "RESULT"},
    ]}]})
    return SideCheck(side)


def test_side_assert_failure_is_per_page_error_lane():
    """ADVICE r4 (medium): a SideAssertError must error THAT page and
    continue crawling — reference stats.count_errors semantics — with
    engine and oracle in exact agreement (order, stats, collected)."""
    w = build_world(WORLDS[0])
    cfg = _cfg(w, extractor=_failing_side_extractor(w))
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    engine = run_conformance(cfg, w.pages, w.images, w.robots_map(),
                             WORLDS[0].seed)
    assert engine["order"] == oracle.order
    assert engine["seen"] == oracle.seen
    assert engine["stats"] == oracle.stats()
    assert [c["data"] for c in engine["collected"]] == oracle.collected
    st = oracle.stats()
    assert st["collected"] >= 1      # the passing page was collected
    assert st["errors"] >= 1         # failing pages errored, crawl went on


def test_side_assert_failure_scaled_engine(ray_session, tmp_path):
    """Same per-page error lane through the scaled Ray engine: a batch
    containing a failing page must not abort its chunk task."""
    w = build_world(WORLDS[0])
    cfg = _cfg(w, extractor=_failing_side_extractor(w), engines=2,
               fetch_batch_size=8)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[0].seed)
    stats = crawler.run()
    assert stats.as_dict() == oracle.stats()
    assert crawler.seen_sets() == oracle.seen


# ---------------------------------------------------------------------------
# the chunk-task loop under retries, periodic checkpoints, memory pressure
# and politeness
# ---------------------------------------------------------------------------


def test_streaming_matches_oracle_sets(ray_session, tmp_path):
    import pyarrow.parquet as pq

    w = build_world(WORLDS[2])  # timeout/error-heavy world exercises retries
    cfg = _cfg(
        w,
        use_robots=True,
        retry_threshold_ms=5,
        engines=4,
        num_seen_shards=2,
        num_frontier_shards=2,
    )
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[2].seed)
    stats = crawler.run()
    assert stats.as_dict() == oracle.stats()
    assert crawler.seen_sets() == oracle.seen
    t = pq.read_table(str(tmp_path / "out"), columns=["url", "status"])
    assert set(t.column("url").to_pylist()) == set(oracle.order)
    ok = {u for u, s in zip(t.column("url").to_pylist(),
                            t.column("status").to_pylist()) if s == "ok"}
    assert len(ok) == oracle.stats()["collected"]


def test_streaming_resume_from_checkpoint(ray_session, tmp_path):
    import threading
    import time as _time

    w = build_world(WORLDS[1])

    def mk(tag, **kw):
        cfg = _cfg(
            w,
            use_robots=True,
            engines=2,
            num_frontier_shards=2,
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every_sec=0.05,
            # throttle so the graceful stop lands mid-crawl
            host_rate_per_sec=kw.pop("rate", None),
            **kw,
        )
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          str(tmp_path / f"out_{tag}"),
                          world_seed=WORLDS[1].seed)

    golden = mk("full")
    golden_stats = golden.run()
    golden_seen = golden.seen_sets()

    import shutil

    shutil.rmtree(tmp_path / "ckpt")

    part = mk("part", rate=40.0)
    threading.Timer(1.0, part.request_stop).start()
    part.run()

    resumed = mk("part")  # same out dir; manifest prunes post-cut files
    stats = resumed.run(resume=True)
    assert stats.as_dict() == golden_stats.as_dict()
    assert resumed.seen_sets() == golden_seen

    import pyarrow.parquet as pq

    t = pq.read_table(str(tmp_path / "out_part"), columns=["url"])
    urls = t.column("url").to_pylist()
    # one artifact row per visit (retried URLs legitimately repeat, one
    # row per attempt): the manifest pruning must leave exactly the
    # counted rows — nothing lost, nothing double-written
    assert len(urls) == stats.as_dict()["visited"]
    t_full = pq.read_table(str(tmp_path / "out_full"), columns=["url"])
    assert set(urls) == set(t_full.column("url").to_pylist())


def test_streaming_survives_object_store_pressure(tmp_path):
    """Memory-aware robustness: the same crawl with a deliberately tiny
    object store (256 MB — the broadcast tables + in-flight chunks
    exceed it, so plasma must spill) completes with EXACT stats. Runs in
    a subprocess so the constrained Ray session doesn't touch the shared
    test fixture's session."""
    import json
    import os
    import subprocess
    import sys
    import textwrap

    script = textwrap.dedent("""
        import json, sys
        import ray
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=80 * 1024 * 1024)
        from doonop_ray.synth import build_world, WorldParams
        from doonop_ray.oracle import run_oracle
        from doonop_ray.config import CrawlConfig
        from doonop_ray.pipelines.crawler import RayCrawler
        # broadcast tables + in-flight chunk payloads comfortably exceed
        # the 80 MB store, so plasma MUST spill to finish
        w = build_world(WorldParams(seed=31, n_hosts=6, pages_per_host=250,
                                    img_min=128, img_max=192))
        cfg = CrawlConfig(seeds=w.seeds.column("url").to_pylist(),
                          use_robots=True, retry_threshold_ms=0,
                          engines=4,
                          num_seen_shards=2, num_frontier_shards=2)
        oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
        c = RayCrawler(cfg, w.pages, w.images, w.robots_map(), sys.argv[1])
        stats = c.run()
        import glob, os
        session = ray._private.worker.global_worker.node.get_session_dir_path()
        spill_dirs = glob.glob(os.path.join(session, "ray_spilled_objects*"))
        spill_files = glob.glob(os.path.join(session, "ray_spilled_objects*", "*"))
        spilled = bool(spill_dirs) and bool(spill_files)
        print(json.dumps({"stats": stats.as_dict(),
                          "oracle": oracle.stats(),
                          "spilled": spilled}))
        ray.shutdown()
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = "/root/repo"
    r = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        capture_output=True, text=True, timeout=300, env=env,
        cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert res["stats"] == res["oracle"]
    assert res["spilled"], "object store never spilled — test not binding"

def test_streaming_token_bucket_rate_matches_wave_mode(ray_session, tmp_path):
    """VERDICT round-2 #6: time-based politeness. Under (rate, burst)
    token buckets the crawl must be rate-bound to at least
    (releases of the busiest host - burst) / rate seconds, and still
    visit exactly the oracle's url set with the oracle's stats (pacing
    never drops)."""
    import time as _time
    from collections import Counter

    import pyarrow.parquet as pq

    w = build_world(WORLDS[1])
    rate, burst = 6.0, 2.0
    cfg = _cfg(w, use_robots=True, engines=2, num_frontier_shards=2,
               host_rate_per_sec=rate, host_burst=burst)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    # every visit, retries included, takes one of its host's tokens
    per_host = max(Counter(u.split("/")[2] for u in oracle.order).values())
    floor_sec = (per_host - burst) / rate
    c = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                   str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    t0 = _time.monotonic()
    stats = c.run().as_dict()
    elapsed = _time.monotonic() - t0

    assert stats == oracle.stats()
    urls = set(pq.read_table(str(tmp_path / "out"),
                             columns=["url"]).column("url").to_pylist())
    assert urls == set(oracle.order)
    assert elapsed >= floor_sec * 0.9, elapsed


def test_hot_host_world_conformance():
    """Skew-adversarial world (hot_host_frac): host 0 holds the pinned
    share of pages, and the engine still matches the oracle exactly —
    the correctness side of the bench.py --skew evidence."""
    p = WorldParams(seed=31, n_hosts=6, pages_per_host=20, fanout=4,
                    p_cross=0.4, hot_host_frac=0.6)
    w = build_world(p)
    hosts = w.pages.column("host").to_pylist()
    frac = hosts.count("h000.example.com") / len(hosts)
    assert 0.55 <= frac <= 0.65
    cfg = _cfg(w, use_robots=True)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    engine = run_conformance(cfg, w.pages, w.images, w.robots_map(), p.seed)
    assert engine["order"] == oracle.order
    assert engine["seen"] == oracle.seen
    assert engine["stats"] == oracle.stats()


def test_filters_change_between_crawls_on_one_pages_ref(ray_session, tmp_path):
    """Worker processes cache the fetch stage across crawls. A later
    crawl over the same broadcast pages ref with another domain
    allowlist must get a fetch stage with its own filters, not the
    cached one of the crawl before."""
    from doonop_ray.stages.fetch import prep_images_table

    w = build_world(WORLDS[1])
    pages_ref = ray_session.put(w.pages.combine_chunks())
    images_ref = ray_session.put(prep_images_table(w.images))
    allowlists = [None, ("h000.example.com", "h001.example.com"),
                  ("h002.example.com",), None]
    for i, allow in enumerate(allowlists):
        cfg = _cfg(w, engines=2, allow_domains=allow)
        oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
        crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                             str(tmp_path / f"out{i}"),
                             world_seed=WORLDS[1].seed,
                             pages_ref=pages_ref, images_ref=images_ref)
        assert crawler.run().as_dict() == oracle.stats(), allow
        assert crawler.seen_sets() == oracle.seen, allow


def _newest_manifest(ckpt_dir, prefix):
    import glob

    return sorted(glob.glob(str(ckpt_dir / f"{prefix}*" / "manifest.json")))[-1]


@pytest.mark.parametrize("tamper", [
    # URL-hash partitions of earlier checkpoints: the numpy fallback and
    # polars' ahash (any version)
    {"hash_impl": "fnv-poly64-splitmix64"},
    {"hash_impl": "polars-ahash/1.42.1"},
    {"num_frontier_shards": 1},
    {"hash_impl": None},  # legacy manifest: written before the key
])
def test_resume_refuses_a_checkpoint_it_cannot_route(ray_session, tmp_path,
                                                     tamper):
    import json

    w = build_world(WORLDS[0])
    cfg = _cfg(w, engines=2, num_seen_shards=2,
               num_frontier_shards=2, checkpoint_dir=str(tmp_path / "ckpt"))

    def mk():
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          str(tmp_path / "out"), world_seed=WORLDS[0].seed)

    stats = mk().run().as_dict()
    path = _newest_manifest(tmp_path / "ckpt", "stream=")
    with open(path) as fh:
        manifest = json.load(fh)
    assert manifest["hash_impl"]
    untouched = dict(manifest)
    for key, value in tamper.items():
        if value is None:
            del manifest[key]
        else:
            manifest[key] = value
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    key = next(iter(tamper))
    with pytest.raises(RuntimeError, match=key):
        mk().run(resume=True)
    # the refused resume left the artifacts alone; the untouched
    # manifest still resumes
    with open(path, "w") as fh:
        json.dump(untouched, fh)
    assert mk().run(resume=True).as_dict() == stats


# ---------------------------------------------------------------------------
# the boot: the crawl runs on in-process shards until the actors are up
# ---------------------------------------------------------------------------


def _slow_start_shard(delay_s: float):
    """A FrontierShard subclass whose actors start ``delay_s`` late; the
    in-process shards the crawl loop builds in this process do not
    wait. Defined in a function, so Ray ships it by value."""
    import time as _time

    from doonop_ray.state.frontier import FrontierShard

    driver = os.getpid()

    class SlowStartShard(FrontierShard):
        def __init__(self, *a, **kw):
            if os.getpid() != driver:
                _time.sleep(delay_s)
            super().__init__(*a, **kw)

    return SlowStartShard


def _seed_blocks(urls: list[str], copies: int):
    """A seed Dataset of ``copies`` one-block copies of ``urls``: past
    8,192 rows it spans several seed batches, each a run of payloads,
    and every URL recurs across blocks and batches."""
    import pyarrow as pa
    import ray.data as rd

    block = pa.table({"url": pa.array(urls, pa.string())})
    return rd.from_arrow([block] * copies)


def _boot_crawler(monkeypatch, tmp_path, tag, robots=None, bulk=0, **kw):
    """A throttled crawl of WORLDS[1] on two shards whose actors start
    late (swapped in through the module global, as the traced benchmark
    does), so the handover lands mid-crawl. With ``bulk``, every page
    URL is seeded from a Dataset of ``bulk`` copies instead of the seed
    list, and the oracle is seeded with them as a list."""
    import dataclasses

    from doonop_ray.pipelines import crawler as crawler_mod

    monkeypatch.setattr(crawler_mod, "FrontierShard", _slow_start_shard(0.5))
    w = build_world(WORLDS[1])
    if bulk:
        kw["seeds"] = w.pages.column("url").to_pylist()
    cfg = _cfg(w, use_robots=True, engines=2, fetch_batch_size=4,
               num_frontier_shards=2, host_rate_per_sec=6.0, **kw)
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    seeds_ds = None
    if bulk:
        seeds_ds = _seed_blocks(cfg.seeds, bulk)
        cfg = dataclasses.replace(cfg, seeds=[])
    crawler = RayCrawler(cfg, w.pages, w.images, robots or w.robots_map(),
                         str(tmp_path / f"out_{tag}"),
                         world_seed=WORLDS[1].seed, seeds_ds=seeds_ds)
    return crawler, oracle


def _metrics_row(crawler) -> dict:
    import json

    with open(os.path.join(crawler.out_dir, "_stream_metrics.jsonl")) as fh:
        return json.loads(fh.read().splitlines()[-1])


def _assert_matches_oracle(crawler, stats, oracle) -> None:
    import pyarrow.parquet as pq

    assert stats.as_dict() == oracle.stats()
    assert crawler.seen_sets() == oracle.seen
    t = pq.read_table(crawler.out_dir, columns=["url"])
    assert t.num_rows == stats.visited
    assert set(t.column("url").to_pylist()) == set(oracle.order)


def test_mid_crawl_handover_matches_oracle(ray_session, tmp_path,
                                           monkeypatch):
    """The crawl starts on in-process shards and hands them to the
    actors part-way through: stats, seen set and artifact rows are the
    oracle's, and some but not all visits came before the handover."""
    crawler, oracle = _boot_crawler(monkeypatch, tmp_path, "run")
    with crawler:
        stats = crawler.run()
        _assert_matches_oracle(crawler, stats, oracle)
    row = _metrics_row(crawler)
    assert 0 < row["boot_visited"] < stats.visited
    assert 0 < row["boot_sec"]


def test_checkpoint_taken_during_boot_resumes_to_the_oracle(
        ray_session, tmp_path, monkeypatch):
    """Resuming from a checkpoint whose snapshots came from the
    in-process shards (every later checkpoint deleted, as if the crawl
    had died then) ends at the oracle's result."""
    import shutil

    crawler, oracle = _boot_crawler(
        monkeypatch, tmp_path, "run", checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every_sec=0.1)
    in_boot = []
    take = crawler._stream_checkpoint

    def checkpoint(ray, run_idx):
        in_boot.append(crawler._shards.local is not None)
        take(ray, run_idx)

    crawler._stream_checkpoint = checkpoint
    with crawler:
        crawler.run()
    assert _metrics_row(crawler)["boot_visited"] > 0
    last_boot = max(i for i, b in enumerate(in_boot) if b)
    assert last_boot < len(in_boot) - 1
    for i in range(last_boot + 1, len(in_boot)):
        shutil.rmtree(tmp_path / "ckpt" / f"stream={i:05d}")
    monkeypatch.undo()
    resumed = RayCrawler(crawler.cfg, crawler.pages, crawler.images,
                         crawler.robots_map, crawler.out_dir,
                         world_seed=WORLDS[1].seed)
    with resumed:
        stats = resumed.run(resume=True)
        _assert_matches_oracle(resumed, stats, oracle)


def test_robots_fetched_once_per_host_across_the_handover(
        ray_session, tmp_path, monkeypatch):
    """The in-process shards hand their robots verdicts to the actors:
    a counting robots backend sees each host fetched once per crawl, in
    whichever process first needed it."""
    from doonop_ray.robots import make_table_fetcher

    log = str(tmp_path / "robots.log")
    table = build_world(WORLDS[1]).robots_map()

    def counting_backend():
        fetch = make_table_fetcher(table)

        def counted(host):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {host}\n")
            return fetch(host)

        return counted

    crawler, oracle = _boot_crawler(monkeypatch, tmp_path, "run",
                                    robots=counting_backend)
    with crawler:
        stats = crawler.run()
        _assert_matches_oracle(crawler, stats, oracle)
    assert 0 < _metrics_row(crawler)["boot_visited"] < stats.visited
    with open(log) as fh:
        hosts = [line.split()[1] for line in fh]
    assert sorted(hosts) == sorted(set(hosts))
    assert set(hosts) == {u.split("/")[2] for u in oracle.seen}


def test_bulk_handover_mid_crawl_matches_oracle(ray_session, tmp_path,
                                                monkeypatch):
    """A crawl seeded from a Dataset boots too: the loop passes the seed
    payloads on to the in-process shards, crawls, and hands the shards
    to the actors part-way through. Stats, seen set and artifact rows
    are the oracle's, and some but not all visits came before the
    handover."""
    crawler, oracle = _boot_crawler(monkeypatch, tmp_path, "run", bulk=150)
    assert crawler._seeds_ds.count() > 8192  # two seed batches
    with crawler:
        stats = crawler.run()
        _assert_matches_oracle(crawler, stats, oracle)
    row = _metrics_row(crawler)
    assert 0 < row["boot_visited"] < stats.visited
    assert 0 < row["boot_sec"]


def test_a_crawl_that_ends_before_the_actors_answer(ray_session, tmp_path,
                                                    monkeypatch):
    """A short crawl on two shards whose actors take 30 s to start does
    not wait for them: ``run()`` returns long before, with no handover,
    and its stats, seen set and artifact rows are the oracle's, read from
    the in-process shards. The boot lasted the whole loop. The final
    checkpoint, written from those shards, resumes in a fresh crawler to
    the oracle's result, and ``close()`` kills the actors that never
    took the state."""
    import time as _time

    from ray._private import state

    from doonop_ray.pipelines import crawler as crawler_mod

    monkeypatch.setattr(crawler_mod, "FrontierShard", _slow_start_shard(30))
    w = build_world(WORLDS[1])
    cfg = _cfg(w, use_robots=True, engines=2, fetch_batch_size=8,
               num_frontier_shards=2, checkpoint_dir=str(tmp_path / "ckpt"))
    oracle = run_oracle(cfg, w.pages_by_url(), w.robots_map())
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    with crawler:
        t0 = _time.monotonic()
        stats = crawler.run()
        assert _time.monotonic() - t0 < 10
        assert crawler._shards.local is not None
        _assert_matches_oracle(crawler, stats, oracle)
        spawned = [f._actor_id.hex() for f in crawler.frontier]
    row = _metrics_row(crawler)
    assert row["boot_visited"] == stats.visited
    assert 0 < row["boot_sec"]
    assert row["seen_count"] == len(oracle.seen)
    deadline = _time.monotonic() + 30
    while (set(spawned) & set(_live_actors())
           and _time.monotonic() < deadline):
        _time.sleep(0.1)
    assert len(spawned) == 2
    assert all(state.actors(a)["State"] == "DEAD" for a in spawned)
    monkeypatch.undo()
    resumed = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    with resumed:
        stats = resumed.run(resume=True)
        _assert_matches_oracle(resumed, stats, oracle)


class _DriverOnly(list):
    """A list that pickles empty, so the driver-side callbacks it holds
    stay out of a shard class that Ray ships to the actors."""

    def __reduce__(self):
        return (_DriverOnly, ())


def test_a_stopped_crawl_visits_every_entry_it_drained(ray_session,
                                                       tmp_path,
                                                       monkeypatch):
    """A stop requested while a turn's drain is under way still visits
    every entry that drain took: each turn submits all it drained, so
    none is left drained but unvisited. The first non-empty drain of an
    in-process shard requests the stop, long before the actors (30 s
    late) could take the state over."""
    from doonop_ray.pipelines import crawler as crawler_mod

    driver = os.getpid()
    drained: list[int] = []
    stop = _DriverOnly()

    class CountingShard(_slow_start_shard(30)):
        def drain(self, *a):
            out = super().drain(*a)
            if out and os.getpid() == driver:
                drained.append(len(out))
                if len(drained) == 1:
                    stop[0]()
            return out

    monkeypatch.setattr(crawler_mod, "FrontierShard", CountingShard)
    w = build_world(WORLDS[1])
    cfg = _cfg(w, use_robots=True, engines=2, fetch_batch_size=8,
               num_frontier_shards=2)
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[1].seed)
    stop.append(crawler.request_stop)
    with crawler:
        stats = crawler.run()
        assert crawler._shards.local is not None  # no handover
    assert sum(drained) == stats.visited > 0


def _slow_seed_payloads(delay_s: float):
    """``shard_payloads`` slowed by ``delay_s`` per seed batch (links
    are not slowed). Defined in a function, so Ray ships it by value."""
    import time as _time

    from doonop_ray.pipelines.crawler import shard_payloads

    def slow(urls, depths, n_shards, what):
        if what == "seed":
            _time.sleep(delay_s)
        return shard_payloads(urls, depths, n_shards, what)

    return slow


def test_stop_mid_seeding_returns_and_resumes_to_the_oracle(
        ray_session, tmp_path, monkeypatch):
    """A stop requested while seed batches are still running: ``run()``
    keeps passing seed payloads on until the seeder ends (more of them
    than the loop's queue holds, so a seeder left blocked on it would
    never end), then checkpoints and returns. A resume from that
    checkpoint ends at the oracle's result."""
    import threading
    import time as _time

    from doonop_ray.pipelines import crawler as crawler_mod

    crawler, oracle = _boot_crawler(
        monkeypatch, tmp_path, "run", bulk=8 * 140,
        checkpoint_dir=str(tmp_path / "ckpt"))
    monkeypatch.setattr(crawler_mod, "shard_payloads",
                        _slow_seed_payloads(0.6))
    seeded_at = []
    seed = crawler._seed_frontier_dataset

    def timed_seed(*a):
        seed(*a)
        seeded_at.append(_time.monotonic())

    crawler._seed_frontier_dataset = timed_seed
    stopped_at = []
    stop = crawler.request_stop

    def timed_stop():
        stopped_at.append(_time.monotonic())
        stop()

    crawler.request_stop = timed_stop
    runner = threading.Thread(target=_stop_after_first_part, args=(crawler,),
                              daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive(), "run() did not return after the stop"
    assert stopped_at[0] < seeded_at[0]  # the stop came mid-seeding
    assert 0 < crawler.stats.visited < oracle.stats()["visited"]
    crawler.close()
    monkeypatch.undo()
    resumed = RayCrawler(crawler.cfg, crawler.pages, crawler.images,
                         crawler.robots_map, crawler.out_dir,
                         world_seed=WORLDS[1].seed,
                         seeds_ds=crawler._seeds_ds)
    with resumed:
        stats = resumed.run(resume=True)
        _assert_matches_oracle(resumed, stats, oracle)


def test_a_failed_crawl_ends_its_seeder(ray_session, tmp_path, monkeypatch):
    """A crawl that fails while seed batches are still running (here
    every chunk's router raises) leaves no seeder thread behind, though
    more seed payloads were to come than the loop's queue holds."""
    import threading

    from doonop_ray.pipelines import crawler as crawler_mod

    def failing_router(n_shards, retry_policy):
        def route(batch):
            raise RuntimeError("router failed")

        return route

    crawler, _ = _boot_crawler(monkeypatch, tmp_path, "run", bulk=8 * 140)
    monkeypatch.setattr(crawler_mod, "shard_payloads",
                        _slow_seed_payloads(0.2))
    monkeypatch.setattr(crawler_mod, "make_link_router", failing_router)
    seeders = []
    seed = crawler._seed_frontier_dataset

    def recorded(*a):
        seeders.append(threading.current_thread())
        seed(*a)

    crawler._seed_frontier_dataset = recorded
    with crawler, pytest.raises(Exception, match="router failed"):
        crawler.run()
    seeders[0].join(timeout=30)
    assert not seeders[0].is_alive()


@pytest.mark.parametrize("bad", ["https://h000.example.com/a\nhttps://x",
                                 None], ids=["newline", "None"])
def test_dataset_seed_refuses_a_url_its_payload_cannot_carry(
        ray_session, tmp_path, bad):
    """With ``seeds_canonical`` the clean pass is skipped, so a seed
    reaches the payload as given. A null or a newline cannot travel in
    the newline-joined payload (it would arrive as no URL, or as two):
    the seed task returns the refusal naming it, and the crawl fails
    with it as a ``ValueError``."""
    import re

    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.pipelines.crawler import shard_payloads

    urls = ["https://h001.example.com/", bad, "https://h002.example.com/"]
    refused = re.escape(f"seed {bad!r} is null or holds a newline")
    for n_shards in (1, 3):
        with pytest.raises(ValueError, match=refused):
            shard_payloads(pa.array(urls, pa.string()),
                           np.zeros(3, np.int32), n_shards, "seed")
    w = build_world(WORLDS[0])
    cfg = _cfg(w, seeds=[], seeds_canonical=True, engines=2,
               num_frontier_shards=2)
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                         str(tmp_path / "out"), world_seed=WORLDS[0].seed,
                         seeds_ds=rd.from_arrow(pa.table({"url": urls})))
    with crawler, pytest.raises(ValueError, match=refused):
        crawler.run()


def test_dataset_seeding_through_the_clean_pass_equals_list_seeding(
        ray_session, tmp_path):
    """Non-canonical seeds with duplicates, an ignore regex, and every
    seed recurring across Dataset blocks and batches: seeding them from
    a Dataset (each batch cleaned in its task, duplicates across batches
    dropped by the shards' seen sets) gives list seeding's stats and
    seen set."""
    import dataclasses

    w = build_world(WORLDS[1])
    pages = w.pages.column("url").to_pylist()
    raw = pages[::3] + [u.upper().replace("/P/", "/p/") for u in pages[::5]] \
        + [u + "/../p/1" for u in pages[:4]] + ["not a url"]
    cfg = _cfg(w, seeds=raw, seeds_canonical=False,
               ignore_regexes=(r"/p/1$",), engines=2, fetch_batch_size=4,
               num_frontier_shards=2)
    with RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                    str(tmp_path / "list"), world_seed=WORLDS[1].seed) as c:
        want = c.run().as_dict(), c.seen_sets()
    ds = _seed_blocks(raw, 8192 // len(raw) + 2)
    with RayCrawler(dataclasses.replace(cfg, seeds=[]), w.pages, w.images,
                    w.robots_map(), str(tmp_path / "ds"),
                    world_seed=WORLDS[1].seed, seeds_ds=ds) as c:
        assert (c.run().as_dict(), c.seen_sets()) == want
    assert want[0]["visited"] > 0
