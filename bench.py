"""Benchmark harness (driver contract).

Prints ONE JSON line:
  {"metric": "...", "value": <headline seconds>, "unit": "sec",
   "queries": {name: sec}, "sf": ..., "num_cpus": N, ...}

Headline = flagship crawl (fetch → decode → validate → link-route) of
the bench-tier synthetic world; ``pages_per_sec`` = visited pages /
crawl seconds (the BASELINE.json metric, fetched-and-validated rows).

--scaling: runs the same bench in two fresh processes at
RAY_GRAFT_CPUS=8 and =32 on the same pre-built world (cache warmed by an
untimed build) and reports both throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            logging_level="ERROR",
        )
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


OPS_BENCH = [
    "q1_pricing_summary",
    "q3_shipping_priority",
    "q5_revenue_by_nation",
    "token_counts",
    "dedup_exact",
    "minhash_lsh_pairs",
    "embedding_neardup_pairs",
    "ann_topk_cosine",
    "events_hourly",
    "user_sessions",
    "curate_documents",
    "top_tokens_heavy_hitters",
    "q10_returned_items",
    "exact_quantiles",
    "pack_sequences",
    "lm_perplexity_scores",
    "q18_large_volume",
    "pagerank_customer_supplier",
    # warm-up pays the one-time bucketing shuffles; the timed run is the
    # amortized bucket-aligned join every repeat query gets
    "order_revenue_by_segment_bucketed",
    # round-3 continuation-4 additions
    "semantic_dedup",
    "char_entropy",
    "hybrid_search_rrf",
    # round-3 continuation-6: persisted inverted-index retrieval (warm
    # timing shows the amortized query cost next to the scan-path BM25)
    "keyword_search_indexed",
    # continuation-6 batch 2: moments / linear-algebra / robust-stats
    "lineitem_corr_stats",
    "pca_embeddings",
    "events_value_mad",
    # continuation-7: RAG chunking explode
    "chunk_documents",
    # continuation-8: image training-prep aggregates (decode-heavy
    # moment partials; metadata-only bucketing) + batched image model
    # inference
    "image_channel_stats",
    "image_aspect_buckets",
    "score_images_model",
    "caption_image_alignment",
    "image_sharpness",
    "curate_image_text_pairs",
]


def micro_validate(w, rows: int = 1024, reps: int = 7) -> dict:
    """Best-of-``reps`` microseconds per row of the ``Validator`` and of
    ``decode_image`` alone, on the first ``rows`` images of world ``w``
    (in-process, one CPU: the decode+validate layer without the crawl)."""
    import pyarrow as pa

    from doonop_ray.codec import decode_image
    from doonop_ray.stages.fetch import Validator, prep_images_table

    images = prep_images_table(w.images.slice(0, rows))
    n = images.num_rows
    v = Validator(images, w.params.seed, img_min=w.params.img_min,
                  img_max=w.params.img_max)
    batch = pa.table({"image_id": images.column("image_id")})
    pairs = list(zip(images.column("bytes").to_pylist(),
                     images.column("fmt").to_pylist()))

    def best_us(fn) -> float:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return round(min(times) / max(n, 1) * 1e6, 1)

    return {"rows": n, "reps": reps,
            "validate_us_per_row": best_us(lambda: v(batch)),
            "decode_us_per_row": best_us(
                lambda: [decode_image(b, f) for b, f in pairs])}


def run_bench(sf_dir: str, num_cpus: int, include_ops: bool = True) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    ray = _init_ray(num_cpus)

    from doonop_ray.pipelines.flagship import flagship_crawl, world_for

    # world build / parquet load is unmetered setup (cache-warm protocol:
    # same input for every parallelism level); an untimed bulk crawl of
    # the timed world warms the Ray worker pool, imports, the workers'
    # per-world Fetcher/Validator caches and the broadcast tables, so
    # every timed rep measures a warm crawl
    w = world_for(sf_dir)
    n_pages = w.pages.num_rows
    flagship_crawl(sf_dir, out_dir="/tmp/doonop_out/_warmup", bulk_seed=True)

    # headline: bulk-seeded full-frontier throughput (the 10^10-frontier
    # steady-state shape; reference EP3 sitemap bulk seeding); best of N
    # runs — the scaling children use 3 reps to damp machine noise (the
    # 8-cpu side showed ±15% run-to-run variance at best-of-two)
    reps = 3 if os.environ.get("GRAFT_SCALING_CHILD") == "1" else 2
    # every rep's seconds go into the JSON (the host's run-to-run noise
    # band is wide), plus the best rep's layer split from the metrics
    # row its crawl wrote
    runs: list[float] = []
    stages: dict = {}
    out_dir = f"/tmp/doonop_out/bench_bulk_{os.getpid()}"
    for _ in range(reps):
        t0 = time.monotonic()
        df = flagship_crawl(sf_dir, out_dir=out_dir, bulk_seed=True)
        runs.append(round(time.monotonic() - t0, 3))
        if runs[-1] == min(runs):
            with open(os.path.join(out_dir, "_stream_metrics.jsonl")) as fh:
                row = json.loads(fh.read().splitlines()[-1])
            stages = {k: row[k] for k in ("stage_sec", "seed_sec",
                                          "settle_sec", "boot_sec",
                                          "boot_visited", "idle_sec",
                                          "chunks", "peak_inflight",
                                          "underfill_sec",
                                          "driver_cpu_sec",
                                          "driver_proc_cpu_sec")}
    crawl_sec = min(runs)
    visited = len(df)
    ok = df[df["status"] == "ok"]
    validated = int((ok["caption_ok"] & ok["pixel_ok"]).sum())

    queries: dict[str, float] = {"crawl_bulk_frontier": round(crawl_sec, 3)}
    if os.environ.get("GRAFT_SCALING_CHILD") != "1":
        # secondary: organic from-seeds crawl (frontier ramp included)
        t0 = time.monotonic()
        flagship_crawl(sf_dir)
        queries["crawl_organic"] = round(time.monotonic() - t0, 3)
    if include_ops:
        import __ray_entry__ as e

        qs = e.queries()
        for name in OPS_BENCH:
            # per-op isolation (round-2 VERDICT #7): an untimed warm-up
            # run absorbs cross-op worker/session state (the r2 bench
            # showed q1/ann_topk 2x swings from measurement order), then
            # the timed run measures the op itself
            qs[name](sf_dir)
            t0 = time.monotonic()
            qs[name](sf_dir)
            queries[name] = round(time.monotonic() - t0, 3)

    result = {
        "metric": "flagship_crawl_sec (fetch+decode+validate+route, bench world)",
        "value": round(crawl_sec, 3),
        "unit": "sec",
        "queries": queries,
        "sf": os.path.basename(os.path.normpath(sf_dir)),
        "num_cpus": num_cpus,
        "world_pages": n_pages,
        "visited": visited,
        "validated": validated,
        "pages_per_sec": round(visited / crawl_sec, 1),
        "runs": runs,
        "stages": stages,
        "micro": micro_validate(w),
    }
    ray.shutdown()
    return result


def run_scaling(sf_dir: str) -> dict:
    # the scaling comparison runs the same bulk job on a 4x world at two
    # parallelism levels. GRAFT_SCALING_WORLD picks the input: "scaleh"
    # (default — 96-128 px ≈ 30 KB payloads, the realistic image-crawl
    # payload shape, so per-page decode+validate compute dominates the
    # coordination floor; ~5 min one-time cached build) or "scale"
    # (56-72 px — lighter, exposes the coordination floor instead).
    # Pre-build once so both runs read the same cached input.
    scaling_world = os.environ.get("GRAFT_SCALING_WORLD", "scaleh")
    from doonop_ray.pipelines.flagship import world_for

    world_for(scaling_world)

    def child(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=scaling_world,
            GRAFT_SKIP_OPS="1",
            GRAFT_SCALING_CHILD="1",
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo, hi = 8, 32
    # Null-hypothesis ceiling, bracketing the crawl runs: what efficiency
    # does this box give zero-communication, zero-shared-state work at the
    # same two widths and the same core-pinning protocol?  The sandbox's
    # vCPUs are not 4x-linear (host oversubscription — even a tight
    # pure-Python scalar loop lands 0.52-0.79 across sessions), so the
    # crawl's efficiency is reported both raw and relative to the
    # machine's contemporaneous ceiling.  Probing before AND after the
    # crawl children brackets the host's load drift; any single probe is
    # an underestimate of the hardware ceiling, so take the max.
    # See tools/machine_ceiling.py.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "tools"))
    from machine_ceiling import probe

    ceil_pre = probe(reps=3, small=lo, large=hi)
    r_lo = child(lo)
    r_hi = child(hi)
    tput_lo = r_lo["pages_per_sec"]
    tput_hi = r_hi["pages_per_sec"]
    eff = (tput_hi / tput_lo) / (hi / lo)
    ceil_post = probe(reps=3, small=lo, large=hi)
    ceil = ceil_pre if ceil_pre["ceiling"] >= ceil_post["ceiling"] else ceil_post
    ceil = dict(ceil, pre=ceil_pre["ceiling"], post=ceil_post["ceiling"])
    return {
        "metric": "crawl_scaling_efficiency (8 -> 32 cpus, fresh processes)",
        "value": round(eff, 3),
        "unit": "efficiency",
        "sec_8": r_lo["value"],
        "sec_32": r_hi["value"],
        "pages_per_sec_8": tput_lo,
        "pages_per_sec_32": tput_hi,
        "world_pages": r_hi["world_pages"],
        "sf": r_hi["sf"],
        "machine_ceiling": ceil,
        "efficiency_vs_ceiling": round(eff / ceil["ceiling"], 3),
    }


def run_skew(num_cpus: int) -> dict:
    """Skew-adversarial crawl: the "skew" world (host 0 holds 50% of
    all pages; same total page count + payload sizes as the "0.1"
    bench tier) vs the uniform-Zipf bench world, same bulk-seeded
    flagship crawl, best-of-2 each after a warm-up. The ratio
    measures what one hot host costs the crawl loop: the frontier and
    seen sets are partitioned by host, so half of all pages sit on one
    shard, which releases at most 8 × fetch_batch_size of them per
    loop turn, while the chunk tasks that fetch and validate them
    spread over every engine. No politeness runs here (no
    ``host_rate_per_sec`` is set), and there is no per-host groupby to
    salt. A ratio near 1 says the hot shard does not bound the crawl."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    ray = _init_ray(num_cpus)

    from doonop_ray.pipelines.flagship import flagship_crawl, world_for

    def timed(tier: str) -> tuple[float, int, int]:
        world_for(tier)  # untimed cache warm (build on first run)
        flagship_crawl(tier, bulk_seed=True)  # untimed warm-up
        best = float("inf")
        for _ in range(2):
            t0 = time.monotonic()
            df = flagship_crawl(tier, bulk_seed=True)
            best = min(best, time.monotonic() - t0)
        hot = int(df["url"].str.contains("//h000.", regex=False).sum())
        return best, len(df), hot

    uni_sec, uni_pages, _ = timed("sf0.1")
    skew_sec, skew_pages, skew_hot = timed("skew")
    ray.shutdown()
    return {
        "metric": "skew_adversarial_crawl (hot-host 50% vs uniform world)",
        "value": round(skew_sec / uni_sec, 3),
        "unit": "ratio (skew/uniform wall-time; claim: <= 1.5)",
        "uniform_sec": round(uni_sec, 3),
        "skew_sec": round(skew_sec, 3),
        "uniform_pages": uni_pages,
        "skew_pages": skew_pages,
        "skew_hot_host_pages": skew_hot,
        "num_cpus": num_cpus,
    }


if __name__ == "__main__":
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    # Confine the whole Ray session (raylet + workers inherit this) to
    # num_cpus physical cores: ray.init(num_cpus=8) alone only caps the
    # scheduler while workers float over all 32 cores, which fakes the
    # small-cluster side of the scaling comparison.
    try:
        os.sched_setaffinity(0, range(min(num_cpus, os.cpu_count() or num_cpus)))
    except (AttributeError, OSError):
        pass
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
    elif "--skew" in sys.argv:
        print(json.dumps(run_skew(num_cpus)))
    else:
        include_ops = os.environ.get("GRAFT_SKIP_OPS") != "1"
        print(json.dumps(run_bench(sf_dir, num_cpus, include_ops)))
