"""One-off scale probe: a 1M-URL frontier crawled end-to-end.

Builds (once, cached) a 1,000,000-page world with a realistic image
density (p_image=0.12 → ~120k image+caption payloads), bulk-seeds the
whole frontier (the steady-state shape of the 10^10-URL metric), runs
the streaming crawl at 32 CPUs, and prints one JSON line with sustained
throughput + validation counts. Records the largest single-box
datapoint behind BASELINE.md's scale claims.

Usage: PYTHONPATH=/root/repo python tools/mega_probe.py
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> None:
    import ray

    ray.init(address="local",
             num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "32")),
             include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from doonop_ray.pipelines.crawler import RayCrawler
    from doonop_ray.pipelines.flagship import _crawl_cfg
    from doonop_ray.stages.fetch import prep_images_table
    from doonop_ray.synth import WorldParams, build_world, read_world

    cache = "/tmp/doonop_worlds/tier_mega_v2"  # v2: cheap-truth synth rewrite
    marker = os.path.join(cache, "_complete")
    params = WorldParams(seed=42, n_hosts=400, pages_per_host=2500,
                        fanout=6, p_cross=0.3, p_dead=0.03, p_invalid=0.03,
                        p_image=0.12, img_min=56, img_max=72, n_seeds=400)
    t0 = time.monotonic()
    if os.path.exists(marker):
        w = read_world(cache)
        w.params = params
    else:
        w = build_world(params)
        w.write(cache)
        with open(marker, "w") as fh:
            fh.write("ok")
    build_sec = round(time.monotonic() - t0, 1)
    w.pages = w.pages.combine_chunks()
    w.images = prep_images_table(w.images)

    # bulk-seed as a DATASET (round 3): seeding runs distributed and
    # OVERLAPPED with the chunk loop — no driver-side 1M-url list
    import ray.data as rd

    url_tbl = w.pages.select(["url"])
    step = 8192
    seeds_ds = rd.from_arrow(
        [url_tbl.slice(i, step) for i in range(0, len(url_tbl), step)])
    cfg = _crawl_cfg(w, "scale", seeds_canonical=True)
    out_dir = "/tmp/doonop_out/mega_probe"
    t0 = time.monotonic()
    crawler = RayCrawler(cfg, w.pages, w.images, w.robots_map(), out_dir,
                         world_seed=params.seed,
                         img_bounds=(params.img_min, params.img_max),
                         seeds_ds=seeds_ds)
    stats = crawler.run()
    crawl_sec = time.monotonic() - t0
    print(json.dumps({
        "metric": "mega_probe (1M-URL bulk frontier, streaming mode)",
        "world_pages": w.pages.num_rows,
        "world_images": w.images.num_rows,
        "build_or_load_sec": build_sec,
        "crawl_sec": round(crawl_sec, 1),
        "pages_per_sec": round(stats.visited / crawl_sec, 1),
        "stats": stats.as_dict(),
    }))
    ray.shutdown()


if __name__ == "__main__":
    main()
