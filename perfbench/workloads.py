"""Workload definitions and the on-disk cache of generated worlds and
their oracle results.

A world is a pure function of (world params, seed). It is built once per
(params, seed) in a child process (``prepare.py``) so that neither the
build nor the oracle replay is timed, and so that the benchmark
process's own peak memory does not depend on whether the cache was warm.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, "perfbench", ".work")
CACHE_VERSION = 1

# No robots.txt fetch errors in either world: an erroring host loses all
# its pages, and with Zipf host sizes one such draw removes up to a third
# of the world, so crawl sizes varied 40% between seeds. Hosts with
# disallow rules (dropped by the same check at drain) remain.
NO_ROBOTS_ERRORS = dict(p_robots_err_host=0.0)
# Shaped like the bench tier (sf0.1: fanout 6, 56-72 px images, the
# flagship link/failure mix), resized so one crawl takes a few seconds
# on one CPU.
BULK_WORLD = dict(n_hosts=12, pages_per_host=400, fanout=6, p_cross=0.3,
                  p_dead=0.03, p_invalid=0.03, n_seeds=12,
                  img_min=56, img_max=72, **NO_ROBOTS_ERRORS)
# Link-heavy, image-light: link extraction, routing, seen ingest and the
# frontier carry the crawl; decode is a small share.
ORGANIC_WORLD = dict(n_hosts=24, pages_per_host=200, fanout=24, p_cross=0.5,
                     p_image=0.2, p_dead=0.03, p_invalid=0.03, n_seeds=24,
                     **NO_ROBOTS_ERRORS)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    world: dict
    bulk: bool                      # seed every page URL as a Dataset
    checkpoint_every_sec: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "bulk_images",
            "bulk-seeded (sitemap) crawl of image pages: loads bulk "
            "seeding, fetch and decode+validate",
            BULK_WORLD, bulk=True),
        Workload(
            "organic_ckpt",
            "crawl from per-host seeds over a link-heavy world, with a "
            "checkpoint every second: link extraction, routing, seen "
            "ingest, the frontier and snapshot writes are on the blocking "
            "path",
            ORGANIC_WORLD, bulk=False, checkpoint_every_sec=1.0),
    )
}

# crawl semantics shared by the engine and the oracle (the flagship's)
CRAWL_SEMANTICS = dict(use_robots=True, retry_threshold_ms=0)


def world_params(w: Workload, seed: int):
    from doonop_ray.synth import WorldParams

    return WorldParams(seed=seed, **w.world)


def cache_dir(w: Workload, seed: int) -> str:
    tag = hashlib.sha1(json.dumps(
        [CACHE_VERSION, w.world, w.bulk, CRAWL_SEMANTICS],
        sort_keys=True).encode()).hexdigest()[:12]
    return os.path.join(WORK, "worlds", f"{tag}-s{seed}")


def oracle_config(w: Workload, world):
    from doonop_ray.config import CrawlConfig

    seeds = (world.pages.column("url").to_pylist() if w.bulk
             else world.seeds.column("url").to_pylist())
    return CrawlConfig(seeds=seeds, **CRAWL_SEMANTICS)


def ensure_prepared(w: Workload, seed: int) -> str:
    """Return the cache dir for (world, seed), building it in a child
    process when missing."""
    path = cache_dir(w, seed)
    if not os.path.exists(os.path.join(path, "oracle.json")):
        env = dict(os.environ, PYTHONPATH=ROOT)
        subprocess.run(
            [sys.executable, "-m", "perfbench.prepare", w.name, str(seed)],
            cwd=ROOT, env=env, check=True, timeout=150)
    return path


@dataclass
class Oracle:
    stats: dict
    seen: set
    validated: int         # collected pages that carry an image


def load_oracle(path: str) -> Oracle:
    with open(os.path.join(path, "oracle.json")) as fh:
        d = json.load(fh)
    return Oracle(d["stats"], set(d["seen"]), d["validated"])


def write_oracle(path: str, res) -> None:
    d = {
        "stats": res.stats(),
        "seen": sorted(res.seen),
        "validated": sum(i is not None for i in res.collected_images),
    }
    with open(os.path.join(path, "oracle.json"), "w") as fh:
        json.dump(d, fh)
