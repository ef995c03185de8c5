"""Crawl configuration — the logical plan.

Mirrors the reference's CrawlConfig (/root/reference/src/lib.rs:28-41)
plus the scale knobs the Ray rebuild adds (shard counts, chunk size,
politeness, checkpoints). Times are virtual-clock milliseconds so tests are
deterministic (the reference uses wall-clock SystemTime,
/root/reference/src/retry.rs:31-44).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CrawlConfig:
    # reference-equivalent knobs
    seeds: list[str] = field(default_factory=list)
    limit: int | None = None            # artifact limit incl. the limit=0 quirk (workload.rs:213-222)
    retry_policy: str = "first"         # "no" | "first" | "last" (workload.rs:37-42)
    retry_threshold_ms: int = 10_000    # fire threshold (cfg.rs:76-77)
    retry_count: int = 3                # give-up attempts (cfg.rs:78-80)
    robot: str = "DoonopRobot"          # robot name (cfg.rs:94-95)
    use_robots: bool = False
    ignore_regexes: tuple[str, ...] = ()
    allow_domains: tuple[str, ...] | None = None
    engines: int = 1                    # -j: fetch parallelism cap (cfg.rs:23,249)

    # rebuild-only scale knobs
    num_seen_shards: int = 1
    num_frontier_shards: int = 1
    max_per_host_per_wave: int | None = None  # per-drain-poll cap on URLs
                                              # released per host (not a
                                              # rate: see host_rate_per_sec)
    host_rate_per_sec: float | None = None    # token-bucket politeness:
                                              # refill rate per host
    host_burst: float = 4.0                   # token-bucket capacity
    fetch_batch_size: int = 256         # rows per chunk task
    checkpoint_dir: str | None = None   # final (and periodic) checkpoints
    seen_mode: str = "exact"            # "exact" | "cuckoo" | "both"
    seen_capacity_per_shard: int | None = None
                                        # cuckoo slots per seen shard.
                                        # None → derived from
                                        # expected_total_urls (1.3×
                                        # headroom split across shards)
                                        # when set, else 1<<18. Past
                                        # capacity the filter degrades
                                        # to an exact overflow stash
                                        # (no false negatives, but
                                        # unbounded memory) — stash
                                        # occupancy (seen_stash in
                                        # _stream_metrics.jsonl) makes
                                        # an undersized run visible.
    expected_total_urls: int | None = None
                                        # frontier-budget hint (seed
                                        # count × expected expansion)
                                        # used to size the seen shards
    extractor: object | None = None     # M2/M3 analog: picklable
                                        # fn(page_rows: pa.Table) ->
                                        # pa.Array<string> overriding the
                                        # per-page extraction result
    seeds_canonical: bool = False       # True: seeds are pre-canonicalized
                                        # (bulk/sitemap path) -> skip the
                                        # per-URL canonicalize pass
    streaming: bool = True              # no effect: the chunk-task loop
                                        # is the only scaled loop; False
                                        # (the removed wave loop) raises
    checkpoint_every_sec: float | None = None  # periodic checkpoint
                                        # interval (pause → settle →
                                        # snapshot → resume)

    def __post_init__(self):
        if not self.streaming:
            raise ValueError(
                "streaming=False asked for the wave loop, which was "
                "removed; RayCrawler.run() is the chunk-task loop")
