"""Crawl configuration — the logical plan.

Mirrors the reference's CrawlConfig (/root/reference/src/lib.rs:28-41)
plus the scale knobs the Ray rebuild adds (shard count, chunk size,
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
    num_seen_shards: int | None = None  # no effect: each frontier shard
                                        # holds its hosts' seen set; a
                                        # value other than None or
                                        # num_frontier_shards raises
    num_frontier_shards: int = 1        # state actors: frontier + seen,
                                        # partitioned by host
    host_rate_per_sec: float | None = None    # politeness: per-host
                                              # token-bucket refill,
                                              # requests/sec (None: off)
    host_burst: float = 4.0                   # token-bucket capacity
    fetch_batch_size: int = 256         # rows per chunk task
    checkpoint_dir: str | None = None   # final (and periodic) checkpoints
    seen_mode: str = "exact"            # "exact" | "cuckoo"
    expected_total_urls: int | None = None
                                        # sizes the cuckoo seen
                                        # partitions: each shard holds
                                        # max(4096, 1.3 × this ÷ shards)
                                        # URLs (None → 1<<18). Past
                                        # capacity the filter degrades
                                        # to an exact overflow stash
                                        # (no false negatives, but
                                        # unbounded memory); seen_stash
                                        # in _stream_metrics.jsonl shows
                                        # an undersized run. Exact mode
                                        # ignores it
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
        if self.seen_mode not in ("exact", "cuckoo"):
            raise ValueError(f"seen_mode={self.seen_mode!r}: expected "
                             "'exact' or 'cuckoo'")
        if self.retry_policy not in ("no", "first", "last"):
            raise ValueError(f"retry_policy={self.retry_policy!r}: "
                             "expected 'no', 'first' or 'last'")
        # a bucket that never refills, or never holds a whole token,
        # would hold its host's URLs forever and the crawl would not end
        rate = self.host_rate_per_sec
        if rate is not None and not rate > 0:
            raise ValueError(f"host_rate_per_sec={rate}: "
                             "expected > 0 (None turns politeness off)")
        if not self.host_burst >= 1:
            raise ValueError(f"host_burst={self.host_burst}: expected >= 1")
        if not self.streaming:
            raise ValueError(
                "streaming=False asked for the wave loop, which was "
                "removed; RayCrawler.run() is the chunk-task loop")
        if self.num_seen_shards not in (None, self.num_frontier_shards):
            raise ValueError(
                f"num_seen_shards={self.num_seen_shards} differs from "
                f"num_frontier_shards={self.num_frontier_shards}: the seen "
                "set is partitioned with the frontier, one partition per "
                "frontier shard")
