"""Frontier shard: LIFO stack + retry lane + politeness + robots gate.

Reference semantics re-expressed for sharded execution:

- frontier discipline: the reference's ``Vec<Url>``, appended to by
  ``keep_urls`` and popped by ``get_url`` (workload.rs:228-249); here
  the same stack, a plain list. It keeps the attribute name ``heap``
  because the benchmark's traced shard reads ``core.heap`` for its depth
  (checkpoints written before it held a heap here; ``restore`` turns a
  LIFO-keyed one into the stack);
- retry lane: timeout-only, attempt count incremented before the
  give-up comparison (/root/reference/src/retry.rs:24-36); a retry
  becomes eligible when its fire threshold elapses OR the fresh pool is
  empty ("force", retry.rs:38-55 + workload.rs:231-238), so draining
  never has to wait on the clock;
- retry policy no/first/last branches as workload.rs:228-240;
- robots consulted at dispatch time; disallowed or fetch-error hosts are
  dropped silently without consuming drain budget and the URL stays in
  the seen set (workload.rs:100-105);
- politeness (rebuild-only): per-host token buckets
  (``HostTokenBuckets``: ``rate`` tokens/sec per host refilling up to
  ``burst``), so a host is released at most ``burst + rate·Δt`` URLs in
  any window of Δt; over-budget entries are deferred back onto the stack
  in their relative order, never dropped.

Pure Python and fully unit-testable; wrapped in a Ray actor by the
crawler (decorated at use site so importing this module needs no Ray).
``FrontierShard`` also holds its hosts' partition of the URL-seen set
(``state/seen.py``), so discovered links are deduped and pushed in one
process; this module stays light (no polars, no crawler import) because
it is what every shard's actor process imports.
"""

from __future__ import annotations

import heapq
import pickle
import sys
from array import array

from ..robots import RobotsCache, make_table_fetcher
from ..url import cut_host_path
from .seen import SeenCore


class HostTokenBuckets:
    """Per-host politeness token buckets: ``rate`` tokens/second refill,
    capped at ``burst``; a release consumes one token. Time is injected
    (ms) so tests are deterministic and checkpoints are portable: a clock
    that reads less than a host's ``last_ms`` (a resume after a reboot or
    on another machine restarts ``time.monotonic()``) refills nothing
    rather than a negative amount. A host with no entry has a full
    bucket."""

    def __init__(self, rate_per_sec: float, burst: float):
        self.rate = rate_per_sec
        self.burst = burst
        self.tokens: dict[str, float] = {}
        self.last_ms: dict[str, float] = {}
        # the newest time a release was tried at; not checkpointed, since
        # a resumed run's clock may restart
        self.newest_ms = float("-inf")

    def _refilled(self, host: str, now_ms: float) -> float:
        t = self.tokens.get(host, self.burst)
        elapsed = max(0.0, now_ms - self.last_ms.get(host, now_ms))
        return min(self.burst, t + elapsed * self.rate / 1000.0)

    def try_take(self, host: str, now_ms: float) -> bool:
        t = self._refilled(host, now_ms)
        self.last_ms[host] = now_ms
        self.newest_ms = max(self.newest_ms, now_ms)
        if t >= 1.0:
            self.tokens[host] = t - 1.0
            return True
        self.tokens[host] = t
        return False

    def state(self):
        """The buckets as a picklable dict. Every host whose bucket has
        refilled to ``burst`` by ``newest_ms`` is dropped first: the next
        release comes no earlier, so it finds a full bucket with or
        without the entry, and the entries stay bounded by the hosts
        released recently instead of every host the crawl has seen."""
        for host in [h for h in self.tokens
                     if self._refilled(h, self.newest_ms) >= self.burst]:
            del self.tokens[host], self.last_ms[host]
        return {"rate": self.rate, "burst": self.burst,
                "tokens": self.tokens, "last_ms": self.last_ms}

    @classmethod
    def from_state(cls, st):
        b = cls(st["rate"], st["burst"])
        b.tokens = st["tokens"]
        b.last_ms = st["last_ms"]
        return b


class FrontierCore:
    def __init__(
        self,
        retry_policy: str = "first",
        retry_threshold_ms: float = 10_000.0,
        retry_count: int = 3,
        shard_id: int = 0,
    ):
        assert retry_policy in ("no", "first", "last")
        self.retry_policy = retry_policy
        self.retry_threshold_ms = retry_threshold_ms
        self.retry_count = retry_count
        self.shard_id = shard_id
        self.heap: list[tuple[str, int]] = []  # the stack: (url, depth)
        # a heap by fire time, not a FIFO: after a resume whose clock
        # reads lower, a FIFO's head would hold a fire time on the old
        # clock and keep every later retry behind it
        self.retry_heap: list[tuple] = []  # (ready_at, rseq, url, depth)
        self.retry_counts: dict[str, int] = {}
        self.rseq = 0
        self.robots_dropped = 0
        self.buckets: HostTokenBuckets | None = None

    def set_politeness(self, rate_per_sec: float, burst: float) -> None:
        self.buckets = HostTokenBuckets(rate_per_sec, burst)

    # -- pushes ------------------------------------------------------------
    def push(self, items: list[tuple[str, int]]) -> int:
        """items = [(canonical_url, depth)] — already seen-set-deduped."""
        self.heap.extend(items)
        return len(items)

    def keep_retry(self, url: str, depth: int, now_ms: float,
                   attempt: int | None = None) -> bool:
        """retry.rs:24-36 — returns False when the URL gives up.

        ``attempt`` (when given) must equal the current attempt count;
        a mismatch means a redelivered/duplicate timeout report (Ray
        task retry) and is ignored, keeping accounting exactly-once."""
        if attempt is not None and attempt != self.retry_counts.get(url, 0):
            return False
        c = self.retry_counts.get(url, 0) + 1
        self.retry_counts[url] = c
        if c >= self.retry_count:
            return False
        self.rseq += 1
        heapq.heappush(
            self.retry_heap,
            (now_ms + self.retry_threshold_ms, self.rseq, url, depth),
        )
        return True

    # -- pops --------------------------------------------------------------
    def _retry_pop(self, force: bool, now_ms: float):
        if not self.retry_heap:
            return None
        ready_at, _, url, depth = self.retry_heap[0]
        if now_ms > ready_at or force:
            heapq.heappop(self.retry_heap)
            return (url, depth)
        return None

    def _pool_pop(self):
        return self.heap.pop() if self.heap else None

    def _pop_one(self, now_ms: float):
        if self.retry_policy == "no":
            return self._pool_pop()
        if self.retry_policy == "first":
            got = self._retry_pop(force=not self.heap, now_ms=now_ms)
            return got if got is not None else self._pool_pop()
        got = self._pool_pop()
        return got if got is not None else self._retry_pop(force=True, now_ms=now_ms)

    def drain(
        self,
        budget: int,
        now_ms: float,
        robots: RobotsCache | None = None,
        robot: str = "",
    ) -> list[tuple[str, int, int]]:
        """Release up to ``budget`` (url, attempt, depth) entries."""
        out: list[tuple[str, int, int]] = []
        deferred: list[tuple[str, int]] = []
        while len(out) < budget:
            got = self._pop_one(now_ms)
            if got is None:
                break
            url, depth = got
            if robots is not None or self.buckets is not None:
                host, path = cut_host_path(url)
            if robots is not None:
                verdict = robots.is_allowed(robot, host, path)
                if verdict is not True:
                    self.robots_dropped += 1
                    continue  # silently dropped; stays in seen
            if self.buckets is not None:
                if not self.buckets.try_take(host, now_ms):
                    deferred.append((url, depth))
                    continue
            out.append((url, self.retry_counts.get(url, 0), depth))
        # put politeness-deferred entries back on top in reverse, so they
        # pop again in the order they came out
        self.heap.extend(reversed(deferred))
        return out

    def is_empty(self) -> bool:
        return not self.heap and not self.retry_heap

    def size(self) -> dict[str, int]:
        return {"pool": len(self.heap), "retry": len(self.retry_heap)}

    # -- checkpoint --------------------------------------------------------
    def snapshot(self) -> bytes:
        return pickle.dumps(
            {
                "heap": self.heap,
                "retry_heap": self.retry_heap,
                "retry_counts": self.retry_counts,
                "rseq": self.rseq,
                "robots_dropped": self.robots_dropped,
                "buckets": self.buckets.state() if self.buckets else None,
                "cfg": (
                    self.retry_policy,
                    self.retry_threshold_ms,
                    self.retry_count,
                    self.shard_id,
                ),
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        cfg, heap = st["cfg"], st["heap"]
        if "seq" in st:
            # the former heap pool: entries (key, url, depth), keyed
            # (-seq,) for LIFO or (depth, seq) for BFS, which a stack
            # cannot keep; the LIFO key sorts into the same pop order
            *cfg, mode, shard_id = cfg
            if mode != "lifo":
                raise ValueError(
                    f"frontier snapshot has key mode {mode!r}: only a "
                    "LIFO-keyed one restores onto the stack")
            cfg = (*cfg, shard_id)
            heap = [(u, d) for _, u, d in sorted(heap, reverse=True)]
        (self.retry_policy, self.retry_threshold_ms, self.retry_count,
         self.shard_id) = cfg
        self.heap = heap
        self.retry_heap = st["retry_heap"]
        self.retry_counts = st["retry_counts"]
        self.rseq = st["rseq"]
        self.robots_dropped = st["robots_dropped"]
        b = st.get("buckets")
        self.buckets = HostTokenBuckets.from_state(b) if b else None


class FrontierShard:
    """Actor-ready state of one shard: a FrontierCore, the seen-set
    partition of the same hosts (a SeenCore; see ``host_shard_of``) and
    this shard's robots cache (per-shard cache of the broadcast fixture
    map; at web scale this becomes a host-sharded robots actor pool —
    the cache interface is the same). The crawl loop is a shard's only
    caller from its first call, so its calls run in the order they were
    sent."""

    def __init__(
        self,
        shard_id: int,
        retry_policy: str,
        retry_threshold_ms: float,
        retry_count: int,
        robots_map,  # dict[str, str] | zero-arg robots-backend factory | None
        robot: str,
        use_robots: bool,
        host_rate_per_sec: float | None = None,
        host_burst: float = 4.0,
        seen_mode: str = "exact",
        seen_capacity: int = 1 << 18,
    ):
        self.core = FrontierCore(
            retry_policy, retry_threshold_ms, retry_count, shard_id
        )
        if host_rate_per_sec is not None:
            self.core.set_politeness(host_rate_per_sec, host_burst)
        self.seen = SeenCore(seen_mode, seen_capacity, shard_id)
        self.robot = robot
        if not use_robots:
            self.robots = None
        elif callable(robots_map):
            # robots-backend factory (the robots analog of the
            # fetch_backend seam): a picklable zero-arg callable —
            # e.g. partial(make_http_robots_fetcher, scheme=...,
            # port=...) — returning the host -> robots-text fetcher.
            # Live transport fetches robots.txt over HTTP once per
            # host (robots.rs:35-51)
            self.robots = RobotsCache(robots_map())
        else:
            self.robots = RobotsCache(make_table_fetcher(robots_map or {}))

    # takes a list, not any iterable: the benchmark's traced shard
    # overrides this and counts ``len(items)``
    def push(self, items: list[tuple[str, int]]) -> int:
        return self.core.push(items)

    def push_fresh(self, urls: list[str], depths) -> int:
        """Push the urls not seen before, in list order (first discovery
        wins, workload.rs:202-211); returns how many were fresh."""
        mask = self.seen.check_and_add(urls)
        return self.push([(u, d) for u, d, new in zip(urls, depths, mask)
                          if new])

    def seed(self, urls: list[str]) -> int:
        return self.push_fresh(urls, [0] * len(urls))

    def ingest(self, urls: str, depths: bytes) -> None:
        """One chunk's discovered links for this shard (one message per
        shard per chunk): ``urls`` newline-joined into one string (no
        canonical URL holds a newline; the router checks) and
        ``depths`` as little-endian int32 bytes, in the same order.

        The set check needs one Python ``str`` per link, and
        ``split`` makes them in C straight from the payload, where a
        pickled list costs one object per link to build in the chunk
        task and to unpickle here. The payload is not Arrow: the shard
        would still have to ``to_pylist`` it, and this module stays free
        of pyarrow and numpy (Ray 2.49's own serializer imports both in
        every worker that receives arguments, so that is not a memory
        saving in a crawl)."""
        urls = urls.split("\n")
        d = array("i", depths)
        if sys.byteorder != "little":
            d.byteswap()
        self.push_fresh(urls, d)

    def keep_retry_batch(self, items, now_ms: float) -> int:
        """items: [(url, depth, attempt)], each attempt as drained —
        returns how many were re-queued (rest gave up or were
        duplicates)."""
        return sum(bool(self.core.keep_retry(url, depth, now_ms, attempt))
                   for url, depth, attempt in items)

    def is_empty(self) -> bool:
        return self.core.is_empty()

    # per_host_cap stays only for perfbench's TracedFrontierShard.drain,
    # which passes it through positionally
    def drain(self, budget: int, now_ms: float, per_host_cap=None):
        if per_host_cap is not None:
            raise ValueError(
                f"per_host_cap={per_host_cap}: per-host politeness is the "
                "token bucket (host_rate_per_sec/host_burst)")
        return self.core.drain(budget, now_ms, self.robots, self.robot)

    def occupancy(self) -> dict[str, int]:
        return self.seen.occupancy()

    def seen_urls(self) -> set[str]:
        """The exact seen partition (empty in ``cuckoo`` mode)."""
        return self.seen.exact

    def snapshot(self) -> bytes:
        return pickle.dumps((self.core.snapshot(), self.seen.snapshot()),
                            protocol=pickle.HIGHEST_PROTOCOL)

    def robots_verdicts(self) -> dict:
        """The robots cache's verdicts per (host, robot), for handing
        this shard to another process without refetching a robots.txt."""
        return {} if self.robots is None else self.robots._cache

    def restore(self, blob: bytes,
                robots_verdicts: dict | None = None) -> None:
        """Replace the state with a ``snapshot``; ``robots_verdicts``
        (another process's ``robots_verdicts()``) join the robots cache."""
        frontier, seen = pickle.loads(blob)
        self.core.restore(frontier)
        self.seen.restore(seen)
        if robots_verdicts and self.robots is not None:
            self.robots._cache.update(robots_verdicts)
