import os
import struct
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doonop_ray.config import CrawlConfig
from doonop_ray.robots import RobotsCache, make_table_fetcher
from doonop_ray.state.frontier import FrontierCore, FrontierShard
from doonop_ray.url import host_of


def _links(urls, depths):
    """An ``ingest`` payload as the link router builds it."""
    return "\n".join(urls), struct.pack(f"<{len(depths)}i", *depths)


def _core(**kw):
    kw.setdefault("retry_policy", "first")
    kw.setdefault("retry_threshold_ms", 0)
    kw.setdefault("retry_count", 3)
    return FrontierCore(**kw)


def test_lifo_key_reproduces_stack_order():
    f = _core()
    f.push([("a", 0), ("b", 0), ("c", 0)])
    out = f.drain(10, now_ms=0)
    assert [u for u, _, _ in out] == ["c", "b", "a"]


def test_bfs_key_orders_by_depth_then_arrival():
    f = _core(key_mode="bfs")
    f.push([("d1a", 1)])
    f.push([("d0", 0)])
    f.push([("d1b", 1)])
    assert [u for u, _, _ in f.drain(10, 0)] == ["d0", "d1a", "d1b"]


def test_retry_fifo_by_time_and_fire_threshold():
    # mirrors /root/reference/src/retry.rs tests: FIFO drain, threshold gate
    f = _core(retry_threshold_ms=50)
    assert f.keep_retry("u1", 0, now_ms=0)
    assert f.keep_retry("u2", 0, now_ms=1)
    # not ready, pool nonempty → nothing from retry lane
    f.push([("fresh", 0)])
    out = f.drain(1, now_ms=10)
    assert out[0][0] == "fresh"
    # past threshold → retry lane fires in insertion order
    f2 = _core(retry_threshold_ms=50)
    f2.keep_retry("u1", 0, 0)
    f2.keep_retry("u2", 0, 1)
    got = f2.drain(10, now_ms=60)
    assert [u for u, _, _ in got] == ["u1", "u2"]


def test_retry_force_when_pool_empty():
    # retry.rs:38-55 force flag: empty pool releases retries immediately
    f = _core(retry_threshold_ms=1_000_000)
    f.keep_retry("u1", 0, 0)
    out = f.drain(10, now_ms=1)
    assert [u for u, _, _ in out] == ["u1"]
    assert out[0][1] == 1  # attempt count rides along


def test_retry_give_up_at_count():
    f = _core(retry_count=2)
    assert f.keep_retry("u", 0, 0) is True  # count 1 < 2
    assert f.keep_retry("u", 0, 0) is False  # count 2 >= 2 → give up


def test_policy_no_ignores_retry_lane():
    f = _core(retry_policy="no")
    f.keep_retry("r", 0, 0)
    f.push([("fresh", 0)])
    out = f.drain(10, 0)
    assert [u for u, _, _ in out] == ["fresh"]


def test_policy_last_pool_first():
    f = _core(retry_policy="last", retry_threshold_ms=0)
    f.keep_retry("r", 0, 0)
    f.push([("fresh", 0)])
    out = f.drain(10, now_ms=100)
    assert [u for u, _, _ in out] == ["fresh", "r"]


@pytest.mark.parametrize("kw", [dict(seen_mode="both"),
                                dict(seen_mode="cukoo"),
                                dict(retry_policy="bogus"),
                                dict(host_rate_per_sec=0.0),
                                dict(host_burst=0.5)])
def test_crawl_config_rejects_invalid_values(kw):
    """A misspelt mode fails at construction instead of running as the
    default (exact seen set; or, under ``python -O``, policy "last"), and
    so does a token bucket that could never release (rate 0, or a burst
    that never holds a whole token), which would hang the crawl."""
    with pytest.raises(ValueError):
        CrawlConfig(**kw)
    for seen_mode in ("exact", "cuckoo"):
        for retry_policy in ("no", "first", "last"):
            CrawlConfig(seen_mode=seen_mode, retry_policy=retry_policy)


def test_politeness_defers_over_cap_without_dropping():
    """Over-budget URLs of a hot host wait in the frontier while other
    hosts proceed, and come out once the host's bucket refills."""
    f = _core()
    f.set_politeness(rate_per_sec=1.0, burst=2.0)
    f.push([(f"https://hot.com/{i}", 0) for i in range(5)])
    f.push([("https://cold.com/1", 0)])
    wave1 = f.drain(10, 0)
    hosts1 = [u for u, _, _ in wave1]
    assert sum("hot.com" in u for u in hosts1) == 2
    assert "https://cold.com/1" in hosts1
    assert f.drain(10, 500) == []  # half a token: still deferred
    wave2 = f.drain(10, 2000)
    assert sum("hot.com" in u for u, _, _ in wave2) == 2
    wave3 = f.drain(10, 4000)
    assert sum("hot.com" in u for u, _, _ in wave3) == 1
    assert f.is_empty()


def test_politeness_preserves_lifo_relative_order():
    f = _core()
    f.set_politeness(rate_per_sec=1.0, burst=2.0)
    f.push([(f"https://h.com/{i}", 0) for i in range(4)])  # LIFO: 3,2,1,0
    w1 = [u for u, _, _ in f.drain(10, 0)]
    f.push([("https://other.com/late", 0)])
    w2 = [u for u, _, _ in f.drain(10, 2000)]
    assert w1 == ["https://h.com/3", "https://h.com/2"]
    # the later push pops first, then the deferred ones in their order
    assert w2 == ["https://other.com/late", "https://h.com/1",
                  "https://h.com/0"]


_HOSTS = ("a.com", "b.com", "r.com")
# r.com disallows /x*: those URLs must drop at the robots gate
_ROBOTS = {"r.com": "User-agent: *\nDisallow: /x\n"}
_ops = st.lists(st.one_of(
    st.tuples(st.just("push"),
              st.lists(st.tuples(st.sampled_from(_HOSTS), st.booleans()),
                       max_size=6)),
    st.tuples(st.just("drain"), st.integers(1, 8), st.integers(0, 3000)),
), max_size=30)


@given(_ops, st.sampled_from([0.5, 1.0, 4.0, 50.0]),
       st.sampled_from([1.0, 2.0, 3.5]))
@settings(max_examples=200, deadline=None)
def test_token_buckets_bound_every_window_and_release_each_url_once(
        ops, rate, burst):
    """Bucketed drains at nondecreasing virtual time: each pushed URL is
    released exactly once (robots-disallowed ones never, counted as
    dropped); no host gets more than ``burst + rate·(t1−t0)/1000``
    releases in any window [t0, t1]; and the frontier keeps its LIFO
    order, politeness-deferred entries included."""
    f = _core()
    f.set_politeness(rate, burst)
    robots = RobotsCache(make_table_fetcher(_ROBOTS))
    stack: list[str] = []  # model: the frontier in push order, top last
    released: dict[str, list[float]] = {h: [] for h in _HOSTS}
    out_all: list[str] = []
    pushed: list[str] = []
    now = 0.0

    def blocked(u):
        return u.startswith("https://r.com/x")

    def drain(budget, now_ms):
        dropped0 = f.robots_dropped
        out = [u for u, _, _ in f.drain(budget, now_ms, robots, "Bot")]
        # LIFO: the released URLs are the model stack read from the top
        top_down = stack[::-1]
        pos = [top_down.index(u) for u in out]
        assert pos == sorted(pos)
        # the drain popped down to its last release, or everything when
        # it ran out before the budget; blocked URLs popped are dropped
        popped = top_down if len(out) < budget else top_down[:pos[-1] + 1]
        gone = {u for u in popped if blocked(u)}
        assert f.robots_dropped - dropped0 == len(gone)
        gone.update(out)
        stack[:] = [u for u in stack if u not in gone]
        for u in out:
            released[host_of(u)].append(now_ms)
        out_all.extend(out)

    for op in ops:
        if op[0] == "push":
            urls = [f"https://{h}/{'x' if x else 'p'}{len(pushed) + i}"
                    for i, (h, x) in enumerate(op[1])]
            f.push([(u, 0) for u in urls])
            stack.extend(urls)
            pushed.extend(urls)
        else:
            now += op[2]
            drain(op[1], now)
    for _ in range(200):
        if f.is_empty():
            break
        now += 10_000.0
        drain(100, now)
    assert f.is_empty() and not stack
    assert sorted(out_all) == sorted(u for u in pushed if not blocked(u))
    for times in released.values():
        for i in range(len(times)):
            for j in range(i, len(times)):
                allowed = burst + rate * (times[j] - times[i]) / 1000.0
                assert j - i + 1 <= allowed + 1e-9


def test_robots_gate_drops_silently_without_consuming_budget():
    f = _core()
    robots = RobotsCache(
        make_table_fetcher({"b.com": "User-agent: *\nDisallow: /\n"})
    )
    # LIFO pops the blocked URL first; it must drop silently and the
    # budget-1 drain must still return the allowed one
    f.push([("https://a.com/x", 0), ("https://b.com/x", 0)])
    out = f.drain(1, 0, robots=robots, robot="Bot")
    assert [u for u, _, _ in out] == ["https://a.com/x"]
    assert f.robots_dropped == 1
    assert f.is_empty()


def test_snapshot_restore_roundtrip():
    f = _core(retry_threshold_ms=500)
    f.push([("a", 0), ("b", 1)])
    f.keep_retry("r", 2, 0)
    blob = f.snapshot()
    g = FrontierCore()
    g.restore(blob)
    assert g.size() == f.size()
    assert [u for u, _, _ in g.drain(10, 1000)] == [u for u, _, _ in f.drain(10, 1000)]


def test_retry_duplicate_delivery_ignored():
    # a redelivered timeout report (same attempt number) must not double-
    # increment the attempt count (exactly-once under Ray task retries)
    f = _core(retry_count=3, retry_threshold_ms=0)
    assert f.keep_retry("u", 0, 0, attempt=0) is True   # first report
    assert f.keep_retry("u", 0, 0, attempt=0) is False  # duplicate: stale
    assert f.retry_counts["u"] == 1
    # next genuine report carries attempt=1
    assert f.keep_retry("u", 0, 0, attempt=1) is True
    assert f.retry_counts["u"] == 2


def test_token_bucket_politeness_refills_over_time():
    from doonop_ray.state.frontier import HostTokenBuckets

    f = _core()
    f.set_politeness(rate_per_sec=2.0, burst=2.0)  # 2 tokens, 2/s refill
    f.push([(f"https://h.com/{i}", 0) for i in range(5)])
    w1 = [u for u, _, _ in f.drain(10, now_ms=0)]
    assert len(w1) == 2  # burst exhausted, rest deferred (not dropped)
    assert not f.is_empty()
    w2 = [u for u, _, _ in f.drain(10, now_ms=500)]  # +1 token after 0.5s
    assert len(w2) == 1
    w3 = [u for u, _, _ in f.drain(10, now_ms=2000)]  # fully refilled
    assert len(w3) == 2
    assert f.is_empty()
    assert set(w1 + w2 + w3) == {f"https://h.com/{i}" for i in range(5)}

    # snapshot/restore keeps bucket state
    f2 = _core()
    f2.set_politeness(1.0, 1.0)
    f2.push([("https://x.com/a", 0), ("https://x.com/b", 0)])
    assert len(f2.drain(10, 0)) == 1
    blob = f2.snapshot()
    from doonop_ray.state.frontier import FrontierCore

    g = FrontierCore()
    g.restore(blob)
    assert len(g.drain(10, 0)) == 0  # token still spent right after restore
    assert len(g.drain(10, 1500)) == 1  # refilled


def test_token_bucket_independent_hosts():
    f = _core()
    f.set_politeness(rate_per_sec=1.0, burst=1.0)
    f.push([("https://a.com/1", 0), ("https://b.com/1", 0),
            ("https://a.com/2", 0), ("https://b.com/2", 0)])
    w1 = {u for u, _, _ in f.drain(10, 0)}
    assert len(w1) == 2 and len({u.split("/")[2] for u in w1}) == 2


def test_resumed_buckets_release_at_rate_after_a_clock_reset():
    """A checkpoint carries each host's last refill time on the old
    clock; a resume whose clock reads less (new boot, other machine)
    must release at the bucket rate from its first drain on, not wait
    for the old clock to come back."""

    def shard():
        return FrontierShard(0, "first", 0.0, 3, "lifo", None, "R", False,
                             host_rate_per_sec=10.0, host_burst=4.0)

    s = shard()
    s.seed([f"https://h.com/{i}" for i in range(20)])
    assert len(s.drain(100, 5e8)) == 4  # the burst, on the old clock
    t = shard()
    t.restore(s.snapshot())
    t0 = 1e6
    assert t.drain(100, t0) == []  # tokens spent before the checkpoint
    got = [len(t.drain(100, t0 + 100.0 * k)) for k in range(1, 6)]
    assert got == [1] * 5  # one token per 100 ms at 10/s
    assert len(t.drain(100, t0 + 3_600_000.0)) == 4  # refilled to burst


def test_shard_drain_refuses_a_per_host_cap():
    s = FrontierShard(0, "first", 0.0, 3, "lifo", None, "R", False)
    s.seed(["https://h.com/a"])
    with pytest.raises(ValueError):
        s.drain(10, 0.0, 2)
    assert s.drain(10, 0.0, None) == [("https://h.com/a", 0, 0)]


def test_frontier_shard_owns_its_seen_partition():
    """Seeding and ingest dedup against the shard's own seen set, and a
    snapshot carries both the frontier and the seen set."""

    def shard():
        return FrontierShard(0, "first", 0.0, 3, "lifo", None, "R", False)

    s = shard()
    assert s.seed(["u1", "u2", "u1"]) == 2
    s.ingest(*_links(["u2", "u3"], [1, 1]))
    assert s.progress() == (2, 0, False)
    t = shard()
    t.restore(s.snapshot())
    t.ingest(*_links(["u3", "u4"], [2, 2]))  # u3 is in the restored seen set
    assert t.seen_urls() == {"u1", "u2", "u3", "u4"}
    assert t.drain(10, 0.0, None) == [("u4", 0, 2), ("u3", 0, 1),
                                      ("u2", 0, 0), ("u1", 0, 0)]
    assert t.progress() == (2, 0, True)


def test_exact_shard_imports_neither_numpy_nor_pyarrow():
    """An exact-mode shard's whole life (seed, ingest, snapshot, restore)
    loads neither numpy nor pyarrow into its process: it builds no cuckoo
    filter and its ingest payload is a string and bytes, not Arrow."""
    code = """
import sys
from doonop_ray.state.frontier import FrontierShard

def shard():
    return FrontierShard(0, "first", 0.0, 3, "lifo", None, "R", False)

s = shard()
assert s.seed(["https://a.example.com/"]) == 1
s.ingest("https://a.example.com/x\\nhttps://a.example.com/",
         (1).to_bytes(4, "little") * 2)
t = shard()
t.restore(s.snapshot())
assert t.seen_urls() == {"https://a.example.com/", "https://a.example.com/x"}
print(sorted(m for m in ("numpy", "pyarrow") if m in sys.modules))
"""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         env=dict(os.environ, PYTHONPATH=root),
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
