from doonop_ray.robots import RobotsCache, make_table_fetcher
from doonop_ray.state.frontier import FrontierCore, FrontierShard


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


def test_politeness_defers_over_cap_without_dropping():
    f = _core()
    f.push([(f"https://hot.com/{i}", 0) for i in range(5)])
    f.push([("https://cold.com/1", 0)])
    wave1 = f.drain(10, 0, per_host_cap=2)
    hosts1 = [u for u, _, _ in wave1]
    assert sum("hot.com" in u for u in hosts1) == 2
    assert "https://cold.com/1" in hosts1
    wave2 = f.drain(10, 0, per_host_cap=2)
    assert sum("hot.com" in u for u, _, _ in wave2) == 2
    wave3 = f.drain(10, 0, per_host_cap=2)
    assert sum("hot.com" in u for u, _, _ in wave3) == 1
    assert f.is_empty()


def test_politeness_preserves_lifo_relative_order():
    f = _core()
    f.push([(f"https://h.com/{i}", 0) for i in range(4)])  # LIFO: 3,2,1,0
    w1 = [u for u, _, _ in f.drain(10, 0, per_host_cap=2)]
    w2 = [u for u, _, _ in f.drain(10, 0, per_host_cap=2)]
    assert w1 == ["https://h.com/3", "https://h.com/2"]
    assert w2 == ["https://h.com/1", "https://h.com/0"]


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


def test_frontier_shard_owns_its_seen_partition():
    """Seeding and ingest dedup against the shard's own seen set, and a
    snapshot carries both the frontier and the seen set."""

    def shard():
        return FrontierShard(0, "first", 0.0, 3, "lifo", None, "R", False)

    s = shard()
    assert s.seed(["u1", "u2", "u1"]) == 2
    s.ingest(["u2", "u3"], [1, 1])
    assert s.progress() == (2, 0, False)
    t = shard()
    t.restore(s.snapshot())
    t.ingest(["u3", "u4"], [2, 2])  # u3 is in the restored seen set
    assert t.seen_urls() == {"u1", "u2", "u3", "u4"}
    assert t.drain(10, 0.0, None) == [("u4", 0, 2), ("u3", 0, 1),
                                      ("u2", 0, 0), ("u1", 0, 0)]
    assert t.progress() == (2, 0, True)
