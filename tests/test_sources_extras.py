"""Seed sources (S2/S6), extractor hook (M2/M3), JSONL sink (K1),
cuckoo seen mode."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from doonop_ray.config import CrawlConfig
from doonop_ray.oracle import run_oracle
from doonop_ray.pipelines.crawler import RayCrawler, run_conformance
from doonop_ray.sources.seeds import (
    load_seed_file,
    parse_seed_lines,
    seed_dataset,
    sitemap_urls_from_robots,
)
from doonop_ray.synth import WorldParams, build_world


def test_seed_file_parsing(tmp_path):
    p = tmp_path / "seeds.txt"
    p.write_text("https://a.com/\n\n# comment\n  https://b.com/x  \n")
    assert load_seed_file(str(p)) == ["https://a.com/", "https://b.com/x"]
    assert parse_seed_lines(["", "# x", "u"]) == ["u"]


def test_seed_dataset_ray(ray_session, tmp_path):
    p = tmp_path / "seeds.txt"
    p.write_text("https://A.com\nnot a url\nhttps://b.com/p\n# skip\n")
    urls = seed_dataset(str(p)).to_pandas()["url"].tolist()
    # block order is not guaranteed (preserve_order off); dedup/sort
    # happen at frontier seeding anyway
    assert sorted(urls) == ["https://a.com/", "https://b.com/p"]


def test_sitemap_seeder():
    robots = "User-agent: *\nDisallow: /x\nSitemap: https://s.com/map.xml\n"
    body = """<?xml version="1.0"?><urlset>
      <url><loc>https://s.com/p/1</loc></url>
      <url><loc> https://s.com/p/2 </loc></url></urlset>"""
    out = sitemap_urls_from_robots(robots, {"https://s.com/map.xml": body})
    assert out == ["https://s.com/p/1", "https://s.com/p/2"]
    assert sitemap_urls_from_robots("User-agent: *\n", {}) == []


def _make_extractor():
    # returned as a CLOSURE: cloudpickle ships it by value, so Ray
    # workers don't need to import the test module
    def extractor(page_rows: pa.Table) -> pa.Array:
        import json as _json

        import pyarrow as _pa
        import pyarrow.compute as _pc

        urls = page_rows.column("url").to_pylist()
        nl = _pc.list_value_length(page_rows.column("links")).to_pylist()
        return _pa.array(
            [_json.dumps({"u": u, "n": n}, sort_keys=True)
             for u, n in zip(urls, nl)],
            _pa.string(),
        )

    return extractor


_extractor = _make_extractor()


def test_extractor_hook_conformance():
    w = build_world(WorldParams(seed=7, n_hosts=3, pages_per_host=6))
    cfg = CrawlConfig(seeds=w.seeds.column("url").to_pylist(),
                      retry_threshold_ms=0, extractor=_extractor)
    res = run_conformance(cfg, w.pages, w.images, w.robots_map(), 7)
    assert res["collected"]
    for c in res["collected"]:
        d = json.loads(c["data"])
        assert d["u"] == c["url"] and isinstance(d["n"], int)
    # order semantics unchanged by the extractor
    base = run_oracle(CrawlConfig(seeds=cfg.seeds, retry_threshold_ms=0),
                      w.pages_by_url(), w.robots_map())
    assert res["order"] == base.order


def test_extractor_hook_scaled_and_jsonl_export(ray_session, tmp_path):
    w = build_world(WorldParams(seed=7, n_hosts=3, pages_per_host=6))
    cfg = CrawlConfig(seeds=w.seeds.column("url").to_pylist(),
                      retry_threshold_ms=0, engines=2,
                      fetch_batch_size=8, extractor=_extractor)
    c = RayCrawler(cfg, w.pages, w.images, w.robots_map(), str(tmp_path / "out"),
                   world_seed=7)
    stats = c.run()
    assert stats.collected > 0

    import pyarrow.parquet as pq

    t = pq.read_table(str(tmp_path / "out"))
    ok = t.filter(pc.equal(t.column("status"), "ok"))
    for u, d in zip(ok.column("url").to_pylist(), ok.column("data").to_pylist()):
        assert json.loads(d)["u"] == u

    RayCrawler.export_jsonl(str(tmp_path / "out"), str(tmp_path / "jsonl"))
    lines = []
    for f in (tmp_path / "jsonl").iterdir():
        lines += [json.loads(ln) for ln in f.read_text().splitlines()]
    assert len(lines) == t.num_rows
    assert {"url", "status", "data"} <= set(lines[0])


def test_cuckoo_seen_mode_scaled(ray_session, tmp_path):
    """Cuckoo-authority seen mode: memory-bounded membership; with 16-bit
    fingerprints the false-positive rate is ~0.1%, so on a small world
    the crawl matches the exact-mode result exactly with high
    probability — assert equality and allow the documented FP slack.

    ``expected_total_urls`` sizes each shard's filter: max(1<<12,
    int(20_000 × 1.3) // 2) = 13,000 URLs → 3,421 buckets of 4, rounded
    up to 4,096 buckets = 16,384 slots (the unsized default is 524,288)."""
    w = build_world(WorldParams(seed=21, n_hosts=5, pages_per_host=12, fanout=4))
    base = dict(seeds=w.seeds.column("url").to_pylist(), retry_threshold_ms=0,
                engines=2, fetch_batch_size=8)
    oracle = run_oracle(CrawlConfig(**base), w.pages_by_url(), w.robots_map())
    cfg = CrawlConfig(**base, seen_mode="cuckoo", num_frontier_shards=2,
                      expected_total_urls=20_000)
    with RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                    str(tmp_path / "o"), world_seed=21) as c:
        stats = c.run()
        occ = c._shards.call("occupancy")
    assert [(o["slots"], o["stash"]) for o in occ] == [(16_384, 0)] * 2
    assert sum(o["count"] for o in occ) > 0
    # a false positive can only DROP pages, never duplicate them; with
    # 16-bit fingerprints P(any FP) is tiny but insert order varies run
    # to run, so leave real slack rather than flake on one drop
    assert stats.visited <= oracle.stats()["visited"]
    assert stats.visited >= int(oracle.stats()["visited"] * 0.9)


def test_crawl_host_counts(ray_session):
    from doonop_ray.pipelines.flagship import crawl_host_counts

    df = crawl_host_counts("sf0.001")
    assert len(df) >= 2
    assert (df["n_ok"] <= df["n_visits"]).all()
    assert df["host"].str.endswith(".example.com").all()


def test_image_phash_neardup_vs_bruteforce(ray_session):
    import numpy as np

    from doonop_ray.pipelines.flagship import image_phash_neardup, world_for

    got = image_phash_neardup("sf0.001", max_hamming=6)
    w = world_for("sf0.001")
    ids = w.images.column("image_id").to_pylist()
    ph = np.asarray(w.images.column("phash").to_numpy()).astype(np.uint64)
    truth = set()
    for i in range(len(ids)):
        x = ph[i] ^ ph[i + 1 :]
        for j in np.nonzero([bin(int(v)).count("1") <= 6 for v in x])[0]:
            truth.add((ids[i], ids[i + 1 + j]))
    got_pairs = set(zip(got["a"], got["b"]))
    assert got_pairs <= truth  # verification removes false positives
    if truth:
        # banding guarantee: hamming<=6 over 4 bands -> some band equal
        # unless bits spread 2/2/2 over >4... recall is high, not perfect
        assert len(got_pairs & truth) / len(truth) >= 0.5


def test_proxy_parse_reference_cases():
    import pytest as _pytest

    from doonop_ray.stages.http_fetch import parse_proxy

    p = parse_proxy("sock;address=127.0.0.1:9050;version=5")
    assert (p.kind, p.address, p.version) == ("sock", "127.0.0.1:9050", 5)
    p = parse_proxy("http;address=proxy.example.com:8080")
    assert (p.kind, p.address, p.version) == ("http", "proxy.example.com:8080", None)
    assert parse_proxy("sock;address=h:1").version == 5  # default
    with _pytest.raises(ValueError):
        parse_proxy("ftp;address=x")
    with _pytest.raises(ValueError):
        parse_proxy("sock;version=5")
    with _pytest.raises(ValueError):
        parse_proxy("sock;address=h:1;version=9")


def test_http_fetcher_proxy_support():
    import pytest as _pytest

    from doonop_ray.filters import FilterSpec
    from doonop_ray.stages.http_fetch import HttpFetcher

    # SOCKS5 is implemented (RFC 1928 CONNECT, see
    # test_http_fetch.test_socks5_proxy_loopback); SOCKS4's different
    # handshake is not: loud NotImplementedError at session
    # construction, not a silent direct connection
    with _pytest.raises(NotImplementedError):
        HttpFetcher(FilterSpec(), proxy="sock;address=h:1;version=4")
    f5 = HttpFetcher(FilterSpec(), proxy="sock;address=h:1;version=5")
    assert any("Socks5" in type(h).__name__ for h in f5.opener.handlers)
    # http proxies are applied to the opener (engine_builder.rs:113-120)
    f = HttpFetcher(FilterSpec(), proxy="http;address=h:1")
    assert f.proxy.kind == "http"
    assert any("Proxy" in type(h).__name__ for h in f.opener.handlers)


def test_graceful_stop_checkpoints_and_resumes(ray_session, tmp_path):
    w = build_world(WorldParams(seed=21, n_hosts=5, pages_per_host=12, fanout=4))

    def mk(tag, rate=None):
        cfg = CrawlConfig(seeds=w.seeds.column("url").to_pylist(),
                          retry_threshold_ms=0, engines=2,
                          fetch_batch_size=4,
                          checkpoint_dir=str(tmp_path / "ckpt"),
                          # throttle so the graceful stop lands mid-crawl
                          host_rate_per_sec=rate)
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          str(tmp_path / f"o_{tag}"), world_seed=21)

    golden = mk("full")
    golden_stats = golden.run().as_dict()
    import shutil

    shutil.rmtree(tmp_path / "ckpt")

    part = mk("part", rate=10.0)
    # stop from a side thread once the live stats show progress
    import threading, time as _t

    def stopper():
        while part.stats.visited == 0:
            _t.sleep(0.01)
        part.request_stop()

    th = threading.Thread(target=stopper)
    th.start()
    part.run()
    th.join()
    assert 0 < part.stats.visited < golden_stats["visited"]

    resumed = mk("part")
    stats = resumed.run(resume=True)
    assert stats.as_dict() == golden_stats


def test_crawl_polite_query_matches_unrestricted_sets(ray_session):
    import pandas as pd

    from doonop_ray.pipelines.flagship import crawl_polite, flagship_crawl

    free = flagship_crawl("sf0.001", out_dir="/tmp/doonop_out/tt_free")
    polite = crawl_polite("sf0.001")
    # politeness reorders waves but never drops: same visited set
    assert set(polite["url"]) == set(free["url"])


def test_frontier_host_budgets_salted_expansion(ray_session):
    from doonop_ray.pipelines.flagship import frontier_host_budgets, world_for
    from doonop_ray.url import host_of, make_absolute

    df = frontier_host_budgets("sf0.001", per_host_budget=10)
    # brute-force driver-side count for the oracle
    w = world_for("sf0.001")
    counts = {}
    for base, ls in zip(w.pages.column("url").to_pylist(),
                        w.pages.column("links").to_pylist()):
        for href in ls:
            a = make_absolute(base, href)
            if a and host_of(a):
                counts[host_of(a)] = counts.get(host_of(a), 0) + 1
    got = dict(zip(df["host"], df["n_candidates"]))
    assert got == counts
    assert (df["budget"] <= 10).all()
    # sorted desc (Zipf world: the hot host leads)
    assert list(df["n_candidates"]) == sorted(df["n_candidates"], reverse=True)


def test_io_layer_lance_fallback(tmp_path):
    import pyarrow as _pa

    from doonop_ray import io as dio

    t = _pa.table({"a": [1, 2, 3], "b": ["x", "y", "z"]})
    # request the lance layout; without the lance package this must fall
    # back to parquet transparently with the same schema
    path = dio.dataset_path(str(tmp_path), "tbl")
    written = dio.write_table(t, str(tmp_path / "tbl.lance"))
    back = dio.read_table(written)
    assert back.equals(t)
    back2 = dio.read_table(str(tmp_path / "tbl.lance"), columns=["a"])
    assert back2.column_names == ["a"]
    assert (dio.HAVE_LANCE and path.endswith(".lance")) or path.endswith(".parquet")


def test_token_bucket_crawl_end_to_end(ray_session, tmp_path):
    # token-bucket politeness in a full scaled crawl: same visited set,
    # just paced — never drops
    w = build_world(WorldParams(seed=21, n_hosts=5, pages_per_host=12, fanout=4))
    base = dict(seeds=w.seeds.column("url").to_pylist(), retry_threshold_ms=0,
                engines=2, fetch_batch_size=8)
    free = RayCrawler(CrawlConfig(**base), w.pages, w.images, w.robots_map(),
                      str(tmp_path / "free"), world_seed=21)
    s1 = free.run()
    paced = RayCrawler(CrawlConfig(**base, host_rate_per_sec=200.0, host_burst=4),
                       w.pages, w.images, w.robots_map(),
                       str(tmp_path / "paced"), world_seed=21)
    s2 = paced.run()
    assert s2.visited == s1.visited
    assert paced.seen_sets() == free.seen_sets()


def test_flagship_limit_run_reads_wave_output(ray_session):
    """A limit run stops early; the incremental artifact reader must
    still assemble exactly the rows the crawl persisted."""
    import pyarrow.parquet as pq

    from doonop_ray.pipelines.flagship import flagship_crawl

    out = "/tmp/doonop_out/tt_limit"
    df = flagship_crawl("sf0.001", out_dir=out, limit=20)
    assert len(df) > 0
    t = pq.read_table(out, columns=["url"])
    assert set(df["url"]) == set(t.column("url").to_pylist())


def test_read_table_auto_formats_agree(ray_session, tmp_path):
    """The jsonl/csv source paths must produce the same rows + schema as
    the parquet reference (operators downstream are format-agnostic)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.sources.tables import read_table_auto, sniff_format

    src = pq.read_table("/root/testdata/sf0.001/documents.parquet",
                        columns=["doc_id", "lang", "n_chars"]).slice(0, 50)
    ref_schema = src.schema

    pq_path = str(tmp_path / "docs.parquet")
    pq.write_table(src, pq_path)
    jl_path = str(tmp_path / "docs.jsonl")
    df = src.to_pandas()
    df.to_json(jl_path, orient="records", lines=True)
    csv_path = str(tmp_path / "docs.csv")
    df.to_csv(csv_path, index=False)

    assert sniff_format(pq_path) == "parquet"
    assert sniff_format(jl_path) == "jsonl"
    assert sniff_format(csv_path) == "csv"

    base = read_table_auto(pq_path).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    for p in (jl_path, csv_path):
        got = read_table_auto(
            p, columns=["doc_id", "lang", "n_chars"], schema=ref_schema
        ).to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert got.equals(base), p

    # extensionless content sniffing
    import shutil

    noext = str(tmp_path / "blob")
    shutil.copy(jl_path, noext)
    assert sniff_format(noext) == "jsonl"
    shutil.copy(pq_path, noext)
    assert sniff_format(noext) == "parquet"


def test_incremental_recrawl_from_completed_checkpoint(ray_session, tmp_path):
    """A COMPLETED run now writes a final checkpoint; resume=True on it
    is the incremental-recrawl warm start: re-seeded URLs dedup against
    the restored seen set, so (a) resuming with the SAME seeds visits
    nothing new, and (b) resuming with a WIDENED seed list visits
    exactly the unseen subset (union == from-scratch full crawl)."""
    import pyarrow.parquet as pq

    w = build_world(WorldParams(seed=33, n_hosts=6, pages_per_host=10,
                                fanout=3))
    all_seeds = sorted(w.seeds.column("url").to_pylist())
    assert len(all_seeds) >= 2

    def visited(out_dir) -> set:
        import os
        urls = set()
        for dp, _, fs in os.walk(out_dir):
            for f in fs:
                if f.endswith(".parquet") and not f.startswith("_"):
                    urls.update(pq.read_table(
                        os.path.join(dp, f), columns=["url"]
                    )["url"].to_pylist())
        return urls

    def mk(tag, seeds, ckpt):
        cfg = CrawlConfig(seeds=seeds, retry_threshold_ms=0, engines=2,
                          fetch_batch_size=4,
                          checkpoint_dir=str(tmp_path / ckpt))
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          str(tmp_path / f"o_{tag}"), world_seed=33)

    # reference: full crawl from scratch
    full = mk("full", all_seeds, "ck_full")
    full_stats = full.run().as_dict()
    full_set = visited(full.out_dir)

    # (a) same-seed recrawl: nothing new
    again = mk("full", all_seeds, "ck_full")
    again_stats = again.run(resume=True).as_dict()
    assert again_stats == full_stats
    assert visited(again.out_dir) == full_set

    # (b) widened-seed recrawl: first crawl half the seeds, then resume
    # with all of them — the union must equal the from-scratch crawl
    half = all_seeds[: len(all_seeds) // 2]
    part = mk("part", half, "ck_part")
    part.run()
    part_set = visited(part.out_dir)

    widened = mk("part", all_seeds, "ck_part")
    wstats = widened.run(resume=True).as_dict()
    assert visited(widened.out_dir) == full_set
    assert wstats == full_stats
    # and the second leg actually had work to do
    assert part_set < full_set
