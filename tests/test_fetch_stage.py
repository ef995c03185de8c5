"""The fetch stage's Arrow link path and the persist stage: links are
resolved and filtered per batch with the scalar ``make_absolute`` as the
reference, non-ok rows carry no links, and part files get a
deterministic name."""

import math
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from doonop_ray.filters import FilterSpec
from doonop_ray.pipelines.crawler import (chunk_signature, make_link_router,
                                          make_persist_fn)
from doonop_ray.stages.fetch import (BATCH_TRUTH_MIN_ROWS, Fetcher, Validator,
                                     _fetch_key, make_validate_fn,
                                     prep_images_table)
from doonop_ray.synth import WorldParams, build_world
from doonop_ray.state.frontier import FrontierShard
from doonop_ray.state.seen import host_shard_of
from doonop_ray.url import make_absolute

WORLD = build_world(WorldParams(seed=5, n_hosts=4, pages_per_host=15,
                                fanout=8, p_timeout=0.2, p_error=0.1))


def _batch(urls, attempt=0):
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "attempt": pa.array([attempt] * len(urls), pa.int32()),
        "depth": pa.array([0] * len(urls), pa.int32()),
    })


def _scalar_links(filters, url):
    hrefs = WORLD.pages_by_url()[url]["links"]
    absd = [a for a in (make_absolute(url, h) for h in hrefs) if a is not None]
    return [a for a in absd if not filters.is_ignored(a)]


@pytest.mark.parametrize("filters", [
    FilterSpec(),
    FilterSpec(ignore_regexes=(r"/p/1\d*$",)),
    FilterSpec(allow_domains=("h000.example.com", "h002.example.com")),
])
def test_fetcher_links_equal_scalar_reference(filters):
    urls = WORLD.pages.column("url").to_pylist()
    out = Fetcher(WORLD.pages, filters)(_batch(urls + ["http://nowhere.example/x"]))
    status = out.column("status").to_pylist()
    links = out.column("links").to_pylist()
    assert out.column("links").type == pa.list_(pa.string())
    assert "ok" in status and "timeout" in status and "error" in status
    for url, st, ls in zip(urls, status, links):
        assert ls == (_scalar_links(filters, url) if st == "ok" else [])
    assert status[-1] == "error" and links[-1] == []


def test_non_ok_rows_get_empty_links():
    pages = WORLD.pages_by_url()
    # pages that fail on their first attempt but do have links
    failing = [u for u, r in pages.items()
               if r["fail_mode"] and r["fail_count"] > 0 and r["links"]]
    assert failing
    out = Fetcher(WORLD.pages, FilterSpec())(_batch(failing))
    assert set(out.column("status").to_pylist()) <= {"timeout", "error"}
    assert out.column("links").to_pylist() == [[] for _ in failing]


def test_fetch_cache_key_tracks_filters_and_extractor():
    def upper(rows):
        return pa.array([u.upper() for u in rows.column("url").to_pylist()])

    def lower(rows):
        return pa.array([u.lower() for u in rows.column("url").to_pylist()])

    key = _fetch_key("ref", FilterSpec((r"x",), ("a.com",)), upper)
    assert key == _fetch_key("ref", FilterSpec((r"x",), ["a.com"]), upper)
    assert key != _fetch_key("ref", FilterSpec((r"x",), ("b.com",)), upper)
    assert key != _fetch_key("ref", FilterSpec((r"y",), ("a.com",)), upper)
    assert key != _fetch_key("ref", FilterSpec((r"x",), None), upper)
    assert key != _fetch_key("ref", FilterSpec((r"x",), ("a.com",)), lower)
    assert key != _fetch_key("ref", FilterSpec((r"x",), ("a.com",)), None)


def _fetched(urls, attempt=0):
    return Fetcher(WORLD.pages, FilterSpec())(_batch(urls, attempt))


def test_validate_fn_cache_is_keyed_on_every_validator_input():
    """Validate fns built on one images table (one cache slot per worker)
    with another seed, image bounds or ``emit_bytes`` must each validate
    like a fresh Validator, not reuse the cached one of the fn before."""
    urls = WORLD.pages.column("url").to_pylist()
    batch = Fetcher(WORLD.pages, FilterSpec())(_batch(urls))
    images = prep_images_table(WORLD.images)
    seed = WORLD.params.seed
    for world_seed, lo, hi, emit in [(seed, 16, 40, False),
                                     (seed + 1, 16, 40, False),
                                     (seed, 20, 30, False),
                                     (seed, 16, 40, True)]:
        got = make_validate_fn(images, world_seed, emit, lo, hi)(batch)
        want = Validator(images, world_seed, emit, img_min=lo,
                         img_max=hi)(batch)
        assert got.to_pandas().equals(want.to_pandas()), (world_seed, lo,
                                                          hi, emit)


@pytest.mark.parametrize("n_good", [1, BATCH_TRUTH_MIN_ROWS])
def test_a_malformed_image_id_fails_its_row_not_the_chunk(n_good):
    """An images row whose id has no ``-<int>`` part validates like a
    blob that does not decode (``pixel_ok`` False, ``psnr_db`` NaN, no
    metadata), on the per-row path and on the chunk path; the other rows
    of the chunk validate."""
    good = WORLD.images.slice(0, n_good)
    bad = good.slice(0, 1).set_column(0, "image_id", pa.array(["cat.png"]))
    images = prep_images_table(pa.concat_tables([good, bad]))
    ids = good.column("image_id").to_pylist() + ["cat.png"]
    out = Validator(images, WORLD.params.seed)(pa.table({"image_id": ids}))
    assert out.column("pixel_ok").to_pylist() == [True] * n_good + [False]
    assert out.column("caption_ok").to_pylist() == [True] * n_good + [False]
    psnr = out.column("psnr_db").to_pylist()
    assert all(p >= 40.0 for p in psnr[:-1]) and math.isnan(psnr[-1])
    assert out.column("fmt").to_pylist()[-1] is None
    assert out.column("caption").to_pylist()[-1] is None


def test_stages_view_a_single_chunk_tables_buffers():
    """``Table.combine_chunks`` keeps the buffers of a column that is one
    chunk already, so a Fetcher and a Validator built on a prepped table
    hold views of it, not per-worker copies."""
    pages = WORLD.pages.combine_chunks()
    images = prep_images_table(WORLD.images)

    def addresses(col):
        return [b.address for c in col.chunks for b in c.buffers()
                if b is not None]

    f = Fetcher(pages, FilterSpec())
    for name in pages.column_names:
        assert addresses(f.t.column(name)) == addresses(pages.column(name))
    v = Validator(images, WORLD.params.seed)
    for name in v.tab.column_names:
        assert addresses(v.tab.column(name)) == \
            addresses(images.column(name))
    blobs = images.column("bytes").chunk(0)
    assert v._blob_off.ctypes.data == blobs.buffers()[1].address


def test_persist_name_is_deterministic_per_chunk(tmp_path):
    urls = WORLD.pages.column("url").to_pylist()
    a, b = _fetched(urls[:20]), _fetched(urls[20:40])
    # same chunk, rebuilt: same name (a task retry overwrites its file)
    assert chunk_signature(a) == chunk_signature(_fetched(urls[:20]))
    # a sliced view of the same rows hashes the same logical bytes
    both = pa.concat_tables([_fetched(urls[:10]), a]).combine_chunks()
    assert chunk_signature(both.slice(10)) == chunk_signature(a)
    assert chunk_signature(a) != chunk_signature(b)
    assert chunk_signature(a) != chunk_signature(_fetched(urls[:20], 1))
    assert chunk_signature(a) != chunk_signature(_fetched(urls[:19]))

    persist = make_persist_fn(str(tmp_path))
    persist(a)
    persist(a)
    persist(b)
    files = sorted(os.listdir(tmp_path))
    assert files == sorted(f"part-{chunk_signature(t)}.parquet" for t in (a, b))


def test_persist_n_links_matches_per_row_count(tmp_path):
    batch = _fetched(WORLD.pages.column("url").to_pylist())
    make_persist_fn(str(tmp_path))(batch)
    (name,) = os.listdir(tmp_path)
    written = pq.read_table(os.path.join(tmp_path, name))
    expected = [len(ls) if st == "ok" else 0 for st, ls in zip(
        batch.column("status").to_pylist(), batch.column("links").to_pylist())]
    assert written.column("n_links").type == pa.int32()
    assert written.column("n_links").to_pylist() == expected
    assert "links" not in written.column_names
    assert written.column("url").to_pylist() == batch.column("url").to_pylist()


def _shard():
    return FrontierShard(0, "first", 0.0, 3, None, "R", False)


@pytest.mark.parametrize("n_shards", [1, 3])
def test_router_sends_one_string_per_shard_and_pushes_as_the_list_path(
        n_shards):
    """The router returns one ``str`` + ``bytes`` payload per shard the
    chunk's links reach, and ingesting it pushes exactly what the
    per-link list payload pushed: the same urls and depths in the same
    order. Each timeout goes to its host's shard as (url, depth,
    attempt)."""
    urls = WORLD.pages.column("url").to_pylist()
    batch = Fetcher(WORLD.pages, FilterSpec())(_batch(urls))
    batch = batch.set_column(2, "depth", pa.array(
        [i % 4 for i in range(len(urls))], pa.int32()))
    counters = make_link_router(n_shards, "first")(batch)
    payloads = {s: (u, d) for s, u, d in counters["ingest"]}
    assert len(payloads) == len(counters["ingest"])  # one per shard

    # the list path: every ok row's links, in row order, to its host's
    # shard, each at the row's depth + 1
    want = [([], []) for _ in range(n_shards)]
    want_retry = [[] for _ in range(n_shards)]
    for u, st, ls, d, at in zip(*(batch.column(c).to_pylist() for c in (
            "url", "status", "links", "depth", "attempt"))):
        for link in (ls if st == "ok" else []):
            want[host_shard_of(link, n_shards)][0].append(link)
            want[host_shard_of(link, n_shards)][1].append(d + 1)
        if st == "timeout":
            want_retry[host_shard_of(u, n_shards)].append((u, d, at))
    assert counters["links"] == sum(len(w[0]) for w in want) > 0
    for s, (w_urls, w_depths) in enumerate(want):
        if not w_urls:
            assert s not in payloads
            continue
        payload_urls, payload_depths = payloads[s]
        assert type(payload_urls) is str and type(payload_depths) is bytes
        got, ref = _shard(), _shard()
        got.ingest(payload_urls, payload_depths)
        ref.push_fresh(w_urls, w_depths)
        assert got.core.heap == ref.core.heap
    retry = dict(counters["retry"])
    assert sum(map(len, want_retry)) == counters["timeout"] > 0
    assert retry == {s: w for s, w in enumerate(want_retry) if w}


@pytest.mark.parametrize("bad", ["https://h000.example.com/a\nb", None])
def test_router_refuses_a_link_its_payload_cannot_carry(bad):
    batch = pa.table({
        "url": pa.array(["https://h000.example.com/"], pa.string()),
        "attempt": pa.array([0], pa.int32()),
        "depth": pa.array([0], pa.int32()),
        "status": pa.array(["ok"], pa.string()),
        "links": pa.array([["https://h000.example.com/ok", bad]],
                          pa.list_(pa.string())),
    })
    with pytest.raises(ValueError, match="chunk part-.*newline"):
        make_link_router(1, "first")(batch)
