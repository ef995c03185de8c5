"""Property-based tests (hypothesis) for the codec and URL layers."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from doonop_ray.codec import (
    QSTEP,
    decode_jpeg,
    decode_png,
    encode_jpeg,
    encode_png,
    phash64,
    psnr,
)
from doonop_ray.url import (canonicalize, host_of, host_path_of, make_absolute,
                            make_absolute_batch, path_of)


@st.composite
def images(draw):
    h = draw(st.integers(1, 48))
    w = draw(st.integers(1, 48))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).integers(0, 256, (h, w, 3), dtype=np.uint8)


@given(images())
@settings(max_examples=30, deadline=None)
def test_png_roundtrip_any_size(pix):
    assert np.array_equal(decode_png(encode_png(pix)), pix)


@given(images())
@settings(max_examples=30, deadline=None)
def test_fake_jpeg_bounded_error_any_size(pix):
    out = decode_jpeg(encode_jpeg(pix))
    assert out.shape == pix.shape
    assert np.abs(out.astype(int) - pix.astype(int)).max() <= QSTEP
    assert psnr(pix, out) >= 40.0 or np.array_equal(pix, out)


@given(images())
@settings(max_examples=20, deadline=None)
def test_phash_in_int64_range_and_deterministic(pix):
    v = phash64(pix)
    assert np.iinfo(np.int64).min <= v <= np.iinfo(np.int64).max
    assert phash64(pix) == v


_url_chars = st.text(
    alphabet="abcdefghij0123456789-._~/?#=&%", min_size=0, max_size=30
)


@given(st.text(min_size=0, max_size=60))
@settings(max_examples=100, deadline=None)
def test_canonicalize_never_raises_and_is_idempotent(s):
    c = canonicalize(s)
    if c is not None:
        assert canonicalize(c) == c  # idempotence


@given(_url_chars)
@settings(max_examples=100, deadline=None)
def test_make_absolute_total_and_canonical(href):
    base = "https://example.com/a/b"
    a = make_absolute(base, href)
    if a is not None:
        assert canonicalize(a) == a
        assert a.startswith(("http://", "https://"))


# bases and hrefs built from URL pieces chosen to sit on both sides of
# every fast-path boundary of make_absolute_batch
_href_piece = st.sampled_from([
    "/", "//", ".", "..", "/.", "/..", "/./", "/../", "a", "B", "p", "7",
    ";x", "?", "#", "?q=1", "#f", ":", "@",
    "%2e", "%", "~", "-", "_", "'", "!", "=", "&", " ", "\t", "\\", "é",
    "\n", "\r",
])
_scheme = st.sampled_from(["http://", "https://", "HTTP://", "Https://",
                           "ftp://", "mailto:", "//", ""])
_host = st.sampled_from(["h.example.com", "H.Example.com", "a", "1.2.3.4",
                         "[::1]", "[::1]:80", "x-y.z", "h:8080", "h:80",
                         "h:99999", "u@h", "é.com", "h.", ""])
_path = st.lists(_href_piece, max_size=6).map("".join)


# clean path segments (the parent-relative fast path's alphabet) plus
# the dot segments and empty segments that must keep a page or an href
# off it
_seg = st.sampled_from(["p", "a", "B", "7", "x-y", "%41", "~u", "a.b", "..x",
                        "q=1", "", ".", ".."])
_segs = st.lists(_seg, max_size=4).map("/".join)


@st.composite
def _hrefs(draw):
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return (draw(_scheme) + draw(_host)
                + draw(st.sampled_from(["", "/"])) + draw(_path))
    if kind == 1:
        return "/" + draw(_path)
    if kind == 2:
        return draw(st.sampled_from([".", "..", "../", "./", ""])) + draw(_path)
    if kind == 3:
        # parent-relative: ``../`` and its near misses + clean segments
        return (draw(st.sampled_from(["../", "../", "../../", "..", "../.",
                                      "..//", "./../", "../../../"]))
                + draw(_segs) + draw(st.sampled_from(["", "/", "?q", "#f"])))
    return draw(_path)


_bases = st.one_of(
    st.builds(lambda s, h, p: s + h + p,
              st.sampled_from(["http://", "https://"]),
              st.sampled_from(["h.example.com", "a", "1.2.3.4"]),
              st.sampled_from(["/", "/p/3", "/a/b/", "", "?x", "#y", "/a;b"])),
    # canonical origins + page paths: root, trailing ``/``, deeper
    # directories, ``?``/``#`` on the page, dot and empty segments
    st.builds(lambda s, h, p, t, q: s + h + "/" + p + t + q,
              st.sampled_from(["http://", "https://"]),
              st.sampled_from(["h.example.com", "a", "x-y.z"]),
              st.lists(st.sampled_from(["p", "a", "7", "x-y", "", ".", ".."]),
                       max_size=4).map("/".join),
              st.sampled_from(["", "/"]),
              st.sampled_from(["", "?x", "#y", "?a/../b", "#/./"])),
    st.builds(lambda s, h, p: s + h + "/" + p, _scheme, _host, _path),
    st.builds(lambda s, h, p: s + h + p, _scheme, _host, _path),
)
_pages = st.lists(st.tuples(_bases, st.lists(_hrefs(), max_size=6)),
                  max_size=8)


def _batch_of(pages):
    import pyarrow as pa

    return make_absolute_batch(
        pa.array([b for b, _ in pages], pa.string()),
        pa.array([hs for _, hs in pages], pa.list_(pa.string())))


def test_make_absolute_batch_equals_scalar(monkeypatch):
    """Batch resolution == ``make_absolute`` href by href, and the
    parent-relative fast path is actually taken: some ``../`` hrefs
    resolve without a ``make_absolute`` call."""
    import doonop_ray.url as url_mod

    slow: set = set()

    def recording(base, href):
        slow.add((base, href))
        return make_absolute(base, href)

    monkeypatch.setattr(url_mod, "make_absolute", recording)
    fast_up = []

    @given(_pages)
    # the fast path's two guards, pinned: a dot segment in the page's
    # directory, and a second ``../``
    @example([("https://h.example.com/a/./b/c", ["../x"]),
              ("https://h.example.com/a/b/c", ["../../x"])])
    @settings(max_examples=300, deadline=None)
    def prop(pages):
        slow.clear()
        assert _batch_of(pages).to_pylist() == [
            make_absolute(b, h) for b, hs in pages for h in hs]
        fast_up.extend((b, h) for b, hs in pages for h in hs
                       if h.startswith("../") and (b, h) not in slow)

    prop()
    assert fast_up


@given(_pages)
@settings(max_examples=200, deadline=None)
def test_resolved_links_hold_no_newline(pages):
    """The link router newline-joins a shard's links, so no resolved
    link may hold a newline (nor ``\\t``/``\\r``, which ``urlsplit``
    strips alike)."""
    out = _batch_of(pages).to_pylist() + [
        make_absolute(b, h) for b, hs in pages for h in hs]
    for u in out:
        assert u is None or not any(c in u for c in "\t\r\n")


# link routing: the batch router must send every URL to the shard the
# scalar host_shard_of names, whatever its authority looks like
_route_scheme = st.sampled_from(["http://", "https://", "HTTP://", "Https://",
                                 "ftp://", "//", "http:/", "http:", "", "1a://"])
_route_userinfo = st.sampled_from(["", "u@", "u:p@", "U:P@", "a@b@", ":@", "@"])
_route_host = st.sampled_from([
    "h.example.com", "H.Example.COM", "H2.example.com", "1.2.3.4", "a",
    "[::1]", "[2001:DB8::1]", "[::1", "::1]", "é.com", "h.", "", "x\ty",
    "x\ny", "ß.DE",
])
_route_port = st.sampled_from(["", ":80", ":443", ":8080", ":0", ":99999",
                               ":x", ":"])
_route_rest = st.lists(st.sampled_from([
    "/", "/p", "?q=1", "#f", "//x", "/A/b", ":", "@", "\t", " ", "é", "[",
    "]",
]), max_size=4).map("".join)


@given(st.lists(st.one_of(
    st.builds(lambda *parts: "".join(parts), _route_scheme, _route_userinfo,
              _route_host, _route_port, _route_rest),
    st.text(max_size=24),
), max_size=40))
@settings(max_examples=200, deadline=None)
def test_batch_host_routing_equals_scalar(urls):
    from doonop_ray.state.seen import host_shard_of, host_shards_of_batch

    for n in (1, 2, 3, 8):
        assert host_shards_of_batch(urls, n).tolist() == [
            host_shard_of(u, n) for u in urls]


@given(st.one_of(
    st.builds(lambda *parts: "".join(parts), _route_scheme, _route_userinfo,
              _route_host, _route_port, _route_rest),
    _bases, _url_chars, st.text(max_size=24)))
@example("http://[::1/p")  # urlsplit raises: the ("", "/") fallbacks
@settings(max_examples=300, deadline=None)
def test_host_path_of_equals_host_of_and_path_of(url):
    """The frontier drain's one-split host and path cut is exactly the
    two cuts it replaced, fallbacks included."""
    assert host_path_of(url) == (host_of(url), path_of(url))


def test_cut_host_path_equals_host_path_of():
    """The drain's regex cut of a canonical URL is ``host_path_of``'s
    ``urlsplit`` cut, and every other URL falls back to it; the regex
    is actually taken on some URLs."""
    from doonop_ray.url import _HOST_PATH_RE, cut_host_path

    fast = []

    @given(st.one_of(
        st.builds(lambda *parts: "".join(parts), _route_scheme,
                  _route_userinfo, _route_host, _route_port, _route_rest),
        _bases, _url_chars, st.text(max_size=24),
        st.builds(lambda b, h: b + h, _bases, _path)))
    # a tab, CR or LF anywhere (urlsplit deletes them), a ``#`` before a
    # ``?``, a trailing newline (``$`` would match before it), no path
    @example("https://h.example.com/a\n")
    @example("https://h.example.com/a\tb/c")
    @example("http://h.ex\rample.com/p")
    @example("https://h.example.com/a#b?c/d")
    @example("https://h.example.com?q/x")
    @example("http://[::1/p")
    @settings(max_examples=300, deadline=None)
    def prop(url):
        assert cut_host_path(url) == host_path_of(url)
        if _HOST_PATH_RE.fullmatch(url):
            fast.append(url)

    prop()
    assert fast


# ---------------------------------------------------------------------------
# high-cardinality grouping primitives vs pandas ground truth
# ---------------------------------------------------------------------------


@st.composite
def keyed_tables(draw):
    n = draw(st.integers(1, 2000))
    n_keys = draw(st.integers(1, max(1, n)))
    seed = draw(st.integers(0, 2**31 - 1))
    blocks = draw(st.integers(1, 9))
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n_keys, n), rng.integers(-1000, 1000, n), blocks)


@pytest.mark.parametrize("small_max", [65536, 0],
                         ids=["small-route", "sort-route"])
@given(keyed_tables())
@settings(max_examples=12, deadline=None)
def test_grouped_aggregate_matches_pandas(ray_session, small_max, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import doonop_ray.ops.common as common
    from doonop_ray.ops.common import grouped_aggregate

    keys, vals, blocks = data
    # hypothesis inputs are <=2000 rows, so without forcing the
    # threshold the distributed-sort path would lose all coverage
    orig = common.SMALL_SORT_MAX_ROWS
    common.SMALL_SORT_MAX_ROWS = small_max
    try:
        ds = rd.from_arrow(
            pa.table({"k": keys, "v": vals})).repartition(blocks)
        got = (
            grouped_aggregate(ds, "k", [("v", "sum"), ("v", "min"),
                                        ("v", "max"), ("v", "count")])
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
    finally:
        common.SMALL_SORT_MAX_ROWS = orig
    exp = (pd.DataFrame({"k": keys, "v": vals}).groupby("k")
           .agg(v_sum=("v", "sum"), v_min=("v", "min"),
                v_max=("v", "max"), v_count=("v", "count")).reset_index())
    assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
    for c in ("v_sum", "v_min", "v_max", "v_count"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


@pytest.mark.parametrize("small_max", [65536, 0],
                         ids=["small-route", "sort-route"])
@given(keyed_tables())
@settings(max_examples=8, deadline=None)
def test_grouped_apply_sees_every_group_exactly_once(ray_session, small_max,
                                                     data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import doonop_ray.ops.common as common
    from doonop_ray.ops.common import grouped_apply

    keys, vals, blocks = data
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(blocks)
    empty = pa.table({"k": pa.array([], pa.int64()),
                      "n": pa.array([], pa.int64()),
                      "s": pa.array([], pa.int64())})

    def fn(g: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "k": g["k"].slice(0, 1),
            "n": pa.array([len(g)], pa.int64()),
            "s": pa.array([pc.sum(g["v"]).as_py()], pa.int64()),
        })

    orig = common.SMALL_SORT_MAX_ROWS
    common.SMALL_SORT_MAX_ROWS = small_max
    try:
        got = grouped_apply(ds, "k", fn, empty).to_pandas().sort_values(
            "k").reset_index(drop=True)
    finally:
        common.SMALL_SORT_MAX_ROWS = orig
    exp = (pd.DataFrame({"k": keys, "v": vals}).groupby("k")
           .agg(n=("v", "size"), s=("v", "sum")).reset_index())
    assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
    assert (got["n"].to_numpy() == exp["n"].to_numpy()).all()
    assert (got["s"].to_numpy() == exp["s"].to_numpy()).all()


# ---------------------------------------------------------------------------
# shuffle_join (sort-cogroup large×large join) vs pandas merge ground truth
# ---------------------------------------------------------------------------


@st.composite
def join_inputs(draw):
    nl = draw(st.integers(1, 800))
    n_keys = draw(st.integers(1, 200))
    seed = draw(st.integers(0, 2**31 - 1))
    blocks = draw(st.integers(1, 7))
    rng = np.random.default_rng(seed)
    lkeys = rng.integers(0, n_keys, nl)
    lvals = rng.integers(-1000, 1000, nl)
    # right side unique-keyed (orders/customer primary-key shape), non-empty
    rkeys = rng.permutation(n_keys)[: rng.integers(1, n_keys + 1)]
    rvals = rng.integers(-1000, 1000, len(rkeys))
    return lkeys, lvals, rkeys, rvals, blocks


@given(join_inputs())
@settings(max_examples=10, deadline=None)
def test_shuffle_join_inner_matches_pandas(ray_session, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(blocks)
    right = rd.from_arrow(pa.table({"key": rkeys, "rv": rvals})).repartition(
        max(1, blocks - 1))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"], "inner").to_pandas()
    if not len(got.columns):  # all-empty Ray result loses its schema
        got = pd.DataFrame({"key": [], "lv": [], "rv": []})
    got = got.sort_values(["key", "lv", "rv"], kind="mergesort").reset_index(drop=True)
    exp = pd.DataFrame({"key": lkeys, "lv": lvals}).merge(
        pd.DataFrame({"key": rkeys, "rv": rvals}), on="key", how="inner")
    exp = exp.sort_values(["key", "lv", "rv"], kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    for c in ("key", "lv", "rv"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


@given(join_inputs())
@settings(max_examples=10, deadline=None)
def test_shuffle_join_semi_anti_partition_left(ray_session, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(blocks)
    right = rd.from_arrow(pa.table({"key": rkeys, "rv": rvals})).repartition(
        max(1, blocks - 1))
    def fetch(df):
        # an all-empty Ray result loses its schema in to_pandas — normalize
        return df if len(df.columns) else pd.DataFrame({"key": [], "lv": []})

    semi = fetch(shuffle_join(left, right, "key", ["lv"], [], "semi").to_pandas())
    anti = fetch(shuffle_join(left, right, "key", ["lv"], [], "anti").to_pandas())
    rset = set(rkeys.tolist())
    exp_semi = pd.DataFrame({"key": lkeys, "lv": lvals})
    exp_semi = exp_semi[exp_semi["key"].isin(rset)]
    assert len(semi) == len(exp_semi)
    assert len(anti) == len(lkeys) - len(exp_semi)
    assert set(semi["key"]).issubset(rset)
    assert not (set(anti["key"]) & rset)
    # row multiset preserved (sorted value pairs equal)
    got = semi.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    exp = exp_semi.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    assert (got["lv"].to_numpy() == exp["lv"].to_numpy()).all()


@given(join_inputs())
@settings(max_examples=6, deadline=None)
def test_shuffle_join_left_matches_pandas(ray_session, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(blocks)
    right = rd.from_arrow(pa.table({"key": rkeys, "rv": rvals})).repartition(
        max(1, blocks - 1))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"], "left").to_pandas()
    got = got.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    exp = pd.DataFrame({"key": lkeys, "lv": lvals}).merge(
        pd.DataFrame({"key": rkeys, "rv": rvals}), on="key", how="left")
    exp = exp.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["key"].to_numpy() == exp["key"].to_numpy()).all()
    gr, er = got["rv"].to_numpy(dtype=float), exp["rv"].to_numpy(dtype=float)
    assert ((gr == er) | (np.isnan(gr) & np.isnan(er))).all()


def test_shuffle_join_hot_key_straddles_many_blocks(ray_session):
    """Skew regression: one key holding most rows spans MANY sorted
    blocks, so the whole group routes through the edge pass; counts must
    still be exact and the semi/inner outputs complete."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    n_hot = 20_000
    lkeys = np.concatenate([np.zeros(n_hot, dtype=np.int64),
                            np.arange(1, 101, dtype=np.int64)])
    lvals = np.arange(len(lkeys), dtype=np.int64)
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(16)
    right = rd.from_arrow(pa.table({"key": np.array([0, 7, 999], dtype=np.int64),
                                    "rv": np.array([1, 2, 3], dtype=np.int64)}))
    inner = shuffle_join(left, right, "key", ["lv"], ["rv"], "inner").to_pandas()
    assert len(inner) == n_hot + 1  # hot key + key 7
    assert (inner[inner["key"] == 0]["rv"] == 1).all()
    assert sorted(inner[inner["key"] == 0]["lv"]) == list(range(n_hot))
    anti = shuffle_join(left, right, "key", ["lv"], [], "anti").to_pandas()
    assert len(anti) == 99  # keys 1..100 minus key 7


def test_shuffle_join_inner_expands_duplicate_right_keys(ray_session):
    """Contract: inner/left/outer expand many-to-many (SQL semantics) —
    a duplicate-keyed right side yields one output row per (left row,
    matching right row) pair, not a silent first-match."""
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    left = rd.from_arrow(pa.table({"key": [1, 1, 2], "lv": [10, 11, 20]}))
    right = rd.from_arrow(pa.table({"key": [1, 1, 3], "rv": [7, 8, 9]}))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"],
                       "inner").to_pandas()
    got = got.sort_values(["lv", "rv"]).reset_index(drop=True)
    assert len(got) == 4  # 2 left rows x 2 right rows for key 1
    assert got["key"].tolist() == [1, 1, 1, 1]
    assert got["lv"].tolist() == [10, 10, 11, 11]
    assert got["rv"].tolist() == [7, 8, 7, 8]


@st.composite
def dup_join_inputs(draw):
    """Both sides carry duplicate keys (the many-to-many shape)."""
    nl = draw(st.integers(1, 400))
    nr = draw(st.integers(1, 400))
    n_keys = draw(st.integers(1, 60))
    seed = draw(st.integers(0, 2**31 - 1))
    blocks = draw(st.integers(1, 7))
    rng = np.random.default_rng(seed)
    return (rng.integers(0, n_keys, nl), rng.integers(-1000, 1000, nl),
            rng.integers(0, n_keys, nr), rng.integers(-1000, 1000, nr),
            blocks)


@pytest.mark.parametrize("how", ["inner", "left", "outer"])
@given(dup_join_inputs())
@settings(max_examples=6, deadline=None)
def test_shuffle_join_many_to_many_matches_pandas(ray_session, how, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(
        blocks)
    right = rd.from_arrow(pa.table({"key": rkeys, "rv": rvals})).repartition(
        max(1, blocks - 1))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"], how).to_pandas()
    if not len(got.columns):  # all-empty Ray result loses its schema
        got = pd.DataFrame({"key": [], "lv": [], "rv": []})
    got = got.sort_values(["key", "lv", "rv"],
                          kind="mergesort").reset_index(drop=True)
    exp = pd.DataFrame({"key": lkeys, "lv": lvals}).merge(
        pd.DataFrame({"key": rkeys, "rv": rvals}), on="key", how=how)
    exp = exp.sort_values(["key", "lv", "rv"],
                          kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    for c in ("key", "lv", "rv"):
        g = got[c].to_numpy(dtype=float)
        x = exp[c].to_numpy(dtype=float)
        assert ((g == x) | (np.isnan(g) & np.isnan(x))).all(), c


@pytest.mark.parametrize("small_max", [65536, 0],
                         ids=["small-route", "sort-route"])
@given(keyed_tables())
@settings(max_examples=8, deadline=None)
def test_grouped_aggregate_string_keys_match_pandas(ray_session, small_max,
                                                    data):
    """The dedup family groups on string digests — pin the grouping
    primitives on string keys too (int-only coverage before)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    import doonop_ray.ops.common as common
    from doonop_ray.ops.common import grouped_aggregate

    keys, vals, blocks = data
    skeys = np.array([f"k{k:05d}" for k in keys])
    ds = rd.from_arrow(pa.table({"k": skeys, "v": vals})).repartition(blocks)
    orig = common.SMALL_SORT_MAX_ROWS
    common.SMALL_SORT_MAX_ROWS = small_max
    try:
        got = (
            grouped_aggregate(ds, "k", [("v", "sum"), ("v", "count")])
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
    finally:
        common.SMALL_SORT_MAX_ROWS = orig
    exp = (pd.DataFrame({"k": skeys, "v": vals}).groupby("k")
           .agg(v_sum=("v", "sum"), v_count=("v", "count")).reset_index())
    assert (got["k"].to_numpy() == exp["k"].to_numpy()).all()
    assert (got["v_sum"].to_numpy() == exp["v_sum"].to_numpy()).all()
    assert (got["v_count"].to_numpy() == exp["v_count"].to_numpy()).all()


@given(join_inputs())
@settings(max_examples=6, deadline=None)
def test_shuffle_join_string_keys_match_pandas(ray_session, data):
    """Join on string keys (digest-keyed dedup shapes) — int-only
    coverage before."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    ls = np.array([f"k{k:05d}" for k in lkeys])
    rs = np.array([f"k{k:05d}" for k in rkeys])
    left = rd.from_arrow(pa.table({"key": ls, "lv": lvals})).repartition(blocks)
    right = rd.from_arrow(pa.table({"key": rs, "rv": rvals}))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"], "inner").to_pandas()
    if not len(got.columns):
        got = pd.DataFrame({"key": [], "lv": [], "rv": []})
    got = got.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    exp = pd.DataFrame({"key": ls, "lv": lvals}).merge(
        pd.DataFrame({"key": rs, "rv": rvals}), on="key", how="inner")
    exp = exp.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    for c in ("key", "lv", "rv"):
        assert (got[c].to_numpy() == exp[c].to_numpy()).all(), c


@given(join_inputs())
@settings(max_examples=10, deadline=None)
def test_shuffle_join_outer_matches_pandas(ray_session, data):
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.join import shuffle_join

    lkeys, lvals, rkeys, rvals, blocks = data
    left = rd.from_arrow(pa.table({"key": lkeys, "lv": lvals})).repartition(blocks)
    right = rd.from_arrow(pa.table({"key": rkeys, "rv": rvals})).repartition(
        max(1, blocks - 1))
    got = shuffle_join(left, right, "key", ["lv"], ["rv"], "outer").to_pandas()
    got = got.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    exp = pd.DataFrame({"key": lkeys, "lv": lvals}).merge(
        pd.DataFrame({"key": rkeys, "rv": rvals}), on="key", how="outer")
    exp = exp.sort_values(["key", "lv"], kind="mergesort").reset_index(drop=True)
    assert len(got) == len(exp)
    assert (got["key"].to_numpy() == exp["key"].to_numpy()).all()
    for c in ("lv", "rv"):
        g = got[c].to_numpy(dtype=float)
        x = exp[c].to_numpy(dtype=float)
        assert ((g == x) | (np.isnan(g) & np.isnan(x))).all(), c


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=400),
       st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_stratified_compact_preserves_weight_and_bounds(vals, m):
    """The quantile-sketch compactor must conserve total weight exactly
    and emit values drawn from the input (sorted), regardless of m."""
    from doonop_ray.ops.sketches import _stratified_compact

    v = np.asarray(vals, dtype=np.float64)
    w = np.ones(len(v))
    cv, cw = _stratified_compact(v, w, m)
    assert len(cv) <= max(m, len(v))
    assert abs(cw.sum() - w.sum()) < 1e-9 * max(1.0, w.sum())
    assert set(cv).issubset(set(v))
    assert (np.diff(cv) >= 0).all()


@given(st.lists(st.text(alphabet="abc XYZ.,", min_size=0, max_size=40),
                min_size=1, max_size=30),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=50, deadline=None)
def test_prefix_keys_matches_duckdb_token_slice(texts, n):
    """_prefix_keys (the dedup family key) must agree with the DuckDB
    expression used by every oracle that partitions on it."""
    import duckdb
    import pyarrow as pa

    from doonop_ray.ops.dedup import _prefix_keys

    got = _prefix_keys(pa.array(texts, pa.string()), n)
    want = duckdb.connect().execute(
        "SELECT array_to_string(list_slice(list_filter("
        "regexp_split_to_array(lower(t), '\\W+'), x -> x <> ''), 1, ?),"
        " ' ') FROM (SELECT unnest(?) AS t)",
        [n, texts]).fetchall()
    # known edge: a TOKEN-LESS doc keys as '' in Python but NULL in
    # DuckDB (array_to_string of an empty list); the oracle corpora
    # never contain token-less documents, so equivalence is modulo that
    assert got == [r[0] if r[0] is not None else "" for r in want]


# ---------------------------------------------------------------------------
# the Validator's chunk truth (synth.TruthBatch) against the per-row path
# ---------------------------------------------------------------------------


_bounds = st.integers(1, 24).flatmap(
    lambda lo: st.tuples(st.just(lo), st.integers(lo, lo + 16)))


@given(st.lists(st.one_of(st.integers(0, 2**32 - 1),
                          st.integers(2**32, 2**40)), min_size=1,
                max_size=24),
       st.integers(0, 2**32 - 1), _bounds)
@example([0, 1, 2**32 - 1, 2**32], 0, (16, 16))  # no size draw at all
@example([5, 7919], 2**32 - 1, (1, 1))
@settings(max_examples=60, deadline=None)
def test_truth_batch_equals_expected_pixels(indices, seed, bounds):
    """The chunk path's truth, seeded in one numpy pass, is
    ``expected_pixels`` bit for bit: shape, dtype and every byte. Only
    an index of more than one entropy word (or a size draw that may be
    redrawn) is left to the scalar path."""
    from doonop_ray.synth import TruthBatch, expected_pixels

    lo, hi = bounds
    ids = [f"img-{i}" for i in indices]
    want = [expected_pixels(i, seed, lo, hi) for i in ids]
    tb = TruthBatch(indices, seed, lo, hi)
    for k, i in enumerate(indices):
        if i >= 2**32:
            assert tb.scalar[k]
        if tb.scalar[k]:
            continue
        got = tb.pixels(k)
        assert got.dtype == np.uint8
        assert (tb.h[k], tb.w[k], 3) == want[k].shape
        assert np.array_equal(got.reshape(want[k].shape), want[k])
    # its self-check agrees, so the Validator takes the chunk path
    assert TruthBatch.supports(seed, lo, hi)


def _validate_reference(batch, images, seed, emit, lo, hi, psnr_min=40.0):
    """The per-row Validator: ``expected_pixels`` + ``codec.psnr`` +
    ``expected_caption`` for each row, in plain Python. A row whose id is
    unknown, has no ``-<int>`` part or does not decode keeps the
    defaults (NaN PSNR, False flags, null metadata)."""
    import pyarrow as pa

    from doonop_ray.codec import decode_image
    from doonop_ray.synth import expected_caption, expected_pixels

    meta = {r["image_id"]: r for r in images.to_pylist()}
    cols = {c: [] for c in ("caption", "fmt", "phash", "caption_ok",
                            "pixel_ok", "psnr_db", "bytes")}
    for iid in batch.column("image_id").to_pylist():
        row = dict(caption=None, fmt=None, phash=0, caption_ok=False,
                   pixel_ok=False, psnr_db=float("nan"), bytes=None)
        m = meta.get(iid)
        pix = truth = None
        if m is not None:
            try:
                pix = decode_image(m["bytes"], m["fmt"])
            except Exception:
                pass
            try:
                truth = expected_pixels(iid, seed, lo, hi)
            except (IndexError, ValueError):  # no -<int> part
                pass
            if pix is not None and truth is not None:
                p = psnr(truth, pix)
                row.update(
                    caption=m["caption"], fmt=m["fmt"], phash=m["phash"],
                    caption_ok=m["caption"] == expected_caption(iid, seed),
                    pixel_ok=p >= psnr_min,
                    psnr_db=p if np.isfinite(p) else 999.0,
                    bytes=m["bytes"] if emit else None)
        for c, v in row.items():
            cols[c].append(v)
    out = dict(zip(batch.column_names, batch.columns))
    types = dict(caption=pa.string(), fmt=pa.string(), phash=pa.int64(),
                 caption_ok=pa.bool_(), pixel_ok=pa.bool_(),
                 psnr_db=pa.float64(), bytes=pa.binary())
    for c, t in types.items():
        if c != "bytes" or emit:
            out[c] = pa.array(cols[c], t)
    return pa.table(out)


def _assert_same_validation(got, want):
    assert got.schema == want.schema
    for c in got.column_names:
        if c == "psnr_db":  # bit for bit, NaN and 999 positions included
            g = got.column(c).to_numpy().view(np.int64)
            w = want.column(c).to_numpy().view(np.int64)
            assert np.array_equal(g, w)
        else:
            assert got.column(c).to_pylist() == want.column(c).to_pylist(), c


@st.composite
def _validator_inputs(draw):
    """An images table built under (seed, bounds) — both formats, mixed
    sizes, corrupt blobs, blobs of another image or size, wrong
    captions, malformed ids — and a batch over it with unknown and null
    ids."""
    import pyarrow as pa

    from doonop_ray.codec import encode_image
    from doonop_ray.synth import expected_caption, expected_pixels

    # one seed in four and one index in eight take more than one
    # entropy word: the scalar path
    seed = draw(st.integers(0, 2**32 - 1)) + 2**32 * (
        draw(st.integers(0, 3)) == 0)
    lo, hi = draw(_bounds)
    n_img = draw(st.integers(1, 28))
    indices = sorted({draw(st.integers(0, 10**7)) + 2**32 * (
        draw(st.integers(0, 7)) == 0) for _ in range(n_img)})
    ids = [f"img-{i:07d}" for i in indices]
    malformed = draw(st.lists(st.sampled_from(["cat.png", "img-x", "img--3",
                                               "img"]), max_size=2,
                              unique=True))
    rows = []
    for iid in ids + malformed:
        # a malformed id carries a valid blob of another image
        good = iid if iid in ids else ids[0]
        truth = expected_pixels(good, seed, lo, hi)
        fmt = draw(st.sampled_from(["png", "jpeg"]))
        kind = draw(st.sampled_from(["ok"] * 10 + ["truncated", "garbage",
                                                  "other", "resized"]))
        if kind == "other":
            truth = truth.copy()
            truth[0, 0, 0] ^= 0x40
        elif kind == "resized":
            truth = np.concatenate([truth, truth[:1]], axis=0)
        blob = encode_image(truth, fmt)
        if kind == "truncated":
            blob = blob[:len(blob) // 2]
        elif kind == "garbage":
            blob = blob[:8] + bytes(len(blob) - 8)
        caption = (expected_caption(good, seed) if draw(st.booleans())
                   else "wrong caption")
        rows.append(dict(image_id=iid, bytes=blob, fmt=fmt,
                         caption=caption, phash=draw(st.integers(-9, 9))))
    images = pa.table({
        "image_id": pa.array([r["image_id"] for r in rows], pa.string()),
        "bytes": pa.array([r["bytes"] for r in rows], pa.binary()),
        "fmt": pa.array([r["fmt"] for r in rows], pa.string()),
        "caption": pa.array([r["caption"] for r in rows], pa.string()),
        "phash": pa.array([r["phash"] for r in rows], pa.int64()),
    })
    n = draw(st.integers(1, 40))
    pick = draw(st.lists(st.sampled_from(ids + malformed
                                         + ["img-9999999", None]),
                         min_size=n, max_size=n))
    batch = pa.table({"url": pa.array([f"u{k}" for k in range(len(pick))]),
                      "image_id": pa.array(pick, pa.string())})
    return images, batch, seed, lo, hi


@pytest.mark.parametrize("min_rows", [None, 1])
@given(_validator_inputs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_batch_validator_equals_per_row_reference(min_rows, inputs, emit):
    """The Validator's whole output table equals the per-row reference,
    ``psnr_db`` bit for bit. ``min_rows=1`` sends even 1-row batches
    down the chunk path; by default they keep ``expected_pixels``."""
    from doonop_ray.stages import fetch

    images, batch, seed, lo, hi = inputs
    v = fetch.Validator(fetch.prep_images_table(images), seed, emit,
                        img_min=lo, img_max=hi)
    assert v._batchable == (seed < 2**32)
    old = fetch.BATCH_TRUTH_MIN_ROWS
    fetch.BATCH_TRUTH_MIN_ROWS = min_rows or old
    try:
        got = v(batch)
    finally:
        fetch.BATCH_TRUTH_MIN_ROWS = old
    _assert_same_validation(
        got, _validate_reference(batch, images, seed, emit, lo, hi))


def test_validator_rows_the_batch_cannot_restate_take_expected_pixels(
        monkeypatch):
    """With every size draw marked as one that may be redrawn, every row
    of a chunk-sized batch takes ``expected_pixels``, and the output is
    still the reference."""
    import pyarrow as pa

    from doonop_ray import synth
    from doonop_ray.stages import fetch

    w = synth.build_world(synth.WorldParams(seed=7, n_hosts=3,
                                            pages_per_host=12))
    ids = w.images.column("image_id")
    assert len(ids) >= fetch.BATCH_TRUTH_MIN_ROWS
    batch = pa.table({"image_id": ids})
    images = fetch.prep_images_table(w.images)
    v = fetch.Validator(images, 7)
    assert v._batchable
    monkeypatch.setattr(synth, "_may_redraw",
                        lambda leftover, rng_excl: np.ones(len(leftover),
                                                           dtype=bool))

    def batch_row(self, k):
        raise AssertionError("a row left to the scalar path was batched")

    monkeypatch.setattr(synth.TruthBatch, "pixels", batch_row)
    got = v(batch)
    assert got.column("pixel_ok").to_pylist() == [True] * len(ids)
    _assert_same_validation(
        got, _validate_reference(batch, w.images.drop_columns(["w", "h"]),
                                 7, False, 16, 40))
