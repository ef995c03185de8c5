"""Operator-suite tests: DuckDB oracle equality at sf0.001 for the
SQL-expressible queries, brute-force verification for the sketch-based
ones, and the driver-contract smoke (entry/queries/oracle_sql)."""

import sys

import duckdb
import pytest

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/tools")

SF = "/root/testdata/sf0.001"
TABLES = "region nation customer supplier part orders lineitem events documents embeddings".split()


@pytest.fixture(scope="module")
def entrymod(ray_session):
    import __ray_entry__ as e

    return e


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in TABLES:
        con.sql(f"CREATE VIEW {t} AS SELECT * FROM '{SF}/{t}.parquet'")
    return con


SQL_QUERIES = [
    "q1_pricing_summary", "q3_shipping_priority", "q5_revenue_by_nation",
    "top_orders_by_value", "filter_parts_regex", "events_by_type",
    "distinct_segments", "nation_customer_counts", "token_counts",
    "quality_scores", "lang_guess", "doc_fingerprints", "top_tokens",
    "dedup_exact", "dedup_prefix", "embedding_neardup_pairs",
    "ann_topk_cosine", "events_hourly", "user_sessions", "user_stats",
    "events_sliding_counts", "events_last_order", "event_value_median",
    "top_orders_per_customer", "ngram_jaccard_pairs", "deterministic_sample",
    "neardup_components", "customers_no_recent_orders", "dedup_keep_best",
    "events_rolling_avg", "contamination_check",
    "train_val_test_split", "boilerplate_segments", "tfidf_top_terms",
    "minhash_precision_violations", "ann_ivf_recall_violations",
    "phash_pair_violations", "winnowing_fingerprints",
    "score_documents_model", "q3_shipping_priority_allshuffle",
    "q5_revenue_by_nation_allshuffle", "q7_volume_shipping_allshuffle",
    "pii_redact", "repetition_scores", "keyword_search_bm25",
    "winnowing_neardup_pairs",
    "q4_order_priority", "q6_forecast_revenue", "q10_returned_items",
    "q14_promo_revenue", "exact_quantiles", "pack_sequences",
    "mixture_weights", "customer_acct_outer",
    "q8_market_share", "q13_customer_distribution", "q15_top_supplier",
    "q18_large_volume", "q19_disjunctive_revenue",
    "lm_perplexity_consistency_violations", "pagerank_customer_supplier",
    "sample_by_mixture", "quantile_sketch_violations",
    "dedup_incremental", "ann_pq_recall_violations",
    "q12_priority_by_linestatus", "q22_sales_opportunity",
    "revenue_rollup", "q17_small_quantity_revenue",
    "customer_order_gaps", "q2_min_cost_supplier",
    "q11_important_parts", "q16_supplier_counts",
    "q20_dominant_suppliers", "q21_waiting_suppliers",
    "ivf_index_violations", "training_dataset_violations",
    "audio_feature_violations", "video_sampling_violations",
    "image_resize_violations",
    "q18_large_volume_allshuffle", "q10_returned_items_allshuffle",
    "q21_waiting_suppliers_allshuffle", "q4_order_priority_allshuffle",
    "q12_priority_by_linestatus_allshuffle",
    "q13_customer_distribution_allshuffle",
    "customer_order_counts_allshuffle", "q8_market_share_allshuffle",
    "contamination_check_bloom", "contamination_bloom_violations",
    "cms_accuracy_violations", "substring_dup_stats",
    "centroid_by_label", "corpus_shuffle_shards",
    "semantic_dedup", "bpe_encode_violations",
    "char_entropy", "events_ntile", "user_modal_event_type",
    "hybrid_search_rrf", "sorted_range_shards",
    "events_pivot", "user_funnel", "retention_cohorts",
    "image_dedup_violations", "events_percent_rank",
    "events_hourly_anomalies", "orders_skyline",
    "crawl_reachability_violations", "kmeans_violations",
    "bpe_merges_violations", "conformance_order_violations",
    "crawl_host_counts_violations", "politeness_violations",
    "frontier_budget_violations", "image_validate_violations",
    "bloom_semijoin_orders", "part_copurchase_triangles",
    "top_copurchased_parts", "events_type_quantiles",
    "recrawl_violations", "curate_images_violations",
    "keyword_search_indexed", "events_gap_fill",
    "nation_top_customer_names", "fuzzy_part_matches",
    "events_cube", "shared_tokens_langs", "table_profile_orders",
    "events_props_stats", "lineitem_corr_stats", "pca_violations",
    "events_percentiles_cont", "events_value_mad",
    "chunk_documents",
]


@pytest.mark.parametrize("name", SQL_QUERIES)
def test_query_matches_duckdb_oracle(entrymod, duck, name):
    from selfcheck import compare, to_pandas

    ray_df = to_pandas(entrymod.queries()[name](SF))
    sql_df = duck.sql(entrymod.oracle_sql()[name]).df()
    assert compare(ray_df, sql_df) is None


def test_minhash_lsh_finds_true_jaccard_pairs(entrymod, ray_session):
    from doonop_ray.ops.dedup import jaccard_brute_force, minhash_lsh_pairs
    from doonop_ray.ops.common import read_arrow

    got = minhash_lsh_pairs(SF, threshold=0.5)
    got_pairs = set(zip(got["a"], got["b"]))
    docs = read_arrow(SF, "documents", ["doc_id", "text"])
    texts = dict(zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()))
    truth = jaccard_brute_force(texts, threshold=0.5)
    # verification step removes all false positives
    assert got_pairs <= truth
    # banding (16 bands x 4 rows) catches nearly all true pairs at 0.5
    if truth:
        recall = len(got_pairs & truth) / len(truth)
        assert recall >= 0.8, (recall, len(truth))


def test_simhash_similar_texts_close(ray_session):
    import pandas as pd
    from doonop_ray.ops.dedup import simhash_signatures
    from doonop_ray.codec import hamming64

    sigs = simhash_signatures(SF).set_index("doc_id")["simhash"]
    # deterministic across runs
    sigs2 = simhash_signatures(SF).set_index("doc_id")["simhash"]
    pd.testing.assert_series_equal(sigs, sigs2)
    assert sigs.dtype == "int64"


def test_ann_lsh_recall_vs_exact(entrymod, ray_session):
    from doonop_ray.ops.ann import ann_topk_cosine, ann_topk_lsh

    exact = ann_topk_cosine(SF, k=10, n_queries=5)
    approx = ann_topk_lsh(SF, k=10, n_queries=5)
    e = {(q, n) for q, n in zip(exact["query_id"], exact["neighbor_id"])}
    a = {(q, n) for q, n in zip(approx["query_id"], approx["neighbor_id"])}
    recall = len(e & a) / len(e)
    assert recall >= 0.3, recall  # bucketed candidates on random vectors


def test_entry_smoke(entrymod, ray_session):
    df = entrymod.entry()
    assert len(df) > 0
    assert {"url", "status", "caption_ok", "pixel_ok"} <= set(df.columns)
    ok = df[df["status"] == "ok"]
    img = ok[ok["image_id"].notna()]
    assert img["caption_ok"].all() and img["pixel_ok"].all()


def test_queries_oracle_keys_consistent(entrymod):
    qs, sql = entrymod.queries(), entrymod.oracle_sql()
    assert set(sql) <= set(qs)  # every oracle has a query
    assert len(qs) >= 25


def test_ann_ivf_recall_vs_exact(entrymod, ray_session):
    from doonop_ray.ops.ann import ann_topk_cosine, ann_topk_ivf

    exact = ann_topk_cosine(SF, k=10, n_queries=5)
    approx = ann_topk_ivf(SF, k=10, n_queries=5)
    e = {(q, n) for q, n in zip(exact["query_id"], exact["neighbor_id"])}
    a = {(q, n) for q, n in zip(approx["query_id"], approx["neighbor_id"])}
    recall = len(e & a) / len(e)
    assert recall >= 0.3, recall  # 4/16 cells probed on random vectors


def test_neardup_components_transitive(entrymod, ray_session):
    from doonop_ray.ops.dedup import neardup_components, ngram_jaccard_pairs

    comp = neardup_components(SF).set_index("doc_id")["component"]
    pairs = ngram_jaccard_pairs(SF)
    # every edge joins two docs of the same component; labels are min ids
    for a, b in zip(pairs["a"], pairs["b"]):
        assert comp[a] == comp[b]
    assert (comp.index >= comp.values).all()


def test_neardup_dedup_corpus_keeps_one_per_component(entrymod, ray_session):
    from doonop_ray.ops.dedup import neardup_components, neardup_dedup_corpus

    comp = neardup_components(SF)
    survivors = neardup_dedup_corpus(SF)
    # exactly the component representatives (min doc_id labels) survive
    reps = sorted(comp["component"].unique())
    assert list(survivors["doc_id"]) == reps
    assert set(survivors.columns) == {"doc_id", "lang"}


def test_contamination_check_excludes_holdout(entrymod, ray_session):
    from doonop_ray.ops.text import contamination_check

    got = contamination_check(SF)
    # the holdout set itself is never reported as contaminated, and the
    # synthetic corpus has real 4-gram overlap to detect
    assert len(got) > 0
    assert (got["doc_id"] % 10 != 0).all()


def test_contamination_bloom_no_false_negatives(entrymod, ray_session):
    from doonop_ray.ops.text import (contamination_check,
                                     contamination_check_bloom)

    exact = set(contamination_check(SF)["doc_id"])
    # at the default 2^22-bit sizing the FP rate is negligible at this
    # scale: the bloom gate must agree exactly
    bloom = set(contamination_check_bloom(SF)["doc_id"])
    assert bloom == exact
    # under a deliberately starved 2^10-bit filter every probe
    # collides: false positives flood in, but the no-false-negative
    # superset invariant must still hold
    tiny = set(contamination_check_bloom(SF, m_bits=1 << 10)["doc_id"])
    assert exact <= tiny
    assert len(tiny) > len(exact)  # the starved filter really does FP


def test_hll_accuracy_vs_exact(entrymod, duck, ray_session):
    from doonop_ray.ops.sketches import hll_distinct_users_per_type

    approx = hll_distinct_users_per_type(SF).set_index("event_type")
    exact = duck.sql(
        "SELECT event_type, COUNT(DISTINCT user_id) AS n FROM events GROUP BY 1"
    ).df().set_index("event_type")
    for et in exact.index:
        e, a = int(exact.loc[et, "n"]), int(approx.loc[et, "approx_users"])
        assert abs(a - e) / max(e, 1) < 0.08, (et, e, a)  # ~5 sigma at p=12


def test_streaming_sessions_match_batch(entrymod, ray_session):
    from doonop_ray.ops.streaming import streaming_user_sessions
    from doonop_ray.ops.windows import user_sessions

    batch = user_sessions(SF).sort_values("user_id").reset_index(drop=True)
    stream = streaming_user_sessions(SF)[
        ["user_id", "n_sessions", "n_events"]
    ].sort_values("user_id").reset_index(drop=True)
    assert stream.equals(batch[["user_id", "n_sessions", "n_events"]])
    # shard-count invariance: key-hash partitioning must not change results
    stream2 = streaming_user_sessions(SF, num_shards=2, batch_rows=512)
    assert stream2.sort_values("user_id").reset_index(drop=True).equals(stream)


def test_grouped_aggregate_boundary_exactness(ray_session):
    # multi-block sorted input with groups straddling block boundaries
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.common import grouped_aggregate

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 200, 10_000)  # heavy duplication → straddling
    vals = rng.integers(0, 1000, 10_000)
    ds = rd.from_arrow(pa.table({"k": keys, "v": vals})).repartition(7)
    out = grouped_aggregate(
        ds, "k", [("v", "sum"), ("v", "min"), ("v", "max"), ("v", "count")]
    ).to_pandas().sort_values("k").reset_index(drop=True)
    import pandas as pd

    exp = (pd.DataFrame({"k": keys, "v": vals}).groupby("k")
           .agg(v_sum=("v", "sum"), v_min=("v", "min"),
                v_max=("v", "max"), v_count=("v", "count"))
           .reset_index())
    assert (out["k"] == exp["k"]).all()
    for c in ["v_sum", "v_min", "v_max", "v_count"]:
        assert (out[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_batch_shingles_equals_per_doc_reference():
    # the vectorized polynomial shingler must equal the independent
    # per-doc loop on every edge shape: empty, short (<k), exact-k,
    # long, repeated tokens, punctuation-only
    from doonop_ray.ops.dedup import _batch_shingles, _token_shingles

    texts = ["", "one", "one two", "one two three",
             "the quick brown fox jumps over the lazy dog",
             "a a a a a", "?!.,", "Mixed CASE tokens, with punct!"]
    for k in (2, 3, 5):
        counts, flat = _batch_shingles(texts, k)
        pos = 0
        for text, c in zip(texts, counts):
            got = set(flat[pos:pos + c].tolist())
            pos += c
            assert got == _token_shingles(text, k), (text, k)
        assert pos == len(flat)


def test_batched_minhash_equals_per_doc_reference():
    # the reduceat-batched signature path must equal the per-doc
    # reference implementation exactly
    import numpy as np

    from doonop_ray.ops.dedup import (_fold61, _minhash, _minhash_params,
                                      _mulmod61, _token_shingles)

    a_p, b_p = _minhash_params(64)
    texts = ["the quick brown fox jumps over the lazy dog",
             "pack my box with five dozen liquor jugs", "one two", ""]
    shingle_sets = [_token_shingles(t, 3) for t in texts]
    counts = [len(s) for s in shingle_sets]
    all_h = [h for s in shingle_sets for h in s]
    if all_h:
        M61 = np.uint64((1 << 61) - 1)
        x = _fold61(np.asarray(all_h, dtype=np.uint64))
        vals = _fold61(_mulmod61(a_p[:, None], x[None, :]) + b_p[:, None])
        vals = np.concatenate([vals, np.full((64, 1), M61, np.uint64)], axis=1)
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        mins = np.minimum.reduceat(vals, offsets, axis=1)
        mins[:, np.asarray(counts) == 0] = M61
    for i, s in enumerate(shingle_sets):
        ref = _minhash(s, a_p, b_p)
        assert (mins[:, i] == ref).all(), i


def test_embedding_neardup_lsh_recall_and_precision(entrymod, ray_session):
    from doonop_ray.ops.dedup import (embedding_neardup_lsh,
                                      embedding_neardup_pairs)

    exact = embedding_neardup_pairs(SF, threshold=0.35)
    approx = embedding_neardup_lsh(SF, threshold=0.35)
    e = set(zip(exact["a"], exact["b"]))
    a = set(zip(approx["a"], approx["b"]))
    # precision is exact by construction (cosine-verified in-bucket)
    assert a <= e
    # banding recall: 8 bands x 6 bits on near-duplicate vectors
    assert len(a) / max(1, len(e)) >= 0.5, (len(a), len(e))


def test_brute_force_twins_route_by_size(ray_session):
    """VERDICT round-2 #8: the O(N^2) baselines must refuse / reroute on
    large inputs instead of building a corpus-sized broadcast."""
    import warnings

    import pytest as _pytest

    from doonop_ray.ops.dedup import (embedding_neardup_lsh,
                                      embedding_neardup_pairs,
                                      ngram_jaccard_pairs)

    with _pytest.raises(ValueError, match="minhash_lsh_pairs"):
        ngram_jaccard_pairs(SF, max_doc_id=1_000_000)

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        routed = embedding_neardup_pairs(SF, max_rows=1)
    assert any("embedding_neardup_lsh" in str(r.message) for r in rec)
    direct = embedding_neardup_lsh(SF)
    assert routed.equals(direct)


def test_pii_redact_semantics(tmp_path, ray_session):
    """Email/phone/IPv4 patterns pinned on crafted inputs (the testdata
    corpus only carries src\\d+ ids, so the driver oracle exercises the
    plumbing while this pins the per-pattern semantics)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.text import pii_redact

    rows = [
        ("mail me at jo.doe+x@exa-mple.co.uk today", 1),
        ("call +1 555 123 4567 or 555-123-4567 now", 2),
        ("server at 10.0.255.3 and 192.168.1.1", 2),
        ("src42 plain", 1),
        ("nothing here", 0),
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(rows)), pa.int64()),
        "source": pa.array(["s"] * len(rows), pa.string()),
        "text": pa.array([r[0] for r in rows], pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    out = pii_redact(str(tmp_path)).set_index("doc_id")
    assert list(out["n_redacted"]) == [r[1] for r in rows]
    assert out.loc[0, "clean_text"] == "s: mail me at [PII] today"
    assert out.loc[2, "clean_text"] == "s: server at [PII] and [PII]"
    # no digits or @ survive in any redacted text
    for ct, (_, n) in zip(out["clean_text"], rows):
        if n:
            assert "@" not in ct and not any(c.isdigit() for c in ct)


def test_bm25_matches_brute_force(tmp_path, ray_session):
    """BM25 scores equal an independent per-document brute-force
    computation (Robertson idf, k1=1.2, b=0.75)."""
    import math

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.text import BM25_B, BM25_K1, BM25_QUERY, \
        keyword_search_bm25

    texts = [
        "merge sort and merge join window",
        "scan the table scan scan",
        "window window merge",
        "nothing relevant at all",
        "scan merge window scan merge",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    got = keyword_search_bm25(str(tmp_path), k=10)

    toks = [x.lower().split() for x in texts]
    n = len(texts)
    avgdl = sum(len(x) for x in toks) / n
    df = {q: sum(q in x for x in toks) for q in BM25_QUERY}
    exp = {}
    for i, x in enumerate(toks):
        s = 0.0
        for q in BM25_QUERY:
            tf = x.count(q)
            if tf:
                idf = math.log(1 + (n - df[q] + 0.5) / (df[q] + 0.5))
                s += idf * tf * (BM25_K1 + 1) / (
                    tf + BM25_K1 * (1 - BM25_B + BM25_B * len(x) / avgdl))
        if s > 0:
            exp[i] = round(s, 4)
    assert dict(zip(got["doc_id"], got["score"])) == pytest.approx(exp)
    # descending score, doc_id tiebreak
    key = list(zip(-got["score"], got["doc_id"]))
    assert key == sorted(key)


def test_indexed_search_equals_scan_path(tmp_path, ray_session):
    """keyword_search_indexed (persisted inverted index) returns the
    exact frame of keyword_search_bm25 (two-pass scan), including on a
    corpus with zero-token and no-hit documents; the second call reuses
    the published index (cache hit, same result)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.text import (keyword_search_bm25,
                                     keyword_search_indexed)

    texts = [
        "merge sort and merge join window",
        "scan the table scan scan",
        "window window merge",
        "nothing relevant at all",
        "",                       # zero-token doc: counts toward avgdl
        "scan merge window scan merge",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    scan = keyword_search_bm25(str(tmp_path), k=10)
    idx1 = keyword_search_indexed(str(tmp_path), k=10)
    idx2 = keyword_search_indexed(str(tmp_path), k=10)  # cached index
    pd.testing.assert_frame_equal(scan, idx1)
    pd.testing.assert_frame_equal(idx1, idx2)
    assert len(idx1) == 4  # every doc with a query term scores


def test_cube_and_props_null_semantics(tmp_path, ray_session, entrymod):
    """Adversarial NULL / messy-JSON world (code-review finding):
    events_cube must COUNT(*) rows with NULL values and keep all-NULL
    cell/margin sums NULL; events_props_stats must agree with its
    RE2-identical oracle on nested and string-typed k payloads."""
    import duckdb
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.windows import events_cube, events_props_stats
    from selfcheck import compare, to_pandas

    ts = pd.to_datetime(["2024-01-01 00:10", "2024-01-01 01:10",
                         "2024-01-01 00:20"])
    t = pa.table({
        "event_id": pa.array([1, 2, 3], pa.int64()),
        "ts": pa.array(ts, pa.timestamp("us")),
        "user_id": pa.array([1, 2, 3], pa.int64()),
        "event_type": pa.array(["a", "a", "b"], pa.string()),
        "value": pa.array([None, 2.0, None], pa.float64()),
        "props": pa.array(['{"a": {"k": 5}}', '{"k": "12"}', '{"k": 7}'],
                          pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    con = duckdb.connect()
    con.sql(f"CREATE VIEW events AS SELECT * FROM "
            f"'{tmp_path}/events.parquet'")
    for name, fn in (("events_cube", events_cube),
                     ("events_props_stats", events_props_stats)):
        got = to_pandas(fn(str(tmp_path)))
        exp = con.sql(entrymod.oracle_sql()[name]).df()
        assert compare(got, exp) is None, name


def test_events_gap_fill_generates_missing_hours(tmp_path, ray_session):
    """Hours with no events appear as zero-count rows between each
    type's first and last hour; no rows outside that span."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.windows import events_gap_fill

    ts = pd.to_datetime([
        "2024-01-01 00:10", "2024-01-01 00:40",  # a: hour 0 (2 events)
        "2024-01-01 03:05",                      # a: hour 3 → gaps 1, 2
        "2024-01-01 01:30",                      # b: single hour
    ])
    t = pa.table({
        "ts": pa.array(ts, pa.timestamp("us")),
        "event_type": pa.array(["a", "a", "a", "b"], pa.string()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    out = events_gap_fill(str(tmp_path))
    a = out[out["event_type"] == "a"]
    assert list(a["n"]) == [2, 0, 0, 1]
    assert list(a["hour"].dt.hour) == [0, 1, 2, 3]
    b = out[out["event_type"] == "b"]
    assert len(b) == 1 and list(b["n"]) == [1]


def test_levenshtein_capped_matches_reference():
    """The capped DP equals a classic full Levenshtein when within the
    cap; beyond it the only contract is got > cap (callers threshold on
    d > cap — the early exit may return cap+1 OR the true distance)."""
    from itertools import product

    from doonop_ray.ops.dedup import _levenshtein_capped

    def full_lev(a, b):
        prev = list(range(len(b) + 1))
        for i, ca in enumerate(a, 1):
            cur = [i]
            for j, cb in enumerate(b, 1):
                cur.append(min(prev[j] + 1, cur[-1] + 1,
                               prev[j - 1] + (ca != cb)))
            prev = cur
        return prev[-1]

    words = ["", "a", "ab", "kitten", "sitting", "small ring",
             "small rings", "smol ring", "red widget", "blue bolt"]
    # exhaustive short strings too — catches beyond-cap contract abuse
    # (e.g. ('ab','bza',cap=1) where the DP exits with the true 3)
    short = ["".join(p) for n in range(4)
             for p in product("abz", repeat=n)]
    for cap in (0, 1, 2, 3):
        for a in words + short:
            for b in words + short:
                truth = full_lev(a, b)
                got = _levenshtein_capped(a, b, cap)
                if truth <= cap:
                    assert got == truth, (a, b, cap, got, truth)
                else:
                    assert got > cap, (a, b, cap, got, truth)


def test_kmeans_embeddings_matches_numpy_reference(ray_session):
    """Distributed spherical k-means equals a single-process numpy run
    with the same deterministic init (k smallest-vec_id vectors)."""
    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    from doonop_ray.ops.ann import kmeans_embeddings
    from doonop_ray.ops.common import r4

    k, iters = 8, 4
    got = kmeans_embeddings(SF, k=k, kmeans_iters=iters)

    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(t["vec_id"].to_pylist())
    v = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    nn = np.linalg.norm(v, axis=1)
    nn[nn == 0] = 1.0
    vn = v / nn[:, None]
    cents = vn[np.argsort(ids)[:k]].copy()
    for _ in range(iters):
        cell = np.argmax(vn @ cents.T, axis=1)
        for c in range(k):
            m = cell == c
            if m.any():
                mu = vn[m].mean(axis=0)
                n = np.linalg.norm(mu)
                cents[c] = mu / (n if n else 1.0)
    sims = vn @ cents.T
    cell = np.argmax(sims, axis=1)
    best = sims[np.arange(len(vn)), cell]
    cnt = np.bincount(cell, minlength=k)
    exp = pd.DataFrame({
        "cluster": np.arange(k, dtype=np.int32),
        "n_vectors": cnt.astype("int64"),
        "mean_sim": r4(np.bincount(cell, weights=best, minlength=k)
                       / np.maximum(cnt, 1)),
    })
    exp = exp[exp["n_vectors"] > 0].reset_index(drop=True)
    assert exp.equals(got)


def test_pack_sequences_content_matches_reference(tmp_path, ray_session):
    """The MATERIALIZED packed sequences (token ids, order, chunking)
    equal a brute-force single-threaded packer — not just the counts
    the SQL oracle checks."""
    import re
    import zlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.text import pack_sequences

    rng = np.random.default_rng(7)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    rows = []
    for doc_id in range(40):
        lang = ["en", "de"][doc_id % 2]
        n = int(rng.integers(0, 30))
        text = " ".join(rng.choice(words, n)) if n else ""
        rows.append((doc_id, lang, text))
    t = pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "lang": pa.array([r[1] for r in rows], pa.string()),
        "text": pa.array([r[2] for r in rows], pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")

    out_root = str(tmp_path / "packed")
    stats = pack_sequences(str(tmp_path), seq_len=16, bucket_size=8,
                           out_root=out_root)

    # brute-force reference packer
    exp: dict[tuple, list] = {}
    for doc_id, lang, text in rows:
        toks = [w for w in re.split(r"\W+", text.lower()) if w]
        ids = [zlib.crc32(w.encode()) & 0x7FFFFFFF for w in toks]
        exp.setdefault((lang, doc_id // 8), []).extend(ids)
    exp_seqs = {}
    for key, stream in exp.items():
        for i in range(0, len(stream), 16):
            exp_seqs[key + (i // 16,)] = stream[i:i + 16]

    got = pq.read_table(out_root).to_pandas()
    got_seqs = {(r["lang"], r["bucket"], r["seq_idx"]): list(r["tokens"])
                for _, r in got.iterrows()}
    assert got_seqs == exp_seqs
    # stats frame consistent with the materialized output
    assert int(stats["total_tokens"].sum()) == sum(
        len(v) for v in exp_seqs.values())


def test_lm_perplexity_matches_brute_force(tmp_path, ray_session):
    """Hashed-bigram perplexity equals an independent single-threaded
    reference (same hashing, same add-alpha smoothing)."""
    import re
    import zlib

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    from doonop_ray.ops.text import (LM_ALPHA, LM_BUCKETS_BI,
                                     LM_BUCKETS_UNI, lm_perplexity_scores)

    texts = [
        "the cat sat on the mat",
        "the cat sat on the mat",
        "cat cat cat cat",
        "xylo qwerty zorp",
        "the dog sat on the rug",
        "one",
        "",
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    got = lm_perplexity_scores(str(tmp_path)).set_index("doc_id")

    def h(arr, mod):
        a = np.asarray(arr, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        a ^= a >> np.uint64(29)
        return (a % np.uint64(mod)).astype(np.int64)

    docs = [[zlib.crc32(w.encode()) for w in re.split(r"\W+", x.lower()) if w]
            for x in texts]
    uni = np.zeros(LM_BUCKETS_UNI, dtype=np.int64)
    big = np.zeros(LM_BUCKETS_BI, dtype=np.int64)
    for d in docs:
        for w in d:
            uni[h([w], LM_BUCKETS_UNI)[0]] += 1
        for a, b in zip(d, d[1:]):
            big[h([a * 1000003 + b], LM_BUCKETS_BI)[0]] += 1
    for i, d in enumerate(docs):
        if len(d) < 2:
            assert np.isnan(got.loc[i, "perplexity"])
            continue
        lp = [np.log((big[h([a * 1000003 + b], LM_BUCKETS_BI)[0]] + LM_ALPHA)
                     / (uni[h([a], LM_BUCKETS_UNI)[0]]
                        + LM_ALPHA * LM_BUCKETS_UNI))
              for a, b in zip(d, d[1:])]
        exp = float(np.exp(-np.mean(lp)))
        assert got.loc[i, "perplexity"] == pytest.approx(exp, abs=1e-3), i
    # repeated fluent text scores lower than gibberish
    assert got.loc[0, "perplexity"] < got.loc[3, "perplexity"]


def test_quantile_sketch_tracks_exact_quantiles(entrymod, ray_session):
    """The one-pass mergeable sketch must land within 1% rank error of
    the multi-pass exact selection on the shared quantiles, and its own
    numpy reference (sort + weighted rank lookup) must agree exactly at
    this scale (single combine level, no information loss)."""
    import numpy as np

    from doonop_ray.ops.common import read_arrow
    from doonop_ray.ops.sketches import exact_quantiles, quantile_sketch

    sk = quantile_sketch(SF)
    ex = exact_quantiles(SF)
    merged = sk.merge(ex, left_on="q", right_on="q")
    assert len(merged) == len(ex)  # shared quantiles must actually join
    vals = np.sort(read_arrow(SF, "events", ["value"])["value"]
                   .to_numpy(zero_copy_only=False).astype(np.float64))
    n = len(vals)
    for _, row in merged.iterrows():
        lt = np.searchsorted(vals, row["est"], side="left")
        le = np.searchsorted(vals, row["est"], side="right")
        assert lt <= (row["q"] + 0.01) * n
        assert le >= (row["q"] - 0.01) * n


def test_cms_never_underestimates_and_merge_invariant(entrymod, duck,
                                                      ray_session):
    """Count-min point estimates must be >= the exact DuckDB corpus
    frequency for every probe token (counters only over-count), and the
    sketch must be identical under different merge trees (fanin 2 vs 8
    — elementwise-add mergeability is what makes it distributable)."""
    import numpy as np

    from doonop_ray.ops.sketches import (CMS_PROBES, cms_build,
                                         cms_estimate, cms_token_frequency)

    probes = sorted(CMS_PROBES)
    in_list = ", ".join(f"'{t}'" for t in probes)
    exact = dict(duck.sql(f"""
        SELECT t AS token, COUNT(*) AS n
        FROM (SELECT unnest({entrymod._TOKENS}) AS t FROM documents)
        WHERE t IN ({in_list}) GROUP BY t""").fetchall())

    got = cms_token_frequency(SF).set_index("token")["est"]
    for tok in probes:
        assert got[tok] >= exact.get(tok, 0), tok
    # the absent token can only be inflated by collisions, never huge
    assert got["notaword9"] <= got[max(exact, key=exact.get)]

    sk2 = cms_build(SF, fanin=2)
    sk8 = cms_build(SF, fanin=8)
    np.testing.assert_array_equal(sk2, sk8)
    np.testing.assert_array_equal(
        cms_estimate(sk2, probes), got.loc[probes].to_numpy())


def test_batch_grams_strict_short_doc_semantics():
    """_batch_grams must emit ZERO grams for docs shorter than k (the
    SQL range(1, len-k+2) contract — no _batch_shingles-style fallback)
    and agree with a naive per-doc sliding window elsewhere. The
    sf0.001 corpus has no sub-k docs, so the oracle-equality test never
    exercises this edge."""
    import numpy as np

    from doonop_ray.ops.dedup import (_batch_grams, _fold61, _mulmod61,
                                      _NORM, _SH_C, _SH_R, hash_bytes)

    k = 5
    texts = ["one two three four",          # 4 tokens < k -> 0 grams
             "",                             # empty -> 0 grams
             "a b c d e f g",               # 7 tokens -> 3 grams
             "x " * k]                       # exactly k -> 1 gram
    wc, hs = _batch_grams(texts, k)
    assert wc.tolist() == [0, 0, 3, 1]
    assert len(hs) == 4

    def naive(text):
        toks = text.lower().translate(_NORM).split()
        out = []
        for i in range(max(0, len(toks) - k + 1)):
            x = _fold61(np.asarray([hash_bytes(w) for w in
                                    toks[i:i + k]], dtype=np.uint64))
            acc = _SH_C + _mulmod61(_SH_R[0:1], x[0:1])
            for j in range(1, k):
                acc = _fold61(acc) + _mulmod61(_SH_R[j:j + 1], x[j:j + 1])
            out.append(int(_fold61(acc)[0]))
        return out

    expect = [g for t in texts for g in naive(t)]
    assert hs.tolist() == expect


def test_bpe_merges_match_naive_reference(entrymod, ray_session):
    """bpe_merges (distributed word count + vocab merge loop) must
    equal an independent naive BPE trained directly on the raw corpus:
    same tokenization, all-adjacent-positions pair counts, greedy
    left-to-right apply, (max count, lexicographically smallest pair)
    tie-break."""
    import re
    from collections import Counter

    import pandas as pd
    import pyarrow.parquet as pq

    got = entrymod.queries()["bpe_merges"](SF)

    texts = pq.read_table(f"{SF}/documents.parquet",
                          columns=["text"])["text"].to_pylist()
    words = Counter()
    for text in texts:
        for w in re.findall(r"\w+", text.lower(), flags=re.ASCII):
            words[tuple(w)] += 1
    rules = []
    for rank in range(12):
        counts = Counter()
        for syms, cnt in words.items():
            for a, b in zip(syms, syms[1:]):
                counts[(a, b)] += cnt
        if not counts:
            break
        (left, right), best = min(counts.items(),
                                  key=lambda kv: (-kv[1], kv[0]))
        rules.append((rank, left, right, best))
        nxt = Counter()
        for syms, cnt in words.items():
            out, i = [], 0
            while i < len(syms):
                if (i + 1 < len(syms) and syms[i] == left
                        and syms[i + 1] == right):
                    out.append(left + right)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            nxt[tuple(out)] += cnt
        words = nxt
    expect = pd.DataFrame(rules,
                          columns=["rank", "left", "right", "count"])
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True),
        expect.astype({"rank": "int64", "count": "int64"}))


def test_bpe_encode_matches_per_doc_naive_apply(entrymod, ray_session):
    """bpe_encode counts tokens via the word->length dictionary built
    during training; an independent per-document greedy apply of the
    published merge rules (no dictionary shortcut) must produce the
    identical (n_words, n_tokens) for every document."""
    import re

    import pandas as pd
    import pyarrow.parquet as pq

    from doonop_ray.ops.text import _bpe_merge_word

    got = entrymod.queries()["bpe_encode"](SF)
    rules = entrymod.queries()["bpe_merges"](SF)
    merges = list(zip(rules["left"], rules["right"]))

    tbl = pq.read_table(f"{SF}/documents.parquet",
                        columns=["doc_id", "text"])
    rows = []
    for doc_id, text in zip(tbl["doc_id"].to_pylist(),
                            tbl["text"].to_pylist()):
        words = re.findall(r"\w+", text.lower(), flags=re.ASCII)
        total = 0
        for w in words:
            syms = tuple(w)
            for left, right in merges:
                syms = _bpe_merge_word(syms, left, right)
            total += len(syms)
        rows.append((doc_id, len(words), total))
    expect = pd.DataFrame(rows, columns=["doc_id", "n_words", "n_tokens"]) \
        .sort_values("doc_id").reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(got.reset_index(drop=True), expect)


def test_semantic_dedup_matches_brute_force(entrymod, ray_session):
    """semantic_dedup (grouped_apply per cluster) must keep exactly the
    vectors with no smaller-id same-label neighbor at cosine >= 0.30,
    recomputed here with a full driver-side N x N float64 matrix."""
    import numpy as np
    import pyarrow.parquet as pq

    got = entrymod.queries()["semantic_dedup"](SF)

    tbl = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.asarray(tbl["vec_id"].to_pylist(), dtype=np.int64)
    labels = np.asarray(tbl["label"].to_pylist(), dtype=np.int64)
    mat = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
    order = np.argsort(ids, kind="stable")
    ids, labels, mat = ids[order], labels[order], mat[order]
    n = np.linalg.norm(mat, axis=1)
    n[n == 0] = 1.0
    vn = mat / n[:, None]
    sims = vn @ vn.T
    same_label = labels[:, None] == labels[None, :]
    earlier = ids[:, None] < ids[None, :]
    removed = ((sims >= 0.30) & same_label & earlier).any(axis=0)
    keep_ids = set(ids[~removed].tolist())
    assert set(got["vec_id"]) == keep_ids
    assert list(got["vec_id"]) == sorted(keep_ids)


def test_pagerank_empty_edges_returns_typed_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.graph import pagerank

    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.int64()),
                                    "dst": pa.array([], pa.int64())}))
    # must not raise (ZeroDivisionError guard); an empty Ray dataset
    # loses its schema in to_pandas, which callers normalize via their
    # typed-empty fallbacks (pagerank_customer_supplier does)
    out = pagerank(empty).to_pandas()
    assert len(out) == 0


def test_ann_pq_recall_vs_exact(entrymod, ray_session):
    from doonop_ray.ops.ann import ann_topk_cosine, ann_topk_pq

    exact = ann_topk_cosine(SF, k=10, n_queries=5)
    approx = ann_topk_pq(SF, k=10, n_queries=5)
    e = {(q, n) for q, n in zip(exact["query_id"], exact["neighbor_id"])}
    a = {(q, n) for q, n in zip(approx["query_id"], approx["neighbor_id"])}
    recall = len(e & a) / len(e)
    assert recall >= 0.3, recall  # 16x32 codebooks on random 64-d vectors


def test_pagerank_paths_agree(entrymod, ray_session):
    """All three paths — broadcast fast path, edge-pinned bucketed
    scale path (auto above the threshold), and the no-precomputation
    cogroup twin — must compute the same fixed point (to rounding)."""
    from doonop_ray.ops.graph import pagerank_customer_supplier

    fast = pagerank_customer_supplier(SF)
    bucketed = pagerank_customer_supplier(SF, fast_threshold=0)
    cogroup = pagerank_customer_supplier(SF, fast_threshold=0,
                                         method="cogroup")
    assert fast.equals(bucketed)
    assert fast.equals(cogroup)


def test_bucket_routed_empty_result_returns_typed_empty(ray_session):
    """An all-empty derived exchange (no order exceeds min_qty) must
    yield a typed empty frame, not FileNotFoundError: write_parquet of
    an empty dataset creates no directory, so bucket_dataset publishes
    an explicit empty bucket (code-review round-3 finding)."""
    from doonop_ray.ops.relational import q18_large_volume

    df = q18_large_volume(SF, min_qty=1e12)
    assert len(df) == 0
    assert list(df.columns) == ["c_name", "c_custkey", "o_orderkey",
                                "o_orderdate", "o_totalprice", "sum_qty"]


def test_minhash_empty_documents_returns_typed_empty(ray_session, tmp_path):
    """An empty documents table must yield an empty (a, b) frame — the
    persisted band-row index publishes an explicit empty bucket instead
    of crashing in os.replace (code-review round-3 finding)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.dedup import minhash_lsh_pairs

    pq.write_table(pa.table({"doc_id": pa.array([], pa.int64()),
                             "text": pa.array([], pa.string()),
                             "lang": pa.array([], pa.string()),
                             "source": pa.array([], pa.string()),
                             "n_chars": pa.array([], pa.int64())}),
                   f"{tmp_path}/documents.parquet")
    df = minhash_lsh_pairs(str(tmp_path))
    assert len(df) == 0
    assert list(df.columns) == ["a", "b"]


def test_heavy_hitters_large_vocabulary_exact(ray_session, tmp_path):
    """top_tokens_heavy_hitters on a vocabulary LARGER than its counter
    budget (3,000 distinct tokens vs counters=2000) — the testdata
    corpus has ~31 distinct tokens, so the vectorized Misra–Gries
    compression branch (subtract the (counters+1)-th largest count,
    keep positives) never fires there. The final top-k must still be
    EXACT because pass 2 recounts the merged candidates."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.text import top_tokens_heavy_hitters

    rng = np.random.default_rng(17)
    vocab = np.array([f"w{i:04d}" for i in range(3000)])
    # Zipf-ish: token i appears max(1, (3000 - i) // 100) times, so the
    # head is clearly separated and the tail is all singletons
    counts = np.maximum(1, (3000 - np.arange(3000)) // 100)
    stream = np.repeat(vocab, counts)
    rng.shuffle(stream)
    docs = [" ".join(chunk) for chunk in np.array_split(stream, 40)]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                  "text": pa.array(docs, pa.string())}),
        f"{tmp_path}/documents.parquet")

    got = top_tokens_heavy_hitters(str(tmp_path), k=20)
    exact = (pd.DataFrame({"token": vocab, "n": counts})
             .sort_values(["n", "token"], ascending=[False, True],
                          kind="mergesort").head(20).reset_index(drop=True))
    assert list(got["token"]) == list(exact["token"])
    assert list(got["n"].astype(int)) == list(exact["n"].astype(int))


def test_connected_components_bucketed_matches_cogroup(ray_session):
    """The edge-pinned bucketed CC path (pagerank's layout applied to
    min-label propagation) must reach the same fixed point as the
    union-cogroup path, including isolated nodes."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from doonop_ray.ops.graph import connected_components

    rng = np.random.default_rng(3)
    # duplicate node rows (each id twice) — both paths must emit one
    # output row per distinct node
    node_ids = np.concatenate([np.arange(500), np.arange(0, 500, 2)])
    nodes = pa.table({"node": pa.array(node_ids, pa.int64())})
    a, b = [], []
    for base in (0, 170, 340):
        ids = np.arange(base, base + 150)
        for _ in range(200):
            x, y = rng.choice(ids, 2, replace=False)
            a.append(int(x))
            b.append(int(y))
    # edge endpoints absent from nodes_ds (>=500) — implicit nodes
    a += [600, 601]
    b += [601, 17]
    edges = pa.table({"a": pa.array(a, pa.int64()),
                      "b": pa.array(b, pa.int64())})
    cog = connected_components(
        rd.from_arrow(nodes), rd.from_arrow(edges), method="cogroup"
    ).to_pandas().sort_values("node").reset_index(drop=True)
    buc = connected_components(
        rd.from_arrow(nodes), rd.from_arrow(edges), method="bucketed"
    ).to_pandas().sort_values("node").reset_index(drop=True)
    assert cog.equals(buc)
    # one row per distinct node incl. the two implicit edge endpoints
    assert len(cog) == 502
    assert cog["node"].is_unique
    # implicit endpoints joined node 17's component
    comp17 = cog.loc[cog["node"] == 17, "component"].iloc[0]
    assert (cog.loc[cog["node"].isin([600, 601]),
                    "component"] == comp17).all()


def test_events_ntile_small_groups_match_duckdb(tmp_path, ray_session):
    """NTILE bucket-size arithmetic on groups SMALLER than the tile
    count and on every n % tiles residue (the sf0.001 corpus only
    exercises large groups): craft users with 1..9 events and compare
    against DuckDB's NTILE on the same file."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.windows import events_ntile

    rows = []
    eid = 0
    for user, n in enumerate([1, 2, 3, 4, 5, 6, 7, 8, 9]):
        for i in range(n):
            rows.append((eid, user, float((i * 7) % n)))
            eid += 1
    t = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "value": pa.array([r[2] for r in rows], pa.float64()),
    })
    pq.write_table(t, tmp_path / "events.parquet")
    got = events_ntile(str(tmp_path))
    con = duckdb.connect()
    expect = con.sql(f"""
        SELECT event_id, user_id,
               CAST(NTILE(4) OVER (PARTITION BY user_id
                                   ORDER BY value, event_id)
                    AS BIGINT) AS tile
        FROM '{tmp_path}/events.parquet' ORDER BY event_id""").df()
    import pandas as pd
    pd.testing.assert_frame_equal(got.reset_index(drop=True),
                                  expect.astype("int64"))


def test_sorted_range_shards_ties_and_odd_counts(tmp_path, ray_session):
    """Exact NTILE partitioning on a tie-heavy table (many duplicate
    prices, so splitters must resolve by orderkey) and a shard count
    that doesn't divide n — compared against a driver-side reference."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.sketches import sorted_range_shards

    rng = np.random.default_rng(5)
    n, shards = 1003, 7
    prices = np.round(rng.uniform(10, 20, n), 1)  # heavy ties
    keys = rng.permutation(n).astype(np.int64)
    pq.write_table(pa.table({
        "o_orderkey": pa.array(keys, pa.int64()),
        "o_totalprice": pa.array(prices, pa.float64()),
    }), tmp_path / "orders.parquet")

    got = sorted_range_shards(str(tmp_path), shards=shards)

    order = np.lexsort((keys, prices))
    sp, _ = prices[order], keys[order]
    q, r = divmod(n, shards)
    rows = []
    start = 0
    for s in range(1, shards + 1):
        size = q + (1 if s <= r else 0)
        seg = sp[start:start + size]
        rows.append((s, size, float(seg.min()), float(seg.max())))
        start += size
    expect = pd.DataFrame(
        rows, columns=["shard", "n_rows", "min_price", "max_price"]
    ).astype({"shard": "int64", "n_rows": "int64"})
    pd.testing.assert_frame_equal(got.reset_index(drop=True), expect)


def test_orders_skyline_strict_dominance_with_ties(tmp_path, ray_session):
    """Skyline on crafted data exercising every tie case — equal
    (date, price) pairs all survive, same-date lower price is
    dominated, earlier-date equal price dominates — pinned against an
    O(n^2) brute-force strict-dominance scan."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.relational import orders_skyline

    rng = np.random.default_rng(11)
    # > default map_batches batch size, so the candidate-union MERGE
    # TIER is exercised (each ~1024-row batch computes its own local
    # skyline), not just the single-kernel path
    n = 4096
    days = rng.integers(0, 40, n)          # heavy date ties
    price = np.round(rng.uniform(10, 99, n), 0)  # heavy price ties
    # force exact (date, price) duplicates — including one pair split
    # across distant batches
    days[1], price[1] = days[0], price[0]
    days[3], price[3] = days[2], price[2]
    days[4000], price[4000] = days[5], price[5]
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(days, unit="D")
    pq.write_table(pa.table({
        "o_orderkey": pa.array(np.arange(n, dtype=np.int64)),
        "o_orderdate": pa.array(ts.to_numpy()),
        "o_totalprice": pa.array(price, pa.float64()),
    }), tmp_path / "orders.parquet")

    got = orders_skyline(str(tmp_path))

    keep = []
    for i in range(n):
        dominated = False
        for j in range(n):
            if j == i:
                continue
            if days[j] <= days[i] and price[j] >= price[i] and (
                    days[j] < days[i] or price[j] > price[i]):
                dominated = True
                break
        if not dominated:
            keep.append(i)
    assert list(got["o_orderkey"]) == keep
    # the forced duplicates agree: either both in or both out
    assert (0 in keep) == (1 in keep)


def test_crawl_reachability_check_flags_tampered_artifacts(
        ray_session, monkeypatch):
    """The crawl integrity check must actually detect corruption: a
    phantom ok-visit for a URL outside the world flags BOTH set
    membership (visited_unreachable) and outcome (ok_from_failing)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import crawl_reachability_violations

    real = fl.flagship_crawl

    def tampered(sf_dir, out_dir=None, **kw):
        df = real(sf_dir, out_dir=out_dir, **kw)
        extra = pa.table({
            "url": pa.array(["http://phantom.example/x"]),
            "depth": pa.array([0], pa.int32()),
            "status": pa.array(["ok"]),
            "image_id": pa.array([None], pa.string()),
            "caption_ok": pa.array([None], pa.bool_()),
            "pixel_ok": pa.array([None], pa.bool_()),
            "psnr_db": pa.array([None], pa.float64()),
        })
        pq.write_table(extra, os.path.join(out_dir, "tamper.parquet"))
        return df

    monkeypatch.setattr(fl, "flagship_crawl", tampered)
    bad = crawl_reachability_violations(SF)
    kinds = set(zip(bad["url"], bad["kind"]))
    assert ("http://phantom.example/x", "visited_unreachable") in kinds
    assert ("http://phantom.example/x", "ok_from_failing") in kinds
    # nothing else broke — the real crawl's rows are all clean
    assert set(bad["url"]) == {"http://phantom.example/x"}


def test_kmeans_check_flags_doctored_stats(ray_session, monkeypatch):
    """Dropping a cluster row must trip conservation AND the per-cluster
    stats recompute."""
    import doonop_ray.ops.ann as ann
    from doonop_ray.ops.checks import kmeans_violations

    real = ann.kmeans_embeddings

    def doctored(sf_dir, k=16, kmeans_iters=5):
        out = real(sf_dir, k, kmeans_iters)
        assert len(out) >= 2, "world too small for the injection"
        return out.iloc[1:].reset_index(drop=True)

    monkeypatch.setattr(ann, "kmeans_embeddings", doctored)
    bad = kmeans_violations(SF)
    assert "conservation" in set(bad["kind"])
    assert "stats_mismatch" in set(bad["kind"])


def test_kmeans_check_clean_on_real_output(ray_session):
    from doonop_ray.ops.checks import kmeans_violations

    assert kmeans_violations(SF).empty


def test_bpe_merges_check_flags_doctored_table(ray_session, monkeypatch):
    """A merge table with a wrong first merge, an increasing count, and
    an underivable symbol trips all three kinds."""
    import pandas as pd

    import doonop_ray.ops.text as text
    from doonop_ray.ops.checks import bpe_merges_violations

    def doctored(sf_dir, n_merges=12):
        return pd.DataFrame({
            "rank": pd.Series([0, 1], dtype="int64"),
            "left": ["zz", "a"],
            "right": ["qq", "b"],
            "count": pd.Series([1, 999], dtype="int64"),
        })

    monkeypatch.setattr(text, "bpe_merges", doctored)
    bad = bpe_merges_violations(SF)
    kinds = set(bad["kind"])
    assert {"rank0_not_max", "count_increased", "symbol_underivable"} <= kinds


def test_bpe_merges_check_clean_on_real_output(ray_session):
    from doonop_ray.ops.checks import bpe_merges_violations

    assert bpe_merges_violations(SF).empty


def test_conformance_order_check_flags_swapped_and_truncated(
        ray_session, monkeypatch):
    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import conformance_order_violations

    real = fl.conformance_order

    def doctored(sf_dir):
        df = real(sf_dir).copy()
        assert len(df) >= 3, "world too small for the injection"
        u = df["url"].tolist()
        u[0], u[1] = u[1], u[0]
        df["url"] = u
        return df.iloc[:-1]

    monkeypatch.setattr(fl, "conformance_order", doctored)
    bad = conformance_order_violations(SF)
    kinds = set(bad["kind"])
    assert {"order_mismatch", "length_mismatch"} <= kinds
    assert {0, 1} <= set(bad[bad["kind"] == "order_mismatch"]["seq"])


def test_crawl_host_counts_check_flags_doctored_rows(
        ray_session, monkeypatch):
    """Dropping one host's row and inventing a phantom host trips
    stats_mismatch (both hosts), conservation, and unknown_host."""
    import pandas as pd

    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import crawl_host_counts_violations

    real = fl.crawl_host_counts

    def doctored(sf_dir):
        df = real(sf_dir)
        assert len(df) >= 2, "world too small for the injection"
        dropped = df.iloc[1:].reset_index(drop=True)
        phantom = pd.DataFrame({"host": ["phantom.example"],
                                "n_visits": [7], "n_ok": [9]})
        return pd.concat([dropped, phantom], ignore_index=True)

    monkeypatch.setattr(fl, "crawl_host_counts", doctored)
    bad = crawl_host_counts_violations(SF)
    kinds = set(bad["kind"])
    assert {"stats_mismatch", "conservation",
            "unknown_host", "ok_bound"} <= kinds


def test_politeness_check_flags_dropped_and_extra(ray_session, monkeypatch):
    import pandas as pd

    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import politeness_violations

    real = fl.crawl_polite

    def doctored(sf_dir):
        df = real(sf_dir)
        assert len(df) >= 2, "world too small for the injection"
        victim = df["url"].iloc[0]
        out = df[df["url"] != victim].reset_index(drop=True)
        extra = pd.DataFrame([{**out.iloc[0].to_dict(),
                               "url": "http://phantom.example/x"}])
        return pd.concat([out, extra], ignore_index=True)

    monkeypatch.setattr(fl, "crawl_polite", doctored)
    bad = politeness_violations(SF)
    kinds = set(zip(bad["url"], bad["kind"]))
    assert ("http://phantom.example/x", "extra_visit") in kinds
    assert "dropped_by_politeness" in set(bad["kind"])


def test_frontier_budget_check_flags_doctored_table(
        ray_session, monkeypatch):
    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import frontier_budget_violations

    real = fl.frontier_host_budgets

    def doctored(sf_dir, per_host_budget=64, salt_k=8):
        df = real(sf_dir, per_host_budget, salt_k)
        assert len(df) >= 2, "world too small for the injection"
        # corrupt one count (breaks counts + sort), one budget
        df.loc[0, "n_candidates"] = -5
        df.loc[1, "budget"] = per_host_budget + 99
        return df

    monkeypatch.setattr(fl, "frontier_host_budgets", doctored)
    bad = frontier_budget_violations(SF)
    kinds = set(bad["kind"])
    assert {"counts_mismatch", "budget_rule", "sort_order"} <= kinds


def test_image_validate_check_flags_flipped_sample(ray_session, monkeypatch):
    """Flipping caption_ok on the smallest image_id (always sampled) and
    dropping the largest trips sample_mismatch and id_set_mismatch."""
    import doonop_ray.pipelines.flagship as fl
    from doonop_ray.ops.checks import image_validate_violations

    real = fl.image_validate

    def doctored(sf_dir):
        df = real(sf_dir)
        assert len(df) >= 2, "world too small for the injection"
        df.loc[df.index[0], "caption_ok"] = \
            not bool(df["caption_ok"].iloc[0])
        return df.iloc[:-1]

    monkeypatch.setattr(fl, "image_validate", doctored)
    bad = image_validate_violations(SF)
    kinds = set(bad["kind"])
    assert {"sample_mismatch", "id_set_mismatch"} <= kinds


def test_bloom_semijoin_equals_plain_semi_and_prefilter_is_superset(
        ray_session):
    """The bloom prefilter must be a SUPERSET of the true match set (no
    false negatives) and the full operator must equal the plain shuffle
    semi join with no bloom in front."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from doonop_ray.ops.common import read, read_arrow
    from doonop_ray.ops.join import shuffle_join
    from doonop_ray.ops.relational import (_int_bloom_positions,
                                           bloom_semijoin_orders)

    got = bloom_semijoin_orders(SF)

    cust = read_arrow(SF, "customer", ["c_custkey", "c_mktsegment"])
    seg = cust.filter(pc.equal(cust["c_mktsegment"], "AUTOMOBILE"))
    keys = read(SF, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: pa.table({"o_custkey": t.filter(
            pc.equal(t["c_mktsegment"], "AUTOMOBILE"))["c_custkey"]}),
        batch_format="pyarrow")
    plain = shuffle_join(
        read(SF, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]),
        keys, "o_custkey", ["o_orderkey", "o_totalprice"], [], how="semi",
        left_types={"o_orderkey": pa.int64(), "o_totalprice": pa.float64()},
        right_types={},
    ).to_pandas().sort_values("o_orderkey").reset_index(drop=True)
    assert sorted(got["o_orderkey"]) == sorted(plain["o_orderkey"])

    # superset property of the raw bitmap on the full orders scan
    m_bits, k = 1 << 20, 4
    pos = _int_bloom_positions(seg["c_custkey"].to_numpy(), m_bits, k)
    bitmap = np.zeros(m_bits >> 3, dtype=np.uint8)
    p = np.unique(pos)
    np.bitwise_or.at(bitmap, (p >> 3).astype(np.int64),
                     np.uint8(1) << (p & 7).astype(np.uint8))
    orders = read_arrow(SF, "orders", ["o_custkey"])
    q = _int_bloom_positions(orders["o_custkey"].to_numpy(), m_bits, k)
    bits = (bitmap[(q >> np.uint64(3)).astype(np.int64)]
            >> (q & np.uint64(7)).astype(np.uint8)) & 1
    passed = set(orders["o_custkey"].to_numpy()[bits.all(axis=0)])
    true_keys = set(seg["c_custkey"].to_pylist()) & \
        set(orders["o_custkey"].to_pylist())
    assert true_keys <= passed  # no false negatives, ever


def test_triangle_count_matches_brute_force(ray_session):
    """Degree-ordered distributed count vs an O(V^3)-free brute force:
    adjacency-set intersection per canonical edge."""
    from collections import defaultdict

    import pyarrow.compute as pc

    from doonop_ray.ops.common import read_arrow
    from doonop_ray.ops.graph import part_copurchase_triangles

    got = int(part_copurchase_triangles(SF)["n_triangles"][0])

    li = read_arrow(SF, "lineitem", ["l_orderkey", "l_partkey"])
    by_order = defaultdict(set)
    for o, p in zip(li["l_orderkey"].to_pylist(),
                    li["l_partkey"].to_pylist()):
        by_order[o].add(p)
    adj = defaultdict(set)
    for parts in by_order.values():
        ps = sorted(parts)
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                adj[a].add(b)
                adj[b].add(a)
    # each triangle is counted once per edge (3x) by the brute force
    want = sum(len(adj[a] & adj[b]) for a in adj for b in adj[a] if a < b)
    assert want % 3 == 0
    assert got == want // 3


def test_triangle_broadcast_and_shuffle_paths_agree(ray_session):
    from doonop_ray.ops.graph import part_copurchase_triangles

    bc = part_copurchase_triangles(SF)  # default: broadcast route
    sh = part_copurchase_triangles(SF, broadcast_edge_limit=0)  # shuffle
    assert int(bc["n_triangles"][0]) == int(sh["n_triangles"][0]) > 0


def test_events_type_quantiles_tiny_refine_path(ray_session):
    """Force multi-round refinement (collect_cap=1, nbins=4) so the
    per-group binning arithmetic is exercised across rounds, and check
    against numpy rank selection per group."""
    import math

    import numpy as np

    from doonop_ray.ops.common import read_arrow
    from doonop_ray.ops.sketches import events_type_quantiles

    got = events_type_quantiles(SF, qs=(0.25, 0.5, 0.99),
                                nbins=4, collect_cap=1)
    ev = read_arrow(SF, "events", ["event_type", "value"]).to_pandas()
    for (g, q), sub in got.set_index(["event_type", "q"]).iterrows():
        vals = np.sort(ev[ev["event_type"] == g]["value"].to_numpy())
        want = float(vals[math.ceil(q * len(vals)) - 1])
        assert sub["value"] == want, (g, q)


def test_recrawl_check_flags_lost_artifacts(ray_session, monkeypatch):
    """Deleting an artifact file after the resume leg must surface as
    missing_after_resume."""
    import glob
    import os

    import doonop_ray.pipelines.crawler as cr
    from doonop_ray.ops.checks import recrawl_violations

    real = cr.RayCrawler.run

    def sabotaged(self, resume=False):
        stats = real(self, resume=resume)
        if resume:
            files = sorted(glob.glob(
                os.path.join(self.out_dir, "**", "*.parquet"),
                recursive=True))
            assert files, "resume leg wrote nothing to sabotage"
            os.remove(files[0])
        return stats

    monkeypatch.setattr(cr.RayCrawler, "run", sabotaged)
    bad = recrawl_violations(SF)
    assert "missing_after_resume" in set(bad["kind"])


def test_curate_images_check_flags_doctored_gate(ray_session, monkeypatch):
    """Flipping one keep flag (rule drift) and dropping a row trips
    rule_mismatch and id_set_mismatch; forcing all-keep trips
    gate_vacuous."""
    import doonop_ray.ops.multimodal as mm
    from doonop_ray.ops.checks import curate_images_violations

    real = mm.curate_images

    def doctored(sf_dir):
        df = real(sf_dir)
        assert len(df) >= 2, "world too small for the injection"
        df.loc[df.index[0], "keep"] = not bool(df["keep"].iloc[0])
        return df.iloc[:-1]

    monkeypatch.setattr(mm, "curate_images", doctored)
    bad = curate_images_violations(SF)
    kinds = set(bad["kind"])
    assert {"rule_mismatch", "id_set_mismatch"} <= kinds

    def all_keep(sf_dir):
        df = real(sf_dir)
        df["keep"] = True
        return df

    monkeypatch.setattr(mm, "curate_images", all_keep)
    bad = curate_images_violations(SF)
    assert "gate_vacuous" in set(bad["kind"])


def test_curate_images_gate_discriminates(ray_session):
    """The min-side rule must actually split the world both ways."""
    from doonop_ray.ops.multimodal import curate_images

    got = curate_images(SF)
    assert got["keep"].any() and not got["keep"].all()
    assert (got["min_side"] >= 20).equals(got["keep"])


def test_pca_embeddings_matches_numpy_reference(ray_session):
    """Distributed moment-partial PCA equals a single-process numpy
    eigendecomposition of the full-scan covariance (same sign fix),
    and the one-sided integrity check is clean."""
    import numpy as np
    from doonop_ray.ops.ann import pca_embeddings, _pca_eig
    from doonop_ray.ops.checks import pca_violations
    from doonop_ray.ops.common import read_arrow

    got = pca_embeddings(SF, k=6)
    emb = read_arrow(SF, "embeddings", ["embedding"])
    v = np.asarray(emb["embedding"].to_pylist(), dtype=np.float64)
    cov = np.cov(v, rowvar=False, ddof=1)
    evals = np.sort(np.linalg.eigvalsh(cov))[::-1]
    assert np.allclose(got["eigval"], np.round(evals[:6], 6), atol=2e-6)
    assert np.allclose(got["explained_frac"],
                       np.round(evals[:6] / np.trace(cov), 6), atol=2e-6)
    # eigenvectors orthonormal + deterministic across block layouts
    e1, v1, _ = _pca_eig(SF)
    e2, v2, _ = _pca_eig(SF, reverse_blocks=True)
    assert np.allclose(v1.T @ v1, np.eye(v1.shape[1]), atol=1e-8)
    assert np.allclose(e1, e2, atol=1e-9 * max(1.0, e1[0]))
    assert len(pca_violations(SF)) == 0


def test_mad_and_cont_percentiles_refine_path(ray_session):
    """Force multi-round refinement (collect_cap=1, nbins=4) for the
    PERCENTILE_CONT and MAD paths (the small-group fast path skips the
    histogram rounds otherwise) and check against numpy interpolation
    per group."""
    import numpy as np

    from doonop_ray.ops.common import read_arrow
    from doonop_ray.ops.sketches import (events_percentiles_cont,
                                         events_value_mad)

    ev = read_arrow(SF, "events", ["event_type", "value"]).to_pandas()

    got = events_percentiles_cont(SF, qs=(0.5, 0.9), nbins=4,
                                  collect_cap=1)
    for (g, q), sub in got.set_index(["event_type", "q"]).iterrows():
        vals = ev[ev["event_type"] == g]["value"].to_numpy()
        want = np.quantile(vals, q, method="linear")
        assert abs(sub["value"] - want) < 5e-5, (g, q, sub["value"], want)

    mad = events_value_mad(SF, nbins=4, collect_cap=1)
    for g, sub in mad.set_index("event_type").iterrows():
        vals = ev[ev["event_type"] == g]["value"].to_numpy()
        med = np.quantile(vals, 0.5, method="linear")
        want = np.quantile(np.abs(vals - med), 0.5, method="linear")
        assert abs(sub["med"] - med) < 5e-5
        assert abs(sub["mad"] - want) < 5e-5


def test_chunk_documents_semantics(tmp_path, ray_session):
    """Pin the chunking rule against independent Python slicing on
    crafted edges: empty doc (one empty chunk), doc < size, doc of
    EXACTLY size (one chunk — no redundant overlap tail), one char
    past size (two chunks), a long doc (overlap between consecutive
    chunks), and a multi-byte doc (codepoint, not byte, slicing)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from doonop_ray.ops.text import chunk_documents

    size, overlap = 100, 20
    stride = size - overlap
    texts = [
        "",
        "short",
        "x" * size,
        "y" * (size + 1),
        "".join(f"tok{i} " for i in range(80)),
        "é¢δ" * 60,  # 180 codepoints, 360+ utf-8 bytes
    ]
    t = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(["en"] * len(texts), pa.string()),
        "source": pa.array(["s"] * len(texts), pa.string()),
        "n_chars": pa.array([len(s) for s in texts], pa.int64()),
    })
    pq.write_table(t, tmp_path / "documents.parquet")
    out = chunk_documents(str(tmp_path), size=size, overlap=overlap)

    want = []
    for did, s in enumerate(texts):
        n = 1 + max(-((len(s) - size) // -stride), 0)  # ceil div
        for i in range(n):
            c = s[i * stride: i * stride + size]
            want.append((did, i, c, len(c)))
    assert list(out.itertuples(index=False, name=None)) == want
    per_doc = out.groupby("doc_id").size()
    assert list(per_doc) == [1, 1, 1, 2, 6, 2]
    # consecutive chunks share exactly `overlap` codepoints
    for did, g in out.groupby("doc_id"):
        ch = list(g["chunk"])
        for a, b in zip(ch, ch[1:]):
            assert a[-overlap:] == b[: len(a[-overlap:])] or len(a) < size


def test_rolling_avg_window_larger_than_group(ray_session, monkeypatch):
    """Windows >= 4 with key groups smaller than window-1 used to hit a
    numpy broadcast ValueError (v[:n-j] wraps negative while acc[j:]
    is empty); pin vs pandas rolling on groups of size 1..6 with
    window=5."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from doonop_ray.ops import windows as wmod

    rows = []
    eid = 0
    for uid, n in enumerate([1, 2, 3, 4, 5, 6]):
        for i in range(n):
            rows.append((eid, uid, i, float((eid * 37) % 101)))
            eid += 1
    tbl = pa.table({
        "event_id": pa.array([r[0] for r in rows], pa.int64()),
        "user_id": pa.array([r[1] for r in rows], pa.int64()),
        "ts": pa.array([r[2] for r in rows], pa.int64()),
        "value": pa.array([r[3] for r in rows], pa.float64()),
    })
    monkeypatch.setattr(wmod, "read", lambda *a, **k: rd.from_arrow(tbl))
    got = wmod.events_rolling_avg("unused", window=5).set_index("event_id")
    df = tbl.to_pandas().sort_values(["user_id", "ts", "event_id"])
    want = (df.groupby("user_id")["value"]
              .rolling(5, min_periods=1).mean()
              .reset_index(level=0, drop=True))
    df["want"] = want
    df = df.set_index("event_id")
    assert np.allclose(got.loc[df.index, "rolling_avg"], df["want"],
                       atol=5e-5)
