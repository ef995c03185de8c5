"""Driver contract for the graft builder (Ray Data target).

The driver calls ``ray.init`` itself before importing this module:
nothing here (or in doonop_ray) calls ray.init()/ray.shutdown().

- ``entry()`` — flagship crawl pipeline (fetch → decode+validate →
  link routing to the host-partitioned frontier+seen shard actors) on
  the tiny synthetic world tier mapped to sf0.001.
- ``queries()`` — one callable per implemented operator/pipeline from
  SURVEY.md §2 plus the training-data-pipeline operator suite (dedup,
  text analysis, ANN, windows); each takes an sf_dir.
- ``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
  query, with identical column names and identical rounding (floats
  rounded to 4 decimals on both sides). Crawl/sketch queries
  (stateful scheduler, minhash/simhash, image decode) have no SQL
  equivalent and get rows-only checks; they are pinned against the
  reference-semantics oracle in tests/ instead.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

STOP_PAT = r"\b(the|a|and|of|to|in|is|for)\b"
_TOKENS = r"list_filter(regexp_split_to_array(lower(text), '\W+'), x -> x <> '')"


def entry() -> Any:
    from doonop_ray.pipelines.flagship import flagship_crawl

    return flagship_crawl("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    from doonop_ray.ops import (ann, bucket, checks, dedup, graph,
                                multimodal, profile, relational, sketches,
                                streaming, text, windows)
    from doonop_ray.pipelines import flagship

    return {
        # relational / TPC-H-shaped (SURVEY.md §2d)
        "q1_pricing_summary": relational.q1_pricing_summary,
        "q3_shipping_priority": relational.q3_shipping_priority,
        "q5_revenue_by_nation": relational.q5_revenue_by_nation,
        # no-precomputation twins of the bucket-routed canonicals (the
        # path a one-off query takes when no persisted buckets exist)
        "q3_shipping_priority_allshuffle":
            relational.q3_shipping_priority_allshuffle,
        "q5_revenue_by_nation_allshuffle":
            relational.q5_revenue_by_nation_allshuffle,
        "q7_volume_shipping_allshuffle":
            relational.q7_volume_shipping_allshuffle,
        "top_orders_by_value": relational.top_orders_by_value,
        "filter_parts_regex": relational.filter_parts_regex,
        "events_by_type": relational.events_by_type,
        "distinct_segments": relational.distinct_segments,
        "nation_customer_counts": relational.nation_customer_counts,
        "nation_top_customer_names": relational.nation_top_customer_names,
        "table_profile_orders": profile.table_profile_orders,
        "customers_no_recent_orders": relational.customers_no_recent_orders,
        "region_customer_rollup": relational.region_customer_rollup,
        "semi_join_recent_customers": relational.semi_join_recent_customers,
        "orders_monthly": relational.orders_monthly,
        "brand_price_stats": relational.brand_price_stats,
        "lineitem_corr_stats": relational.lineitem_corr_stats,
        "q7_volume_shipping": relational.q7_volume_shipping,
        "customer_order_counts": relational.customer_order_counts,
        "order_revenue_by_segment_bucketed":
            bucket.order_revenue_by_segment_bucketed,
        "q9_profit_by_nation": relational.q9_profit_by_nation,
        "revenue_by_order_priority": relational.revenue_by_order_priority,
        "orders_skyline": relational.orders_skyline,
        "q4_order_priority": relational.q4_order_priority,
        "customer_acct_outer": relational.customer_acct_outer,
        "bloom_semijoin_orders": relational.bloom_semijoin_orders,
        "q6_forecast_revenue": relational.q6_forecast_revenue,
        "q10_returned_items": relational.q10_returned_items,
        "q14_promo_revenue": relational.q14_promo_revenue,
        "q8_market_share": relational.q8_market_share,
        "q13_customer_distribution": relational.q13_customer_distribution,
        "q15_top_supplier": relational.q15_top_supplier,
        "q18_large_volume": relational.q18_large_volume,
        "q18_large_volume_allshuffle":
            relational.q18_large_volume_allshuffle,
        "q10_returned_items_allshuffle":
            relational.q10_returned_items_allshuffle,
        "q19_disjunctive_revenue": relational.q19_disjunctive_revenue,
        "q12_priority_by_linestatus": relational.q12_priority_by_linestatus,
        "q22_sales_opportunity": relational.q22_sales_opportunity,
        "revenue_rollup": relational.revenue_rollup,
        "q17_small_quantity_revenue": relational.q17_small_quantity_revenue,
        "customer_order_gaps": relational.customer_order_gaps,
        "q2_min_cost_supplier": relational.q2_min_cost_supplier,
        "q11_important_parts": relational.q11_important_parts,
        "q16_supplier_counts": relational.q16_supplier_counts,
        "q20_dominant_suppliers": relational.q20_dominant_suppliers,
        "q21_waiting_suppliers": relational.q21_waiting_suppliers,
        "q21_waiting_suppliers_allshuffle":
            relational.q21_waiting_suppliers_allshuffle,
        "q4_order_priority_allshuffle":
            relational.q4_order_priority_allshuffle,
        "q12_priority_by_linestatus_allshuffle":
            relational.q12_priority_by_linestatus_allshuffle,
        "q13_customer_distribution_allshuffle":
            relational.q13_customer_distribution_allshuffle,
        "customer_order_counts_allshuffle":
            relational.customer_order_counts_allshuffle,
        "q8_market_share_allshuffle":
            relational.q8_market_share_allshuffle,
        "hll_distinct_users_per_type": sketches.hll_distinct_users_per_type,
        "exact_quantiles": sketches.exact_quantiles,
        "events_type_quantiles": sketches.events_type_quantiles,
        "events_percentiles_cont": sketches.events_percentiles_cont,
        "events_value_mad": sketches.events_value_mad,
        "sorted_range_shards": sketches.sorted_range_shards,
        "quantile_sketch": sketches.quantile_sketch,
        "cms_token_frequency": sketches.cms_token_frequency,
        # text analysis
        "token_counts": text.token_counts,
        "quality_scores": text.quality_scores,
        "lang_guess": text.lang_guess,
        "doc_fingerprints": text.doc_fingerprints,
        "deterministic_sample": text.deterministic_sample,
        "top_tokens": text.top_tokens,
        "doc_length_histogram": text.doc_length_histogram,
        "curate_documents": text.curate_documents,
        "top_tokens_heavy_hitters": text.top_tokens_heavy_hitters,
        "pack_sequences": text.pack_sequences,
        "lm_perplexity_scores": text.lm_perplexity_scores,
        "mixture_weights": text.mixture_weights,
        "sample_by_mixture": text.sample_by_mixture,
        "contamination_check": text.contamination_check,
        "contamination_check_bloom": text.contamination_check_bloom,
        "sample_per_lang": text.sample_per_lang,
        "train_val_test_split": text.train_val_test_split,
        "boilerplate_segments": text.boilerplate_segments,
        "tfidf_top_terms": text.tfidf_top_terms,
        "winnowing_fingerprints": text.winnowing_fingerprints,
        "score_documents_model": text.score_documents_model,
        "pii_redact": text.pii_redact,
        "repetition_scores": text.repetition_scores,
        "keyword_search_bm25": text.keyword_search_bm25,
        "keyword_search_indexed": text.keyword_search_indexed,
        "shared_tokens_langs": text.shared_tokens_langs,
        "winnowing_neardup_pairs": text.winnowing_neardup_pairs,
        "kmeans_embeddings": ann.kmeans_embeddings,
        "pca_embeddings": ann.pca_embeddings,
        "centroid_by_label": ann.centroid_by_label,
        "corpus_shuffle_shards": text.corpus_shuffle_shards,
        "bpe_merges": text.bpe_merges,
        "bpe_encode": text.bpe_encode,
        "char_entropy": text.char_entropy,
        "chunk_documents": text.chunk_documents,
        "hybrid_search_rrf": text.hybrid_search_rrf,
        # dedup family
        "dedup_exact": dedup.dedup_exact,
        "dedup_prefix": dedup.dedup_prefix,
        "dedup_keep_best": dedup.dedup_keep_best,
        "minhash_lsh_pairs": dedup.minhash_lsh_pairs,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_pairs,
        "fuzzy_part_matches": dedup.fuzzy_part_matches,
        "neardup_components": dedup.neardup_components,
        "pagerank_customer_supplier": graph.pagerank_customer_supplier,
        "part_copurchase_triangles": graph.part_copurchase_triangles,
        "top_copurchased_parts": graph.top_copurchased_parts,
        "neardup_dedup_corpus": dedup.neardup_dedup_corpus,
        "dedup_incremental": dedup.dedup_incremental,
        "substring_dup_stats": dedup.substring_dup_stats,
        "simhash_signatures": dedup.simhash_signatures,
        "embedding_neardup_pairs": dedup.embedding_neardup_pairs,
        "embedding_neardup_lsh": dedup.embedding_neardup_lsh,
        "semantic_dedup": dedup.semantic_dedup,
        # similarity search
        "ann_topk_cosine": ann.ann_topk_cosine,
        "ann_topk_lsh": ann.ann_topk_lsh,
        "ann_topk_ivf": ann.ann_topk_ivf,
        "ann_topk_pq": ann.ann_topk_pq,
        # one-sided oracles: sketch/LSH invariants recomputed with
        # independent arithmetic; the returned VIOLATION set must equal
        # the empty oracle (driver-recorded subset/accuracy assertions)
        "embedding_lsh_precision_violations":
            checks.embedding_lsh_precision_violations,
        "ann_lsh_rank_violations": checks.ann_lsh_rank_violations,
        "hll_accuracy_violations": checks.hll_accuracy_violations,
        "pca_violations": checks.pca_violations,
        "simhash_consistency_violations":
            checks.simhash_consistency_violations,
        "minhash_precision_violations":
            checks.minhash_precision_violations,
        "ann_ivf_recall_violations": checks.ann_ivf_recall_violations,
        "phash_pair_violations": checks.phash_pair_violations,
        "lm_perplexity_consistency_violations":
            checks.lm_perplexity_consistency_violations,
        "quantile_sketch_violations": checks.quantile_sketch_violations,
        "ann_pq_recall_violations": checks.ann_pq_recall_violations,
        "ivf_index_violations": checks.ivf_index_violations,
        "training_dataset_violations":
            checks.training_dataset_violations,
        "audio_feature_violations": checks.audio_feature_violations,
        "video_sampling_violations": checks.video_sampling_violations,
        "image_resize_violations": checks.image_resize_violations,
        "contamination_bloom_violations":
            checks.contamination_bloom_violations,
        "cms_accuracy_violations": checks.cms_accuracy_violations,
        "bpe_encode_violations": checks.bpe_encode_violations,
        "image_dedup_violations": checks.image_dedup_violations,
        "crawl_reachability_violations":
            checks.crawl_reachability_violations,
        "kmeans_violations": checks.kmeans_violations,
        "bpe_merges_violations": checks.bpe_merges_violations,
        "conformance_order_violations":
            checks.conformance_order_violations,
        "crawl_host_counts_violations":
            checks.crawl_host_counts_violations,
        "politeness_violations": checks.politeness_violations,
        "frontier_budget_violations": checks.frontier_budget_violations,
        "image_validate_violations": checks.image_validate_violations,
        "recrawl_violations": checks.recrawl_violations,
        # multimodal binary-column stages (actor pools; audio/video are
        # deterministic fakes — codec libs absent here; image path runs
        # the real synthetic codec over the crawl world's payload bytes)
        "audio_features": multimodal.audio_features,
        "video_frame_means": multimodal.video_frame_means,
        "image_resize_means": multimodal.image_resize_means,
        "curate_images": multimodal.curate_images,
        "curate_images_violations": checks.curate_images_violations,
        "image_channel_stats": multimodal.image_channel_stats,
        "image_channel_stats_violations":
            checks.image_channel_stats_violations,
        "image_aspect_buckets": multimodal.image_aspect_buckets,
        "image_aspect_buckets_violations":
            checks.image_aspect_buckets_violations,
        "score_images_model": multimodal.score_images_model,
        "image_model_score_violations":
            checks.image_model_score_violations,
        "caption_image_alignment": multimodal.caption_image_alignment,
        "caption_alignment_violations":
            checks.caption_alignment_violations,
        "image_sharpness": multimodal.image_sharpness,
        "image_sharpness_violations":
            checks.image_sharpness_violations,
        "image_text_retrieval": multimodal.image_text_retrieval,
        "retrieval_eval_violations":
            checks.retrieval_eval_violations,
        "curate_image_text_pairs": multimodal.curate_image_text_pairs,
        "pair_curation_violations":
            checks.pair_curation_violations,
        # stream-shaped windows
        "events_hourly": windows.events_hourly,
        "events_gap_fill": windows.events_gap_fill,
        "events_cube": windows.events_cube,
        "events_props_stats": windows.events_props_stats,
        "user_sessions": windows.user_sessions,
        "user_stats": windows.user_stats,
        "events_sliding_counts": windows.events_sliding_counts,
        "events_top_users_per_type": windows.events_top_users_per_type,
        "streaming_user_sessions": streaming.streaming_user_sessions,
        "orders_events_range_join": windows.orders_events_range_join,
        "events_last_order": windows.events_last_order,
        "event_value_median": windows.event_value_median,
        "events_rolling_avg": windows.events_rolling_avg,
        "events_ntile": windows.events_ntile,
        "user_modal_event_type": windows.user_modal_event_type,
        "events_pivot": windows.events_pivot,
        "user_funnel": windows.user_funnel,
        "retention_cohorts": windows.retention_cohorts,
        "events_percent_rank": windows.events_percent_rank,
        "events_hourly_anomalies": windows.events_hourly_anomalies,
        "events_windowed_p90": windows.events_windowed_p90,
        "orders_cumulative_revenue": windows.orders_cumulative_revenue,
        "top_orders_per_customer": relational.top_orders_per_customer,
        # crawl engine (reference-semantics; rows-only — pinned vs the
        # workload.rs oracle in tests/test_crawler.py)
        "crawl_flagship": flagship.flagship_crawl,
        "crawl_conformance_order": flagship.conformance_order,
        "crawl_host_counts": flagship.crawl_host_counts,
        "crawl_polite": flagship.crawl_polite,
        "frontier_host_budgets": flagship.frontier_host_budgets,
        "image_validate": flagship.image_validate,
        "image_phash_neardup": flagship.image_phash_neardup,
        "image_dedup_corpus": flagship.image_dedup_corpus,
        "build_training_dataset": flagship.build_training_dataset,
        "training_dataset_stats": flagship.training_dataset_stats,
    }


def _pagerank_sql(n_iters: int = 5, d: float = 0.85) -> str:
    """Unrolled fixed-iteration PageRank oracle — one CTE per power
    iteration, same float64 arithmetic as ``ops.graph.pagerank``."""
    sql = """
        WITH p0 AS (SELECT DISTINCT CAST(o_custkey AS BIGINT) AS c,
                                    CAST(l_suppkey AS BIGINT) AS s
                    FROM orders JOIN lineitem ON l_orderkey = o_orderkey),
        edges AS (SELECT 2 * c AS src, 2 * s + 1 AS dst FROM p0
                  UNION ALL SELECT 2 * s + 1, 2 * c FROM p0),
        deg AS (SELECT src, COUNT(*) AS outdeg FROM edges GROUP BY src),
        nn AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM deg),
        r0 AS (SELECT src AS node, 1.0 / (SELECT n FROM nn) AS pr
               FROM deg)"""
    for i in range(1, n_iters + 1):
        sql += f""",
        r{i} AS (SELECT e.dst AS node,
                        (1 - {d}) / (SELECT n FROM nn)
                        + {d} * SUM(r.pr / d2.outdeg) AS pr
                 FROM edges e
                 JOIN r{i - 1} r ON e.src = r.node
                 JOIN deg d2 ON e.src = d2.src
                 GROUP BY e.dst)"""
    sql += f"""
        SELECT node, ROUND(pr * (SELECT n FROM nn), 4) AS rank_rel
        FROM r{n_iters} ORDER BY node"""
    return sql


def oracle_sql() -> dict[str, str]:
    sql = {
        "revenue_by_order_priority": """
            SELECT o_orderpriority,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 0) AS revenue
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            GROUP BY 1 ORDER BY 1
        """,
        "q7_volume_shipping": """
            SELECT sn.n_name AS supp_nation, cn.n_name AS cust_nation,
                   CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS l_year,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation sn ON s_nationkey = sn.n_nationkey
            JOIN nation cn ON c_nationkey = cn.n_nationkey
            WHERE (sn.n_name = 'NATION_1' AND cn.n_name = 'NATION_2')
               OR (sn.n_name = 'NATION_2' AND cn.n_name = 'NATION_1')
            GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
        """,
        "bloom_semijoin_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders
            WHERE o_custkey IN (SELECT c_custkey FROM customer
                                WHERE c_mktsegment = 'AUTOMOBILE')
            ORDER BY o_orderkey
        """,
        "customer_acct_outer": """
            SELECT COALESCE(c.c_custkey, o.o_custkey) AS c_custkey,
                   ROUND(COALESCE(c.c_acctbal, -1.0), 4) AS acctbal,
                   COALESCE(o.n, 0) AS n_orders
            FROM (SELECT c_custkey, c_acctbal FROM customer
                  WHERE c_acctbal < 1000.0) c
            FULL OUTER JOIN (
                SELECT o_custkey, CAST(COUNT(*) AS BIGINT) AS n
                FROM orders WHERE o_orderdate >= TIMESTAMP '2000-01-01'
                GROUP BY 1) o
            ON c.c_custkey = o.o_custkey
            ORDER BY 1
        """,
        "mixture_weights": """
            SELECT source, CAST(COUNT(*) AS BIGINT) AS n_docs,
                   ROUND(((SELECT COUNT(*) FROM documents) * 1.0
                          / (SELECT COUNT(DISTINCT source) FROM documents))
                         / COUNT(*), 4) AS weight,
                   ROUND(LEAST(((SELECT COUNT(*) FROM documents) * 1.0
                          / (SELECT COUNT(DISTINCT source) FROM documents))
                         / COUNT(*), 1.0), 4) AS sampling_rate
            FROM documents GROUP BY 1 ORDER BY 1
        """,
        "pack_sequences": f"""
            WITH tok AS (
                SELECT lang, doc_id // 256 AS bucket,
                       len({_TOKENS}) AS n
                FROM documents
            ), b AS (
                SELECT lang, bucket, SUM(n) AS btok
                FROM tok GROUP BY 1, 2
            )
            SELECT lang,
                   CAST(SUM(CEIL(btok / 512.0)) AS BIGINT) AS n_sequences,
                   CAST(SUM(btok) AS BIGINT) AS total_tokens
            FROM b WHERE btok > 0 GROUP BY 1 ORDER BY 1
        """,
        "exact_quantiles": """
            WITH s AS (SELECT value, ROW_NUMBER() OVER (ORDER BY value) rn,
                              COUNT(*) OVER () n FROM events)
            SELECT CAST(q AS DOUBLE) AS q,
                   (SELECT MIN(value) FROM s WHERE rn >= CEIL(q * n)) AS value
            FROM (VALUES (0.5), (0.9), (0.99)) t(q) ORDER BY q
        """,
        "events_value_mad": """
            WITH m AS (SELECT event_type,
                              quantile_cont(value, 0.5) AS med
                       FROM events GROUP BY 1)
            SELECT e.event_type,
                   ROUND(ANY_VALUE(m.med), 4) AS med,
                   ROUND(quantile_cont(abs(e.value - m.med), 0.5), 4)
                       AS mad
            FROM events e JOIN m USING (event_type)
            GROUP BY e.event_type ORDER BY 1
        """,
        "events_percentiles_cont": """
            SELECT event_type, CAST(0.5 AS DOUBLE) AS q,
                   ROUND(quantile_cont(value, 0.5), 4) AS value
            FROM events GROUP BY 1
            UNION ALL
            SELECT event_type, 0.9, ROUND(quantile_cont(value, 0.9), 4)
            FROM events GROUP BY 1
            UNION ALL
            SELECT event_type, 0.99, ROUND(quantile_cont(value, 0.99), 4)
            FROM events GROUP BY 1
            ORDER BY event_type, q
        """,
        "events_type_quantiles": """
            WITH s AS (SELECT event_type, value,
                              ROW_NUMBER() OVER (PARTITION BY event_type
                                                 ORDER BY value) rn,
                              COUNT(*) OVER (PARTITION BY event_type) n
                       FROM events)
            SELECT t.event_type, CAST(q.q AS DOUBLE) AS q,
                   (SELECT MIN(value) FROM s
                    WHERE s.event_type = t.event_type
                      AND rn >= CEIL(q.q * n)) AS value
            FROM (SELECT DISTINCT event_type FROM events) t
            CROSS JOIN (VALUES (0.5), (0.9)) q(q)
            ORDER BY t.event_type, q.q
        """,
        # skyline tie semantics: strict dominance — a point survives
        # iff nothing is (<= date, >= price) with one strict; the
        # window form is O(n log n): per-date max rows, then a running
        # max over strictly earlier dates
        "orders_skyline": """
            WITH e AS (SELECT o_orderdate, MAX(o_totalprice) AS dmax
                       FROM orders GROUP BY 1),
            prev AS (SELECT o_orderdate, dmax,
                            MAX(dmax) OVER (ORDER BY o_orderdate
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING) AS prev_max
                     FROM e)
            SELECT o.o_orderkey, o.o_orderdate, o.o_totalprice
            FROM orders o JOIN prev USING (o_orderdate)
            WHERE o.o_totalprice = prev.dmax
              AND (prev.prev_max IS NULL
                   OR o.o_totalprice > prev.prev_max)
            ORDER BY o.o_orderkey
        """,
        "sorted_range_shards": """
            WITH t AS (SELECT o_totalprice AS p,
                              NTILE(8) OVER (ORDER BY o_totalprice,
                                             o_orderkey) AS shard
                       FROM orders)
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   MIN(p) AS min_price, MAX(p) AS max_price
            FROM t GROUP BY shard ORDER BY shard
        """,
        "q4_order_priority": """
            SELECT o_orderpriority, CAST(COUNT(*) AS BIGINT) AS order_count
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1998-01-01'
              AND o_orderdate < TIMESTAMP '1999-01-01'
              AND EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_shipdate > o_orderdate)
            GROUP BY 1 ORDER BY 1
        """,
        "q6_forecast_revenue": """
            SELECT ROUND(SUM(l_extendedprice * l_discount), 4) AS revenue
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1998-01-01'
              AND l_shipdate < TIMESTAMP '1999-01-01'
              AND l_discount BETWEEN 0.03 AND 0.07
              AND l_quantity < 24
        """,
        "q10_returned_items": """
            SELECT c_custkey, c_name,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue,
                   n_name
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN nation ON c_nationkey = n_nationkey
            WHERE l_returnflag = 'R'
              AND o_orderdate >= TIMESTAMP '1998-01-01'
              AND o_orderdate < TIMESTAMP '1998-07-01'
            GROUP BY c_custkey, c_name, n_name
            ORDER BY revenue DESC, c_custkey LIMIT 20
        """,
        "q14_promo_revenue": """
            SELECT CAST(EXTRACT(month FROM l_shipdate) AS BIGINT) AS o_month,
                   ROUND(100.0 * SUM(CASE WHEN p_type = 'PROMO'
                                     THEN l_extendedprice * (1 - l_discount)
                                     ELSE 0 END)
                         / SUM(l_extendedprice * (1 - l_discount)), 4)
                       AS promo_pct,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE l_shipdate >= TIMESTAMP '1998-01-01'
              AND l_shipdate < TIMESTAMP '1999-01-01'
            GROUP BY 1 ORDER BY 1
        """,
        "q9_profit_by_nation": """
            SELECT n_name AS nation,
                   CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS sum_profit
            FROM lineitem
            JOIN part ON l_partkey = p_partkey
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN orders ON l_orderkey = o_orderkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_name LIKE '%red%'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q8_market_share": """
            SELECT o_year,
                   ROUND(SUM(CASE WHEN nation = 'NATION_3' THEN volume
                             ELSE 0 END) / SUM(volume), 4) AS mkt_share
            FROM (
                SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
                       l_extendedprice * (1 - l_discount) AS volume,
                       n2.n_name AS nation
                FROM lineitem
                JOIN part ON l_partkey = p_partkey
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN orders ON l_orderkey = o_orderkey
                JOIN customer ON o_custkey = c_custkey
                JOIN nation n1 ON c_nationkey = n1.n_nationkey
                JOIN region ON n1.n_regionkey = r_regionkey
                JOIN nation n2 ON s_nationkey = n2.n_nationkey
                WHERE r_name = 'ASIA'
                  AND o_orderdate >= TIMESTAMP '1998-01-01'
                  AND o_orderdate < TIMESTAMP '2000-01-01'
                  AND p_type = 'PROMO'
            ) GROUP BY o_year ORDER BY o_year
        """,
        "q13_customer_distribution": """
            SELECT c_count, CAST(COUNT(*) AS BIGINT) AS custdist
            FROM (
                SELECT c_custkey,
                       CAST(COUNT(o_orderkey) AS BIGINT) AS c_count
                FROM customer LEFT JOIN orders ON c_custkey = o_custkey
                GROUP BY c_custkey
            ) GROUP BY c_count ORDER BY c_count
        """,
        "q15_top_supplier": """
            WITH revenue AS (
                SELECT l_suppkey AS supplier_no,
                       SUM(l_extendedprice * (1 - l_discount)) AS total_rev
                FROM lineitem
                WHERE l_shipdate >= TIMESTAMP '1998-01-01'
                  AND l_shipdate < TIMESTAMP '1998-07-01'
                GROUP BY l_suppkey)
            SELECT s_suppkey, s_name, ROUND(total_rev, 4) AS total_revenue
            FROM supplier JOIN revenue ON s_suppkey = supplier_no
            WHERE ROUND(total_rev, 4) =
                  (SELECT MAX(ROUND(total_rev, 4)) FROM revenue)
            ORDER BY s_suppkey
        """,
        "q18_large_volume": """
            SELECT c_name, CAST(c_custkey AS BIGINT) AS c_custkey,
                   o_orderkey, o_orderdate, o_totalprice,
                   ROUND(qty, 4) AS sum_qty
            FROM (
                SELECT l_orderkey, SUM(l_quantity) AS qty
                FROM lineitem GROUP BY l_orderkey
                HAVING SUM(l_quantity) > 300
            ) big
            JOIN orders ON o_orderkey = l_orderkey
            JOIN customer ON o_custkey = c_custkey
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 100
        """,
        "q19_disjunctive_revenue": """
            SELECT ROUND(COALESCE(SUM(l_extendedprice * (1 - l_discount)), 0.0),
                         4) AS revenue
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 15
                   AND l_quantity BETWEEN 1 AND 11)
               OR (p_brand = 'Brand#22' AND p_size BETWEEN 1 AND 25
                   AND l_quantity BETWEEN 10 AND 20)
               OR (p_brand = 'Brand#13' AND p_size BETWEEN 1 AND 35
                   AND l_quantity BETWEEN 20 AND 30)
        """,
        "pagerank_customer_supplier": _pagerank_sql(),
        "part_copurchase_triangles": """
            WITH pp AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
                 e AS (SELECT DISTINCT p1.l_partkey AS a,
                              p2.l_partkey AS b
                       FROM pp p1 JOIN pp p2
                         ON p1.l_orderkey = p2.l_orderkey
                        AND p1.l_partkey < p2.l_partkey)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a = e1.a AND e2.b > e1.b
            JOIN e e3 ON e3.a = e1.b AND e3.b = e2.b
        """,
        "top_copurchased_parts": """
            WITH pp AS (SELECT DISTINCT l_orderkey, l_partkey
                        FROM lineitem),
                 pr AS (SELECT p1.l_partkey AS a, p2.l_partkey AS b,
                               CAST(COUNT(*) AS BIGINT) AS n_orders
                        FROM pp p1 JOIN pp p2
                          ON p1.l_orderkey = p2.l_orderkey
                         AND p1.l_partkey < p2.l_partkey
                        GROUP BY 1, 2)
            SELECT a, b, n_orders FROM pr
            ORDER BY n_orders DESC, a, b LIMIT 20
        """,
        "q12_priority_by_linestatus": """
            SELECT l_linestatus,
                   CAST(SUM(CASE WHEN o_orderpriority IN
                            ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
                        AS BIGINT) AS high_line_count,
                   CAST(SUM(CASE WHEN o_orderpriority NOT IN
                            ('1-URGENT', '2-HIGH') THEN 1 ELSE 0 END)
                        AS BIGINT) AS low_line_count
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
            WHERE l_shipdate >= TIMESTAMP '1999-01-01'
              AND l_shipdate < TIMESTAMP '2000-01-01'
            GROUP BY 1 ORDER BY 1
        """,
        "q17_small_quantity_revenue": """
            SELECT ROUND(SUM(l_extendedprice) / 7.0, 4) AS avg_yearly
            FROM lineitem l JOIN part p ON p_partkey = l_partkey
            WHERE p_brand = 'Brand#11'
              AND l_quantity < (
                  SELECT 0.2 * AVG(l2.l_quantity) FROM lineitem l2
                  WHERE l2.l_partkey = l.l_partkey)
        """,
        "customer_order_gaps": """
            SELECT o_custkey,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   ROUND(AVG(gap), 4) AS avg_gap_days
            FROM (
                SELECT o_custkey,
                       EXTRACT(epoch FROM o_orderdate -
                               LAG(o_orderdate) OVER (
                                   PARTITION BY o_custkey
                                   ORDER BY o_orderdate, o_orderkey))
                           / 86400.0 AS gap
                FROM orders)
            GROUP BY o_custkey HAVING COUNT(*) >= 2
            ORDER BY o_custkey
        """,
        "q2_min_cost_supplier": """
            WITH cost AS (
                SELECT l_partkey, l_suppkey,
                       MIN(l_extendedprice / l_quantity) AS c
                FROM lineitem
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                JOIN region ON n_regionkey = r_regionkey
                WHERE r_name = 'EUROPE'
                GROUP BY 1, 2
            ), best AS (
                SELECT l_partkey AS bp, MIN(c) AS mc FROM cost GROUP BY 1
            )
            SELECT s_acctbal, s_name, n_name,
                   CAST(p_partkey AS BIGINT) AS p_partkey, p_name,
                   ROUND(c, 4) AS supply_cost
            FROM cost
            JOIN best ON l_partkey = bp AND c = mc
            JOIN part ON p_partkey = l_partkey
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE p_size % 5 = 0 AND p_type = 'LARGE'
            ORDER BY s_acctbal DESC, n_name, s_name, p_partkey
            LIMIT 100
        """,
        "q11_important_parts": """
            SELECT CAST(l_partkey AS BIGINT) AS p_partkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4)
                       AS value
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE n_name = 'NATION_3'
            GROUP BY 1
            HAVING SUM(l_extendedprice * (1 - l_discount)) > (
                SELECT SUM(l_extendedprice * (1 - l_discount)) * 0.001
                FROM lineitem
                JOIN supplier ON l_suppkey = s_suppkey
                JOIN nation ON s_nationkey = n_nationkey
                WHERE n_name = 'NATION_3')
            ORDER BY value DESC, p_partkey
        """,
        "q16_supplier_counts": """
            SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
                   CAST(COUNT(DISTINCT l_suppkey) AS BIGINT)
                       AS supplier_cnt
            FROM lineitem JOIN part ON l_partkey = p_partkey
            WHERE p_brand <> 'Brand#1' AND p_type <> 'PROMO'
              AND p_size IN (5, 15, 25)
              AND l_suppkey NOT IN (SELECT s_suppkey FROM supplier
                                    WHERE s_acctbal < 500)
            GROUP BY 1, 2, 3
            ORDER BY supplier_cnt DESC, p_brand, p_type, p_size
        """,
        "q20_dominant_suppliers": """
            WITH win AS (
                SELECT l_partkey, l_suppkey, SUM(l_quantity) AS qty
                FROM lineitem JOIN part ON l_partkey = p_partkey
                WHERE p_name LIKE 'red%'
                  AND l_shipdate >= TIMESTAMP '1997-01-01'
                  AND l_shipdate < TIMESTAMP '1998-01-01'
                GROUP BY 1, 2
            ), tot AS (
                SELECT l_partkey AS tp, SUM(qty) AS tq FROM win GROUP BY 1
            )
            SELECT DISTINCT s_name
            FROM win JOIN tot ON l_partkey = tp
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE qty > 0.5 * tq AND n_name = 'NATION_1'
            ORDER BY s_name
        """,
        "q21_waiting_suppliers": """
            WITH per AS (
                SELECT l_orderkey, l_suppkey,
                       MAX(CASE WHEN l_shipdate >
                                o_orderdate + INTERVAL 90 DAY
                                THEN 1 ELSE 0 END) AS late
                FROM lineitem JOIN orders ON l_orderkey = o_orderkey
                WHERE o_orderstatus = 'F'
                GROUP BY 1, 2
            ), ord AS (
                SELECT l_orderkey AS ok, COUNT(*) AS n_supp,
                       SUM(late) AS n_late
                FROM per GROUP BY 1
            )
            SELECT s_name, CAST(COUNT(*) AS BIGINT) AS numwait
            FROM per
            JOIN ord ON l_orderkey = ok
            JOIN supplier ON s_suppkey = l_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            WHERE per.late = 1 AND ord.n_supp >= 2 AND ord.n_late = 1
              AND n_name = 'NATION_3'
            GROUP BY s_name
            ORDER BY numwait DESC, s_name
            LIMIT 100
        """,
        "revenue_rollup": """
            SELECT r_name, n_name,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   ROUND(SUM(c_acctbal), 4) AS sum_acctbal
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY ROLLUP(r_name, n_name)
            ORDER BY r_name NULLS FIRST, n_name NULLS FIRST
        """,
        "q22_sales_opportunity": """
            SELECT c_mktsegment,
                   CAST(COUNT(*) AS BIGINT) AS numcust,
                   ROUND(SUM(c_acctbal), 4) AS totacctbal
            FROM customer c
            WHERE c_acctbal > (SELECT AVG(c_acctbal) FROM customer
                               WHERE c_acctbal > 0)
              AND NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_orderdate >=
                                    TIMESTAMP '2000-01-01')
            GROUP BY 1 ORDER BY 1
        """,
        "sample_by_mixture": """
            WITH cnt AS (SELECT lang, CAST(COUNT(*) AS BIGINT) AS n
                         FROM documents GROUP BY lang),
            tot AS (SELECT CAST(SUM(n) AS BIGINT) AS total,
                           CAST(COUNT(*) AS BIGINT) AS k FROM cnt),
            rates AS (SELECT lang,
                             (CAST((SELECT total FROM tot) AS DOUBLE)
                              / (SELECT k FROM tot)) / n AS rate
                      FROM cnt),
            thr AS (SELECT lang,
                           CASE WHEN rate >= 1.0 THEN 'zzzzzzzz'
                                ELSE lower(lpad(to_hex(CAST(
                                    floor(rate * 4294967296.0) AS BIGINT)),
                                    8, '0'))
                           END AS threshold
                    FROM rates)
            SELECT d.doc_id, d.lang
            FROM documents d JOIN thr t ON d.lang = t.lang
            WHERE substr(md5(d.text), 1, 8) < t.threshold
            ORDER BY d.doc_id
        """,
        "region_customer_rollup": """
            SELECT r_name,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   ROUND(SUM(c_acctbal), 4) AS sum_acctbal
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY 1 ORDER BY 1
        """,
        "semi_join_recent_customers": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer
            WHERE EXISTS (
                SELECT 1 FROM orders
                WHERE o_custkey = c_custkey
                  AND o_orderdate >= TIMESTAMP '2000-01-01'
            )
            ORDER BY c_custkey
        """,
        "orders_monthly": """
            SELECT CAST(EXTRACT(year FROM o_orderdate) AS BIGINT) AS o_year,
                   CAST(EXTRACT(month FROM o_orderdate) AS BIGINT) AS o_month,
                   ROUND(SUM(o_totalprice), 4) AS revenue,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "brand_price_stats": """
            SELECT p_brand,
                   CAST(COUNT(*) AS BIGINT) AS n_parts,
                   MIN(p_retailprice) AS min_price,
                   MAX(p_retailprice) AS max_price,
                   ROUND(SUM(p_retailprice), 4) AS sum_price,
                   ROUND(SUM(p_retailprice) / COUNT(*), 4) AS avg_price
            FROM part GROUP BY 1 ORDER BY 1
        """,
        "events_top_users_per_type": """
            SELECT event_type, user_id, sum_value, rank FROM (
                SELECT event_type, user_id,
                       ROUND(SUM(value), 4) AS sum_value,
                       ROW_NUMBER() OVER (
                           PARTITION BY event_type
                           ORDER BY SUM(value) DESC, user_id
                       ) AS rank
                FROM events GROUP BY event_type, user_id
            ) WHERE rank <= 3 ORDER BY event_type, rank
        """,
        "doc_length_histogram": """
            SELECT (n_chars // 100) * 100 AS bucket,
                   CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY 1 ORDER BY 1
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 4) AS sum_qty,
                   ROUND(SUM(l_extendedprice), 4) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS sum_disc_price,
                   CAST(COUNT(*) AS BIGINT) AS count_order,
                   ROUND(SUM(l_quantity) / COUNT(*), 4) AS avg_qty,
                   ROUND(SUM(l_extendedprice) / COUNT(*), 4) AS avg_price
            FROM lineitem
            WHERE l_shipdate <= TIMESTAMP '1999-06-30'
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "q3_shipping_priority": """
            SELECT l_orderkey,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
              AND o_orderdate < TIMESTAMP '1998-06-30'
              AND l_shipdate > TIMESTAMP '1998-06-30'
            GROUP BY 1 ORDER BY revenue DESC, l_orderkey LIMIT 10
        """,
        "q5_revenue_by_nation": """
            SELECT n_name,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 4) AS revenue
            FROM lineitem
            JOIN orders ON l_orderkey = o_orderkey
            JOIN customer ON o_custkey = c_custkey
            JOIN supplier ON l_suppkey = s_suppkey AND c_nationkey = s_nationkey
            JOIN nation ON c_nationkey = n_nationkey
            GROUP BY 1 ORDER BY 1
        """,
        "top_orders_by_value": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "filter_parts_regex": """
            SELECT p_partkey, p_name, p_retailprice FROM part
            WHERE regexp_matches(p_name, 'red|blue') ORDER BY p_partkey
        """,
        "events_by_type": """
            SELECT event_type, CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(SUM(value), 4) AS sum_value,
                   MIN(value) AS min_value, MAX(value) AS max_value
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "distinct_segments": """
            SELECT DISTINCT c_mktsegment FROM customer ORDER BY 1
        """,
        "nation_customer_counts": """
            SELECT n_name, CAST(COUNT(*) AS BIGINT) AS n_customers,
                   ROUND(SUM(c_acctbal), 4) AS sum_acctbal
            FROM customer JOIN nation ON c_nationkey = n_nationkey
            GROUP BY 1 ORDER BY 1
        """,
        "table_profile_orders": """
            SELECT * FROM (
              SELECT 'o_orderkey' AS col, COUNT(*)::BIGINT AS n,
                     (COUNT(*) - COUNT(o_orderkey))::BIGINT AS n_null,
                     COUNT(DISTINCT o_orderkey)::BIGINT AS n_distinct,
                     ROUND(CAST(MIN(o_orderkey) AS DOUBLE), 4) AS min_val,
                     ROUND(CAST(MAX(o_orderkey) AS DOUBLE), 4) AS max_val
              FROM orders
              UNION ALL
              SELECT 'o_custkey', COUNT(*),
                     COUNT(*) - COUNT(o_custkey),
                     COUNT(DISTINCT o_custkey),
                     ROUND(CAST(MIN(o_custkey) AS DOUBLE), 4),
                     ROUND(CAST(MAX(o_custkey) AS DOUBLE), 4)
              FROM orders
              UNION ALL
              SELECT 'o_orderstatus', COUNT(*),
                     COUNT(*) - COUNT(o_orderstatus),
                     COUNT(DISTINCT o_orderstatus), NULL, NULL
              FROM orders
              UNION ALL
              SELECT 'o_totalprice', COUNT(*),
                     COUNT(*) - COUNT(o_totalprice),
                     COUNT(DISTINCT o_totalprice),
                     ROUND(CAST(MIN(o_totalprice) AS DOUBLE), 4),
                     ROUND(CAST(MAX(o_totalprice) AS DOUBLE), 4)
              FROM orders
              UNION ALL
              SELECT 'o_orderdate', COUNT(*),
                     COUNT(*) - COUNT(o_orderdate),
                     COUNT(DISTINCT o_orderdate), NULL, NULL
              FROM orders
              UNION ALL
              SELECT 'o_orderpriority', COUNT(*),
                     COUNT(*) - COUNT(o_orderpriority),
                     COUNT(DISTINCT o_orderpriority), NULL, NULL
              FROM orders)
            ORDER BY col
        """,
        "lineitem_corr_stats": """
            SELECT l_returnflag,
                   COUNT(*)::BIGINT AS n,
                   ROUND(corr(l_quantity, l_extendedprice), 4)
                       AS corr_qty_price,
                   ROUND(covar_samp(l_quantity, l_extendedprice), 4)
                       AS covar_qty_price,
                   ROUND(stddev_samp(l_quantity), 4) AS sd_qty,
                   ROUND(stddev_samp(l_extendedprice), 4) AS sd_price
            FROM lineitem GROUP BY 1 ORDER BY 1
        """,
        "nation_top_customer_names": """
            WITH s AS (
                SELECT n_nationkey, c_name, c_custkey, c_acctbal,
                       ROW_NUMBER() OVER (
                           PARTITION BY c_nationkey
                           ORDER BY c_acctbal DESC, c_custkey) AS rnk
                FROM customer JOIN nation ON c_nationkey = n_nationkey)
            SELECT n_nationkey,
                   string_agg(c_name, ','
                              ORDER BY c_acctbal DESC, c_custkey)
                       AS top_names
            FROM s WHERE rnk <= 3 GROUP BY 1 ORDER BY 1
        """,
        "customers_no_recent_orders": """
            SELECT c_custkey, c_name, c_mktsegment FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders
                WHERE o_orderdate >= TIMESTAMP '2000-01-01')
            ORDER BY c_custkey
        """,
        "token_counts": r"""
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\w+')) AS BIGINT) AS n_tokens
            FROM documents ORDER BY doc_id
        """,
        "contamination_check": r"""
            WITH tok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '\w+') AS toks
                FROM documents),
            grams AS (
                SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g
                FROM (SELECT doc_id, toks,
                             unnest(range(1, len(toks)-2)) AS i FROM tok)),
            test AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 0)
            SELECT DISTINCT doc_id FROM grams
            WHERE doc_id % 10 <> 0 AND g IN (SELECT g FROM test)
            ORDER BY doc_id
        """,
        "quality_scores": rf"""
            WITH t AS (
                SELECT doc_id,
                       CAST(length(text) AS BIGINT) AS n_chars,
                       CAST(len(regexp_extract_all(text, '\w+')) AS BIGINT) AS n_tokens,
                       CAST(len(regexp_extract_all(lower(text), '{STOP_PAT}')) AS BIGINT)
                           AS n_stopwords
                FROM documents)
            SELECT doc_id, n_chars, n_tokens, n_stopwords,
                   ROUND(n_stopwords * 1.0 / GREATEST(1, n_tokens), 4) AS stop_ratio,
                   (n_tokens BETWEEN 10 AND 1000 AND n_stopwords > 0) AS is_quality
            FROM t ORDER BY doc_id
        """,
        "lang_guess": r"""
            WITH s AS (
                SELECT doc_id,
                    CAST(len(regexp_extract_all(lower(text), '\b(the|and|of|to|is)\b')) AS BIGINT) AS s_en,
                    CAST(len(regexp_extract_all(lower(text), '\b(der|und|die|das|ist)\b')) AS BIGINT) AS s_de,
                    CAST(len(regexp_extract_all(lower(text), '\b(le|la|et|les|est)\b')) AS BIGINT) AS s_fr,
                    CAST(len(regexp_extract_all(lower(text), '\b(el|la|de|que|es)\b')) AS BIGINT) AS s_es
                FROM documents)
            SELECT doc_id,
                   CASE WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
                        WHEN s_de >= s_fr AND s_de >= s_es THEN 'de'
                        WHEN s_fr >= s_es THEN 'fr'
                        ELSE 'es' END AS guess,
                   s_en, s_de, s_fr, s_es
            FROM s ORDER BY doc_id
        """,
        "doc_fingerprints": r"""
            SELECT doc_id,
                   md5(regexp_replace(lower(text), '\s+', ' ', 'g')) AS fp
            FROM documents ORDER BY doc_id
        """,
        "customer_order_counts": """
            SELECT c_custkey, CAST(COUNT(o_orderkey) AS BIGINT) AS n_orders
            FROM customer LEFT JOIN orders ON c_custkey = o_custkey
            GROUP BY 1 ORDER BY 1
        """,
        "order_revenue_by_segment_bucketed": """
            SELECT c_mktsegment AS segment,
                   ROUND(SUM(o_totalprice)) AS total_revenue,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY 1 ORDER BY 1
        """,
        "top_tokens_heavy_hitters": f"""
            SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM (
                SELECT unnest({_TOKENS}) AS token FROM documents)
            GROUP BY 1 ORDER BY n DESC, token LIMIT 20
        """,
        "top_tokens": f"""
            SELECT token, CAST(COUNT(*) AS BIGINT) AS n FROM (
                SELECT unnest({_TOKENS}) AS token FROM documents)
            GROUP BY 1 ORDER BY n DESC, token LIMIT 20
        """,
        "neardup_components": r"""
            WITH RECURSIVE t AS (
                SELECT doc_id,
                       list_distinct(regexp_extract_all(lower(text), '\w+')) AS toks
                FROM documents WHERE doc_id < 200),
            pairs AS (
                SELECT a.doc_id AS a, b.doc_id AS b FROM t a, t b
                WHERE a.doc_id < b.doc_id
                  AND len(list_intersect(a.toks, b.toks)) * 1.0 /
                      len(list_distinct(list_concat(a.toks, b.toks))) >= 0.8),
            edges AS (
                SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
                UNION SELECT doc_id, doc_id FROM t),
            reach(a, b) AS (
                SELECT a, b FROM edges
                UNION
                SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a)
            SELECT a AS doc_id, MIN(b) AS component
            FROM reach GROUP BY a ORDER BY a
        """,
        "neardup_dedup_corpus": r"""
            WITH RECURSIVE t AS (
                SELECT doc_id,
                       list_distinct(regexp_extract_all(lower(text), '\w+')) AS toks
                FROM documents WHERE doc_id < 200),
            pairs AS (
                SELECT a.doc_id AS a, b.doc_id AS b FROM t a, t b
                WHERE a.doc_id < b.doc_id
                  AND len(list_intersect(a.toks, b.toks)) * 1.0 /
                      len(list_distinct(list_concat(a.toks, b.toks))) >= 0.8),
            edges AS (
                SELECT a, b FROM pairs UNION SELECT b, a FROM pairs
                UNION SELECT doc_id, doc_id FROM t),
            reach(a, b) AS (
                SELECT a, b FROM edges
                UNION
                SELECT r.a, e.b FROM reach r JOIN edges e ON r.b = e.a),
            comp AS (
                SELECT a AS doc_id, MIN(b) AS component
                FROM reach GROUP BY a)
            SELECT d.doc_id, d.lang FROM documents d
            JOIN comp c ON d.doc_id = c.doc_id
            WHERE c.doc_id = c.component ORDER BY 1
        """,
        "fuzzy_part_matches": """
            SELECT a.p_partkey AS a, b.p_partkey AS b,
                   levenshtein(a.p_name, b.p_name)::BIGINT AS lev
            FROM part a JOIN part b
              ON a.p_brand = b.p_brand AND a.p_partkey < b.p_partkey
            WHERE levenshtein(a.p_name, b.p_name) <= 2
            ORDER BY 1, 2
        """,
        "ngram_jaccard_pairs": r"""
            WITH t AS (SELECT doc_id,
                              list_distinct(regexp_extract_all(lower(text), '\w+')) AS toks
                       FROM documents WHERE doc_id < 200)
            SELECT a.doc_id AS a, b.doc_id AS b
            FROM t a, t b
            WHERE a.doc_id < b.doc_id
              AND len(list_intersect(a.toks, b.toks)) * 1.0 /
                  len(list_distinct(list_concat(a.toks, b.toks))) >= 0.8
            ORDER BY 1, 2
        """,
        "deterministic_sample": """
            SELECT doc_id, lang FROM documents
            WHERE substr(md5(text), 1, 1) IN ('0', '1') ORDER BY doc_id
        """,
        "dedup_exact": """
            SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text ORDER BY 1
        """,
        "dedup_incremental": f"""
            WITH fp AS (SELECT doc_id,
                               array_to_string(
                                   list_slice({_TOKENS}, 1, 3), ' ') AS fp
                        FROM documents)
            SELECT n.doc_id, MIN(c.doc_id) AS dup_of
            FROM fp n JOIN fp c ON n.fp = c.fp AND c.doc_id % 10 <> 0
            WHERE n.doc_id % 10 = 0
            GROUP BY n.doc_id ORDER BY n.doc_id
        """,
        "substring_dup_stats": r"""
            WITH toks AS (SELECT doc_id,
                                 regexp_extract_all(lower(text), '\w+') AS ts
                          FROM documents),
            grams AS (SELECT doc_id, array_to_string(ts[i:i+4], ' ') AS g
                      FROM (SELECT doc_id, ts,
                                   unnest(range(1, len(ts)-3)) AS i
                            FROM toks)),
            dup AS (SELECT g FROM grams
                    GROUP BY g HAVING COUNT(DISTINCT doc_id) >= 2)
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_grams,
                   CAST(SUM(CASE WHEN g IN (SELECT g FROM dup)
                            THEN 1 ELSE 0 END) AS BIGINT) AS n_dup,
                   ROUND(SUM(CASE WHEN g IN (SELECT g FROM dup)
                             THEN 1 ELSE 0 END) * 1.0 / COUNT(*), 4)
                       AS dup_frac
            FROM grams GROUP BY doc_id ORDER BY doc_id
        """,
        "dedup_keep_best": f"""
            SELECT doc_id, n_chars FROM (
                SELECT doc_id, n_chars,
                       ROW_NUMBER() OVER (
                           PARTITION BY array_to_string(
                               list_slice({_TOKENS}, 1, 3), ' ')
                           ORDER BY n_chars DESC, doc_id) AS rn
                FROM documents)
            WHERE rn = 1 ORDER BY doc_id
        """,
        "events_rolling_avg": """
            SELECT event_id, user_id,
                   ROUND(AVG(value) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4)
                       AS rolling_avg
            FROM events ORDER BY event_id
        """,
        "curate_documents": f"""
            WITH s AS (
                SELECT doc_id,
                    CAST(len(regexp_extract_all(text, '\\w+')) AS BIGINT) AS n_tokens,
                    CAST(len(regexp_extract_all(lower(text), '{STOP_PAT}')) AS BIGINT) AS n_stop,
                    CAST(len(regexp_extract_all(lower(text), '\\b(the|and|of|to|is)\\b')) AS BIGINT) AS s_en,
                    CAST(len(regexp_extract_all(lower(text), '\\b(der|und|die|das|ist)\\b')) AS BIGINT) AS s_de,
                    CAST(len(regexp_extract_all(lower(text), '\\b(le|la|et|les|est)\\b')) AS BIGINT) AS s_fr,
                    CAST(len(regexp_extract_all(lower(text), '\\b(el|la|de|que|es)\\b')) AS BIGINT) AS s_es,
                    array_to_string(list_slice({_TOKENS}, 1, 3), ' ') AS k
                FROM documents)
            SELECT MIN(doc_id) AS doc_id FROM s
            WHERE n_tokens BETWEEN 10 AND 1000 AND n_stop > 0
              AND s_en >= s_de AND s_en >= s_fr AND s_en >= s_es
            GROUP BY k ORDER BY 1
        """,
        "sample_per_lang": """
            SELECT lang, doc_id FROM (
                SELECT lang, doc_id,
                       ROW_NUMBER() OVER (PARTITION BY lang
                                          ORDER BY md5(text), doc_id) AS rn
                FROM documents)
            WHERE rn <= 10 ORDER BY 1, 2
        """,
        "dedup_prefix": f"""
            SELECT MIN(doc_id) AS doc_id FROM (
                SELECT doc_id,
                       array_to_string(list_slice({_TOKENS}, 1, 3), ' ') AS k
                FROM documents)
            GROUP BY k ORDER BY 1
        """,
        "embedding_neardup_pairs": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]),
                                         CAST(b.embedding AS DOUBLE[])) >= 0.35
            ORDER BY 1, 2
        """,
        "ann_topk_cosine": """
            WITH q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                       ORDER BY vec_id LIMIT 5),
                 s AS (SELECT q.qid AS query_id, e.vec_id AS neighbor_id,
                              list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                     CAST(e.embedding AS DOUBLE[])) AS sim
                       FROM q, embeddings e WHERE e.vec_id <> q.qid)
            SELECT query_id, rank, neighbor_id FROM (
                SELECT query_id, neighbor_id,
                       CAST(ROW_NUMBER() OVER (PARTITION BY query_id
                                               ORDER BY sim DESC, neighbor_id)
                            AS BIGINT) AS rank
                FROM s)
            WHERE rank <= 10 ORDER BY query_id, rank
        """,
        # one-sided oracles: the Ray side returns INVARIANT VIOLATIONS
        # (recomputed with independent arithmetic) and must match the
        # empty set — a real driver-recorded subset/accuracy assertion
        # for operators whose full output is not SQL-expressible
        "embedding_lsh_precision_violations": """
            SELECT CAST(NULL AS BIGINT) AS a, CAST(NULL AS BIGINT) AS b
            WHERE FALSE
        """,
        "ann_lsh_rank_violations": """
            SELECT CAST(NULL AS BIGINT) AS query_id,
                   CAST(NULL AS BIGINT) AS "rank"
            WHERE FALSE
        """,
        "hll_accuracy_violations": """
            SELECT CAST(NULL AS VARCHAR) AS event_type WHERE FALSE
        """,
        "pca_violations": """
            SELECT CAST(NULL AS VARCHAR) AS check,
                   CAST(NULL AS DOUBLE) AS err WHERE FALSE
        """,
        "simhash_consistency_violations": """
            SELECT CAST(NULL AS BIGINT) AS doc_id WHERE FALSE
        """,
        "minhash_precision_violations": """
            SELECT CAST(NULL AS BIGINT) AS a, CAST(NULL AS BIGINT) AS b
            WHERE FALSE
        """,
        "ann_ivf_recall_violations": """
            SELECT CAST(NULL AS VARCHAR) AS metric,
                   CAST(NULL AS DOUBLE) AS value
            WHERE FALSE
        """,
        "phash_pair_violations": """
            SELECT CAST(NULL AS VARCHAR) AS a, CAST(NULL AS VARCHAR) AS b
            WHERE FALSE
        """,
        "lm_perplexity_consistency_violations": """
            SELECT CAST(NULL AS BIGINT) AS doc_id WHERE FALSE
        """,
        "quantile_sketch_violations": """
            SELECT CAST(NULL AS DOUBLE) AS q, CAST(NULL AS DOUBLE) AS est
            WHERE FALSE
        """,
        "ann_pq_recall_violations": """
            SELECT CAST(NULL AS VARCHAR) AS metric,
                   CAST(NULL AS DOUBLE) AS value
            WHERE FALSE
        """,
        "ivf_index_violations": """
            SELECT CAST(NULL AS BIGINT) AS vec_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "training_dataset_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "audio_feature_violations": """
            SELECT CAST(NULL AS VARCHAR) AS audio_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "video_sampling_violations": """
            SELECT CAST(NULL AS VARCHAR) AS video_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_resize_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "contamination_bloom_violations": """
            SELECT CAST(NULL AS BIGINT) AS doc_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "cms_accuracy_violations": """
            SELECT CAST(NULL AS VARCHAR) AS token,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "bpe_encode_violations": """
            SELECT CAST(NULL AS BIGINT) AS doc_id WHERE FALSE
        """,
        "image_dedup_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "crawl_reachability_violations": """
            SELECT CAST(NULL AS VARCHAR) AS url,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "kmeans_violations": """
            SELECT CAST(NULL AS BIGINT) AS cluster,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "bpe_merges_violations": """
            SELECT CAST(NULL AS BIGINT) AS rank,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "conformance_order_violations": """
            SELECT CAST(NULL AS BIGINT) AS seq,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "crawl_host_counts_violations": """
            SELECT CAST(NULL AS VARCHAR) AS host,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "politeness_violations": """
            SELECT CAST(NULL AS VARCHAR) AS url,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "frontier_budget_violations": """
            SELECT CAST(NULL AS VARCHAR) AS host,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_validate_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "recrawl_violations": """
            SELECT CAST(NULL AS VARCHAR) AS url,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "curate_images_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_channel_stats_violations": """
            SELECT CAST(NULL AS VARCHAR) AS channel,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_aspect_buckets_violations": """
            SELECT CAST(NULL AS BIGINT) AS bucket,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_model_score_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "caption_alignment_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "image_sharpness_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "retrieval_eval_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "pair_curation_violations": """
            SELECT CAST(NULL AS VARCHAR) AS image_id,
                   CAST(NULL AS VARCHAR) AS kind
            WHERE FALSE
        """,
        "chunk_documents": """
            -- chunk i covers characters [i*80, i*80+100): stride 80 =
            -- size 100 - overlap 20; 1 + max(ceil((L-100)/80), 0)
            -- chunks per doc = minimum covering count (empty doc emits
            -- one empty chunk; (L-21)//80 = floor((L-100+79)/80))
            WITH c AS (
                SELECT doc_id,
                       CAST(UNNEST(range(0,
                            GREATEST((length(text) - 21) // 80, 0) + 1))
                            AS BIGINT) AS chunk_id,
                       text
                FROM documents)
            SELECT doc_id, chunk_id,
                   substring(text, CAST(chunk_id * 80 + 1 AS INT),
                             100) AS chunk,
                   CAST(length(substring(text,
                        CAST(chunk_id * 80 + 1 AS INT), 100))
                        AS BIGINT) AS n_chars
            FROM c ORDER BY doc_id, chunk_id
        """,
        "char_entropy": """
            WITH ch AS (SELECT doc_id, unnest(string_split(text, '')) AS c
                        FROM documents),
            f AS (SELECT doc_id, c, count(*) AS cnt FROM ch GROUP BY 1, 2),
            tot AS (SELECT doc_id, length(text) AS n FROM documents),
            e AS (SELECT f.doc_id,
                         -SUM((cnt::DOUBLE / n) * log2(cnt::DOUBLE / n))
                             AS ent
                  FROM f JOIN tot USING (doc_id) GROUP BY f.doc_id)
            SELECT d.doc_id, ROUND(COALESCE(e.ent, 0.0), 4) AS entropy
            FROM documents d LEFT JOIN e USING (doc_id) ORDER BY d.doc_id
        """,
        "events_ntile": """
            SELECT event_id, user_id,
                   CAST(NTILE(4) OVER (PARTITION BY user_id
                                       ORDER BY value, event_id)
                        AS BIGINT) AS tile
            FROM events ORDER BY event_id
        """,
        # RRF fusion of the two retrieval legs' oracles: the lexical
        # CTE chain is keyword_search_bm25's oracle (LIMIT 50), the
        # vector CTE is ann_topk_cosine's with the single smallest
        # vec_id as query; fused score = 1/(60+r_lex) + 1/(60+r_vec)
        # summed in the same term order as the Ray side
        "hybrid_search_rrf": r"""
            WITH arr AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(text),
                           '\W+'), x -> x <> '') AS a
                FROM documents),
            toks AS (SELECT doc_id, unnest(a) AS w FROM arr),
            dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
            stats AS (SELECT (SELECT count(*) FROM documents) AS n,
                             (SELECT sum(dl) * 1.0
                              / (SELECT count(*) FROM documents)
                              FROM dl) AS avgdl),
            tf AS (SELECT doc_id, w, count(*) AS tf FROM toks
                   WHERE w IN ('merge', 'window', 'scan')
                   GROUP BY doc_id, w),
            df AS (SELECT w, count(*) AS df FROM tf GROUP BY w),
            sc AS (
                SELECT tf.doc_id,
                       SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75
                                             + 0.75 * dl.dl / stats.avgdl))
                           ) AS s
                FROM tf JOIN df USING (w)
                        JOIN dl ON tf.doc_id = dl.doc_id
                        CROSS JOIN stats
                GROUP BY tf.doc_id),
            lex AS (SELECT doc_id, CAST(ROW_NUMBER() OVER (
                        ORDER BY s DESC, doc_id) AS BIGINT) AS r
                    FROM sc ORDER BY s DESC, doc_id LIMIT 50),
            q AS (SELECT vec_id AS qid, embedding AS qe FROM embeddings
                  ORDER BY vec_id LIMIT 1),
            sim AS (SELECT e.vec_id AS doc_id,
                           list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                               CAST(e.embedding AS DOUBLE[])) AS sim
                    FROM q, embeddings e WHERE e.vec_id <> q.qid),
            vec AS (SELECT doc_id, CAST(ROW_NUMBER() OVER (
                        ORDER BY sim DESC, doc_id) AS BIGINT) AS r
                    FROM sim ORDER BY sim DESC, doc_id LIMIT 50),
            fused AS (
                SELECT COALESCE(lex.doc_id, vec.doc_id) AS doc_id,
                       COALESCE(1.0 / (60 + lex.r), 0.0)
                       + COALESCE(1.0 / (60 + vec.r), 0.0) AS score
                FROM lex FULL OUTER JOIN vec USING (doc_id))
            SELECT CAST(ROW_NUMBER() OVER (ORDER BY score DESC, doc_id)
                        AS BIGINT) AS "rank",
                   doc_id, ROUND(score, 4) AS rrf
            FROM fused ORDER BY score DESC, doc_id LIMIT 20
        """,
        "events_pivot": """
            SELECT user_id,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'click')
                        AS BIGINT) AS n_click,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'error')
                        AS BIGINT) AS n_error,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'purchase')
                        AS BIGINT) AS n_purchase,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'signup')
                        AS BIGINT) AS n_signup,
                   CAST(COUNT(*) FILTER (WHERE event_type = 'view')
                        AS BIGINT) AS n_view
            FROM events GROUP BY user_id ORDER BY user_id
        """,
        "user_funnel": """
            WITH v AS (SELECT user_id,
                              min(ts) FILTER (WHERE event_type = 'view')
                                  AS t1
                       FROM events GROUP BY user_id),
            c AS (SELECT e.user_id, min(e.ts) AS t2
                  FROM events e JOIN v USING (user_id)
                  WHERE e.event_type = 'click' AND v.t1 IS NOT NULL
                        AND e.ts > v.t1
                  GROUP BY e.user_id),
            p AS (SELECT e.user_id, min(e.ts) AS t3
                  FROM events e JOIN c USING (user_id)
                  WHERE e.event_type = 'purchase' AND e.ts > c.t2
                  GROUP BY e.user_id)
            SELECT stage, n_users FROM (
                SELECT 'view' AS stage, CAST(count(*) FILTER (
                           WHERE t1 IS NOT NULL) AS BIGINT) AS n_users, 0 AS o
                FROM v
                UNION ALL
                SELECT 'click', CAST(count(*) AS BIGINT), 1 FROM c
                UNION ALL
                SELECT 'purchase', CAST(count(*) AS BIGINT), 2 FROM p)
            ORDER BY o
        """,
        "retention_cohorts": """
            WITH w AS (SELECT user_id,
                              epoch_us(ts) // 604800000000 AS week
                       FROM events),
            u AS (SELECT user_id, week,
                         min(week) OVER (PARTITION BY user_id)
                             AS cohort_week
                  FROM w)
            SELECT cohort_week,
                   week - cohort_week AS week_offset,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM u GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_percent_rank": """
            SELECT event_id, user_id,
                   ROUND(PERCENT_RANK() OVER (PARTITION BY user_id
                                              ORDER BY value), 4)
                       AS pct_rank,
                   ROUND(CUME_DIST() OVER (PARTITION BY user_id
                                           ORDER BY value), 4)
                       AS cume_dist
            FROM events ORDER BY event_id
        """,
        "events_hourly_anomalies": """
            WITH c AS (SELECT event_type,
                              date_trunc('hour', ts) AS hour,
                              CAST(count(*) AS BIGINT) AS n
                       FROM events GROUP BY 1, 2),
            s AS (SELECT event_type,
                         avg(n) AS mu, stddev_samp(n) AS sd,
                         count(*) AS hours
                  FROM c GROUP BY event_type)
            SELECT c.event_type, c.hour, c.n,
                   ROUND((c.n - s.mu) / s.sd, 4) AS zscore
            FROM c JOIN s USING (event_type)
            WHERE s.hours >= 2 AND s.sd > 0
              AND abs((c.n - s.mu) / s.sd) > 2.0
            ORDER BY c.event_type, c.hour
        """,
        "user_modal_event_type": """
            SELECT user_id, event_type, cnt FROM (
                SELECT user_id, event_type, count(*) AS cnt,
                       ROW_NUMBER() OVER (PARTITION BY user_id
                                          ORDER BY count(*) DESC,
                                                   event_type) AS rn
                FROM events GROUP BY user_id, event_type)
            WHERE rn = 1 ORDER BY user_id
        """,
        # SemDeDup within precomputed clusters: removal = EXISTS a
        # smaller-id same-cluster vector within the cosine threshold —
        # the anti-join shape, so the full output is SQL-expressible
        "semantic_dedup": """
            SELECT CAST(a.vec_id AS BIGINT) AS vec_id,
                   CAST(a.label AS BIGINT) AS label
            FROM embeddings a
            WHERE NOT EXISTS (
                SELECT 1 FROM embeddings b
                WHERE b.label = a.label AND b.vec_id < a.vec_id
                  AND list_cosine_similarity(
                          CAST(a.embedding AS DOUBLE[]),
                          CAST(b.embedding AS DOUBLE[])) >= 0.30)
            ORDER BY vec_id
        """,
        # the Bloom twin shares the exact gate's oracle: superset-only
        # by contract, but at these gram counts the 2^22-bit filter's
        # analytic FP rate is ~1e-8 per gram and the fixed-key hashing
        # is deterministic — verified 0 false positives at sf0.001/
        # 0.01/0.1; contamination_bloom_violations guards the general
        # no-false-negative + bounded-FP invariant independently
        "contamination_check_bloom": r"""
            WITH tok AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '\w+') AS toks
                FROM documents),
            grams AS (
                SELECT doc_id, array_to_string(toks[i:i+3], ' ') AS g
                FROM (SELECT doc_id, toks,
                             unnest(range(1, len(toks)-2)) AS i FROM tok)),
            test AS (SELECT DISTINCT g FROM grams WHERE doc_id % 10 = 0)
            SELECT DISTINCT doc_id FROM grams
            WHERE doc_id % 10 <> 0 AND g IN (SELECT g FROM test)
            ORDER BY doc_id
        """,
        "centroid_by_label": """
            WITH e AS (SELECT label, unnest(embedding) AS v,
                              generate_subscripts(embedding, 1) AS i
                       FROM embeddings)
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(i AS BIGINT) AS dim,
                   ROUND(AVG(CAST(v AS DOUBLE)), 4) AS mean_v
            FROM e GROUP BY label, i ORDER BY label, i
        """,
        "corpus_shuffle_shards": """
            SELECT doc_id, CAST(doc_id % 8 AS BIGINT) AS shard,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY doc_id % 8
                       ORDER BY md5(text), doc_id) - 1 AS BIGINT) AS pos
            FROM documents ORDER BY doc_id
        """,
        "train_val_test_split": """
            SELECT doc_id, lang,
                   CASE WHEN substr(md5(text), 1, 1) BETWEEN '0' AND 'b'
                            THEN 'train'
                        WHEN substr(md5(text), 1, 1) IN ('c', 'd')
                            THEN 'val'
                        ELSE 'test' END AS split
            FROM documents ORDER BY doc_id
        """,
        "boilerplate_segments": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '\\w+') AS ts
                FROM documents),
            gidx AS (
                SELECT doc_id, ts,
                       unnest(generate_series(
                           0, CAST(len(ts) // 3 AS BIGINT) - 1)) AS g
                FROM toks),
            segs AS (
                SELECT doc_id,
                       array_to_string(ts[(g*3+1):(g*3+3)], ' ') AS k
                FROM gidx),
            dfq AS (SELECT k, count(DISTINCT doc_id) AS nd
                    FROM segs GROUP BY k),
            boiler AS (SELECT k FROM dfq WHERE nd >= 3),
            tot AS (SELECT doc_id, count(*) AS n_segments
                    FROM segs GROUP BY doc_id),
            nb AS (SELECT s.doc_id, count(*) AS n_boiler
                   FROM segs s JOIN boiler b ON s.k = b.k
                   GROUP BY s.doc_id)
            SELECT d.doc_id,
                   COALESCE(t.n_segments, 0) AS n_segments,
                   COALESCE(nb.n_boiler, 0) AS n_boiler
            FROM documents d
            LEFT JOIN tot t USING (doc_id)
            LEFT JOIN nb USING (doc_id)
            ORDER BY doc_id
        """,
        "winnowing_fingerprints": """
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '\\w+') AS ts
                FROM documents),
            pos AS (SELECT doc_id, ts,
                           unnest(generate_series(1, len(ts) - 2)) AS i
                    FROM toks),
            grams AS (
                SELECT doc_id, i,
                       md5(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS h,
                       len(ts) - 2 AS ng
                FROM pos),
            wmin AS (
                SELECT doc_id, i, ng,
                       MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                                    ROWS BETWEEN CURRENT ROW
                                    AND 3 FOLLOWING) AS fp
                FROM grams)
            SELECT DISTINCT doc_id, fp FROM wmin WHERE i <= ng - 3
            ORDER BY doc_id, fp
        """,
        "score_documents_model": """
            WITH feats AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(lower(text), '\\w+'))
                            AS DOUBLE) AS n_tokens,
                       CAST(length(text) AS DOUBLE) AS n_chars,
                       CAST(len(regexp_extract_all(lower(text),
                            '\\b(the|a|and|of|to|in|is|for)\\b'))
                            AS DOUBLE) AS n_stop
                FROM documents),
            z AS (
                SELECT doc_id,
                       -2.0 + 0.01 * n_tokens + 0.002 * n_chars
                       + 3.0 * (n_stop / greatest(1.0, n_tokens)) AS z
                FROM feats)
            SELECT doc_id,
                   ROUND(1.0 / (1.0 + exp(-z)), 4) AS score,
                   ROUND(1.0 / (1.0 + exp(-z)), 4) >= 0.5 AS keep
            FROM z ORDER BY doc_id
        """,
        "winnowing_neardup_pairs": r"""
            WITH toks AS (
                SELECT doc_id,
                       regexp_extract_all(lower(text), '\w+') AS ts
                FROM documents),
            pos AS (SELECT doc_id, ts,
                           unnest(generate_series(1, len(ts) - 2)) AS i
                    FROM toks),
            grams AS (
                SELECT doc_id, i,
                       md5(ts[i] || ' ' || ts[i+1] || ' ' || ts[i+2]) AS h,
                       len(ts) - 2 AS ng
                FROM pos),
            wmin AS (
                SELECT doc_id, i, ng,
                       MIN(h) OVER (PARTITION BY doc_id ORDER BY i
                                    ROWS BETWEEN CURRENT ROW
                                    AND 3 FOLLOWING) AS fp
                FROM grams),
            wfp AS (SELECT DISTINCT doc_id, fp FROM wmin
                    WHERE i <= ng - 3),
            dfq AS (SELECT fp, count(*) AS df FROM wfp GROUP BY fp),
            p AS (SELECT a.doc_id AS a, b.doc_id AS b,
                         count(*) AS n_shared
                  FROM wfp a JOIN wfp b
                       ON a.fp = b.fp AND a.doc_id < b.doc_id
                  WHERE a.fp IN (SELECT fp FROM dfq
                                 WHERE df BETWEEN 2 AND 16)
                  GROUP BY 1, 2)
            SELECT a, b, n_shared::BIGINT AS n_shared
            FROM p WHERE n_shared >= 2 ORDER BY a, b
        """,
        "pii_redact": r"""
            WITH s0 AS (SELECT doc_id, source || ': ' || text AS t0
                        FROM documents),
            s1 AS (SELECT doc_id,
              length(regexp_extract_all(t0,
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}')) AS c1,
              regexp_replace(t0,
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}',
                '[PII]', 'g') AS t1 FROM s0),
            s2 AS (SELECT doc_id, c1,
              length(regexp_extract_all(t1, '\+?\d[\d -]{7,}\d')) AS c2,
              regexp_replace(t1, '\+?\d[\d -]{7,}\d', '[PII]', 'g') AS t2
              FROM s1),
            s3 AS (SELECT doc_id, c1, c2,
              length(regexp_extract_all(t2,
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b')) AS c3,
              regexp_replace(t2, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                '[PII]', 'g') AS t3 FROM s2),
            s4 AS (SELECT doc_id, c1, c2, c3,
              length(regexp_extract_all(t3, '\bsrc\d+\b')) AS c4,
              regexp_replace(t3, '\bsrc\d+\b', '[PII]', 'g') AS t4
              FROM s3)
            SELECT doc_id, t4 AS clean_text,
                   (c1 + c2 + c3 + c4)::BIGINT AS n_redacted
            FROM s4 ORDER BY doc_id
        """,
        "repetition_scores": r"""
            WITH arr AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(text),
                           '\W+'), x -> x <> '') AS a
                FROM documents),
            toks AS (SELECT doc_id, unnest(a) AS w,
                            generate_subscripts(a, 1) AS i FROM arr),
            big AS (
                SELECT doc_id,
                       w || ' ' || lead(w) OVER (PARTITION BY doc_id
                                                 ORDER BY i) AS g
                FROM toks QUALIFY g IS NOT NULL),
            cnt AS (SELECT doc_id, g, count(*) AS c
                    FROM big GROUP BY doc_id, g)
            SELECT doc_id,
                   SUM(c)::BIGINT AS n_bigrams,
                   MAX(c)::BIGINT AS max_bigram_n,
                   ROUND(MAX(c) * 1.0 / SUM(c), 4) AS top_bigram_frac,
                   ROUND((SUM(c) - COUNT(*)) * 1.0 / SUM(c), 4)
                       AS dup_bigram_frac
            FROM cnt GROUP BY doc_id ORDER BY doc_id
        """,
        "keyword_search_bm25": r"""
            WITH arr AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(lower(text),
                           '\W+'), x -> x <> '') AS a
                FROM documents),
            toks AS (SELECT doc_id, unnest(a) AS w FROM arr),
            dl AS (SELECT doc_id, count(*) AS dl FROM toks GROUP BY doc_id),
            stats AS (SELECT (SELECT count(*) FROM documents) AS n,
                             (SELECT sum(dl) * 1.0
                              / (SELECT count(*) FROM documents)
                              FROM dl) AS avgdl),
            tf AS (SELECT doc_id, w, count(*) AS tf FROM toks
                   WHERE w IN ('merge', 'window', 'scan')
                   GROUP BY doc_id, w),
            df AS (SELECT w, count(*) AS df FROM tf GROUP BY w),
            sc AS (
                SELECT tf.doc_id,
                       SUM(ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
                           * tf.tf * (1.2 + 1)
                           / (tf.tf + 1.2 * (1 - 0.75
                                             + 0.75 * dl.dl / stats.avgdl))
                           ) AS s
                FROM tf JOIN df USING (w)
                        JOIN dl ON tf.doc_id = dl.doc_id
                        CROSS JOIN stats
                GROUP BY tf.doc_id)
            SELECT doc_id, ROUND(s, 4) AS score
            FROM sc ORDER BY s DESC, doc_id LIMIT 20
        """,
        "shared_tokens_langs": r"""
            WITH t AS (
                SELECT lang,
                       unnest(list_filter(regexp_split_to_array(
                           lower(text), '\W+'), x -> x <> '')) AS tok
                FROM documents)
            SELECT tok FROM t WHERE lang = 'en'
            INTERSECT
            SELECT tok FROM t WHERE lang = 'de'
            ORDER BY tok
        """,
        "tfidf_top_terms": """
            WITH toks AS (
                SELECT doc_id,
                       unnest(regexp_extract_all(lower(text), '\\w+')) AS tok
                FROM documents),
            tf AS (SELECT doc_id, tok, count(*) AS tf
                   FROM toks GROUP BY 1, 2),
            dfq AS (SELECT tok, count(DISTINCT doc_id) AS df
                    FROM toks GROUP BY 1),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.tok, tf.tf, dfq.df,
                       ROUND(tf.tf * ln(n.n / dfq.df), 4) AS tfidf,
                       ROW_NUMBER() OVER (
                           PARTITION BY tf.doc_id
                           ORDER BY tf.tf DESC, dfq.df ASC, tf.tok ASC
                       ) AS rnk
                FROM tf JOIN dfq USING (tok), n)
            SELECT doc_id, tok, tf, df, tfidf, rnk
            FROM scored WHERE rnk <= 5 ORDER BY doc_id, rnk
        """,
        "orders_cumulative_revenue": """
            SELECT o_custkey, o_orderkey,
                   SUM(o_totalprice) OVER (PARTITION BY o_custkey
                                           ORDER BY o_orderdate, o_orderkey
                                           ROWS UNBOUNDED PRECEDING)
                       AS cum_revenue
            FROM orders ORDER BY 1, 2
        """,
        "events_windowed_p90": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY value)
                       AS p90_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(SUM(value), 4) AS sum_value
            FROM events GROUP BY 1, 2 ORDER BY 1, 2
        """,
        "events_props_stats": r"""
            WITH x AS (
                SELECT event_type,
                       TRY_CAST(NULLIF(regexp_extract(
                           props, '"k"\s*:\s*(-?\d+)', 1), '')
                           AS BIGINT) AS k
                FROM events)
            SELECT event_type, COUNT(k)::BIGINT AS n,
                   SUM(k)::BIGINT AS sum_k,
                   ROUND(AVG(k), 4) AS avg_k
            FROM x GROUP BY 1 ORDER BY 1
        """,
        "events_cube": """
            SELECT event_type, CAST(hour(ts) AS BIGINT) AS hod,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   ROUND(SUM(value), 4) AS sum_value
            FROM events
            GROUP BY CUBE(event_type, hod)
            ORDER BY event_type NULLS FIRST, hod NULLS FIRST
        """,
        "events_gap_fill": """
            WITH c AS (
                SELECT event_type, date_trunc('hour', ts) AS hour,
                       count(*) AS n
                FROM events GROUP BY 1, 2),
            b AS (SELECT event_type, min(hour) AS lo, max(hour) AS hi
                  FROM c GROUP BY 1),
            cal AS (
                SELECT b.event_type,
                       unnest(generate_series(b.lo, b.hi,
                                              INTERVAL 1 HOUR)) AS hour
                FROM b)
            SELECT cal.event_type, cal.hour,
                   COALESCE(c.n, 0)::BIGINT AS n
            FROM cal LEFT JOIN c ON cal.event_type = c.event_type
                                AND cal.hour = c.hour
            ORDER BY 1, 2
        """,
        "user_sessions": """
            WITH g AS (
                SELECT user_id, ts,
                       CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
                FROM events)
            SELECT user_id, CAST(SUM(brk) + 1 AS BIGINT) AS n_sessions,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM g GROUP BY 1 ORDER BY 1
        """,
        "streaming_user_sessions": """
            WITH g AS (
                SELECT user_id, ts,
                       CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS brk
                FROM events)
            SELECT user_id, CAST(SUM(brk) + 1 AS BIGINT) AS n_sessions,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM g GROUP BY 1 ORDER BY 1
        """,
        "user_stats": """
            SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n_events,
                   MIN(ts) AS first_ts, MAX(ts) AS last_ts
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "orders_events_range_join": """
            SELECT o_orderkey, CAST(COUNT(e.ts) AS BIGINT) AS n_events
            FROM orders o
            LEFT JOIN events e
              ON e.user_id = o.o_custkey % 150
             AND e.ts >= o.o_orderdate
             AND e.ts < o.o_orderdate + INTERVAL 7 DAY
            GROUP BY 1 ORDER BY 1
        """,
        "events_last_order": """
            SELECT e.event_id,
                   (SELECT MAX(o.o_orderkey) FROM orders o
                    WHERE o.o_custkey % 150 = e.user_id
                      AND o.o_orderdate = (
                        SELECT MAX(o2.o_orderdate) FROM orders o2
                        WHERE o2.o_custkey % 150 = e.user_id
                          AND o2.o_orderdate <= e.ts)) AS o_orderkey
            FROM events e ORDER BY e.event_id
        """,
        "event_value_median": """
            SELECT event_type,
                   ROUND(quantile_cont(value, 0.5), 4) AS median_value
            FROM events GROUP BY 1 ORDER BY 1
        """,
        "top_orders_per_customer": """
            SELECT o_custkey, o_orderkey, o_totalprice, rank FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       CAST(ROW_NUMBER() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT)
                           AS rank
                FROM orders)
            WHERE rank <= 3 ORDER BY o_custkey, rank
        """,
        "events_sliding_counts": """
            SELECT event_type, window_start, CAST(COUNT(*) AS BIGINT) AS n FROM (
                SELECT event_type,
                       date_trunc('hour', ts) - j * (INTERVAL 1 HOUR) AS window_start
                FROM events, (SELECT unnest(range(2)) AS j))
            GROUP BY 1, 2 ORDER BY 1, 2
        """,
        # minhash_lsh_pairs / simhash_signatures / ann_topk_lsh /
        # crawl_* / image_validate: non-SQL-expressible (sketches,
        # stateful scheduler, image decode) → rows-only checks; pinned
        # against brute-force/oracle equivalents in tests/.
    }
    # the all-shuffle twins compute the same relation as their
    # bucket-routed canonicals — one oracle each, shared verbatim
    for q in ("q3_shipping_priority", "q5_revenue_by_nation",
              "q7_volume_shipping", "q18_large_volume",
              "q10_returned_items", "q21_waiting_suppliers",
              "q4_order_priority", "q12_priority_by_linestatus",
              "q13_customer_distribution", "customer_order_counts",
              "q8_market_share"):
        sql[f"{q}_allshuffle"] = sql[q]
    # the persisted-inverted-index path computes the same ranking as
    # the two-pass scan — one oracle, shared verbatim
    sql["keyword_search_indexed"] = sql["keyword_search_bm25"]
    return sql
