"""One-sided oracle queries (round-2 VERDICT #10).

Sketch/LSH operators have no SQL-expressible full equality, but several
of their INVARIANTS are checkable: each query here recomputes the
invariant with independent arithmetic and returns the VIOLATING rows —
expected empty — so the driver's strict rows+schema+hash compare against
a ``WHERE FALSE`` DuckDB oracle becomes a real, recorded subset/accuracy
assertion instead of a rows-only shrug.

The recomputation paths deliberately avoid the code under test:
cosines come from a fresh float64 driver-side dot product over vectors
fetched by id, and exact distinct counts come from an Arrow group_by —
not from the LSH bucketing or HLL register code being checked.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import finish, read


def _vectors_for(sf_dir: str, ids: set[int]) -> dict[int, np.ndarray]:
    """Fetch the (few) vectors with vec_id in ``ids`` via a pruned scan —
    only matching rows reach the driver."""
    import pyarrow.compute as pc

    id_arr = pa.array(sorted(ids), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["vec_id"], value_set=id_arr))

    df = (
        read(sf_dir, "embeddings", ["vec_id", "embedding"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )
    out = {}
    for vid, emb in zip(df["vec_id"], df["embedding"]):
        v = np.asarray(emb, dtype=np.float64)
        n = np.linalg.norm(v)
        out[int(vid)] = v / (n if n else 1.0)
    return out


def embedding_lsh_precision_violations(
        sf_dir: str, threshold: float = 0.35) -> pd.DataFrame:
    """Every pair emitted by ``embedding_neardup_lsh`` must have exact
    float64 cosine >= threshold (LSH recall is probabilistic, PRECISION
    is exact). Returns the violating pairs — expected empty."""
    from .dedup import embedding_neardup_lsh

    pairs = embedding_neardup_lsh(sf_dir, threshold)
    if pairs.empty:
        return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                             "b": pd.Series([], dtype="int64")})
    vecs = _vectors_for(sf_dir, set(pairs["a"]) | set(pairs["b"]))
    bad_a, bad_b = [], []
    for a, b in zip(pairs["a"], pairs["b"]):
        if float(vecs[int(a)] @ vecs[int(b)]) < threshold:
            bad_a.append(int(a))
            bad_b.append(int(b))
    return finish(pd.DataFrame({"a": pd.Series(bad_a, dtype="int64"),
                                "b": pd.Series(bad_b, dtype="int64")}),
                  ["a", "b"])


def ann_lsh_rank_violations(sf_dir: str, k: int = 10,
                            n_queries: int = 5) -> pd.DataFrame:
    """``ann_topk_lsh`` must return, per query, neighbors in strictly
    non-increasing exact-cosine order with the documented tiebreak
    (neighbor_id asc). Returns (query_id, rank) rows whose exact cosine
    exceeds the previous rank's — expected empty."""
    from .ann import ann_topk_lsh

    res = ann_topk_lsh(sf_dir, k=k, n_queries=n_queries)
    if res.empty:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64")})
    ids = set(res["query_id"]) | set(res["neighbor_id"])
    vecs = _vectors_for(sf_dir, ids)
    bad_q, bad_r = [], []
    for qid, g in res.sort_values(["query_id", "rank"]).groupby("query_id"):
        prev = None
        for _, row in g.iterrows():
            sim = float(vecs[int(qid)] @ vecs[int(row["neighbor_id"])])
            key = (-sim, int(row["neighbor_id"]))
            if prev is not None and key < prev:
                bad_q.append(int(qid))
                bad_r.append(int(row["rank"]))
            prev = key
    return finish(pd.DataFrame({"query_id": pd.Series(bad_q, dtype="int64"),
                                "rank": pd.Series(bad_r, dtype="int64")}),
                  ["query_id", "rank"])


def minhash_precision_violations(
        sf_dir: str, threshold: float = 0.5) -> pd.DataFrame:
    """Every pair emitted by ``minhash_lsh_pairs`` must have exact
    shingle-set Jaccard >= threshold (LSH banding affects recall only;
    the exact-verify stage guarantees PRECISION). Recomputed here with
    an INDEPENDENT shingler — raw 3-token string shingles via a regex
    tokenizer, no blake2b hashing, so even a hash-collision-inflated
    Jaccard in the pipeline would be caught. Returns the violating
    pairs — expected empty."""
    import re

    from .dedup import minhash_lsh_pairs

    pairs = minhash_lsh_pairs(sf_dir, threshold)
    empty = pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64")})
    if pairs.empty:
        return empty
    ids = set(pairs["a"]) | set(pairs["b"])
    id_arr = pa.array(sorted(int(i) for i in ids), pa.int64())

    def pick(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["doc_id"], value_set=id_arr))

    df = (
        read(sf_dir, "documents", ["doc_id", "text"])
        .map_batches(pick, batch_format="pyarrow")
        .to_pandas()
    )
    tok_re = re.compile(r"[a-z0-9]+")

    def shingles(text: str) -> set:
        toks = tok_re.findall(text.lower())
        if len(toks) < 3:
            return {" ".join(toks)} if toks else set()
        return {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}

    sh = {int(d): shingles(x) for d, x in zip(df["doc_id"], df["text"])}
    bad_a, bad_b = [], []
    for a, b in zip(pairs["a"], pairs["b"]):
        sa, sb = sh[int(a)], sh[int(b)]
        union = len(sa | sb)
        j = (len(sa & sb) / union) if union else 1.0
        if j < threshold:
            bad_a.append(int(a))
            bad_b.append(int(b))
    return finish(pd.DataFrame({"a": pd.Series(bad_a, dtype="int64"),
                                "b": pd.Series(bad_b, dtype="int64")}),
                  ["a", "b"])


def ann_ivf_recall_violations(sf_dir: str, k: int = 10, n_queries: int = 5,
                              floor: float = 0.3) -> pd.DataFrame:
    """IVF recall gate: overall recall@k of ``ann_topk_ivf`` against the
    exact brute-force baseline (``ann_topk_cosine`` — a disjoint code
    path: broadcast matmul partial-top-k, no index) must be >= ``floor``
    (the tests' pin for 4/16 probed cells on random vectors). Returns a
    single (metric, value) row when violated — expected empty."""
    from .ann import ann_topk_cosine, ann_topk_ivf

    exact = ann_topk_cosine(sf_dir, k=k, n_queries=n_queries)
    approx = ann_topk_ivf(sf_dir, k=k, n_queries=n_queries)
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = (len(e & a) / len(e)) if e else 1.0
    if recall >= floor:
        return pd.DataFrame({"metric": pd.Series([], dtype="str"),
                             "value": pd.Series([], dtype="float64")})
    return pd.DataFrame({"metric": ["ivf_recall_at_k"],
                         "value": [round(recall, 4)]})


def phash_pair_violations(sf_dir: str, max_hamming: int = 6) -> pd.DataFrame:
    """Every pair emitted by ``image_phash_neardup`` must (a) report the
    true hamming distance between the two images' phashes and (b) sit
    within ``max_hamming``. Recomputed independently from the crawl
    world's phash column via a driver-side popcount over a pruned
    id-filtered read. Returns the violating pairs — expected empty."""
    from ..pipelines.flagship import image_phash_neardup, world_for

    pairs = image_phash_neardup(sf_dir, max_hamming)
    empty = pd.DataFrame({"a": pd.Series([], dtype="str"),
                          "b": pd.Series([], dtype="str")})
    if pairs.empty:
        return empty
    w = world_for(sf_dir)
    import pyarrow.compute as pc

    ids = sorted(set(pairs["a"]) | set(pairs["b"]))
    sub = w.images.select(["image_id", "phash"]).filter(
        pc.is_in(w.images["image_id"], value_set=pa.array(ids, pa.string())))
    ph = {i: int(np.uint64(p))
          for i, p in zip(sub["image_id"].to_pylist(),
                          sub["phash"].to_numpy(zero_copy_only=False)
                          .astype(np.int64).view(np.uint64))}
    bad_a, bad_b = [], []
    for a, b, h in zip(pairs["a"], pairs["b"], pairs["hamming"]):
        d = bin(ph[a] ^ ph[b]).count("1")
        if d != int(h) or d > max_hamming:
            bad_a.append(a)
            bad_b.append(b)
    return finish(pd.DataFrame({"a": pd.Series(bad_a, dtype="str"),
                                "b": pd.Series(bad_b, dtype="str")}),
                  ["a", "b"])


def simhash_consistency_violations(sf_dir: str) -> pd.DataFrame:
    """SimHash must be a deterministic pure function of the text: two
    INDEPENDENT distributed computations (separate scans, different
    batch boundaries) must agree per doc_id — catching any batch-order,
    cache-state or dict-ordering dependence in the kernel. Returns the
    disagreeing doc_ids — expected empty."""
    import pyarrow.compute as pc

    from .common import grouped_aggregate
    from .dedup import simhash_batch

    def pass_with(batch_size):
        return read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
            simhash_batch, batch_format="pyarrow", batch_size=batch_size)

    both = pass_with(1024).union(pass_with(333))
    agged = grouped_aggregate(
        both, "doc_id", [("simhash", "min"), ("simhash", "max")])
    bad = agged.map_batches(
        lambda t: pa.table({"doc_id": t.filter(pc.not_equal(
            t["simhash_min"], t["simhash_max"]))["doc_id"]}),
        batch_format="pyarrow",
    ).to_pandas()
    if bad.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    return finish(bad.astype({"doc_id": "int64"}), ["doc_id"])


def hll_accuracy_violations(sf_dir: str,
                            max_rel_err: float = 0.08) -> pd.DataFrame:
    """HLL(p=12) distinct estimates must land within ``max_rel_err``
    (5x the 1.6% stderr) of the EXACT per-type distinct user count,
    recomputed via Arrow group_by. Returns the violating event types —
    expected empty."""
    from .sketches import hll_distinct_users_per_type

    approx = hll_distinct_users_per_type(sf_dir)

    from ray.data.aggregate import Sum

    from .common import grouped_aggregate

    def pairs(t: pa.Table) -> pa.Table:
        return t.group_by(["event_type", "user_id"],
                          use_threads=False).aggregate([])

    # exact distinct (type, user) via grouped_aggregate (user cardinality
    # grows with the corpus — nothing user-sized reaches the driver),
    # then a bounded-key count per type
    uniq = grouped_aggregate(
        read(sf_dir, "events", ["event_type", "user_id"])
        .map_batches(pairs, batch_format="pyarrow"),
        ["event_type", "user_id"], [("user_id", "count")],
    )
    exact_df = (
        uniq.map_batches(
            lambda t: t.select(["event_type"]).group_by(
                "event_type", use_threads=False).aggregate(
                [([], "count_all")]),
            batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("count_all", alias_name="n"))
        .to_pandas()
    )
    if not len(exact_df.columns):
        exact_df = pd.DataFrame({"event_type": pd.Series([], dtype="str"),
                                 "n": pd.Series([], dtype="int64")})
    exact = exact_df.set_index("event_type")["n"]
    bad = []
    for _, row in approx.iterrows():
        ex = int(exact.get(row["event_type"], 0))
        if ex == 0 or abs(row["approx_users"] - ex) / ex > max_rel_err:
            bad.append(row["event_type"])
    return finish(pd.DataFrame({"event_type": pd.Series(bad, dtype="str")}),
                  ["event_type"])


def lm_perplexity_consistency_violations(sf_dir: str) -> pd.DataFrame:
    """The hashed-bigram LM score must be a pure function of the CORPUS
    — independent of batch boundaries in both the counting pass and the
    scoring pass (the per-doc offsets/cumsum arithmetic must fully
    isolate docs that share a batch). Two complete runs at coprime
    batch sizes must agree per doc_id, and every defined score must be
    positive and finite. Returns the violating doc_ids — expected
    empty."""
    import numpy as np

    from .text import lm_perplexity_scores

    a = lm_perplexity_scores(sf_dir, batch_size=1024)
    b = lm_perplexity_scores(sf_dir, batch_size=333)
    m = a.merge(b, on="doc_id", suffixes=("_a", "_b"), how="outer")
    pa_, pb = m["perplexity_a"].to_numpy(), m["perplexity_b"].to_numpy()
    both_nan = np.isnan(pa_) & np.isnan(pb)
    disagree = ~both_nan & ~(pa_ == pb)
    bad_value = ~np.isnan(pa_) & ~((pa_ > 0) & np.isfinite(pa_))
    bad = m.loc[disagree | bad_value, ["doc_id"]]
    if bad.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    return finish(bad.astype({"doc_id": "int64"}), ["doc_id"])


def quantile_sketch_violations(sf_dir: str,
                               eps: float = 0.01) -> pd.DataFrame:
    """Every ``quantile_sketch`` estimate must be a true eps-approximate
    q-quantile: count(value < est) <= (q+eps)·N and
    count(value <= est) >= (q-eps)·N — the duplicate-safe rank window.
    Ranks are recomputed with an independent distributed pass (per-batch
    vectorized comparisons against the broadcast estimate vector, summed
    driver-side). Returns the violating quantiles — expected empty."""
    import numpy as np
    import pyarrow.compute as pcmp

    from .sketches import quantile_sketch

    est_df = quantile_sketch(sf_dir)
    empty = pd.DataFrame({"q": pd.Series([], dtype="float64"),
                          "est": pd.Series([], dtype="float64")})
    if est_df.empty:
        return empty
    ests = est_df["est"].to_numpy()

    def rank_partial(t: pa.Table) -> pa.Table:
        v = t["value"].to_numpy(zero_copy_only=False).astype(np.float64)
        lt = np.array([(v < e).sum() for e in ests], dtype=np.int64)
        le = np.array([(v <= e).sum() for e in ests], dtype=np.int64)
        return pa.table({"i": np.arange(len(ests), dtype=np.int64),
                         "lt": lt, "le": le,
                         "n": np.full(len(ests), len(v), np.int64)})

    parts = (read(sf_dir, "events", ["value"])
             .map_batches(rank_partial, batch_format="pyarrow")
             .to_pandas())
    agg = parts.groupby("i").agg(lt=("lt", "sum"), le=("le", "sum"),
                                 n=("n", "sum"))
    total = int(agg["n"].iloc[0])
    bad_q, bad_e = [], []
    for (q, e), (_, row) in zip(zip(est_df["q"], est_df["est"]),
                                agg.iterrows()):
        if row["lt"] > (q + eps) * total or row["le"] < (q - eps) * total:
            bad_q.append(float(q))
            bad_e.append(float(e))
    if not bad_q:
        return empty
    return finish(pd.DataFrame({"q": bad_q, "est": bad_e}), ["q"])


def ann_pq_recall_violations(sf_dir: str, k: int = 10, n_queries: int = 5,
                             floor: float = 0.3) -> pd.DataFrame:
    """PQ recall gate (same contract as ``ann_ivf_recall_violations``):
    recall@k of ``ann_topk_pq`` against the exact brute-force baseline
    must be >= ``floor``. Returns a single (metric, value) row when
    violated — expected empty."""
    from .ann import ann_topk_cosine, ann_topk_pq

    exact = ann_topk_cosine(sf_dir, k=k, n_queries=n_queries)
    approx = ann_topk_pq(sf_dir, k=k, n_queries=n_queries)
    e = set(zip(exact["query_id"], exact["neighbor_id"]))
    a = set(zip(approx["query_id"], approx["neighbor_id"]))
    recall = (len(e & a) / len(e)) if e else 1.0
    if recall >= floor:
        return pd.DataFrame({"metric": pd.Series([], dtype="str"),
                             "value": pd.Series([], dtype="float64")})
    return pd.DataFrame({"metric": ["pq_recall_at_k"],
                         "value": [round(recall, 4)]})

def ivf_index_violations(sf_dir: str, n_cells: int = 16,
                         kmeans_iters: int = 5,
                         seed: int = 23) -> pd.DataFrame:
    """The persisted IVF index (hive-partitioned inverted lists +
    centroids.npy — ``ann.py``) must be internally consistent:

    - every vector's recorded ``cell`` equals the nearest centroid by a
      fresh float64 argmax over the STORED centroids (catches stale or
      corrupted inverted lists that survived a cache-key collision);
    - the index holds exactly one row per corpus vector (conservation —
      catches interleaved double-builds, the round-2 ADVICE race).

    Returns (vec_id, kind) violation rows — expected empty. The assign
    recheck runs distributed over the index partitions; only per-batch
    violation rows and two scalar counts reach the driver."""
    import os

    import ray
    import ray.data as rd

    from .ann import _build_ivf_index, _index_dir, _no_embeddings
    from .common import bcast_get

    if _no_embeddings(sf_dir):
        return pd.DataFrame({"vec_id": pd.Series([], dtype="int64"),
                             "kind": pd.Series([], dtype="str")})
    idx_dir = _index_dir("ivf", sf_dir, (n_cells, kmeans_iters, seed))
    if not os.path.isdir(idx_dir):
        os.makedirs(os.path.dirname(idx_dir), exist_ok=True)
        _build_ivf_index(sf_dir, n_cells, kmeans_iters, seed, idx_dir)
    cents = np.load(os.path.join(idx_dir, "centroids.npy"))
    ref = ray.put(cents)

    def recheck(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        cents = bcast_get(ref)
        v = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        nn = np.linalg.norm(v, axis=1)
        nn[nn == 0] = 1.0
        want = np.argmax((v / nn[:, None]) @ cents.T, axis=1)
        got = pc.cast(t["cell"], pa.int64()).to_numpy(zero_copy_only=False)
        bad = got != want
        return pa.table({
            "vec_id": pa.array(
                np.asarray(t["vec_id"])[bad], pa.int64()),
            "kind": pa.array(["assign"] * int(bad.sum()), pa.string())})

    # centroids.npy lives beside the cell=*/ partitions — parquet only
    idx = rd.read_parquet(idx_dir, columns=["vec_id", "embedding", "cell"],
                          file_extensions=["parquet"])
    out = idx.map_batches(recheck, batch_format="pyarrow").to_pandas()
    out = out if len(out.columns) else pd.DataFrame(
        {"vec_id": pd.Series([], dtype="int64"),
         "kind": pd.Series([], dtype="str")})
    n_index = idx.count()
    n_corpus = read(sf_dir, "embeddings", ["vec_id"]).count()
    if n_index != n_corpus:
        out = pd.concat([out, pd.DataFrame(
            {"vec_id": [-1], "kind": ["count"]})], ignore_index=True)
    return finish(out.astype({"vec_id": "int64", "kind": "str"}),
                  ["vec_id", "kind"])


def training_dataset_violations(sf_dir: str) -> pd.DataFrame:
    """The crawl's end product (``build_training_dataset`` shards through
    the Lance-seam writer) must be a well-formed training dataset:

    - no image_id appears twice across shards (the pre-shard dedup and
      the deterministic shard assignment both failing would double-feed
      a sample to training);
    - the shards' total row count equals the manifest's sum (a silently
      dropped or double-written shard file).

    Returns (image_id, kind) violation rows — expected empty. Duplicate
    detection is a distributed ``grouped_aggregate`` count over the
    shard reads; only violating ids reach the driver."""
    import os

    from ..io import ray_read
    from ..pipelines.flagship import build_training_dataset, tier_of
    from .common import grouped_aggregate

    empty = pd.DataFrame({"image_id": pd.Series([], dtype="str"),
                          "kind": pd.Series([], dtype="str")})
    tier = tier_of(sf_dir)
    out_root = f"/tmp/doonop_out/training_{tier}_{os.getpid()}"
    # reuse shards if a prior build (stats consumer / earlier check) left
    # them in this process's out_root; the manifest only exists when WE
    # built, so the count invariant is checked on fresh builds and the
    # duplicate-id invariant always (same reuse contract as
    # training_dataset_stats)
    manifest = None
    if not os.path.isdir(out_root) or not any(
            f.startswith("shard-") for f in os.listdir(out_root)):
        manifest = build_training_dataset(sf_dir, out_root=out_root)
    if not any(f.startswith("shard-") for f in os.listdir(out_root)):
        return empty

    ids = ray_read(out_root, columns=["image_id"])
    counts = grouped_aggregate(ids, "image_id", [("image_id", "count")])
    dups = counts.map_batches(
        lambda t: (lambda f: pa.table({
            "image_id": f["image_id"],
            "kind": pa.array(["dup"] * len(f), pa.string())}))(
            t.filter(pa.compute.greater(t["image_id_count"], 1))),
        batch_format="pyarrow").to_pandas()
    out = dups if len(dups.columns) else empty.copy()
    if manifest is not None and ids.count() != int(manifest["rows"].sum()):
        out = pd.concat([out, pd.DataFrame(
            {"image_id": ["<manifest>"], "kind": ["count"]})],
            ignore_index=True)
    return finish(out.astype({"image_id": "str", "kind": "str"}),
                  ["image_id", "kind"])


def audio_feature_violations(sf_dir: str) -> pd.DataFrame:
    """The audio featurizer's outputs must satisfy invariants that are
    recomputable from the media table's METADATA alone (no decode):
    duration_s == n_samples / sample_rate (independent float64
    arithmetic), 0 <= rms <= peak <= 1 (pcm16 normalization bound),
    0 <= zcr <= 1, and exactly one output row per input clip. Returns
    (audio_id, kind) violation rows — expected empty. Tier-sized media
    tables (<= 500 clips), so the driver-side compare is O(output)."""
    from .multimodal import _tier_n, audio_features, media_table

    feats = audio_features(sf_dir).set_index("audio_id")
    meta = media_table("audio", _tier_n(sf_dir), meta_only=True).select(
        ["audio_id", "sample_rate", "n_samples"]).to_pandas()
    bad_id, bad_kind = [], []
    if feats.index.has_duplicates or len(feats) != len(meta):
        bad_id.append("<cardinality>")
        bad_kind.append("rows")
        # keep the per-clip scan scalar-safe under the very violation it
        # just reported (duplicate ids make .loc return a frame)
        feats = feats[~feats.index.duplicated(keep="first")]
    for _, m in meta.iterrows():
        aid = m["audio_id"]
        if aid not in feats.index:
            bad_id.append(aid)
            bad_kind.append("missing")
            continue
        f = feats.loc[aid]
        exp_dur = round(float(m["n_samples"]) / float(m["sample_rate"]), 6)
        if abs(f["duration_s"] - exp_dur) > 1e-9:
            bad_id.append(aid)
            bad_kind.append("duration")
        if not (0.0 <= f["rms"] <= f["peak"] <= 1.0):
            bad_id.append(aid)
            bad_kind.append("amplitude")
        if not (0.0 <= f["zcr"] <= 1.0):
            bad_id.append(aid)
            bad_kind.append("zcr")
    return finish(pd.DataFrame({
        "audio_id": pd.Series(bad_id, dtype="str"),
        "kind": pd.Series(bad_kind, dtype="str")}), ["audio_id", "kind"])


def video_sampling_violations(sf_dir: str) -> pd.DataFrame:
    """The frame sampler must emit EXACTLY the frames
    range(0, n_frames, every) per clip — recomputed here from the media
    table's n_frames metadata, not from the sampler — with channel
    means inside [0, 255]. Returns (video_id, kind) violation rows —
    expected empty."""
    from .multimodal import (VIDEO_SAMPLE_EVERY, _video_n, media_table,
                             video_frame_means)

    got = video_frame_means(sf_dir)
    meta = media_table("video", _video_n(sf_dir), meta_only=True).select(
        ["video_id", "n_frames"]).to_pandas()
    bad_id, bad_kind = [], []
    # a set-compare alone cannot see duplicated frame rows — guard
    # cardinality explicitly ("EXACTLY the frames" means once each)
    dup_vids = got.loc[
        got.duplicated(["video_id", "frame_idx"]), "video_id"].unique()
    for vid in dup_vids:
        bad_id.append(vid)
        bad_kind.append("dup")
    by_vid = {v: set(g["frame_idx"]) for v, g in got.groupby("video_id")}
    for _, m in meta.iterrows():
        vid = m["video_id"]
        expect = set(range(0, int(m["n_frames"]), VIDEO_SAMPLE_EVERY))
        if by_vid.pop(vid, None) != expect:
            bad_id.append(vid)
            bad_kind.append("frames")
    for vid in by_vid:  # output rows for ids not in the input
        bad_id.append(vid)
        bad_kind.append("extra")
    means = got[["mean_r", "mean_g", "mean_b"]].to_numpy()
    for vid in got.loc[((means < 0) | (means > 255)).any(axis=1),
                       "video_id"].unique():
        bad_id.append(vid)
        bad_kind.append("range")
    return finish(pd.DataFrame({
        "video_id": pd.Series(bad_id, dtype="str"),
        "kind": pd.Series(bad_kind, dtype="str")}), ["video_id", "kind"])


def image_resize_violations(sf_dir: str) -> pd.DataFrame:
    """The resize stage's reported source dims must equal the crawl
    world's image metadata (w, h) per image_id — the decode round-trip
    preserving the stored geometry — with resized channel means inside
    [0, 255] and one row per image. Returns (image_id, kind) violation
    rows — expected empty."""
    from ..pipelines.flagship import world_for
    from .multimodal import image_resize_means

    got = image_resize_means(sf_dir).set_index("image_id")
    meta = world_for(sf_dir).images.select(
        ["image_id", "w", "h"]).to_pandas().set_index("image_id")
    bad_id, bad_kind = [], []
    if got.index.has_duplicates or len(got) != len(meta):
        bad_id.append("<cardinality>")
        bad_kind.append("rows")
    joined = meta.join(got, how="left")
    dim_bad = joined[(joined["src_w"] != joined["w"])
                     | (joined["src_h"] != joined["h"])]
    for iid in dim_bad.index:
        bad_id.append(iid)
        bad_kind.append("dims")
    means = got[["mean_r", "mean_g", "mean_b"]].to_numpy()
    for iid in got.index[((means < 0) | (means > 255)).any(axis=1)]:
        bad_id.append(iid)
        bad_kind.append("range")
    return finish(pd.DataFrame({
        "image_id": pd.Series(bad_id, dtype="str"),
        "kind": pd.Series(bad_kind, dtype="str")}), ["image_id", "kind"])


def contamination_bloom_violations(sf_dir: str) -> pd.DataFrame:
    """Bloom decontamination must have NO FALSE NEGATIVES: the doc_id
    set flagged by ``contamination_check_bloom`` must be a superset of
    the exact gate's (``contamination_check``) — a Bloom filter can
    only over-flag, never under-flag. Additionally the over-flag (false
    positive) count must stay under a generous cap derived from the
    filter's analytic FP rate (10x slack + 5 absolute), so a sizing or
    hashing bug that floods the train side with spurious flags is also
    caught. Returns (doc_id, kind) violation rows — expected empty."""
    from .text import (BLOOM_BITS, BLOOM_K, contamination_check,
                       contamination_check_bloom)

    exact = set(contamination_check(sf_dir)["doc_id"])
    bloom = set(contamination_check_bloom(sf_dir)["doc_id"])
    bad_id = sorted(exact - bloom)          # false negatives: forbidden
    bad_kind = ["false_negative"] * len(bad_id)
    n_train = int(read(sf_dir, "documents", ["doc_id"]).count())
    # analytic per-gram FP rate at n <= n_train distinct grams (train
    # grams bound holdout grams); each train doc probes many grams, so
    # cap expected doc-level FPs at n_train * gram_fp * 10 + 5
    gram_fp = (1.0 - np.exp(-BLOOM_K * n_train * 64.0 / BLOOM_BITS)) \
        ** BLOOM_K
    fp = len(bloom - exact)
    if fp > n_train * gram_fp * 10 + 5:
        bad_id.append(-1)
        bad_kind.append("fp_excess")
    return finish(pd.DataFrame({
        "doc_id": pd.Series(bad_id, dtype="int64"),
        "kind": pd.Series(bad_kind, dtype="str")}), ["doc_id", "kind"])


def cms_accuracy_violations(sf_dir: str, slack: float = 3.0) -> pd.DataFrame:
    """Count-min estimates must respect BOTH sketch guarantees per
    probe token: NEVER underestimate the exact corpus frequency
    (counters only over-count, so est < exact is a hard bug), and
    overestimate by at most slack x (e/w) x N (Markov bound per row,
    min over d=4 independent rows -> violation probability
    <= (1/(slack e))^4 ~ 2e-4 per probe; deterministic given the data
    and fixed hash keys). The exact counts come from an independent
    filtered distributed scan, not from the sketch code. Returns
    (token, kind) violation rows — expected empty."""
    import pyarrow.compute as pc

    from .sketches import CMS_PROBES, CMS_W, cms_token_frequency

    got = cms_token_frequency(sf_dir).set_index("token")["est"]
    probe_arr = pa.array(sorted(CMS_PROBES), pa.string())

    def exact_partial(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t["text"])
        flat = pc.list_flatten(pc.split_pattern_regex(low, r"\W+"))
        flat = flat.filter(pc.not_equal(flat, ""))
        hits = flat.filter(pc.is_in(flat, value_set=probe_arr))
        cnt = pa.table({"token": hits}).group_by("token").aggregate(
            [([], "count_all")])
        return pa.table({
            "token": pa.concat_arrays(
                [cnt["token"].combine_chunks(),
                 pa.array(["<TOTAL>"], pa.string())]),
            "n": pa.concat_arrays(
                [cnt["count_all"].combine_chunks().cast(pa.int64()),
                 pa.array([len(flat)], pa.int64())])})

    ex = (read(sf_dir, "documents", ["text"])
          .map_batches(exact_partial, batch_format="pyarrow")
          .to_pandas().groupby("token")["n"].sum())
    n_total = int(ex.get("<TOTAL>", 0))
    bound = slack * np.e / CMS_W * n_total
    bad_tok, bad_kind = [], []
    for tok in sorted(CMS_PROBES):
        exact = int(ex.get(tok, 0))
        est = int(got[tok])
        if est < exact:
            bad_tok.append(tok)
            bad_kind.append("underestimate")
        elif est > exact + bound:
            bad_tok.append(tok)
            bad_kind.append("overestimate")
    return finish(pd.DataFrame({
        "token": pd.Series(bad_tok, dtype="str"),
        "kind": pd.Series(bad_kind, dtype="str")}), ["token", "kind"])


def bpe_encode_violations(sf_dir: str, n_merges: int = 12,
                          n_sample: int = 32) -> pd.DataFrame:
    """``bpe_encode`` computes per-doc token counts via the trained
    word→length dictionary (merges applied once to the vocabulary).
    Independent recheck: for a deterministic sample of documents,
    re-encode each doc FROM SCRATCH — greedy left-to-right application
    of the published merge rules to every word, per document, without
    the dictionary shortcut — and require identical (n_words, n_tokens);
    additionally every doc must satisfy n_tokens >= n_words (merges
    never cross word boundaries) and n_tokens <= total word chars.
    Returns violating doc_ids — expected empty."""
    import hashlib
    import re

    import pyarrow.compute as pc

    from .text import _bpe_merge_word, _bpe_train, bpe_encode

    # train ONCE and share: bpe_encode re-training the identical vocab
    # would double the corpus-sized word-count pass (review finding)
    trained = _bpe_train(sf_dir, n_merges)
    enc = bpe_encode(sf_dir, n_merges=n_merges, _trained=trained)
    merges = [(left, right) for _, left, right, _ in trained[0]]

    bad: list[int] = []
    nt = enc["n_tokens"].to_numpy()
    nw = enc["n_words"].to_numpy()
    bad.extend(enc.loc[nt < nw, "doc_id"].tolist())

    # deterministic md5-order doc sample, text fetched by id
    ranked = sorted(
        enc["doc_id"].tolist(),
        key=lambda d: hashlib.md5(str(d).encode()).hexdigest())
    sample = set(ranked[:n_sample])
    docs = read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda t: t.filter(
            pc.is_in(pc.cast(t["doc_id"], pa.int64()), value_set=pa.array(
                sorted(sample), pa.int64()))),
        batch_format="pyarrow").to_pandas()
    by_id = enc.set_index("doc_id")
    # re.ASCII: Arrow's RE2 \W is ASCII-only, so the independent
    # tokenizer must segment identically on non-ASCII words
    for doc_id, text in zip(docs["doc_id"], docs["text"]):
        words = [w for w in re.split(r"\W+", text.lower(), flags=re.ASCII)
                 if w]
        total = 0
        for w in words:
            syms = tuple(w)
            for left, right in merges:
                syms = _bpe_merge_word(syms, left, right)
            total += len(syms)
        row = by_id.loc[int(doc_id)]
        if int(row["n_words"]) != len(words) or int(row["n_tokens"]) != total:
            bad.append(int(doc_id))
        if int(row["n_tokens"]) > sum(len(w) for w in words):
            bad.append(int(doc_id))
    if not bad:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
    out = pd.DataFrame({"doc_id": sorted(set(bad))})
    return finish(out.astype({"doc_id": "int64"}), ["doc_id"])


def image_dedup_violations(sf_dir: str, max_hamming: int = 6) -> pd.DataFrame:
    """``image_dedup_corpus`` invariants, recomputed with independent
    arithmetic against the world's own phash column:

    - DEGREE: every REMOVED image must have at least one OTHER image
      within ``max_hamming`` (an image is only removed when an exact-
      verified near-dup edge connected it into a cluster) — rechecked
      by a direct chunked popcount of each removed phash against the
      full column (bounded by removed-count × corpus, vectorized);
    - CONSERVATION: survivors + removed == all images, no duplicate
      survivor ids, and every cluster_size >= 1 with
      Σ cluster_size == corpus size.

    Returns (image_id, kind) violation rows — expected empty."""
    import numpy as np

    from ..pipelines.flagship import image_dedup_corpus, world_for

    surv = image_dedup_corpus(sf_dir, max_hamming)
    w = world_for(sf_dir)
    ids = w.images.column("image_id").to_pylist()
    ph = w.images.column("phash").to_numpy().view(np.uint64)

    bad_id: list[str] = []
    bad_kind: list[str] = []
    surv_ids = list(surv["image_id"])
    if len(set(surv_ids)) != len(surv_ids):
        seen: set = set()
        for s in surv_ids:
            if s in seen:
                bad_id.append(s)
                bad_kind.append("dup_survivor")
            seen.add(s)
    # unconditional: zero survivors over a NON-empty corpus must fail
    # conservation (a `len(surv) and` guard would let total data loss
    # pass the one-sided oracle silently — review finding)
    total = int(surv["cluster_size"].sum()) if len(surv) else 0
    if total != len(ids):
        bad_id.append("_total_")
        bad_kind.append("size_conservation")
    if (surv["cluster_size"] < 1).any() or len(surv) > len(ids):
        bad_id.append("_total_")
        bad_kind.append("bad_sizes")

    surv_set = set(surv_ids)
    removed_idx = np.array(
        [i for i, s in enumerate(ids) if s not in surv_set], dtype=np.int64)
    if len(removed_idx):
        pop = np.zeros(len(removed_idx), dtype=np.int64)
        # chunked popcount: removed × corpus, vectorized via uint64 xor
        for lo in range(0, len(removed_idx), 512):
            blk = removed_idx[lo:lo + 512]
            x = ph[blk][:, None] ^ ph[None, :]
            bits = np.zeros(x.shape, dtype=np.int64)
            for shift in range(0, 64, 8):
                bits += _POPCOUNT8[(x >> np.uint64(shift))
                                   & np.uint64(0xFF)]
            bits[np.arange(len(blk)), blk] = 64  # exclude self
            pop[lo:lo + 512] = bits.min(axis=1)
        for j in np.flatnonzero(pop > max_hamming):
            bad_id.append(ids[int(removed_idx[j])])
            bad_kind.append("removed_without_neighbor")

    if not bad_id:
        return pd.DataFrame({"image_id": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"image_id": bad_id, "kind": bad_kind}),
                  ["image_id", "kind"])


_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)],
                      dtype=np.int64)


def crawl_reachability_violations(sf_dir: str) -> pd.DataFrame:
    """End-to-end integrity of the flagship ORGANIC crawl (the engine
    the reference implements — `workload.rs:92-131`): the set of URLs
    the distributed crawler visits must equal the BFS-reachable set of
    the world's link graph under the same dispatch rules, and per-URL
    fetch outcomes must match the synthetic backend's deterministic
    failure schedule.

    The reference leg is a THIRD implementation (neither the
    distributed frontier/seen-set machinery nor `oracle.run_oracle`'s
    sequential engine): a plain breadth-first expansion over the pages
    table using only the shared URL/filter/robots primitives —

    - dispatch gate: robots longest-match allow (disallowed or
      robots-fetch-error candidates are dropped silently and never
      expand — `workload.rs:92-110`);
    - expansion gate: links flow only from fetches that EVENTUALLY
      succeed under the config's retry policy (fail_mode=="timeout"
      succeeds iff fail_count < retry_count and retries are on;
      "error" pages and unknown URLs never succeed — `retry.rs:38-55`);
    - link validation: `make_absolute` + FilterSpec, the engine.rs:46-57
      rules.

    Violation kinds (expected empty):
      visited_unreachable — the crawler fetched a URL no rule chain
                            can reach (seen-set corruption / filter
                            bypass);
      reachable_unvisited — a reachable URL was never dispatched
                            (frontier loss / early shutdown);
      no_ok_visit         — an eventually-succeeding URL has no
                            status=="ok" artifact row (retry lane lost
                            the attempt);
      ok_from_failing     — an ok row for a URL the failure schedule
                            never lets succeed (attempt accounting).

    Scale note: the reference BFS and the set compare run on the
    driver over the URL universe — deliberate for a checker (the
    checks module recomputes with independent arithmetic; cf. the
    full-corpus popcount in ``image_dedup_violations``). The artifact
    aggregate (url, any_ok) is reduced distributed first; the
    production-scale crawl correctness story stays with the
    conformance set-equality tests."""
    import os

    import pyarrow.compute as pc

    import ray.data as rd

    from ..filters import FilterSpec
    from ..oracle import clean_seeds
    from ..pipelines.flagship import (_crawl_cfg, flagship_crawl, tier_of,
                                      world_for)
    from ..robots import RobotsCache, make_table_fetcher
    from ..url import host_of, make_absolute, path_of

    w = world_for(sf_dir)
    tier = tier_of(sf_dir)
    cfg = _crawl_cfg(w, tier)

    # distributed crawl into a dedicated dir (never reuse another
    # query's output — a bulk-seeded run in a shared dir would visit
    # allowed-but-unreachable pages and poison the compare)
    out_dir = f"/tmp/doonop_out/flagship_reach_{tier}_{os.getpid()}"
    flagship_crawl(sf_dir, out_dir=out_dir)

    # (url, any_ok) — per-batch C++ group_by partials, merged on the
    # driver (bounded by the URL universe, same as the reference BFS)
    def partial(t: pa.Table) -> pa.Table:
        ok = pc.cast(pc.equal(t["status"], "ok"), pa.int64())
        return (pa.table({"url": t["url"], "ok": ok})
                .group_by("url", use_threads=False)
                .aggregate([("ok", "max")]))

    parts = (rd.read_parquet(out_dir, columns=["url", "status"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    if parts.empty:
        visited: dict[str, bool] = {}
    else:
        agg = parts.groupby("url")["ok_max"].max()
        visited = {u: bool(v) for u, v in agg.items()}

    # reference BFS (independent of the crawler's frontier machinery)
    filters = FilterSpec(tuple(cfg.ignore_regexes), cfg.allow_domains)
    pages = {r["url"]: r for r in w.pages.to_pylist()}
    robots = RobotsCache(make_table_fetcher(w.robots_map()))

    def allowed(u: str) -> bool:
        if not cfg.use_robots:
            return True
        return robots.is_allowed(cfg.robot, host_of(u), path_of(u)) is True

    def ever_ok(u: str) -> bool:
        p = pages.get(u)
        if p is None:
            return False
        fm = p.get("fail_mode")
        if not fm:
            return True
        if fm == "timeout":
            return cfg.retry_policy != "no" \
                and p["fail_count"] < cfg.retry_count
        return p["fail_count"] <= 0

    reached: set[str] = set()
    frontier = [u for u in clean_seeds(cfg.seeds, filters) if allowed(u)]
    reached.update(frontier)
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            if not ever_ok(u):
                continue
            for href in pages[u]["links"]:
                a = make_absolute(u, href)
                if (a is None or a in reached or filters.is_ignored(a)
                        or not allowed(a)):
                    continue
                reached.add(a)
                nxt.append(a)
        frontier = nxt

    bad_url: list[str] = []
    bad_kind: list[str] = []
    for u in visited:
        if u not in reached:
            bad_url.append(u)
            bad_kind.append("visited_unreachable")
    for u in reached:
        if u not in visited:
            bad_url.append(u)
            bad_kind.append("reachable_unvisited")
    for u, any_ok in visited.items():
        if ever_ok(u) and not any_ok:
            bad_url.append(u)
            bad_kind.append("no_ok_visit")
        elif any_ok and not ever_ok(u):
            bad_url.append(u)
            bad_kind.append("ok_from_failing")

    if not bad_url:
        return pd.DataFrame({"url": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"url": bad_url, "kind": bad_kind}),
                  ["url", "kind"])


def kmeans_violations(sf_dir: str, k: int = 16,
                      kmeans_iters: int = 5) -> pd.DataFrame:
    """``kmeans_embeddings`` invariants, recomputed with independent
    aggregation arithmetic:

    - STATS: per-cluster (n_vectors, mean_sim) must match a fresh
      float64 assignment pass whose partials are reduced via pandas
      groupby (the query reduces via np.bincount — different kernel,
      same definition);
    - CONSERVATION: Σ n_vectors == corpus row count;
    - SIM_RANGE: every mean_sim in [-1, 1] (cosine bounds);
    - OBJECTIVE: Lloyd iterations never regress — Σ best-sim against
      the TRAINED centroids >= Σ best-sim against the deterministic
      INIT centroids (the k smallest-vec_id vectors).

    Returns (cluster, kind) violation rows — expected empty."""
    import ray

    from .ann import _kmeans_train, _no_embeddings, _queries
    from .common import bcast_get, table_rows

    empty = pd.DataFrame({"cluster": pd.Series([], dtype="int64"),
                          "kind": pd.Series([], dtype="str")})
    if _no_embeddings(sf_dir):
        return empty
    from .ann import kmeans_embeddings

    got = kmeans_embeddings(sf_dir, k, kmeans_iters)
    cents = _kmeans_train(sf_dir, k, kmeans_iters)
    _, init = _queries(sf_dir, k)
    ref = ray.put((cents, init))

    def partials(t: pa.Table) -> pa.Table:
        cents, init = bcast_get(ref)
        v = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
        nn = np.linalg.norm(v, axis=1)
        nn[nn == 0] = 1.0
        vn = v / nn[:, None]
        sims = vn @ cents.T
        cell = np.argmax(sims, axis=1)
        best = sims[np.arange(len(v)), cell]
        best0 = (vn @ init.T).max(axis=1)
        df = pd.DataFrame({"cluster": cell, "sim": best})
        g = df.groupby("cluster").agg(n=("sim", "size"),
                                      sim_sum=("sim", "sum")).reset_index()
        g["init_sum"] = 0.0
        g.loc[0, "init_sum"] = float(best0.sum()) if len(g) else 0.0
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (read(sf_dir, "embeddings", ["embedding"])
             .map_batches(partials, batch_format="pyarrow")
             .to_pandas())
    ref_stats = parts.groupby("cluster").agg(
        n=("n", "sum"), sim_sum=("sim_sum", "sum")).reset_index()
    init_total = float(parts["init_sum"].sum())
    trained_total = float(ref_stats["sim_sum"].sum())

    from .common import r4

    bad_c: list[int] = []
    bad_k: list[str] = []
    n_total = table_rows(sf_dir, "embeddings")
    if int(got["n_vectors"].sum()) != n_total:
        bad_c.append(-1)
        bad_k.append("conservation")
    if len(got) and (got["mean_sim"].abs() > 1.0 + 1e-9).any():
        bad_c.append(-1)
        bad_k.append("sim_range")
    if trained_total < init_total - 1e-6 * max(1.0, abs(init_total)):
        bad_c.append(-1)
        bad_k.append("objective_regressed")
    want = {int(r["cluster"]): (int(r["n"]),
                                float(np.asarray(
                                    r4(r["sim_sum"] / r["n"])).reshape(())))
            for _, r in ref_stats.iterrows() if r["n"] > 0}
    have = {int(r["cluster"]): (int(r["n_vectors"]), float(r["mean_sim"]))
            for _, r in got.iterrows()}
    for c in sorted(set(want) | set(have)):
        if want.get(c) != have.get(c):
            bad_c.append(c)
            bad_k.append("stats_mismatch")
    if not bad_c:
        return pd.DataFrame({"cluster": pd.Series([], dtype="int64"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"cluster": np.asarray(bad_c, dtype="int64"),
                                "kind": bad_k}), ["cluster", "kind"])


def bpe_merges_violations(sf_dir: str, n_merges: int = 12) -> pd.DataFrame:
    """``bpe_merges`` merge-table invariants:

    - RANK0: the first merge must be the corpus's true most-frequent
      adjacent character pair under the documented tie-break
      (max count, then lexicographically smallest pair) — rechecked by
      an INDEPENDENT distributed pair-count pass that never builds the
      word dictionary (per-batch python pair counting over the batch's
      distinct words -> grouped_aggregate sum -> argmin over
      (-count, left, right));
    - MONOTONE: merge counts are non-increasing by rank (merging the
      max-count pair can only create pairs with count <= it, and only
      ever decreases existing pair counts);
    - DERIVABLE: every merge's left/right symbol is a single character
      or the concatenation produced by an earlier merge.

    Returns (rank, kind) violation rows — expected empty."""
    from .common import grouped_aggregate
    from .text import _doc_tokens, bpe_merges

    merges = bpe_merges(sf_dir, n_merges)
    bad_r: list[int] = []
    bad_k: list[str] = []

    counts = merges["count"].tolist()
    for i in range(1, len(counts)):
        if counts[i] > counts[i - 1]:
            bad_r.append(int(merges["rank"].iloc[i]))
            bad_k.append("count_increased")

    symbols: set[str] = set()
    for _, row in merges.iterrows():
        for side in (row["left"], row["right"]):
            if len(side) > 1 and side not in symbols:
                bad_r.append(int(row["rank"]))
                bad_k.append("symbol_underivable")
        symbols.add(row["left"] + row["right"])

    if len(merges):
        def pair_partial(t: pa.Table) -> pa.Table:
            flat, _ = _doc_tokens(t)
            wc = (pa.table({"w": flat}).group_by("w", use_threads=False)
                  .aggregate([([], "count_all")]))
            pcounts: dict[tuple[str, str], int] = {}
            for w, c in zip(wc.column("w").to_pylist(),
                            wc.column("count_all").to_pylist()):
                for i in range(len(w) - 1):
                    p = (w[i], w[i + 1])
                    pcounts[p] = pcounts.get(p, 0) + c
            ls, rs, cs = [], [], []
            for (l, r), c in pcounts.items():
                ls.append(l)
                rs.append(r)
                cs.append(c)
            return pa.table({"pair": pa.array(
                [a + "\x00" + b for a, b in zip(ls, rs)]),
                "c": pa.array(cs, pa.int64())})

        pairs = grouped_aggregate(
            read(sf_dir, "documents", ["text"])
            .map_batches(pair_partial, batch_format="pyarrow"),
            "pair", [("c", "sum")]).to_pandas()
        if pairs.empty:
            bad_r.append(0)
            bad_k.append("rank0_not_max")
        else:
            split = pairs["pair"].str.split("\x00", n=1, expand=True)
            pairs = pairs.assign(left=split[0], right=split[1])
            pairs = pairs.sort_values(
                ["c_sum", "left", "right"],
                ascending=[False, True, True], kind="mergesort")
            top = pairs.iloc[0]
            r0 = merges.iloc[0]
            if (r0["left"], r0["right"], int(r0["count"])) != \
                    (top["left"], top["right"], int(top["c_sum"])):
                bad_r.append(0)
                bad_k.append("rank0_not_max")

    if not bad_r:
        return pd.DataFrame({"rank": pd.Series([], dtype="int64"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"rank": np.asarray(bad_r, dtype="int64"),
                                "kind": bad_k}), ["rank", "kind"])


def conformance_order_violations(sf_dir: str) -> pd.DataFrame:
    """``conformance_order`` must be byte-identical, POSITION BY
    POSITION, to the sequential oracle engine's visit order
    (`oracle.run_oracle` — a from-scratch reimplementation of the
    reference's j=1 loop, `lib.rs:117-134`, sharing no operator classes
    with `run_conformance`).  The tests pin this equality per world;
    this query makes the same two-implementation compare
    driver-visible.

    Violation kinds (expected empty):
      length_mismatch — the two engines visited different URL counts
                        (seq = both lengths, one row each);
      order_mismatch  — position ``seq`` holds different URLs.

    Scale note: conformance mode is single-in-flight BY DEFINITION
    (the reference's deterministic j=1 order) and pinned at the tiny
    tier — this checker is test infrastructure, not a scale path."""
    from ..oracle import run_oracle
    from ..pipelines.flagship import _crawl_cfg, conformance_order, world_for

    got = conformance_order(sf_dir)["url"].tolist()

    w = world_for("sf0.001")  # the query pins the tiny tier; mirror it
    cfg = _crawl_cfg(w, "0.001")
    want = run_oracle(cfg, w.pages_by_url(), w.robots_map()).order

    bad_s: list[int] = []
    bad_k: list[str] = []
    if len(got) != len(want):
        bad_s.extend([len(got), len(want)])
        bad_k.extend(["length_mismatch", "length_mismatch"])
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            bad_s.append(i)
            bad_k.append("order_mismatch")
    if not bad_s:
        return pd.DataFrame({"seq": pd.Series([], dtype="int64"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"seq": np.asarray(bad_s, dtype="int64"),
                                "kind": bad_k}), ["seq", "kind"])


def crawl_host_counts_violations(sf_dir: str) -> pd.DataFrame:
    """``crawl_host_counts`` invariants, recomputed with independent
    kernels over the SAME artifact directory the query aggregated:

    - STATS: per-host (n_visits, n_ok) must match a fresh scan whose
      host extraction is pandas ``str.extract`` and whose reduce is
      pandas groupby partials merged on the driver (the query uses
      pyarrow ``extract_regex`` + Ray's hash-shuffle groupby — same
      definition, disjoint code);
    - CONSERVATION: Σ n_visits == the directory's parquet-metadata row
      count (read from file footers, no data scan);
    - OK_BOUND: 0 <= n_ok <= n_visits per host;
    - KNOWN_HOST: every host names a host of the synthetic world's
      page table (a crawler can never fetch outside the world).

    Returns (host, kind) violation rows — expected empty."""
    import os

    import pyarrow.dataset as pads

    import ray.data as rd

    from ..pipelines.flagship import crawl_host_counts, tier_of, world_for
    from ..url import host_of

    got = crawl_host_counts(sf_dir)
    tier = tier_of(sf_dir)
    out_dir = f"/tmp/doonop_out/flagship_{tier}_{os.getpid()}"

    def partial(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        df["host"] = df["url"].str.extract(r"^https?://([^/]+)/")[0]
        df["ok"] = (df["status"] == "ok").astype("int64")
        g = df.groupby("host").agg(n=("ok", "size"),
                                   n_ok=("ok", "sum")).reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    parts = (rd.read_parquet(out_dir, columns=["url", "status"])
             .map_batches(partial, batch_format="pyarrow")
             .to_pandas())
    if parts.empty:
        want: dict[str, tuple[int, int]] = {}
    else:
        agg = parts.groupby("host").agg(n=("n", "sum"),
                                        n_ok=("n_ok", "sum"))
        want = {h: (int(r["n"]), int(r["n_ok"])) for h, r in agg.iterrows()}

    total_rows = pads.dataset(out_dir, format="parquet").count_rows()
    world_hosts = {host_of(u)
                   for u in world_for(sf_dir).pages.column("url").to_pylist()}

    have = {str(r["host"]): (int(r["n_visits"]), int(r["n_ok"]))
            for _, r in got.iterrows()}
    bad_h: list[str] = []
    bad_k: list[str] = []
    for h in sorted(set(want) | set(have)):
        if want.get(h) != have.get(h):
            bad_h.append(h)
            bad_k.append("stats_mismatch")
    if int(got["n_visits"].sum()) != total_rows:
        bad_h.append("")
        bad_k.append("conservation")
    for _, r in got.iterrows():
        if not (0 <= r["n_ok"] <= r["n_visits"]):
            bad_h.append(str(r["host"]))
            bad_k.append("ok_bound")
        if r["host"] not in world_hosts:
            bad_h.append(str(r["host"]))
            bad_k.append("unknown_host")
    if not bad_h:
        return pd.DataFrame({"host": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"host": bad_h, "kind": bad_k}),
                  ["host", "kind"])


def politeness_violations(sf_dir: str) -> pd.DataFrame:
    """The north_rule's politeness contract: per-host token buckets
    RESCHEDULE over-cap URLs, they never drop or invent work.  So a
    politeness-throttled flagship crawl and an unrestricted one over the
    same world must visit the SAME URL set with the SAME per-URL
    eventual outcome (any attempt succeeded, yes/no) — only the
    interleaving may differ.

    Violation kinds (expected empty):
      dropped_by_politeness — the free crawl visited it, polite never did;
      extra_visit           — the polite crawl visited a URL the free
                              crawl can't reach;
      outcome_mismatch      — both visited it but disagree on whether
                              any attempt returned ok.

    Both crawls write dedicated /tmp dirs; the compare reduces each
    artifact table to (url, any_ok) maps bounded by the URL universe."""
    import os

    from ..pipelines.flagship import crawl_polite, flagship_crawl, tier_of

    tier = tier_of(sf_dir)
    free = flagship_crawl(
        sf_dir, out_dir=f"/tmp/doonop_out/polcheck_free_{tier}_{os.getpid()}")
    polite = crawl_polite(sf_dir)

    def any_ok(df: pd.DataFrame) -> dict[str, bool]:
        if df.empty:
            return {}
        return (df["status"] == "ok").groupby(df["url"]).max().to_dict()

    f, p = any_ok(free), any_ok(polite)
    bad_u: list[str] = []
    bad_k: list[str] = []
    for u in f:
        if u not in p:
            bad_u.append(u)
            bad_k.append("dropped_by_politeness")
    for u in p:
        if u not in f:
            bad_u.append(u)
            bad_k.append("extra_visit")
        elif p[u] != f[u]:
            bad_u.append(u)
            bad_k.append("outcome_mismatch")
    if not bad_u:
        return pd.DataFrame({"url": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"url": bad_u, "kind": bad_k}),
                  ["url", "kind"])


def frontier_budget_violations(sf_dir: str, per_host_budget: int = 64,
                               salt_k: int = 8) -> pd.DataFrame:
    """``frontier_host_budgets`` (the salted wave-expansion shuffle)
    rechecked against a from-scratch driver-side expansion that never
    salts and never shuffles — a single python pass over the world's
    page table using only the shared URL primitives:

    - COUNTS: per-host candidate counts must match exactly (salting +
      two-level merge is a pure refactoring of one global count);
    - BUDGET_RULE: budget == min(n_candidates, per_host_budget);
    - SORT_ORDER: rows descend by n_candidates with host ascending as
      the tie-break.

    Scale note: the reference expansion is driver-side over the page
    table — deliberate for a checker at test tiers; the distributed
    path under test is the salted groupby itself."""
    from ..pipelines.flagship import frontier_host_budgets, world_for
    from ..url import host_of, make_absolute

    got = frontier_host_budgets(sf_dir, per_host_budget, salt_k)

    w = world_for(sf_dir)
    counts: dict[str, int] = {}
    for base, ls in zip(w.pages.column("url").to_pylist(),
                        w.pages.column("links").to_pylist()):
        for href in ls:
            a = make_absolute(base, href)
            if a is None:
                continue
            h = host_of(a)
            if h:
                counts[h] = counts.get(h, 0) + 1

    have = {str(r["host"]): int(r["n_candidates"])
            for _, r in got.iterrows()}
    bad_h: list[str] = []
    bad_k: list[str] = []
    for h in sorted(set(counts) | set(have)):
        if counts.get(h) != have.get(h):
            bad_h.append(h)
            bad_k.append("counts_mismatch")
    for _, r in got.iterrows():
        if int(r["budget"]) != min(int(r["n_candidates"]), per_host_budget):
            bad_h.append(str(r["host"]))
            bad_k.append("budget_rule")
    keys = list(zip(-got["n_candidates"].astype(int), got["host"]))
    for i in range(1, len(keys)):
        if keys[i] < keys[i - 1]:
            bad_h.append(str(got["host"].iloc[i]))
            bad_k.append("sort_order")
    if not bad_h:
        return pd.DataFrame({"host": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"host": bad_h, "kind": bad_k}),
                  ["host", "kind"])


def image_validate_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``image_validate`` (the Ray decode+validate slice) rechecked two
    ways:

    - ID_SET / DUP_ID: exactly one output row per world image_id;
    - SAMPLE: for a deterministic stride-sample of ``sample`` ids, a
      DRIVER-side recompute — raw ``codec.decode_image`` + fresh truth
      pixels/caption from ``synth`` — must reproduce caption_ok,
      pixel_ok, fmt, and psnr_db bit-for-bit (the query's path goes
      through the Validator actor's zero-copy blob-view machinery; this
      leg slices blobs from the Arrow table directly).

    Returns (image_id, kind) violation rows — expected empty."""
    from ..codec import decode_image, psnr
    from ..pipelines.flagship import image_validate, world_for
    from ..synth import expected_caption, expected_pixels

    got = image_validate(sf_dir)
    w = world_for(sf_dir)

    bad_i: list[str] = []
    bad_k: list[str] = []
    world_ids = w.images.column("image_id").to_pylist()
    out_ids = got["image_id"].tolist()
    if len(out_ids) != len(set(out_ids)):
        dups = pd.Series(out_ids)
        for i in sorted(dups[dups.duplicated()].unique()):
            bad_i.append(i)
            bad_k.append("dup_id")
    for i in sorted(set(world_ids) ^ set(out_ids)):
        bad_i.append(i)
        bad_k.append("id_set_mismatch")

    ids_sorted = sorted(world_ids)
    step = max(1, len(ids_sorted) // sample)
    picked = set(ids_sorted[::step][:sample])
    import pyarrow.compute as pcmp

    pick_arr = pa.array(sorted(picked), pa.string())
    meta = {r["image_id"]: r for r in w.images.filter(
        pcmp.is_in(w.images.column("image_id"), value_set=pick_arr)
    ).to_pylist()}
    sub = got[got["image_id"].isin(picked)]
    rows = {r["image_id"]: r for _, r in sub.iterrows()}
    for iid in sorted(picked):
        m, r = meta.get(iid), rows.get(iid)
        if m is None or r is None:
            continue  # already flagged by id_set_mismatch
        pix = decode_image(m["bytes"], m["fmt"])
        truth = expected_pixels(iid, w.params.seed,
                                w.params.img_min, w.params.img_max)
        p = psnr(truth, pix)
        p = p if np.isfinite(p) else 999.0
        ok_pix = p >= 40.0
        ok_cap = m["caption"] == expected_caption(iid, w.params.seed)
        if (r["fmt"], bool(r["caption_ok"]), bool(r["pixel_ok"])) != \
                (m["fmt"], ok_cap, ok_pix) or r["psnr_db"] != p:
            bad_i.append(iid)
            bad_k.append("sample_mismatch")

    if not bad_i:
        return pd.DataFrame({"image_id": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"image_id": bad_i, "kind": bad_k}),
                  ["image_id", "kind"])


def recrawl_violations(sf_dir: str) -> pd.DataFrame:
    """The incremental-recrawl contract, driver-visible: a COMPLETED
    flagship crawl writes a final checkpoint, and ``resume=True`` with
    the same seed list warm-starts from it — the re-pushed seeds dedup
    against the restored seen set, so the resumed run must add NOTHING:
    identical visited set, identical artifacts, identical final stats.
    (The widened-seed expansion variant is pinned in
    ``tests/test_sources_extras.py`` on a crafted world with
    disconnected seed subtrees; the tier worlds are fully cross-linked,
    so any seed subset reaches everything and a widened resume would be
    vacuous here.)

    Violation kinds (expected empty):
      missing_after_resume — a URL of the original run is absent after
                             the resume (checkpoint lost artifacts);
      extra_after_resume   — the resume visited something new (seen-set
                             under-restore / double seeding);
      stats_mismatch       — final counters differ (url='').

    One crawl + one resume at the tier's scale; artifact sets reduce to
    per-URL presence (bounded by the URL universe, same budget as
    ``crawl_reachability_violations``)."""
    import os

    import pyarrow.dataset as pads

    from ..pipelines.crawler import RayCrawler
    from ..pipelines.flagship import (_crawl_cfg, _refs_for, tier_of,
                                      world_for)

    tier = tier_of(sf_dir)
    w = world_for(sf_dir)
    pages_ref, images_ref = _refs_for(tier, w)
    base = f"/tmp/doonop_out/recrawl_{tier}_{os.getpid()}"

    def mk() -> RayCrawler:
        cfg = _crawl_cfg(w, tier)
        cfg.checkpoint_dir = f"{base}/ck"
        return RayCrawler(cfg, w.pages, w.images, w.robots_map(),
                          f"{base}/out", world_seed=w.params.seed,
                          img_bounds=(w.params.img_min, w.params.img_max),
                          pages_ref=pages_ref, images_ref=images_ref)

    def visited(out_dir: str) -> set[str]:
        try:
            ds = pads.dataset(out_dir, format="parquet")
        except FileNotFoundError:
            return set()
        return set(ds.to_table(columns=["url"])["url"].to_pylist())

    with mk() as first:
        first_stats = first.run().as_dict()
    first_set = visited(first.out_dir)

    with mk() as again:
        again_stats = again.run(resume=True).as_dict()
    again_set = visited(again.out_dir)

    bad_u: list[str] = []
    bad_k: list[str] = []
    for u in sorted(first_set - again_set):
        bad_u.append(u)
        bad_k.append("missing_after_resume")
    for u in sorted(again_set - first_set):
        bad_u.append(u)
        bad_k.append("extra_after_resume")
    if again_stats != first_stats:
        bad_u.append("")
        bad_k.append("stats_mismatch")

    if not bad_u:
        return pd.DataFrame({"url": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"url": bad_u, "kind": bad_k}),
                  ["url", "kind"])


def curate_images_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``curate_images`` invariants:

    - ID_SET / DUP_ID: exactly one row per world image_id;
    - RULE: every row's keep flag must equal the documented thresholds
      applied to that row's OWN emitted features (vectorized recheck
      over the full output — catches a drifted gate);
    - SAMPLE: for a deterministic stride-sample, a DRIVER-side decode
      (raw ``codec.decode_image`` straight off the Arrow table, not the
      actor's blob-view machinery) must reproduce brightness/contrast/
      aspect/min_side bit-for-bit;
    - MIX: at least one kept AND one rejected image (world sizes span
      16-40 px against the MIN_SIDE=20 gate; an all-true or all-false
      gate means the rule went vacuous).

    Returns (image_id, kind) violation rows — expected empty."""
    from ..codec import decode_image
    from ..ops.multimodal import ImageCurator, curate_images
    from ..pipelines.flagship import world_for

    got = curate_images(sf_dir)
    w = world_for(sf_dir)

    bad_i: list[str] = []
    bad_k: list[str] = []
    world_ids = w.images.column("image_id").to_pylist()
    out_ids = got["image_id"].tolist()
    dups = pd.Series(out_ids)
    for i in sorted(dups[dups.duplicated()].unique()):
        bad_i.append(i)
        bad_k.append("dup_id")
    for i in sorted(set(world_ids) ^ set(out_ids)):
        bad_i.append(i)
        bad_k.append("id_set_mismatch")

    C = ImageCurator
    rule = ((got["brightness"] >= C.BRIGHT_LO)
            & (got["brightness"] <= C.BRIGHT_HI)
            & (got["contrast"] >= C.CONTRAST_MIN)
            & (got["min_side"] >= C.MIN_SIDE))
    for i in sorted(got["image_id"][rule != got["keep"]]):
        bad_i.append(i)
        bad_k.append("rule_mismatch")
    if len(got) and (got["keep"].all() or not got["keep"].any()):
        bad_i.append("")
        bad_k.append("gate_vacuous")

    ids_sorted = sorted(world_ids)
    step = max(1, len(ids_sorted) // sample)
    picked = set(ids_sorted[::step][:sample])
    import pyarrow.compute as pcmp

    pick_arr = pa.array(sorted(picked), pa.string())
    meta = {r["image_id"]: r for r in w.images.filter(
        pcmp.is_in(w.images.column("image_id"), value_set=pick_arr)
    ).to_pylist()}
    rows = {r["image_id"]: r
            for _, r in got[got["image_id"].isin(picked)].iterrows()}
    for iid in sorted(picked):
        m, r = meta.get(iid), rows.get(iid)
        if m is None or r is None:
            continue  # already flagged by id_set_mismatch
        b, c, a, ms, k = C.stats_of(decode_image(m["bytes"], m["fmt"]))
        if (r["brightness"], r["contrast"], r["aspect"],
                int(r["min_side"]), bool(r["keep"])) != (b, c, a, ms, k):
            bad_i.append(iid)
            bad_k.append("sample_mismatch")

    if not bad_i:
        return pd.DataFrame({"image_id": pd.Series([], dtype="str"),
                             "kind": pd.Series([], dtype="str")})
    return finish(pd.DataFrame({"image_id": bad_i, "kind": bad_k}),
                  ["image_id", "kind"])


def pca_violations(sf_dir: str, k: int = 4,
                   tol: float = 1e-8) -> pd.DataFrame:
    """Integrity of ``pca_embeddings``: recompute the moment partials
    with a DIFFERENT per-batch accumulation order (batch-layout
    invariance) and assert, in independent float64 arithmetic —

    - ``order``: eigenvalues non-increasing;
    - ``orthonormal``: ‖VᵀV − I‖∞ within tol;
    - ``eigenpair``: ‖C·vᵢ − λᵢ·vᵢ‖∞ within tol per reported component;
    - ``trace``: Σ all eigenvalues == trace(C) (relative tol);
    - ``invariance``: reported eigvals match the reversed-accumulation
      recomputation (relative tol).

    Violating rows (expected none) carry the check name and the
    measured error."""
    from .ann import _no_embeddings, _pca_eig, _pca_partials

    rows: list[dict] = []
    if not _no_embeddings(sf_dir):
        got = _pca_eig(sf_dir)
        alt = _pca_eig(sf_dir, reverse_blocks=True)
        if got[0] is not None:
            evals, evecs, total = got
            d = len(evals)

            def add(check, err, limit):
                if not (err <= limit):
                    rows.append({"check": check, "err": float(err)})

            add("order", float(np.max(np.diff(evals), initial=-np.inf)),
                tol)
            add("orthonormal",
                float(np.max(np.abs(evecs.T @ evecs - np.eye(d)))), tol)
            # rebuild C from the SAME eig basis is circular — recompute
            # C from the independent reversed-accumulation partials
            n2, sx2, xtx2 = _pca_partials(sf_dir, reverse_blocks=True)
            mean2 = sx2 / n2
            cov2 = (xtx2 - n2 * np.outer(mean2, mean2)) / (n2 - 1)
            scale = max(1.0, float(np.max(np.abs(evals))))
            for i in range(min(k, d)):
                add(f"eigenpair_{i}",
                    float(np.max(np.abs(cov2 @ evecs[:, i]
                                        - evals[i] * evecs[:, i]))),
                    1e-6 * scale)
            add("trace",
                abs(float(np.sum(evals)) - float(np.trace(cov2)))
                / max(1e-12, abs(float(np.trace(cov2)))), 1e-9)
            if alt[0] is not None:
                add("invariance",
                    float(np.max(np.abs(evals - alt[0])))
                    / max(1e-12, scale), 1e-9)
    out = pd.DataFrame(rows, columns=["check", "err"])
    out["check"] = out["check"].astype("str")
    out["err"] = out["err"].astype("float64")
    return finish(out, ["check"])


def image_channel_stats_violations(sf_dir: str) -> pd.DataFrame:
    """``image_channel_stats`` rechecked by a fully INDEPENDENT driver
    recompute. The query's per-channel sums are exact int64 integers
    (uint8 pixels), so a correct result is bit-identical regardless of
    batch boundaries or merge order — this check decodes every image
    sequentially (sorted by image_id, raw ``codec.decode_image``, plain
    Python-int accumulation; none of the actor-pool blob-view or Ray
    aggregate machinery) and demands EXACT equality on n_pixels / min /
    max and r4-equality on mean/std (identical integer sums ⇒ identical
    derived floats). n_pixels is additionally cross-checked against the
    world's metadata Σ(w·h) — a third, decode-free source of truth.
    Returns (channel, kind) violation rows — expected empty."""
    from ..codec import decode_image
    from ..ops.multimodal import image_channel_stats
    from ..pipelines.flagship import world_for
    from .common import r4

    got = image_channel_stats(sf_dir)
    w = world_for(sf_dir)

    bad_c: list[str] = []
    bad_k: list[str] = []

    tab = w.images.select(["image_id", "bytes", "fmt", "w", "h"])
    order = np.argsort(
        np.asarray(tab.column("image_id").to_pylist(), dtype=object),
        kind="stable")
    n = [0, 0, 0]
    s = [0, 0, 0]
    ss = [0, 0, 0]
    mn = [255, 255, 255]
    mx = [0, 0, 0]
    blobs = tab.column("bytes")
    fmts = tab.column("fmt").to_pylist()
    for j in order:
        pix = decode_image(blobs[int(j)].as_buffer(), fmts[int(j)])
        flat = pix.reshape(-1, 3)
        for c in range(3):
            col = flat[:, c]
            n[c] += col.size
            s[c] += int(col.sum(dtype=np.int64))
            ss[c] += int((col.astype(np.int64) ** 2).sum())
            if col.size:
                mn[c] = min(mn[c], int(col.min()))
                mx[c] = max(mx[c], int(col.max()))

    meta_pixels = int(np.multiply(
        tab.column("w").to_numpy(zero_copy_only=False).astype(np.int64),
        tab.column("h").to_numpy(zero_copy_only=False).astype(np.int64),
    ).sum()) if tab.num_rows else 0

    want_rows = {}
    if tab.num_rows:
        import math

        for c, name in enumerate(["r", "g", "b"]):
            # same exact-integer-ratio formulas as the op (s/n and
            # (ss*n - s*s)/(n*n) are correctly-rounded at any size, so
            # equality is bitwise) — but accumulated by an independent
            # sequential pass
            mean = s[c] / n[c]
            var = (ss[c] * n[c] - s[c] * s[c]) / (n[c] * n[c])
            want_rows[name] = dict(
                n_pixels=n[c], mean=float(r4(mean)),
                std=float(r4(math.sqrt(max(var, 0.0)))),
                px_min=mn[c], px_max=mx[c])

    got_ch = got["channel"].tolist()
    for name in sorted({c for c in got_ch if got_ch.count(c) > 1}):
        bad_c.append(name)
        bad_k.append("dup_channel")
    got_rows = {r["channel"]: r for _, r in got.iterrows()}
    for name in sorted(set(want_rows) | set(got_rows)):
        wr, gr = want_rows.get(name), got_rows.get(name)
        if wr is None or gr is None:
            bad_c.append(name)
            bad_k.append("channel_set")
            continue
        if int(gr["n_pixels"]) != wr["n_pixels"] or \
                int(gr["n_pixels"]) != meta_pixels:
            bad_c.append(name)
            bad_k.append("n_pixels")
        if int(gr["px_min"]) != wr["px_min"] or \
                int(gr["px_max"]) != wr["px_max"]:
            bad_c.append(name)
            bad_k.append("min_max")
        if float(gr["mean"]) != wr["mean"] or float(gr["std"]) != wr["std"]:
            bad_c.append(name)
            bad_k.append("moments")
    return finish(pd.DataFrame({
        "channel": pd.Series(bad_c, dtype="str"),
        "kind": pd.Series(bad_k, dtype="str")}), ["channel", "kind"])


def image_aspect_buckets_violations(sf_dir: str) -> pd.DataFrame:
    """``image_aspect_buckets`` rechecked against an independent scalar
    recompute over the world metadata: per-image nearest-log-ratio
    assignment with plain ``math`` (no numpy broadcasting, no bincount),
    then exact per-bucket counts / total pixels, conservation
    (Σ n_images == corpus size), and mean_aspect within one rounding ulp
    (float sums commute only approximately; counts and pixel totals are
    exact integers). Returns (bucket, kind) violation rows — expected
    empty."""
    import math

    from ..ops.multimodal import ASPECT_BUCKETS, image_aspect_buckets
    from ..pipelines.flagship import world_for

    got = image_aspect_buckets(sf_dir)
    w = world_for(sf_dir)
    meta = w.images.select(["w", "h"]).to_pandas()

    logs = [math.log(b) for b in ASPECT_BUCKETS]
    cnt = [0] * len(ASPECT_BUCKETS)
    px = [0] * len(ASPECT_BUCKETS)
    sa = [0.0] * len(ASPECT_BUCKETS)
    for ww, hh in zip(meta["w"].tolist(), meta["h"].tolist()):
        a = math.log(ww / hh)
        best, bd = 0, abs(a - logs[0])
        for i in range(1, len(logs)):
            d = abs(a - logs[i])
            if d < bd:  # strict: ties stay at the smaller index
                best, bd = i, d
        cnt[best] += 1
        px[best] += int(ww) * int(hh)
        sa[best] += ww / hh

    bad_b: list[int] = []
    bad_k: list[str] = []
    got_b = [int(b) for b in got["bucket"].tolist()]
    for b in sorted({x for x in got_b if got_b.count(x) > 1}):
        bad_b.append(b)
        bad_k.append("dup_bucket")
    for b in sorted({x for x in got_b
                     if not 0 <= x < len(ASPECT_BUCKETS)}):
        bad_b.append(b)
        bad_k.append("bucket_range")
    got_rows = {int(r["bucket"]): r for _, r in got.iterrows()}
    for b in range(len(ASPECT_BUCKETS)):
        gr = got_rows.get(b)
        if cnt[b] == 0:
            if gr is not None:
                bad_b.append(b)
                bad_k.append("spurious_bucket")
            continue
        if gr is None:
            bad_b.append(b)
            bad_k.append("missing_bucket")
            continue
        if int(gr["n_images"]) != cnt[b] or int(gr["total_pixels"]) != px[b]:
            bad_b.append(b)
            bad_k.append("counts")
        if abs(float(gr["mean_aspect"]) - sa[b] / cnt[b]) > 1e-4 + 1e-9:
            bad_b.append(b)
            bad_k.append("mean_aspect")
    if int(got["n_images"].sum()) != int(meta.shape[0]):
        bad_b.append(-1)
        bad_k.append("conservation")
    return finish(pd.DataFrame({
        "bucket": pd.Series(bad_b, dtype="int64"),
        "kind": pd.Series(bad_k, dtype="str")}), ["bucket", "kind"])


def _per_image_gate_violations(sf_dir: str, query_fn, val_cols: list[str],
                               within_fn, recompute_fn,
                               sample: int = 64) -> pd.DataFrame:
    """Shared core for the per-image feature-gate checks
    (``score_images_model`` / ``caption_image_alignment`` /
    ``image_sharpness``), rechecking three ways:

    - coverage: exactly one row per world image (DUP_ID /
      ID_SET_MISMATCH);
    - consistency: ``within_fn(got) -> bool array`` must hold per row
      (RANGE_OR_KEEP). Callers express it POSITIVELY
      (``(x >= lo) & (x <= hi) & ...``) so a NaN feature fails the
      comparison and is flagged — never write the negated form, which
      NaN slips through;
    - recompute: for a deterministic stride-sample, a DRIVER-side
      recompute — raw ``codec.decode_image`` over table-sliced blobs +
      the op's shared feature arithmetic via
      ``recompute_fn(world_row) -> tuple`` — must reproduce every r4
      ``val_cols`` value bit-for-bit (RECOMPUTE_<col>, one row per
      mismatching column so triage names the gate that drifted; a NaN
      on either side flags, since NaN != NaN). The query's path goes
      through the per-worker cached blob-view machinery and broadcast
      state; the feature arithmetic is shared by contract, the decode
      path, metadata sourcing and coverage accounting are independent.
      Duplicate-id outputs compare on the first occurrence (the dup is
      already flagged by coverage) instead of crashing.

    Returns (image_id, kind) violation rows — expected empty."""
    from ..pipelines.flagship import world_for

    got = query_fn(sf_dir)
    w = world_for(sf_dir)

    bad_i: list[str] = []
    bad_k: list[str] = []
    world_ids = w.images.column("image_id").to_pylist()
    out_ids = got["image_id"].tolist()
    if len(out_ids) != len(set(out_ids)):
        dups = pd.Series(out_ids)
        for i in sorted(dups[dups.duplicated()].unique()):
            bad_i.append(i)
            bad_k.append("dup_id")
    for i in sorted(set(world_ids) ^ set(out_ids)):
        bad_i.append(i)
        bad_k.append("id_set_mismatch")

    ok = np.asarray(within_fn(got), bool)
    for i in sorted(np.asarray(got["image_id"])[~ok]):
        bad_i.append(i)
        bad_k.append("range_or_keep")

    from ..ops.multimodal import _retrieval_sample

    picked = _retrieval_sample(w, sample)
    import pyarrow.compute as pcmp

    pick_arr = pa.array(picked, pa.string())
    sub = w.images.filter(
        pcmp.is_in(w.images.column("image_id"), value_set=pick_arr))
    want = {r["image_id"]: tuple(float(v) for v in recompute_fn(r))
            for r in sub.to_pylist()}
    # vectorized pre-trim to the sampled ids before the per-row tuple
    # build — `got` is corpus-sized, `picked` is <= sample rows
    sub_got = got.loc[got["image_id"].isin(picked), ["image_id", *val_cols]]
    have: dict[str, tuple] = {}
    for tup in sub_got.itertuples(index=False):
        have.setdefault(tup[0], tuple(float(v) for v in tup[1:]))
    for iid in picked:
        if iid in have and have[iid] != want[iid]:
            for col, h, wv in zip(val_cols, have[iid], want[iid]):
                if h != wv:
                    bad_i.append(iid)
                    bad_k.append(f"recompute_{col}")
    return finish(pd.DataFrame({
        "image_id": pd.Series(bad_i, dtype="str"),
        "kind": pd.Series(bad_k, dtype="str")}), ["image_id", "kind"])


def image_model_score_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``score_images_model`` through ``_per_image_gate_violations``:
    coverage, score in [0, 1] with keep == (score >= 0.5), stride-sample
    bit-exact recompute of the shared forward pass."""
    from ..codec import decode_image
    from ..ops.multimodal import (_IMG_MODEL_SIZE, ImageModelScorer,
                                  image_model_weights, score_images_model)
    from .common import r4

    bias, wv = image_model_weights()

    def within(got):
        sc = got["score"].to_numpy(np.float64)
        keep = got["keep"].to_numpy()
        return (sc >= 0.0) & (sc <= 1.0) & (keep == (sc >= 0.5))

    def recompute(r):
        pix = decode_image(r["bytes"], r["fmt"])
        return (r4(ImageModelScorer.score_of(
            pix, bias, wv, _IMG_MODEL_SIZE)),)

    return _per_image_gate_violations(
        sf_dir, score_images_model, ["score"], within, recompute, sample)


def caption_alignment_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``caption_image_alignment`` through
    ``_per_image_gate_violations``: coverage, alignment in [-1, 1] with
    keep == (alignment >= ALIGN_KEEP_MIN), stride-sample bit-exact
    recompute of the shared dual-encoder forward (the check sources the
    caption from the raw world row, not the broadcast table)."""
    from ..codec import decode_image
    from ..ops.multimodal import (ALIGN_KEEP_MIN, CaptionAlignmentScorer,
                                  alignment_proj, caption_image_alignment)
    from .common import r4

    proj = alignment_proj()

    def within(got):
        sc = got["alignment"].to_numpy(np.float64)
        keep = got["keep"].to_numpy()
        return (sc >= -1.0) & (sc <= 1.0) & (keep == (sc >= ALIGN_KEEP_MIN))

    def recompute(r):
        pix = decode_image(r["bytes"], r["fmt"])
        return (r4(CaptionAlignmentScorer.alignment_of(
            pix, r["caption"], proj)),)

    return _per_image_gate_violations(
        sf_dir, caption_image_alignment, ["alignment"], within, recompute,
        sample)


def image_sharpness_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``image_sharpness`` through ``_per_image_gate_violations``:
    coverage, sharpness >= 0 and edge_ratio in [0, 1] with
    keep == (sharpness >= SHARP_KEEP_MIN), stride-sample bit-exact
    recompute of BOTH r4 features."""
    from ..codec import decode_image
    from ..ops.multimodal import (SHARP_KEEP_MIN, ImageSharpnessStage,
                                  image_sharpness)
    from .common import r4

    def within(got):
        sh = got["sharpness"].to_numpy(np.float64)
        er = got["edge_ratio"].to_numpy(np.float64)
        keep = got["keep"].to_numpy()
        return ((sh >= 0.0) & (er >= 0.0) & (er <= 1.0)
                & (keep == (sh >= SHARP_KEEP_MIN)))

    def recompute(r):
        pix = decode_image(r["bytes"], r["fmt"])
        s, e = ImageSharpnessStage.sharpness_of(pix)
        return (r4(s), r4(e))

    return _per_image_gate_violations(
        sf_dir, image_sharpness, ["sharpness", "edge_ratio"], within,
        recompute, sample)


def retrieval_eval_violations(sf_dir: str) -> pd.DataFrame:
    """``image_text_retrieval`` rechecked by a FULL independent
    driver-side recompute — feasible because the candidate pool is the
    fixed-size sample, not the corpus: re-pick the sample ids, decode
    each query image with raw ``codec.decode_image`` over table-sliced
    blobs, rebuild both towers' embeddings, and re-rank with the shared
    ``retrieval_ranks`` rule. Every (rank, hit1, hit5) row must match
    exactly, flags must be consistent with the rank, ranks must lie in
    [1, Q], and the output id set must equal the sample. Returns
    (image_id, kind) violation rows — expected empty."""
    from ..codec import decode_image
    from ..ops.multimodal import (_RETRIEVAL_Q, CaptionAlignmentScorer,
                                  _retrieval_sample, alignment_proj,
                                  image_text_retrieval, retrieval_ranks)
    from ..pipelines.flagship import world_for

    got = image_text_retrieval(sf_dir)
    w = world_for(sf_dir)
    picked = _retrieval_sample(w, _RETRIEVAL_Q)

    bad_i: list[str] = []
    bad_k: list[str] = []
    out_ids = got["image_id"].tolist()
    if len(out_ids) != len(set(out_ids)):
        dups = pd.Series(out_ids)
        for i in sorted(dups[dups.duplicated()].unique()):
            bad_i.append(i)
            bad_k.append("dup_id")
    for i in sorted(set(picked) ^ set(out_ids)):
        bad_i.append(i)
        bad_k.append("id_set_mismatch")

    q = len(picked)
    # read ranks as float so a NaN/fractional rank is FLAGGED by the
    # positive-form gate, never a conversion crash (the
    # _per_image_gate_violations NaN convention)
    rk = got["rank"].to_numpy(np.float64)
    ok = ((rk >= 1) & (rk <= max(q, 1)) & (rk == np.floor(rk))
          & (got["hit1"].to_numpy() == (rk == 1))
          & (got["hit5"].to_numpy() == (rk <= 5)))
    for i in sorted(np.asarray(got["image_id"])[~ok]):
        bad_i.append(i)
        bad_k.append("range_or_flags")

    if picked:
        import pyarrow.compute as pcmp

        pick_arr = pa.array(picked, pa.string())
        sub = w.images.filter(
            pcmp.is_in(w.images.column("image_id"), value_set=pick_arr))
        rows = {r["image_id"]: r for r in sub.to_pylist()}
        proj = alignment_proj()
        img_emb = np.stack([
            CaptionAlignmentScorer.embed_image(
                decode_image(rows[i]["bytes"], rows[i]["fmt"]), proj)
            for i in picked])
        txt_emb = np.stack([
            CaptionAlignmentScorer.embed_text(rows[i]["caption"])
            for i in picked])
        want = dict(zip(picked, retrieval_ranks(img_emb, txt_emb)))
        have: dict[str, float] = {}
        for iid, r in zip(out_ids, rk):
            have.setdefault(iid, float(r))  # NaN-safe: NaN != want flags
        for iid in picked:
            if iid in have and have[iid] != float(want[iid]):
                bad_i.append(iid)
                bad_k.append("rank")
    return finish(pd.DataFrame({
        "image_id": pd.Series(bad_i, dtype="str"),
        "kind": pd.Series(bad_k, dtype="str")}), ["image_id", "kind"])


def pair_curation_violations(sf_dir: str, sample: int = 64) -> pd.DataFrame:
    """``curate_image_text_pairs`` through
    ``_per_image_gate_violations``: coverage, every feature in range
    with keep == the shared gate conjunction over the rounded columns
    (``PairCurationStage.keep_mask``), and a stride-sample bit-exact
    recompute of ALL SEVEN fused features from raw decodes."""
    from ..codec import decode_image
    from ..ops.multimodal import (_IMG_MODEL_SIZE, CaptionAlignmentScorer,
                                  ImageCurator, ImageModelScorer,
                                  ImageSharpnessStage, PairCurationStage,
                                  alignment_proj, curate_image_text_pairs,
                                  image_model_weights)
    from .common import r4

    bias, wv = image_model_weights()
    proj = alignment_proj()
    cols = ["brightness", "contrast", "min_side", "sharpness",
            "edge_ratio", "score", "alignment"]

    def within(got):
        c = {k: got[k].to_numpy(np.float64) for k in cols}
        rng_ok = ((c["brightness"] >= 0.0) & (c["brightness"] <= 1.0)
                  & (c["contrast"] >= 0.0) & (c["min_side"] >= 1.0)
                  & (c["sharpness"] >= 0.0)
                  & (c["edge_ratio"] >= 0.0) & (c["edge_ratio"] <= 1.0)
                  & (c["score"] >= 0.0) & (c["score"] <= 1.0)
                  & (c["alignment"] >= -1.0) & (c["alignment"] <= 1.0))
        return rng_ok & (got["keep"].to_numpy()
                         == PairCurationStage.keep_mask(c))

    def recompute(r):
        pix = decode_image(r["bytes"], r["fmt"])
        b, c, _a, ms, _k = ImageCurator.stats_of(pix)
        sh, er = ImageSharpnessStage.sharpness_of(pix)
        sc = ImageModelScorer.score_of(pix, bias, wv, _IMG_MODEL_SIZE)
        al = CaptionAlignmentScorer.alignment_of(pix, r["caption"], proj)
        return tuple(r4(v) for v in (b, c, float(ms), sh, er, sc, al))

    return _per_image_gate_violations(
        sf_dir, curate_image_text_pairs, cols, within, recompute, sample)
