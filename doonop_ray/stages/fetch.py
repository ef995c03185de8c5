"""Fetch stage — the reference's Engine/Backend re-expressed as a Ray
Data actor-pool `map_batches` callable.

Reference mapping:
- engine session construction happens once per engine
  (/root/reference/src/engine_builder.rs:93-136, engine_ring.rs:32-49)
  → here: ``Fetcher.__init__`` runs once per actor (index build /
  session setup), ``__call__`` per Arrow batch;
- `Backend::search` fetches one page and harvests `<a href>` in DOM
  order (/root/reference/src/backend.rs:84-111) → here: a lookup into
  the broadcast synthetic pages table (at web scale this is the real
  HTTP/browser client; the batch contract is identical);
- link absolutize + filter (the reference's engine.rs:44-68) stays
  in Arrow for the whole batch: the ok rows' link lists are flattened
  once, ``url.make_absolute_batch`` resolves the common href shapes with
  Arrow kernels and sends every other href through the scalar
  ``make_absolute``, one filter mask drops ignored links, and the output
  ``links`` column is rebuilt from the kept links' parent rows.

Batch contract (all Arrow):
  in : url:string, attempt:int32, depth:int32
  out: url, depth:int32, status:string (ok|timeout|error),
       data:string?, links:list<string> (validated canonical),
       image_id:string?, latency_ms:int32
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..filters import FilterSpec
from ..functions.checkfile import CheckFileError
from ..url import make_absolute_batch


def apply_extractor(extractor, page_rows: pa.Table):
    """Run the per-page extraction UDF with the reference's per-URL
    error lane (workload.rs:145-148: a failed script run counts that
    page as an error and the crawl continues).

    Returns ``(values, failed)``: one extraction result (or None) per
    row, plus the row positions whose UDF raised ``CheckFileError``
    (incl. ``SideAssertError``). The whole-batch call is the fast path;
    only a failing batch pays the per-row replay. Non-CheckFileError
    exceptions (a buggy custom extractor) still propagate — silently
    erroring every page would mask the bug."""
    try:
        out = extractor(page_rows)
        vals = out.to_pylist() if hasattr(out, "to_pylist") else list(out)
        return vals, []
    except CheckFileError:
        pass
    vals, failed = [], []
    for k in range(len(page_rows)):
        try:
            one = extractor(page_rows.slice(k, 1))
            vals.append((one.to_pylist() if hasattr(one, "to_pylist")
                         else list(one))[0])
        except CheckFileError:
            vals.append(None)
            failed.append(k)
    return vals, failed


def _combined_view(t: pa.Table) -> pa.Table:
    """combine_chunks() WITHOUT the copy when every column is already a
    single chunk (the driver pre-combines before broadcast): Table/
    ChunkedArray.combine_chunks memcpys even for one chunk, which at
    workers × table-GB is a node-thrashing per-worker tax."""
    if all(c.num_chunks <= 1 for c in t.columns):
        return t
    return t.combine_chunks()


def _deref(maybe_ref):
    """Accept a plain object or a Ray ObjectRef (broadcast via ray.put)."""
    try:
        import ray

        if isinstance(maybe_ref, ray.ObjectRef):
            return ray.get(maybe_ref)
    except ImportError:
        pass
    return maybe_ref


def _list_by_parent(values: pa.Array, parent: np.ndarray,
                    n: int) -> pa.ListArray:
    """``list<string>`` column of ``n`` rows from flat values and each
    value's row (``parent`` is non-decreasing)."""
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(parent, minlength=n), out=offsets[1:])
    return pa.ListArray.from_arrays(pa.array(offsets), values)


class Fetcher:
    """Callable class for ``map_batches(Fetcher, concurrency=N, ...)``.

    ``pages`` is broadcast once with ``ray.put`` and dereferenced
    zero-copy in each actor's ``__init__`` (NOT re-shipped per batch).
    """

    def __init__(self, pages, filters: FilterSpec, extractor=None):
        # near-zero init: keep the broadcast table as-is (zero-copy from
        # the object store); batch lookups use vectorized pc.index_in +
        # take, so no per-worker python index is ever built
        import pyarrow.compute as pc

        self._pc = pc
        self.t = _combined_view(_deref(pages))
        self.urls_col = self.t.column("url")
        self.filters = filters
        # user-extension hook (reference M2/M3: per-page extraction UDF,
        # backend.rs:113-123 / :173-183): fn(page_rows: pa.Table) ->
        # pa.Array<string> replacing the per-page ``data`` value
        self.extractor = extractor

    def __call__(self, batch: pa.Table) -> pa.Table:
        pc = self._pc
        n = len(batch)
        # vectorized hash-lookup of the whole batch against the pages
        # table (null index = dead link → non-retryable error)
        idx = pc.index_in(batch.column("url"), value_set=self.urls_col)
        rows = self.t.take(idx)
        found = np.asarray(pc.is_valid(idx))

        fm_col = rows.column("fail_mode")
        is_timeout = np.asarray(
            pc.equal(fm_col, "timeout").combine_chunks().fill_null(False)
        )
        has_fail = np.asarray(
            pc.and_kleene(
                pc.is_valid(fm_col), pc.not_equal(fm_col, "")
            ).combine_chunks().fill_null(False)
        )
        under_count = np.asarray(
            pc.less(
                batch.column("attempt"),
                pc.cast(rows.column("fail_count"), pa.int32()),
            ).combine_chunks().fill_null(False)
        )
        failing = has_fail & under_count
        ok = found & ~failing
        status_np = np.where(
            ok, "ok", np.where(found & is_timeout, "timeout", "error")
        )
        ok_arr = pa.array(ok)
        null_str = pa.scalar(None, pa.string())
        datas = pc.if_else(ok_arr, rows.column("data").combine_chunks(), null_str)
        image_ids = pc.if_else(
            ok_arr, rows.column("image_id").combine_chunks(), null_str
        )
        latency = pc.fill_null(
            pc.cast(rows.column("latency_ms"), pa.int32()), 1
        )

        # absolutize the OK rows' links as one flat Arrow column (fast
        # path for canonical and root-relative hrefs, scalar
        # make_absolute for the rest), then one filter mask
        # (engine.rs:51-57: drop unparseable, drop if any filter ignores)
        ok_idx = np.flatnonzero(ok)
        ok_take = pa.array(ok_idx)
        ok_urls = batch.column("url").take(ok_take)
        page_links = rows.column("links").take(ok_take).combine_chunks()
        absd = make_absolute_batch(ok_urls, page_links)
        parent = ok_idx[np.asarray(pc.list_parent_indices(page_links))]
        valid = np.asarray(absd.is_valid())
        absd, parent = absd.filter(pa.array(valid)), parent[valid]
        if len(absd):
            keep = ~self.filters.ignored_mask(absd)
            absd, parent = absd.filter(pa.array(keep)), parent[keep]
        links = _list_by_parent(absd, parent, n)

        if self.extractor is not None and ok.any():
            page_rows = pa.table(
                {
                    "url": ok_urls,
                    "data": pc.take(datas, ok_take),
                    "links": links.take(ok_take),
                    "image_id": pc.take(image_ids, ok_take),
                }
            )
            ex_list, failed = apply_extractor(self.extractor, page_rows)
            new_datas = datas.to_pylist() if hasattr(datas, "to_pylist") else list(datas)
            for k, i in enumerate(ok_idx):
                new_datas[i] = ex_list[k]
            if failed:
                # failed script ⇒ that page is an error result: no data,
                # no links (the reference's whole EngineResult is Err —
                # engine.rs:29-44 / workload.rs:145-148)
                failed_rows = ok_idx[failed]
                status_np[failed_rows] = "error"
                for i in failed_rows:
                    new_datas[i] = None
                keep = ~np.isin(parent, failed_rows)
                links = _list_by_parent(absd.filter(pa.array(keep)),
                                        parent[keep], n)
            datas = pa.array(new_datas, pa.string())

        return pa.table(
            {
                "url": batch.column("url"),
                "attempt": pc.cast(batch.column("attempt"), pa.int32()),
                "depth": pc.cast(batch.column("depth"), pa.int32()),
                "status": pa.array(status_np.tolist(), pa.string()),
                "data": datas,
                "links": links,
                "image_id": image_ids,
                "latency_ms": latency,
            }
        )


# ---------------------------------------------------------------------------
# Task-based variants with per-worker-process state caching.
#
# Ray worker processes persist across tasks, so a module-level cache
# keyed by the broadcast ObjectRef amortizes the index build across ALL
# chunks of a crawl (and across crawls on the same ref). The broadcast
# table itself is zero-copy from the local object store.
# ---------------------------------------------------------------------------

_STATE_CACHE: dict = {}


def blob_view(t: pa.Table, column: str = "bytes") -> pa.Array:
    """Zero-copy single-Array view of a blob column.

    ``prep_images_table`` guarantees a single-chunk large_binary column,
    so ``chunk(0)`` is a view over the shared plasma buffers; the
    ``combine_chunks`` fallback (a full memcpy — see Validator.__init__'s
    warning) only runs for tables that skipped prep. Shared by every
    stage that slices payload bytes (Validator-style offset machinery
    aside)."""
    b = t.column(column)
    if isinstance(b, pa.ChunkedArray):
        return b.chunk(0) if b.num_chunks == 1 else b.combine_chunks()
    return b


def _cached(key, build):
    st = _STATE_CACHE.get(key)
    if st is None:
        # one world per kind per worker — evict stale same-kind entries
        for k in [k for k in _STATE_CACHE if k[0] == key[0]]:
            del _STATE_CACHE[k]
        st = build()
        _STATE_CACHE[key] = st
    return st


def _fetch_key(pages_ref, filters: FilterSpec, extractor) -> tuple:
    """Worker-cache key of a Fetcher: equal for equal inputs (so one
    crawl's Fetcher serves the next crawl with the same settings), and
    different when the filters or the extractor differ. The extractor is
    keyed by a digest of its pickled bytes, which, unlike ``id()``, a
    later extractor cannot reuse."""
    import hashlib

    import cloudpickle

    allow = filters.allow_domains
    return (
        "fetch",
        getattr(pages_ref, "hex", lambda: id(pages_ref))(),
        tuple(filters.ignore_regexes),
        None if allow is None else tuple(allow),
        None if extractor is None else hashlib.blake2b(
            cloudpickle.dumps(extractor), digest_size=16).hexdigest(),
    )


def make_fetch_fn(pages_ref, filters: FilterSpec, extractor=None):
    key = _fetch_key(pages_ref, filters, extractor)

    def fetch_fn(batch: pa.Table) -> pa.Table:
        fetcher = _cached(key, lambda: Fetcher(pages_ref, filters, extractor))
        return fetcher(batch)

    return fetch_fn


def make_backend_fetch_fn(factory):
    """Per-worker-cached CUSTOM fetch backend — the §2e fetcher-backend
    seam at the data plane. ``factory`` is a picklable zero-arg callable
    returning a batch fetcher with the Fetcher contract (e.g.
    ``functools.partial(HttpFetcher, filters)``); each worker process
    builds its session once (engine_builder.rs:93-136 semantics) and
    reuses it for every chunk of the crawl."""
    import uuid

    key = ("custom_fetch", uuid.uuid4().hex)

    def fetch_fn(batch: pa.Table) -> pa.Table:
        return _cached(key, factory)(batch)

    return fetch_fn


def identity_validate_fn(batch: pa.Table) -> pa.Table:
    """Pass-through validator for backends with no synthetic image
    payload to validate (e.g. the HTTP transport)."""
    return batch


def make_validate_fn(images_ref, world_seed: int, emit_bytes: bool = False,
                     img_min: int = 16, img_max: int = 40):
    # keyed on every input of the Validator, as ``_fetch_key`` is: a
    # later crawl on the same images ref with another seed or bounds
    # must not reuse the cached truth of the crawl before
    key = ("validate", getattr(images_ref, "hex", lambda: id(images_ref))(),
           world_seed, emit_bytes, img_min, img_max)

    def validate_fn(batch: pa.Table) -> pa.Table:
        v = _cached(
            key,
            lambda: Validator(images_ref, world_seed, emit_bytes,
                              img_min=img_min, img_max=img_max),
        )
        return v(batch)

    return validate_fn


def prep_images_table(t: pa.Table) -> pa.Table:
    """Cast the blob column to large_binary and combine chunks ONCE,
    driver-side, BEFORE ray.put. Doing this lazily in Validator.__init__
    memcpy'd the whole blob column (GBs at the scale tiers) once per
    worker — measured ~9 s/worker cold and workers × blob-bytes of
    duplicated RSS. After this prep the per-worker init is zero-copy
    views over the shared plasma buffers."""
    b = t.column("bytes")
    if pa.types.is_binary(b.type):
        i = t.schema.get_field_index("bytes")
        t = t.set_column(i, "bytes", b.cast(pa.large_binary()))
    return t.combine_chunks()


# The fewest image rows a chunk needs before the Validator seeds their
# truth generators together (synth.TruthBatch). On one CPU the batch
# costs ~0.5 ms per call at any size and saves ~100 us per 56-72 px row
# (less on small images): it paid from 6-8 rows on 56-72 px images and
# from 10-12 on 16-40 px ones. Smaller batches (a j=1 conformance
# crawl's 1-row batches) keep expected_pixels.
BATCH_TRUTH_MIN_ROWS = 12


class Validator:
    """Decode + validate the image payload of fetched rows (actor pool —
    the images index is built once per actor from a broadcast table).

    Emits the per-row invariant columns required by BASELINE.json:
    caption equality and decoded-pixel PSNR (>=40 dB for lossy fmts,
    exact for png), plus the image metadata columns of the input_hint
    schema. ``emit_bytes=True`` carries the encoded payload through to
    the sink (dataset-building mode).

    Truth is ``synth.expected_pixels``. A chunk of at least
    ``BATCH_TRUTH_MIN_ROWS`` image rows takes it through
    ``synth.TruthBatch``: the generators' seeding and draws and the
    texture ramps run once over the chunk in numpy; each row keeps its
    decode, its noise bytes, the texture add and the squared-error sum
    (the float32 dot of ``codec.psnr``), and the chunk's PSNRs come from
    those sums in one pass (``codec.psnr_from_sse``), so the output is
    bit-identical to the per-row path. Rows TruthBatch cannot restate
    take ``expected_pixels``. A row whose image id has no ``-<int>``
    part fails like one that does not decode: ``pixel_ok`` False,
    ``psnr_db`` NaN.
    """

    def __init__(self, images, world_seed: int, emit_bytes: bool = False,
                 psnr_min: float = 40.0, img_min: int = 16, img_max: int = 40):
        from ..codec import decode_image, psnr, psnr_from_sse
        from ..synth import (TruthBatch, expected_caption, expected_pixels,
                             image_index)

        t = _deref(images)
        self._decode = decode_image
        self._psnr = psnr
        self._psnr_sse = psnr_from_sse
        self._exp_pix = expected_pixels
        self._exp_cap = expected_caption
        self._index = image_index
        self._truth_batch = TruthBatch
        self._batchable = TruthBatch.supports(world_seed, img_min, img_max)
        self.seed = world_seed
        self.emit_bytes = emit_bytes
        self.psnr_min = psnr_min
        self.img_min = img_min
        self.img_max = img_max
        # zero-index init (see Fetcher): batch lookup via pc.index_in.
        # Blobs live OUTSIDE the take() path: a >2 GiB binary column
        # overflows int32 offsets when take concatenates chunks, so the
        # metadata table drops "bytes" and blobs go through a combined
        # large_binary (int64-offset) array with a zero-copy memoryview
        # accessor (no per-blob .as_py() copies).
        import pyarrow.compute as pc

        self._pc = pc
        self.tab = _combined_view(t.drop_columns(["bytes"]))
        # NEVER combine_chunks() the blob column here: even for a single
        # chunk it memcpys the whole column (measured ~1 s/GB), and at
        # workers × blob-GB that thrashes the node (prep_images_table
        # guarantees single-chunk large_binary, so blob_view is the
        # zero-copy view over the shared plasma buffers)
        barr = blob_view(t)
        if pa.types.is_binary(barr.type):
            barr = barr.cast(pa.large_binary())
        self._blob_off = np.frombuffer(barr.buffers()[1], dtype=np.int64)
        self._blob_mv = memoryview(barr.buffers()[2])
        self._blob_base = barr.offset

    def __call__(self, batch: pa.Table) -> pa.Table:
        pc = self._pc
        n = len(batch)
        idx = pc.index_in(
            batch.column("image_id"), value_set=self.tab.column("image_id")
        )
        rows = self.tab.take(idx)
        valid = np.asarray(pc.is_valid(idx))
        ids = batch.column("image_id").to_pylist()
        row_fmt = rows.column("fmt").combine_chunks()
        row_cap = rows.column("caption").combine_chunks()
        row_ph = rows.column("phash").combine_chunks()
        caption_ok = np.zeros(n, dtype=bool)
        pixel_ok = np.zeros(n, dtype=bool)
        psnr_db = np.full(n, np.nan)
        captions: list[str | None] = [None] * n
        fmts: list[str | None] = [None] * n
        phashes = np.zeros(n, dtype=np.int64)
        blobs: list[bytes | None] = [None] * n

        src = self._blob_base + np.asarray(idx.fill_null(0))
        # batch-convert the metadata columns and blob offsets once
        # instead of per-row .as_py() calls and numpy scalars
        starts = self._blob_off[src].tolist()
        ends = self._blob_off[src + 1].tolist()
        fmt_l = row_fmt.to_pylist()
        cap_l = row_cap.to_pylist()
        ph_l = row_ph.to_pylist()
        todo, index = [], []  # the known rows whose id parses
        for i in np.flatnonzero(valid).tolist():
            try:
                index.append(self._index(ids[i]))
            except (IndexError, ValueError):
                continue  # no -<int>: no truth, fails like a bad blob
            todo.append(i)
        truth = None
        if len(todo) >= BATCH_TRUTH_MIN_ROWS and self._batchable:
            truth = self._truth_batch(index, self.seed, self.img_min,
                                      self.img_max)
            sse = np.full(n, -1.0)  # squared-error sum of the batch rows
            size = np.ones(n)  # and their element count
        for k, i in enumerate(todo):
            iid = ids[i]
            blob = self._blob_mv[starts[i] : ends[i]]
            fmt = fmt_l[i]
            try:
                pix = self._decode(blob, fmt)
            except Exception:
                continue
            if truth is None or truth.scalar[k] or pix.shape != (
                    truth.h[k], truth.w[k], 3):
                # per row (a size mismatch reads codec.psnr's 0.0)
                p = self._psnr(self._exp_pix(
                    iid, self.seed, self.img_min, self.img_max), pix)
                psnr_db[i] = p if np.isfinite(p) else 999.0
                pixel_ok[i] = p >= self.psnr_min
            else:
                h3w = truth.pixels(k)
                pix = pix.reshape(h3w.shape)
                size[i] = h3w.size
                if fmt == "png" and (h3w == pix).all():
                    sse[i] = 0.0  # lossless: a zero difference
                else:
                    d = np.subtract(h3w, pix, dtype=np.float32).reshape(-1)
                    sse[i] = np.dot(d, d)
            caption = cap_l[i]
            caption_ok[i] = caption == self._exp_cap(iid, self.seed)
            captions[i] = caption
            fmts[i] = fmt
            phashes[i] = ph_l[i]
            if self.emit_bytes:
                blobs[i] = blob
        if truth is not None:
            fused = sse >= 0
            p = self._psnr_sse(sse[fused], size[fused])
            psnr_db[fused] = np.where(np.isfinite(p), p, 999.0)
            pixel_ok[fused] = p >= self.psnr_min

        cols = dict(zip(batch.column_names, batch.columns))
        cols["caption"] = pa.array(captions, pa.string())
        cols["fmt"] = pa.array(fmts, pa.string())
        cols["phash"] = pa.array(phashes, pa.int64())
        cols["caption_ok"] = pa.array(caption_ok)
        cols["pixel_ok"] = pa.array(pixel_ok)
        cols["psnr_db"] = pa.array(psnr_db, pa.float64())
        if self.emit_bytes:
            cols["bytes"] = pa.array(blobs, pa.binary())
        return pa.table(cols)
