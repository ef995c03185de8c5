"""Fetch stage — the reference's Engine/Backend re-expressed as callables
that the crawl's chunk tasks run, each built once per Ray worker process
and cached there (``make_fetch_fn`` / ``make_validate_fn``).

Reference mapping:
- engine session construction happens once per engine
  (src/engine_builder.rs:93-136, engine_ring.rs:32-49)
  → here: ``Fetcher.__init__`` runs once per worker process (index
  build / session setup), ``__call__`` per Arrow batch;
- `Backend::search` fetches one page and harvests `<a href>` in DOM
  order (src/backend.rs:84-111) → here: a lookup into
  the broadcast synthetic pages table (``HttpFetcher`` in
  ``http_fetch.py`` is the real HTTP transport; the batch contract is
  identical);
- link absolutize + filter and the per-URL extraction error lane (the
  reference's engine.rs:29-68) are ``fetch_tail``, one function every
  transport ends in: the ok rows' link lists are flattened once,
  ``url.make_absolute_batch`` resolves the common href shapes with
  Arrow kernels and sends every other href through the scalar
  ``make_absolute``, one filter mask drops ignored links, and the output
  ``links`` column is rebuilt from the kept links' parent rows.

Batch contract (all Arrow):
  in : url:string, attempt:int32, depth:int32
  out: url, attempt:int32, depth:int32, status:string
       (ok|timeout|error), data:string?, links:list<string> (validated
       canonical), image_id:string?, latency_ms:int32
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


def fetch_tail(batch: pa.Table, status: np.ndarray, data, hrefs,
               image_id, latency, filters: FilterSpec, extractor=None,
               bases=None) -> pa.Table:
    """The per-URL unit of work after the transport (engine.rs:29-68),
    shared by every fetch backend: builds the fetch-stage table from
    one batch's raw per-row results.

    ``status`` holds one of ok|timeout|error per row; ``data`` and
    ``image_id`` are string arrays (nulled on non-ok rows here),
    ``hrefs`` the raw harvested links as ``list<string>`` (only the ok
    rows' are read), ``latency`` an int32 array, and ``bases`` the URL
    each row's hrefs resolve against (the post-redirect URL over HTTP;
    None means the batch's own urls). The ok rows' hrefs are resolved
    as one flat Arrow column (``url.make_absolute_batch``: Arrow
    kernels for the common shapes, the scalar ``make_absolute`` for the
    rest), one filter mask drops ignored links (engine.rs:51-57: drop
    unparseable, drop if any filter ignores), and the ``links`` column
    is rebuilt from the kept links' parent rows. Then the extraction
    lane: ``extractor`` replaces each ok page's ``data``, and a page
    whose script fails becomes an ``error`` with no data and no links.
    """
    import pyarrow.compute as pc

    n = len(batch)
    urls = batch.column("url")
    ok = status == "ok"
    ok_arr = pa.array(ok)
    null_str = pa.scalar(None, pa.string())
    data = pc.if_else(ok_arr, data, null_str)
    image_id = pc.if_else(ok_arr, image_id, null_str)

    ok_idx = np.flatnonzero(ok)
    ok_take = pa.array(ok_idx)
    ok_urls = urls.take(ok_take)
    page_links = hrefs.take(ok_take)
    if isinstance(page_links, pa.ChunkedArray):
        page_links = page_links.combine_chunks()
    absd = make_absolute_batch(
        ok_urls if bases is None else bases.take(ok_take), page_links)
    parent = ok_idx[np.asarray(pc.list_parent_indices(page_links))]
    valid = np.asarray(absd.is_valid())
    absd, parent = absd.filter(pa.array(valid)), parent[valid]
    if len(absd):
        keep = ~filters.ignored_mask(absd)
        absd, parent = absd.filter(pa.array(keep)), parent[keep]
    links = _list_by_parent(absd, parent, n)

    if extractor is not None and ok.any():
        page_rows = pa.table({
            "url": ok_urls,
            "data": pc.take(data, ok_take),
            "links": links.take(ok_take),
            "image_id": pc.take(image_id, ok_take),
        })
        ex_list, failed = apply_extractor(extractor, page_rows)
        new_data = data.to_pylist()
        for k, i in enumerate(ok_idx):
            new_data[i] = ex_list[k]
        if failed:
            # failed script ⇒ that page is an error result: no data, no
            # links (the reference's whole EngineResult is Err —
            # engine.rs:29-44 / workload.rs:145-148)
            failed_rows = ok_idx[failed]
            status = status.astype(object)
            status[failed_rows] = "error"
            for i in failed_rows:
                new_data[i] = None
            keep = ~np.isin(parent, failed_rows)
            links = _list_by_parent(absd.filter(pa.array(keep)),
                                    parent[keep], n)
        data = pa.array(new_data, pa.string())

    return pa.table({
        "url": urls,
        "attempt": pc.cast(batch.column("attempt"), pa.int32()),
        "depth": pc.cast(batch.column("depth"), pa.int32()),
        "status": pa.array(status.tolist(), pa.string()),
        "data": data,
        "links": links,
        "image_id": image_id,
        "latency_ms": latency,
    })


class Fetcher:
    """The synthetic-world fetch backend: a page lookup in the pages
    table, then ``fetch_tail``. ``make_fetch_fn`` builds one per worker
    process and reuses it for every chunk.

    ``pages`` is broadcast once with ``ray.put`` and dereferenced
    zero-copy in ``__init__`` (NOT re-shipped per batch).
    """

    def __init__(self, pages, filters: FilterSpec, extractor=None):
        # near-zero init: keep the broadcast table as-is (zero-copy from
        # the object store); batch lookups use vectorized pc.index_in +
        # take, so no per-worker python index is ever built
        import pyarrow.compute as pc

        self._pc = pc
        self.t = _deref(pages).combine_chunks()
        self.urls_col = self.t.column("url")
        self.filters = filters
        # user-extension hook (reference M2/M3: per-page extraction UDF,
        # backend.rs:113-123 / :173-183): fn(page_rows: pa.Table) ->
        # pa.Array<string> replacing the per-page ``data`` value
        self.extractor = extractor

    def __call__(self, batch: pa.Table) -> pa.Table:
        pc = self._pc
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
        latency = pc.fill_null(
            pc.cast(rows.column("latency_ms"), pa.int32()), 1
        )
        return fetch_tail(
            batch, status_np, rows.column("data").combine_chunks(),
            rows.column("links"), rows.column("image_id").combine_chunks(),
            latency, self.filters, self.extractor)


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
    """Decode + validate the image payload of fetched rows (built once
    per worker process by ``make_validate_fn``, from a broadcast table).

    Emits the per-row invariant columns required by BASELINE.json:
    caption equality and decoded-pixel PSNR (>=40 dB for lossy fmts,
    exact for png), plus the image metadata columns of the input_hint
    schema. ``emit_bytes=True`` carries the encoded payload through to
    the sink (dataset-building mode).

    Truth is ``synth.expected_pixels``. A chunk of at least
    ``BATCH_TRUTH_MIN_ROWS`` image rows takes it through
    ``synth.TruthBatch``: the generators' seeding and draws and the
    texture ramps run once over the chunk in numpy; each row keeps its
    decode, its noise bytes and the texture add. Rows TruthBatch cannot
    restate, and smaller chunks, take ``expected_pixels``. Every decoded
    row records its squared-error sum (``codec.squared_error``) and
    size, and the chunk's PSNRs come from those in one
    ``codec.psnr_from_sse`` pass, as ``codec.psnr`` computes one pair's;
    a size mismatch reads 0.0 dB. A row whose image id has no ``-<int>``
    part fails like one that does not decode: ``pixel_ok`` False,
    ``psnr_db`` NaN.
    """

    def __init__(self, images, world_seed: int, emit_bytes: bool = False,
                 psnr_min: float = 40.0, img_min: int = 16, img_max: int = 40):
        from ..codec import decode_image, psnr_from_sse, squared_error
        from ..synth import (TruthBatch, expected_caption, expected_pixels,
                             image_index)

        t = _deref(images)
        self._decode = decode_image
        self._sse = squared_error
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
        # Table.combine_chunks keeps the buffers of a one-chunk column,
        # so this is a view for a prepped table
        self.tab = t.drop_columns(["bytes"]).combine_chunks()
        # NEVER ChunkedArray.combine_chunks() the blob column here: even
        # for a single chunk it memcpys the whole column (measured ~1
        # s/GB), and at workers × blob-GB that thrashes the node
        # (prep_images_table guarantees single-chunk large_binary, so
        # blob_view is the zero-copy view over the shared plasma buffers)
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
        decoded = np.zeros(n, dtype=bool)
        sse = np.zeros(n)  # each decoded row's squared-error sum
        size = np.zeros(n)  # and element count (0: a size mismatch)
        for k, i in enumerate(todo):
            iid = ids[i]
            blob = self._blob_mv[starts[i] : ends[i]]
            fmt = fmt_l[i]
            try:
                pix = self._decode(blob, fmt)
            except Exception:
                continue
            decoded[i] = True
            if truth is None or truth.scalar[k]:
                h3w = self._exp_pix(iid, self.seed, self.img_min,
                                    self.img_max)
                h3w = h3w.reshape(h3w.shape[0], -1)
            else:
                h3w = truth.pixels(k)
            if pix.shape == (h3w.shape[0], h3w.shape[1] // 3, 3):
                pix = pix.reshape(h3w.shape)
                size[i] = h3w.size
                if not (fmt == "png" and (h3w == pix).all()):
                    sse[i] = self._sse(h3w, pix)  # lossless: stays 0
            caption = cap_l[i]
            caption_ok[i] = caption == self._exp_cap(iid, self.seed)
            captions[i] = caption
            fmts[i] = fmt
            phashes[i] = ph_l[i]
            if self.emit_bytes:
                blobs[i] = blob
        p = self._psnr_sse(sse[decoded], size[decoded])
        psnr_db[decoded] = np.where(np.isfinite(p), p, 999.0)
        pixel_ok[decoded] = p >= self.psnr_min

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
