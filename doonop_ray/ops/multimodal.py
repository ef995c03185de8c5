"""Multimodal-column operators: image / audio / video as opaque binary
columns with typed metadata, processed by stateful actor-pool
``map_batches`` stages.

The sandbox has no image/audio/video codec libraries, so:
- IMAGE stages run the repo's real synthetic codec (entropy-coded PNG
  subset + JPEG-ish DCT, ``codec.py``) over the crawl world's real
  payload bytes;
- AUDIO/VIDEO payloads are deterministic fakes (raw PCM16 / packed raw
  RGB frames, pure functions of the id) — the Ray-side plumbing
  (binary column + metadata schema, actor ``__init__``/``__call__``
  seam, batch sizing for large payloads, output layout) is real and
  tested, and the externally-coded branch raises ``NotImplementedError``
  naming the missing dependency, same honesty contract as the HTTP
  transport stub.

Scale notes: every stage is a callable CLASS for
``map_batches(Cls, concurrency=N, batch_size=B)`` — decoder/filter
setup happens once per actor; batch sizes are SMALL (64) because each
row carries a large binary payload and batch × concurrency must fit a
worker heap; outputs are metadata-only (never re-emit payload bytes
unless asked).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

from .common import finish

_HAVE_SOUNDFILE = False
try:  # pragma: no cover - not installed in this sandbox
    import soundfile  # type: ignore  # noqa: F401

    _HAVE_SOUNDFILE = True
except ImportError:
    pass


# ---------------------------------------------------------------------------
# deterministic fake media (pure functions of id — resumable, testable)
# ---------------------------------------------------------------------------


def _audio_meta(audio_id: int, seed: int = 42):
    """(rng, sample_rate, n_samples) — the metadata draws, shared by the
    full synthesizer and the meta-only table so the two can never skew."""
    rng = np.random.default_rng([seed, 104729, audio_id])
    sr = 8000
    n = int(rng.integers(sr // 2, 2 * sr))  # 0.5–2 s
    return rng, sr, n


def synth_audio(audio_id: int, seed: int = 42) -> tuple[bytes, int, int]:
    """(pcm16_bytes, sample_rate, n_samples): a seeded sine + noise."""
    rng, sr, n = _audio_meta(audio_id, seed)
    t = np.arange(n, dtype=np.float32) / sr
    f = float(rng.uniform(100, 1000))
    wave = 0.5 * np.sin(2 * np.pi * f * t) + 0.05 * rng.standard_normal(
        n
    ).astype(np.float32)
    pcm = np.clip(wave * 32767.0, -32768, 32767).astype("<i2")
    return pcm.tobytes(), sr, n


def _video_meta(video_id: int, seed: int = 42):
    """(rng, w, h, n_frames, fps) — metadata draws shared with
    ``synth_video`` (see ``_audio_meta``)."""
    rng = np.random.default_rng([seed, 1299709, video_id])
    w = int(rng.integers(16, 33))
    h = int(rng.integers(16, 33))
    n_frames = int(rng.integers(8, 25))
    return rng, w, h, n_frames, 12


def synth_video(video_id: int, seed: int = 42) -> tuple[bytes, int, int, int, int]:
    """(raw_rgb_bytes, w, h, n_frames, fps): packed HxWx3 uint8 frames
    with a per-frame deterministic drift."""
    rng, w, h, n_frames, _fps = _video_meta(video_id, seed)
    base = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
    frames = np.empty((n_frames, h, w, 3), dtype=np.uint8)
    for i in range(n_frames):
        frames[i] = (base.astype(np.int16) + 3 * i) % 256
    return frames.tobytes(), w, h, n_frames, _fps


def media_table(kind: str, n: int, seed: int = 42,
                meta_only: bool = False) -> pa.Table:
    """Build the typed multimodal table (input_hint shape: opaque bytes +
    typed metadata columns). ``meta_only=True`` skips payload synthesis
    and omits the ``bytes`` column — the integrity checks read only the
    metadata, and regenerating every clip's PCM/frames driver-side just
    to discard it doubled the stage-under-test's own work."""
    if kind == "audio":
        if meta_only:
            rows = [_audio_meta(i, seed)[1:] for i in range(n)]
            return pa.table({
                "audio_id": pa.array([f"aud-{i:07d}" for i in range(n)]),
                "sample_rate": pa.array([r[0] for r in rows], pa.int32()),
                "n_samples": pa.array([r[1] for r in rows], pa.int32()),
                "fmt": pa.array(["pcm16"] * n),
            })
        rows = [synth_audio(i, seed) for i in range(n)]
        return pa.table({
            "audio_id": pa.array([f"aud-{i:07d}" for i in range(n)]),
            "bytes": pa.array([r[0] for r in rows], pa.binary()),
            "sample_rate": pa.array([r[1] for r in rows], pa.int32()),
            "n_samples": pa.array([r[2] for r in rows], pa.int32()),
            "fmt": pa.array(["pcm16"] * n),
        })
    if kind == "video":
        if meta_only:
            rows = [_video_meta(i, seed)[1:] for i in range(n)]
            return pa.table({
                "video_id": pa.array([f"vid-{i:07d}" for i in range(n)]),
                "w": pa.array([r[0] for r in rows], pa.int32()),
                "h": pa.array([r[1] for r in rows], pa.int32()),
                "n_frames": pa.array([r[2] for r in rows], pa.int32()),
                "fps": pa.array([r[3] for r in rows], pa.int32()),
                "fmt": pa.array(["rawrgb"] * n),
            })
        rows = [synth_video(i, seed) for i in range(n)]
        return pa.table({
            "video_id": pa.array([f"vid-{i:07d}" for i in range(n)]),
            "bytes": pa.array([r[0] for r in rows], pa.binary()),
            "w": pa.array([r[1] for r in rows], pa.int32()),
            "h": pa.array([r[2] for r in rows], pa.int32()),
            "n_frames": pa.array([r[3] for r in rows], pa.int32()),
            "fps": pa.array([r[4] for r in rows], pa.int32()),
            "fmt": pa.array(["rawrgb"] * n),
        })
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# actor-pool stages
# ---------------------------------------------------------------------------


class AudioFeaturizer:
    """Actor-pool stage: decode the audio payload, emit per-clip
    features (duration, RMS, peak, zero-crossing rate). PCM16 decode is
    a real zero-copy ``np.frombuffer``; compressed formats need a codec
    library this environment doesn't ship."""

    def __init__(self):
        # per-actor setup seam (a real deployment loads the codec /
        # feature model here, once per actor — not per batch)
        self._have_codec = _HAVE_SOUNDFILE

    def __call__(self, batch: pa.Table) -> pa.Table:
        fmts = batch.column("fmt").to_pylist()
        srs = batch.column("sample_rate").to_numpy()
        out = {"audio_id": batch.column("audio_id"),
               "duration_s": np.zeros(len(batch)),
               "rms": np.zeros(len(batch)),
               "peak": np.zeros(len(batch)),
               "zcr": np.zeros(len(batch))}
        blobs = batch.column("bytes")
        for i, fmt in enumerate(fmts):
            if fmt != "pcm16":
                if not self._have_codec:
                    raise NotImplementedError(
                        f"audio format {fmt!r} needs the soundfile "
                        "library, which is not installed here")
                continue  # pragma: no cover
            x = np.frombuffer(blobs[i].as_buffer(), dtype="<i2").astype(
                np.float32) / 32768.0
            out["duration_s"][i] = len(x) / float(srs[i])
            out["rms"][i] = float(np.sqrt(np.mean(x * x)))
            out["peak"][i] = float(np.max(np.abs(x)))
            out["zcr"][i] = float(np.mean(np.signbit(x[1:]) != np.signbit(x[:-1])))
        return pa.table({
            "audio_id": out["audio_id"],
            "duration_s": pa.array(np.round(out["duration_s"], 6)),
            "rms": pa.array(np.round(out["rms"], 6)),
            "peak": pa.array(np.round(out["peak"], 6)),
            "zcr": pa.array(np.round(out["zcr"], 6)),
        })


# default sampling stride for VideoFrameSampler — shared with the
# video_sampling_violations integrity check (the two must move in lockstep)
VIDEO_SAMPLE_EVERY = 4


class VideoFrameSampler:
    """Actor-pool stage: sample every k-th frame of the packed payload
    and emit one row per sampled frame (frame_idx + channel means) —
    the flat-map output layout a frame-level training pipeline needs."""

    def __init__(self, every: int = VIDEO_SAMPLE_EVERY):
        self.every = every

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, fidx, means = [], [], []
        ws = batch.column("w").to_numpy()
        hs = batch.column("h").to_numpy()
        nfs = batch.column("n_frames").to_numpy()
        fmts = batch.column("fmt").to_pylist()
        vids = batch.column("video_id").to_pylist()
        blobs = batch.column("bytes")
        for i in range(len(batch)):
            if fmts[i] != "rawrgb":
                raise NotImplementedError(
                    f"video format {fmts[i]!r} needs an ffmpeg-class "
                    "decoder, which is not installed here")
            frames = np.frombuffer(
                blobs[i].as_buffer(), dtype=np.uint8
            ).reshape(int(nfs[i]), int(hs[i]), int(ws[i]), 3)
            for j in range(0, int(nfs[i]), self.every):
                ids.append(vids[i])
                fidx.append(j)
                means.append(frames[j].mean(axis=(0, 1)))
        m = np.asarray(means, dtype=np.float64).reshape(-1, 3)
        return pa.table({
            "video_id": pa.array(ids, pa.string()),
            "frame_idx": pa.array(fidx, pa.int32()),
            "mean_r": pa.array(np.round(m[:, 0], 4)),
            "mean_g": pa.array(np.round(m[:, 1], 4)),
            "mean_b": pa.array(np.round(m[:, 2], 4)),
        })


class ImageResizer:
    """Actor-pool stage over the crawl world's REAL image payloads:
    decode (repo codec), nearest-neighbor resize to ``size``, emit the
    resized channel means — the thumbnail/feature-prep stage of an
    image training pipeline."""

    def __init__(self, images_ref, size: int = 16):
        from ..codec import decode_image
        from ..stages.fetch import _deref, blob_view

        t = _deref(images_ref)
        self.tab = t.select(["image_id", "fmt"]).combine_chunks()
        self._blobs = blob_view(t)
        self._decode = decode_image
        self.size = size

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.index_in(batch.column("image_id"),
                          value_set=self.tab.column("image_id"))
        fmts = pc.take(self.tab.column("fmt"), idx)
        out_w, out_h, means = [], [], []
        s = self.size
        for i in range(len(batch)):
            j = idx[i].as_py()
            pix = self._decode(self._blobs[j].as_buffer(), fmts[i].as_py())
            h, w = pix.shape[:2]
            yi = (np.arange(s) * h) // s
            xi = (np.arange(s) * w) // s
            small = pix[yi][:, xi]
            out_h.append(h)
            out_w.append(w)
            means.append(small.reshape(-1, 3).mean(axis=0))
        m = np.asarray(means, dtype=np.float64).reshape(-1, 3)
        return pa.table({
            "image_id": batch.column("image_id"),
            "src_w": pa.array(out_w, pa.int32()),
            "src_h": pa.array(out_h, pa.int32()),
            "mean_r": pa.array(np.round(m[:, 0], 4)),
            "mean_g": pa.array(np.round(m[:, 1], 4)),
            "mean_b": pa.array(np.round(m[:, 2], 4)),
        })


# ---------------------------------------------------------------------------
# queries() entry points (rows-only; pinned against pure-python in tests)
# ---------------------------------------------------------------------------


def _tier_n(sf_dir: str) -> int:
    from ..pipelines.flagship import tier_of

    return {"0.001": 60, "0.01": 200, "0.1": 500}.get(tier_of(sf_dir), 500)


def audio_features(sf_dir: str) -> pd.DataFrame:
    """Audio pipeline: binary-column table → actor-pool featurize."""
    import ray.data as rd

    n = _tier_n(sf_dir)
    ds = rd.from_arrow(media_table("audio", n)).map_batches(
        AudioFeaturizer,
        batch_format="pyarrow",
        batch_size=64,          # large payloads per row → small batches
        concurrency=(1, 4),
        num_cpus=1,
    )
    return finish(ds.to_pandas(), ["audio_id"])


def _video_n(sf_dir: str) -> int:
    """Clip count of the video tier — shared with the integrity check."""
    return max(20, _tier_n(sf_dir) // 5)


def video_frame_means(sf_dir: str) -> pd.DataFrame:
    """Video pipeline: binary-column table → actor-pool frame-sample."""
    import ray.data as rd

    n = _video_n(sf_dir)
    ds = rd.from_arrow(media_table("video", n)).map_batches(
        VideoFrameSampler,
        batch_format="pyarrow",
        batch_size=16,
        concurrency=(1, 4),
        num_cpus=1,
    )
    return finish(ds.to_pandas(), ["video_id", "frame_idx"])


def image_resize_means(sf_dir: str) -> pd.DataFrame:
    """Image pipeline over the crawl world's real payload bytes:
    broadcast images table → actor-pool decode+resize."""
    import ray.data as rd

    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    # session-cached broadcast ref — re-putting the payload table per
    # query re-ships GBs into the object store for nothing
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    ids = w.images.select(["image_id"])
    step = max(1, -(-len(ids) // 16))
    blocks = [ids.slice(i, step) for i in range(0, len(ids), step)]
    ds = rd.from_arrow(blocks).map_batches(
        ImageResizer,
        fn_constructor_args=(images_ref,),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
    )
    return finish(ds.to_pandas(), ["image_id"])


class ImageCurator:
    """Actor-pool quality gate over the crawl world's REAL image
    payloads — the image-side twin of ``text.curate_documents``: decode
    (repo codec) once per image, emit deterministic quality features
    (brightness = pixel mean / 255, contrast = population std / 255,
    aspect = w/h, min_side) and the keep decision
    ``0.05 <= brightness <= 0.95 and contrast >= 0.02 and
    min(w, h) >= MIN_SIDE`` — the min-side rule is the discriminating
    gate on this world (sizes span 16-40 px; the synthetic noise pixels
    never fail the photometric thresholds, which exist for real-photo
    corpora).  Broadcast image table deref'd once per actor in
    __init__."""

    BRIGHT_LO, BRIGHT_HI, CONTRAST_MIN = 0.05, 0.95, 0.02
    MIN_SIDE = 20

    def __init__(self, images_ref):
        from ..codec import decode_image
        from ..stages.fetch import _deref, blob_view

        t = _deref(images_ref)
        self.tab = t.select(["image_id", "fmt"]).combine_chunks()
        self._blobs = blob_view(t)
        self._decode = decode_image

    @classmethod
    def stats_of(cls, pix) -> tuple[float, float, float, int, bool]:
        """Shared feature arithmetic (query + violation check both call
        this on their own decodes; the CHECK's independence is in the
        decode path and the reduction, not the feature formula).

        brightness/contrast are r4-ROUNDED before the gate so the keep
        decision is defined on the same values everywhere — here, in
        the emitted columns, and in the fused pair-curation stage
        (which rounds its columns the same way; r4 is idempotent)."""
        from .common import r4

        b = float(r4(float(pix.mean()) / 255.0))
        c = float(r4(float(pix.std()) / 255.0))
        aspect = pix.shape[1] / pix.shape[0]
        min_side = int(min(pix.shape[0], pix.shape[1]))
        keep = (cls.BRIGHT_LO <= b <= cls.BRIGHT_HI
                and c >= cls.CONTRAST_MIN and min_side >= cls.MIN_SIDE)
        return b, c, aspect, min_side, keep

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        idx = pc.index_in(batch.column("image_id"),
                          value_set=self.tab.column("image_id"))
        fmts = pc.take(self.tab.column("fmt"), idx)
        bs, cs, asps, mins, keeps = [], [], [], [], []
        for i in range(len(batch)):
            j = idx[i].as_py()
            pix = self._decode(self._blobs[j].as_buffer(), fmts[i].as_py())
            b, c, a, m, k = self.stats_of(pix)
            bs.append(b)
            cs.append(c)
            asps.append(a)
            mins.append(m)
            keeps.append(k)
        return pa.table({
            "image_id": batch.column("image_id"),
            "brightness": pa.array(bs, pa.float64()),
            "contrast": pa.array(cs, pa.float64()),
            "aspect": pa.array(asps, pa.float64()),
            "min_side": pa.array(mins, pa.int64()),
            "keep": pa.array(keeps, pa.bool_()),
        })


def curate_images(sf_dir: str) -> pd.DataFrame:
    """Image curation gate: decode + quality features + keep decision
    for every image of the tier's world (actor pool over the broadcast
    payload table; one row per image)."""
    import ray.data as rd

    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    ids = w.images.select(["image_id"])
    step = max(1, -(-len(ids) // 16))
    blocks = [ids.slice(i, step) for i in range(0, len(ids), step)]
    ds = rd.from_arrow(blocks).map_batches(
        ImageCurator,
        fn_constructor_args=(images_ref,),
        batch_format="pyarrow",
        batch_size=64,
        concurrency=(1, 8),
        num_cpus=1,
    )
    return finish(ds.to_pandas(), ["image_id"])


# ---------------------------------------------------------------------------
# corpus normalization statistics (the "ImageNet mean/std" computation)
# ---------------------------------------------------------------------------


class ChannelMomentPartials:
    """Decode each image of the batch (repo codec) and reduce the BATCH
    to exactly three rows — per-channel pixel count / sum /
    sum-of-squares / min / max. Pixel values are uint8, so the sums are
    EXACT int64 integers (<< 2^63 even at 10^8 images), which makes the
    downstream merge order-independent: any two correct implementations
    agree bit-for-bit, not just to a tolerance. The driver merge is a
    3-row groupby; nothing corpus-sized leaves the stage.

    Dispatched as a TASK-pool ``map_batches`` via
    ``make_channel_moments_fn`` (per-worker ``_cached`` construction, the
    ``make_fetch_fn`` pattern) — a fresh actor pool per query paid ~5 s
    of spawn+init before the first decode; cached task-side state reuses
    the long-lived Ray workers instead."""

    def __init__(self, images_ref):
        from ..codec import decode_image
        from ..stages.fetch import _deref, blob_view

        t = _deref(images_ref)
        self.tab = t.select(["image_id", "fmt"]).combine_chunks()
        self._blobs = blob_view(t)
        self._decode = decode_image

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(batch) == 0:  # typed empty partial (empty-world safety)
            return pa.table({
                "channel": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
                "s": pa.array([], pa.int64()),
                "ss": pa.array([], pa.int64()),
                "mn": pa.array([], pa.int64()),
                "mx": pa.array([], pa.int64()),
            })
        idx = pc.index_in(batch.column("image_id"),
                          value_set=self.tab.column("image_id"))
        src = np.asarray(idx)
        fmts = pc.take(self.tab.column("fmt"), idx).to_pylist()
        n = np.zeros(3, np.int64)
        s = np.zeros(3, np.int64)
        ss = np.zeros(3, np.int64)
        mn = np.full(3, 255, np.int64)
        mx = np.zeros(3, np.int64)
        for i in range(len(batch)):
            pix = self._decode(self._blobs[int(src[i])].as_buffer(), fmts[i])
            flat = pix.reshape(-1, 3).astype(np.int64)
            n += pix.shape[0] * pix.shape[1]
            s += flat.sum(axis=0)
            ss += (flat * flat).sum(axis=0)
            mn = np.minimum(mn, flat.min(axis=0))
            mx = np.maximum(mx, flat.max(axis=0))
        return pa.table({
            "channel": pa.array(["r", "g", "b"]),
            "n": pa.array(n), "s": pa.array(s), "ss": pa.array(ss),
            "mn": pa.array(mn), "mx": pa.array(mx),
        })


def make_channel_moments_fn(images_ref):
    """Task-pool wrapper: per-worker cached ChannelMomentPartials (the
    ``stages.fetch.make_fetch_fn`` idiom — state built once per Ray
    worker, zero-copy over the broadcast table, no actor-pool spawn
    latency)."""
    from ..stages.fetch import _cached

    key = ("chan_moments",
           getattr(images_ref, "hex", lambda: id(images_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(key, lambda: ChannelMomentPartials(images_ref))(batch)

    return fn


def image_channel_stats(sf_dir: str) -> pd.DataFrame:
    """Corpus-wide per-channel normalization statistics (count, mean,
    population std, min, max) over the crawl world's real image
    payloads — the preprocessing aggregate every image-training recipe
    needs before the first epoch (the "dataset mean/std" constants).

    Scale shape: a task-pool stage (per-worker cached state over the
    broadcast payload table) decodes once per image and emits one
    3-row int64 moment partial PER BATCH; the exchange ships only those
    3-row partials into a 3-key groupby (Sum/Min/Max) — a 100 TB corpus
    moves kilobytes after the decode stage. Sums are exact integers
    (uint8 pixels), so the result is independent of batch boundaries
    and merge order; ``image_channel_stats_violations`` exploits that
    for a bit-exact independent recompute."""
    import ray.data as rd
    from ray.data.aggregate import Max, Min, Sum

    from ..pipelines.flagship import _ref_for, tier_of, world_for
    from .common import r4

    w = world_for(sf_dir)
    # session-cached broadcast ref (also keeps the per-worker _cached
    # key stable across repeat queries, so decoder state is reused)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    ids = w.images.select(["image_id"])
    step = max(1, -(-len(ids) // 32))
    blocks = [ids.slice(i, step) for i in range(0, len(ids), step)]
    agg = (rd.from_arrow(blocks).map_batches(
        make_channel_moments_fn(images_ref),
        batch_format="pyarrow",
        batch_size=1024,
        num_cpus=1,
    # fanin before the 3-key merge (sketches.py tree-combine idiom):
    # without it the sort-shuffle makes one partition per partial block
    # and the mostly-empty partitions trip Ray 2.49's schema-divergence
    # warning; 3-row partials are tiny at any corpus size
    ).repartition(2).groupby("channel").aggregate(
        Sum("n", alias_name="n"), Sum("s", alias_name="s"),
        Sum("ss", alias_name="ss"), Min("mn", alias_name="mn"),
        Max("mx", alias_name="mx"),
    ).to_pandas())
    from .common import _ensure_cols

    agg = _ensure_cols(agg, {"channel": "str", "n": "int64", "s": "int64",
                             "ss": "int64", "mn": "int64", "mx": "int64"})
    # Derive mean/std through PYTHON BIG-INT arithmetic: s/n and
    # (ss*n - s*s)/(n*n) are correctly-rounded quotients of exact
    # integers at ANY corpus size, whereas converting s to float64
    # first would round above 2^53 (~1.4e11 pixels) and could disagree
    # with the integrity check's independent recompute by an ulp.
    mean, std = [], []
    for si, ssi, ni in zip(agg["s"].tolist(), agg["ss"].tolist(),
                           agg["n"].tolist()):
        si, ssi, ni = int(si), int(ssi), int(ni)
        mean.append(si / ni if ni else float("nan"))
        std.append(math.sqrt(max((ssi * ni - si * si) / (ni * ni), 0.0))
                   if ni else float("nan"))
    res = pd.DataFrame({
        "channel": agg["channel"].astype("str"),
        "n_pixels": agg["n"].astype("int64"),
        "mean": r4(mean),
        "std": r4(std),
        "px_min": agg["mn"].astype("int64"),
        "px_max": agg["mx"].astype("int64"),
    })
    return finish(res, ["channel"])


# ---------------------------------------------------------------------------
# aspect-ratio bucketing (training-batch geometry assignment)
# ---------------------------------------------------------------------------

# Fixed bucket ratios (w/h) — the SDXL-style ladder a variable-aspect
# image trainer groups samples into so every batch can share one target
# geometry. Assignment: nearest |log(aspect) - log(bucket)|, ties to
# the SMALLER ratio (deterministic).
ASPECT_BUCKETS = (0.5, 0.625, 0.75, 1.0, 4.0 / 3.0, 1.6, 2.0)


def _assign_aspect_buckets(w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Vectorized nearest-log-ratio bucket index for (w, h) arrays.
    Shared arithmetic only — the integrity check recomputes it per-row
    with independent scalar math."""
    ratios = np.log(np.asarray(ASPECT_BUCKETS, np.float64))
    a = np.log(w.astype(np.float64) / h.astype(np.float64))
    d = np.abs(a[:, None] - ratios[None, :])
    return np.argmin(d, axis=1)  # argmin takes the FIRST (smallest) tie


def image_aspect_buckets(sf_dir: str) -> pd.DataFrame:
    """Aspect-ratio bucketing over the crawl world's image metadata:
    assign every image to its nearest log-aspect bucket and report per
    bucket the image count, total pixels, and mean source aspect — the
    geometry-planning step of a variable-aspect training pipeline.

    Scale shape: metadata-only (w, h — never payload bytes); each batch
    reduces to at most ``len(ASPECT_BUCKETS)`` partial rows via a
    bincount, and the exchange ships only those into a bounded-key
    groupby. At 100 TB this is a pruned two-column scan."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..pipelines.flagship import world_for
    from .common import r4

    w = world_for(sf_dir)
    meta = w.images.select(["w", "h"])
    step = max(1, -(-meta.num_rows // 16))
    blocks = [meta.slice(i, step) for i in range(0, meta.num_rows, step)]
    nb = len(ASPECT_BUCKETS)

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({
                "bucket": pa.array([], pa.int64()),
                "n": pa.array([], pa.int64()),
                "pixels": pa.array([], pa.int64()),
                "sum_aspect": pa.array([], pa.float64()),
            })
        ws = t["w"].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = t["h"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = _assign_aspect_buckets(ws, hs)
        cnt = np.bincount(b, minlength=nb)
        px = np.bincount(b, weights=(ws * hs).astype(np.float64),
                         minlength=nb).astype(np.int64)
        sa = np.bincount(b, weights=ws / hs, minlength=nb)
        keep = cnt > 0
        return pa.table({
            "bucket": pa.array(np.arange(nb)[keep], pa.int64()),
            "n": pa.array(cnt[keep], pa.int64()),
            "pixels": pa.array(px[keep], pa.int64()),
            "sum_aspect": pa.array(sa[keep], pa.float64()),
        })

    agg = (rd.from_arrow(blocks)
           .map_batches(partial, batch_format="pyarrow", batch_size=65536)
           .groupby("bucket")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("pixels", alias_name="pixels"),
                      Sum("sum_aspect", alias_name="sum_aspect"))
           .to_pandas())
    from .common import _ensure_cols

    agg = _ensure_cols(agg, {"bucket": "int64", "n": "int64",
                             "pixels": "int64", "sum_aspect": "float64"})
    res = pd.DataFrame({
        "bucket": agg["bucket"].astype("int64"),
        "bucket_ratio": r4(np.asarray(ASPECT_BUCKETS, np.float64)[
            agg["bucket"].to_numpy(np.int64)]) if len(agg) else
            pd.Series([], dtype="float64"),
        "n_images": agg["n"].astype("int64"),
        "total_pixels": agg["pixels"].astype("int64"),
        "mean_aspect": r4(agg["sum_aspect"].to_numpy(np.float64)
                          / np.maximum(agg["n"].to_numpy(np.float64), 1)),
    })
    return finish(res, ["bucket"])


# ---------------------------------------------------------------------------
# batched model inference over images (the CLIP/aesthetic-scorer shape)
# ---------------------------------------------------------------------------

# fixed "model" checkpoint: a seeded linear head over 8x8x3 resized
# pixels — stands in for a trained aesthetic/NSFW scorer; a real
# deployment swaps the weights ref for a loaded checkpoint, everything
# else (broadcast-once, per-worker deserialize, vectorized batch
# forward) is the production shape
_IMG_MODEL_SEED = 20260819
_IMG_MODEL_SIZE = 8


def image_model_weights(size: int = _IMG_MODEL_SIZE):
    """(bias, weight_vector[size*size*3]) — deterministic fake
    checkpoint, identical for query and integrity check."""
    rng = np.random.default_rng(_IMG_MODEL_SEED)
    w = rng.normal(0.0, 0.05, size * size * 3)
    return float(rng.normal(0.0, 0.1)), w


class _PerImageFeatureStage:
    """Shared scaffold for the per-image feature gates
    (``ImageModelScorer`` / ``CaptionAlignmentScorer`` /
    ``ImageSharpnessStage``): deref the broadcast payload table once per
    worker, zero-copy blob views, one decode per image, then delegate to
    the subclass's feature arithmetic. Subclasses declare

    - ``EXTRA_COLS`` — payload-table columns to ride alongside
      image_id/fmt into ``features_of`` (e.g. ``caption``),
    - ``FEATURES`` — ``(name, r4?)`` float64 feature columns emitted
      after ``image_id`` (``r4?`` rounds for bit-exact recompute
      checks),

    and implement ``features_of(pix, *extras) -> tuple`` plus
    ``keep_of(cols) -> bool array`` (computed from the ROUNDED columns
    so query and integrity check agree bit-for-bit). All three are
    dispatched task-pool via their ``make_*_fn`` wrappers — per-worker
    cached state, decode-bound, metadata-only output, no exchange."""

    EXTRA_COLS: tuple = ()
    FEATURES: tuple = ()

    def __init__(self, images_ref):
        from ..codec import decode_image
        from ..stages.fetch import _deref, blob_view

        t = _deref(images_ref)
        self.tab = t.select(
            ["image_id", "fmt", *self.EXTRA_COLS]).combine_chunks()
        self._blobs = blob_view(t)
        self._decode = decode_image

    def features_of(self, pix, *extras) -> tuple:
        raise NotImplementedError

    def keep_of(self, cols: dict) -> np.ndarray:
        raise NotImplementedError

    def decoded(self, batch: pa.Table):
        """Yield (pix, *extras) per batch row — the shared broadcast-
        table lookup + decode dispatch (``__call__`` and the retrieval
        embed fn both go through this single copy)."""
        import pyarrow.compute as pc

        idx = pc.index_in(batch.column("image_id"),
                          value_set=self.tab.column("image_id"))
        src = np.asarray(idx)
        fmts = pc.take(self.tab.column("fmt"), idx).to_pylist()
        extras = [pc.take(self.tab.column(c), idx).to_pylist()
                  for c in self.EXTRA_COLS]
        for i in range(len(batch)):
            pix = self._decode(self._blobs[int(src[i])].as_buffer(), fmts[i])
            yield (pix, *(e[i] for e in extras))

    def __call__(self, batch: pa.Table) -> pa.Table:
        if len(batch) == 0:  # typed empty (empty-world safety)
            out = {"image_id": pa.array([], pa.string())}
            for name, _ in self.FEATURES:
                out[name] = pa.array([], pa.float64())
            out["keep"] = pa.array([], pa.bool_())
            return pa.table(out)
        rows = [self.features_of(pix, *extras)
                for pix, *extras in self.decoded(batch)]
        from .common import r4

        cols = {}
        for j, (name, do_r4) in enumerate(self.FEATURES):
            arr = np.array([r[j] for r in rows], np.float64)
            cols[name] = r4(arr) if do_r4 else arr
        out = {"image_id": batch.column("image_id")}
        for name, _ in self.FEATURES:
            out[name] = pa.array(cols[name], pa.float64())
        out["keep"] = pa.array(self.keep_of(cols))
        return pa.table(out)


def _session_put(tag: str, build):
    """Session-cached ``ray.put`` of a deterministic checkpoint — a
    stable ref across repeat queries keeps the per-worker ``_cached``
    state keys stable too, so towers/weights deserialize once per
    worker per SESSION. One shared invalidation state machine:
    ``ops.common.session_put``."""
    from .common import session_put

    return session_put(("ckpt", tag), build)


def _map_id_blocks(ids: pa.Table, fn, n_blocks: int,
                   batch_size: int = 1024) -> pd.DataFrame:
    """Split an id table into ``n_blocks`` Arrow blocks and stream them
    through a task-pool ``map_batches`` (per-worker cached state via
    the ``fn`` wrapper); raw frame out. The single copy of the
    block-partitioning boilerplate — the gate driver and the retrieval
    embedding stage both use it."""
    import ray.data as rd

    step = max(1, -(-len(ids) // n_blocks))
    blocks = [ids.slice(i, step) for i in range(0, len(ids), step)]
    return rd.from_arrow(blocks).map_batches(
        fn,
        batch_format="pyarrow",
        batch_size=batch_size,
        num_cpus=1,
    ).to_pandas()


def _run_per_image_stage(sf_dir: str, fn, n_blocks: int = 32,
                         batch_size: int = 1024) -> pd.DataFrame:
    """Shared driver for the per-image feature gates: the world's id
    column through ``_map_id_blocks``, one metadata row per image."""
    from ..pipelines.flagship import world_for

    w = world_for(sf_dir)
    return finish(_map_id_blocks(w.images.select(["image_id"]), fn,
                                 n_blocks, batch_size), ["image_id"])


class ImageModelScorer(_PerImageFeatureStage):
    """Model-inference stage over image payloads: decode (repo codec),
    nearest-neighbor resize to the model's input geometry, one linear
    forward + sigmoid per image — weights deserialized ONCE per worker
    from a broadcast ref (the ``_ModelScorer`` batched-inference
    pattern on the image axis). Dispatched task-pool via
    ``make_image_scorer_fn``."""

    FEATURES = (("score", True),)

    def __init__(self, images_ref, weights_ref, size: int = _IMG_MODEL_SIZE):
        super().__init__(images_ref)
        from .common import bcast_get

        self.bias, self.w = bcast_get(weights_ref)
        self.size = size

    @staticmethod
    def score_of(pix, bias: float, w, size: int) -> float:
        """Shared forward pass (query + violation check both call this
        on their OWN decodes; the check's independence is in the decode
        path and the coverage accounting, not the model arithmetic —
        same contract as ``ImageCurator.stats_of``)."""
        h, wd = pix.shape[:2]
        yi = (np.arange(size) * h) // size
        xi = (np.arange(size) * wd) // size
        x = pix[yi][:, xi].astype(np.float64).ravel() / 255.0
        z = bias + float(np.dot(x, w))
        return 1.0 / (1.0 + np.exp(-z))

    def features_of(self, pix, *extras) -> tuple:
        return (self.score_of(pix, self.bias, self.w, self.size),)

    def keep_of(self, cols: dict) -> np.ndarray:
        return cols["score"] >= 0.5


def make_image_scorer_fn(images_ref, weights_ref):
    """Task-pool wrapper with per-worker cached model state (the
    ``make_channel_moments_fn`` idiom)."""
    from ..stages.fetch import _cached

    key = ("img_model",
           getattr(images_ref, "hex", lambda: id(images_ref))(),
           getattr(weights_ref, "hex", lambda: id(weights_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(
            key, lambda: ImageModelScorer(images_ref, weights_ref))(batch)

    return fn


def score_images_model(sf_dir: str) -> pd.DataFrame:
    """Model-based scoring of every image of the tier's world — the
    batched-inference gate (aesthetic/NSFW scoring) an image-curation
    pipeline runs between decode and dataset write. One row per image:
    (image_id, score, keep).

    Scale shape: weights ship once (``ray.put``), deserialize once per
    worker; the payload table is the session-cached broadcast; scoring
    streams metadata-only output. At 100 TB this is decode-bound, and
    the stage parallelizes to the full CPU count with no exchange."""
    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    wref = _session_put("img_model_w", image_model_weights)
    return _run_per_image_stage(
        sf_dir, make_image_scorer_fn(images_ref, wref))


# ---------------------------------------------------------------------------
# caption–image alignment (CLIP-style dual-encoder filtering gate)
# ---------------------------------------------------------------------------

_ALIGN_DIM = 64
_ALIGN_SIZE = 16
_ALIGN_SEED = 20260820
# fixed gate on the rounded score; median alignment on this world is
# ~-0.03, so 0.0 splits the corpus and exercises both keep branches
ALIGN_KEEP_MIN = 0.0


def alignment_proj(dim: int = _ALIGN_DIM, size: int = _ALIGN_SIZE):
    """Deterministic fake image-encoder checkpoint: a (dim, size·size·3)
    Gaussian projection, identical for query and integrity check (the
    ``image_model_weights`` contract on the dual-encoder axis)."""
    rng = np.random.default_rng(_ALIGN_SEED)
    return rng.normal(0.0, 1.0, (dim, size * size * 3))


class CaptionAlignmentScorer(_PerImageFeatureStage):
    """Dual-encoder alignment scoring over image+caption pairs — the
    CLIP-style filtering gate an image-text curation pipeline runs to
    drop mismatched pairs (the LAION recipe). Image tower: nearest-
    neighbor resize to the model geometry, linear projection to a
    d=64 embedding, L2 normalize. Text tower: signed feature hashing of
    whitespace tokens (blake2b → (index, sign)), L2 normalize. Score =
    cosine of the two embeddings.

    Scale shape: the projection ships once (``ray.put``) and
    deserializes once per worker; captions ride the broadcast payload
    table (they are part of the input_hint row); decode-bound task
    pool, no exchange — same profile as ``ImageModelScorer``."""

    EXTRA_COLS = ("caption",)
    FEATURES = (("alignment", True),)

    def __init__(self, images_ref, proj_ref,
                 dim: int = _ALIGN_DIM, size: int = _ALIGN_SIZE):
        super().__init__(images_ref)
        from .common import bcast_get

        self.proj = bcast_get(proj_ref)
        self.dim = dim
        self.size = size

    @staticmethod
    def embed_text(caption: str, dim: int = _ALIGN_DIM) -> np.ndarray:
        """Signed-feature-hashing text tower (shared arithmetic; an
        empty/all-collision caption embeds to the zero vector and
        scores 0.0 by convention)."""
        import hashlib

        vec = np.zeros(dim, np.float64)
        for tok in caption.split():
            h = int.from_bytes(
                hashlib.blake2b(tok.encode(), digest_size=8).digest(),
                "little")
            vec[(h >> 1) % dim] += 1.0 if (h & 1) else -1.0
        n = float(np.linalg.norm(vec))
        return vec / n if n else vec

    @staticmethod
    def embed_image(pix, proj, size: int = _ALIGN_SIZE) -> np.ndarray:
        """Image tower: nearest-neighbor resize, linear projection,
        L2 normalize (shared arithmetic — ``alignment_of`` and the
        retrieval eval both rank with exactly this embedding)."""
        h, wd = pix.shape[:2]
        yi = (np.arange(size) * h) // size
        xi = (np.arange(size) * wd) // size
        x = pix[yi][:, xi].astype(np.float64).ravel() / 255.0
        e = proj @ x
        n = float(np.linalg.norm(e))
        return e / n if n else e

    @classmethod
    def alignment_of(cls, pix, caption: str, proj,
                     dim: int = _ALIGN_DIM,
                     size: int = _ALIGN_SIZE) -> float:
        """Shared forward pass (query + violation check both call this
        on their OWN decodes; the check's independence is in the decode
        path and coverage accounting — the ``ImageModelScorer.score_of``
        contract)."""
        return float(np.dot(cls.embed_image(pix, proj, size),
                            cls.embed_text(caption, dim)))

    def features_of(self, pix, caption) -> tuple:
        return (self.alignment_of(
            pix, caption, self.proj, self.dim, self.size),)

    def keep_of(self, cols: dict) -> np.ndarray:
        return cols["alignment"] >= ALIGN_KEEP_MIN


def make_alignment_fn(images_ref, proj_ref):
    """Task-pool wrapper with per-worker cached dual-encoder state."""
    from ..stages.fetch import _cached

    key = ("cap_align",
           getattr(images_ref, "hex", lambda: id(images_ref))(),
           getattr(proj_ref, "hex", lambda: id(proj_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(
            key, lambda: CaptionAlignmentScorer(images_ref, proj_ref))(batch)

    return fn


def caption_image_alignment(sf_dir: str) -> pd.DataFrame:
    """CLIP-style caption–image alignment score for every image+caption
    pair of the tier's world: (image_id, alignment, keep) — the
    cross-modal filtering gate between decode and dataset write.

    Scale shape: identical to ``score_images_model`` — broadcast
    payload table + broadcast projection, per-worker cached towers,
    decode-bound task pool, metadata-only output, no exchange."""
    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    pref = _session_put("align_proj", alignment_proj)
    return _run_per_image_stage(
        sf_dir, make_alignment_fn(images_ref, pref))


# ---------------------------------------------------------------------------
# sharpness / focus measure (Laplacian variance gate)
# ---------------------------------------------------------------------------

# fixed gates: Laplacian variance on this world spans ~33–392 at the
# 16–40 px tiers (median ~53) and ~32–50 at the 56–72 px bench tier
# (larger images -> smoother per-pixel gradients), so 42 discriminates
# at BOTH; |lap| > 8 marks an edge pixel
SHARP_KEEP_MIN = 42.0
_EDGE_T = 8.0


class ImageSharpnessStage(_PerImageFeatureStage):
    """Focus-measure stage: decode (repo codec), grayscale, 5-point
    Laplacian over the interior, emit the classic variance-of-Laplacian
    sharpness score plus the edge-pixel ratio — the blur-filtering gate
    of an image-curation pipeline (a blurry crawl image has low
    Laplacian variance regardless of brightness/contrast, which is why
    this is a separate feature from ``ImageCurator``'s photometric
    stats)."""

    FEATURES = (("sharpness", True), ("edge_ratio", True))

    @staticmethod
    def sharpness_of(pix) -> tuple[float, float]:
        """Shared feature arithmetic: (variance of 5-point Laplacian,
        fraction of interior pixels with |lap| > _EDGE_T). Images
        smaller than 3×3 have an empty interior and score (0, 0)."""
        g = pix.astype(np.float64).mean(axis=2)
        lap = (4.0 * g[1:-1, 1:-1] - g[:-2, 1:-1] - g[2:, 1:-1]
               - g[1:-1, :-2] - g[1:-1, 2:])
        if lap.size == 0:
            return 0.0, 0.0
        return float(lap.var()), float(np.mean(np.abs(lap) > _EDGE_T))

    def features_of(self, pix, *extras) -> tuple:
        return self.sharpness_of(pix)

    def keep_of(self, cols: dict) -> np.ndarray:
        return cols["sharpness"] >= SHARP_KEEP_MIN


def make_sharpness_fn(images_ref):
    """Task-pool wrapper with per-worker cached decoder state."""
    from ..stages.fetch import _cached

    key = ("img_sharp",
           getattr(images_ref, "hex", lambda: id(images_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(key, lambda: ImageSharpnessStage(images_ref))(batch)

    return fn


def image_sharpness(sf_dir: str) -> pd.DataFrame:
    """Variance-of-Laplacian sharpness + edge-ratio for every image of
    the tier's world: (image_id, sharpness, edge_ratio, keep) — the
    blur gate of an image-curation pipeline.

    Scale shape: broadcast payload table, per-worker cached state,
    decode-bound task pool, metadata-only output, no exchange."""
    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    return _run_per_image_stage(sf_dir, make_sharpness_fn(images_ref))


# ---------------------------------------------------------------------------
# image→text retrieval evaluation (recall@k over in-batch candidates)
# ---------------------------------------------------------------------------

_RETRIEVAL_Q = 128


def _retrieval_sample(w, n_queries: int) -> list[str]:
    """Deterministic stride-sample of query image ids (the checks'
    picking convention, shared by query and violation check)."""
    ids_sorted = sorted(w.images.column("image_id").to_pylist())
    if not ids_sorted:
        return []
    step = max(1, len(ids_sorted) // n_queries)
    return sorted(set(ids_sorted[::step][:n_queries]))


def make_image_embed_fn(images_ref, proj_ref):
    """Task-pool wrapper emitting (image_id, embedding list<float64>)
    through the cached ``CaptionAlignmentScorer`` image tower."""
    from ..stages.fetch import _cached

    # same key as make_alignment_fn: with the session-cached proj ref
    # (_session_put) the alignment gate's per-worker scorer state is
    # genuinely shared, not evicted
    key = ("cap_align",
           getattr(images_ref, "hex", lambda: id(images_ref))(),
           getattr(proj_ref, "hex", lambda: id(proj_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table({
                "image_id": pa.array([], pa.string()),
                "embedding": pa.array([], pa.list_(pa.float64())),
            })
        st = _cached(
            key, lambda: CaptionAlignmentScorer(images_ref, proj_ref))
        embs = [st.embed_image(pix, st.proj, st.size).tolist()
                for pix, *_ in st.decoded(batch)]
        return pa.table({
            "image_id": batch.column("image_id"),
            "embedding": pa.array(embs, pa.list_(pa.float64())),
        })

    return fn


def retrieval_ranks(img_emb: np.ndarray, txt_emb: np.ndarray) -> np.ndarray:
    """Optimistic 1-indexed rank of the TRUE caption for each query
    image: scores = img_emb @ txt_emb.T (row i's true caption is column
    i), rank_i = 1 + #{j: S[i,j] > S[i,i]} — ties resolve in favor of
    the true caption (deterministic; shared by query and check)."""
    if len(img_emb) == 0:
        return np.zeros(0, np.int64)
    s = img_emb @ txt_emb.T
    own = np.diag(s)
    return 1 + (s > own[:, None]).sum(axis=1).astype(np.int64)


def image_text_retrieval(sf_dir: str,
                         n_queries: int = _RETRIEVAL_Q) -> pd.DataFrame:
    """Image→text retrieval evaluation — the standard dual-encoder
    quality metric (CLIP-style recall@k with in-batch candidates): for
    a deterministic stride-sample of query images, embed each image
    (distributed decode + the alignment gate's image tower) and rank
    its TRUE caption against the sample's other captions by cosine.
    One row per query image: (image_id, rank, hit1, hit5).

    Scale shape: the candidate pool is the FIXED-SIZE sample (in-batch
    negatives — the standard protocol), so the driver-side score matrix
    is Q×Q at any corpus size; the distributed part is the decode-bound
    embedding stage over only the sampled ids (pruned id blocks through
    the broadcast payload table). Corpus recall@1/@5 are one mean()
    over the returned frame."""
    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    picked = _retrieval_sample(w, n_queries)
    if not picked:
        return finish(pd.DataFrame({
            "image_id": pd.Series([], dtype="str"),
            "rank": pd.Series([], dtype="int64"),
            "hit1": pd.Series([], dtype="bool"),
            "hit5": pd.Series([], dtype="bool"),
        }), ["image_id"])
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    pref = _session_put("align_proj", alignment_proj)
    ids = pa.table({"image_id": pa.array(picked, pa.string())})
    emb = _map_id_blocks(
        ids, make_image_embed_fn(images_ref, pref), n_blocks=8,
    ).sort_values("image_id", kind="mergesort")
    img_emb = np.asarray(emb["embedding"].tolist(), np.float64)

    # caption pool: the sampled images' true captions, in the SAME
    # sorted-id order (column i is row i's true caption) — a pruned
    # filter on the metadata columns, never the payload bytes
    import pyarrow.compute as pcmp

    pick_arr = pa.array(picked, pa.string())
    cap_tab = w.images.filter(
        pcmp.is_in(w.images.column("image_id"), value_set=pick_arr)
    ).select(["image_id", "caption"])
    caps = dict(zip(cap_tab.column("image_id").to_pylist(),
                    cap_tab.column("caption").to_pylist()))
    txt_emb = np.stack([
        CaptionAlignmentScorer.embed_text(caps[i])
        for i in emb["image_id"]])

    rank = retrieval_ranks(img_emb, txt_emb)
    return finish(pd.DataFrame({
        "image_id": emb["image_id"].astype("str").to_numpy(),
        "rank": rank,
        "hit1": rank == 1,
        "hit5": rank <= 5,
    }), ["image_id"])


# ---------------------------------------------------------------------------
# fused pair curation (all gates, one decode)
# ---------------------------------------------------------------------------


class PairCurationStage(_PerImageFeatureStage):
    """Fused image+caption pair-curation gate — the full LAION-style
    filter stack (photometric quality, blur, model score, caption
    alignment) evaluated in ONE decode per image. The separate gate
    queries each pay their own decode; a production curation pipeline
    runs the gates together, and at 100 TB the decode IS the cost, so
    fusing 4 gates into one pass is ~4× cheaper than chaining them.
    Feature arithmetic is the SAME statics the individual gates use
    (``ImageCurator.stats_of``, ``ImageSharpnessStage.sharpness_of``,
    ``ImageModelScorer.score_of``,
    ``CaptionAlignmentScorer.alignment_of``), so the fused columns
    match the individual queries' r4 outputs bit-for-bit. keep = ALL
    gates pass, thresholds applied to the ROUNDED columns —
    ``ImageCurator.stats_of`` rounds brightness/contrast the same way
    before its gate, so the photometric keep decision is defined
    identically here and in ``curate_images``."""

    EXTRA_COLS = ("caption",)
    FEATURES = (("brightness", True), ("contrast", True),
                ("min_side", True), ("sharpness", True),
                ("edge_ratio", True), ("score", True),
                ("alignment", True))

    def __init__(self, images_ref, weights_ref, proj_ref):
        super().__init__(images_ref)
        from .common import bcast_get

        self.bias, self.w = bcast_get(weights_ref)
        self.proj = bcast_get(proj_ref)

    def features_of(self, pix, caption) -> tuple:
        b, c, _aspect, min_side, _keep = ImageCurator.stats_of(pix)
        sh, er = ImageSharpnessStage.sharpness_of(pix)
        sc = ImageModelScorer.score_of(pix, self.bias, self.w,
                                       _IMG_MODEL_SIZE)
        al = CaptionAlignmentScorer.alignment_of(pix, caption, self.proj)
        return (b, c, float(min_side), sh, er, sc, al)

    @staticmethod
    def keep_mask(cols: dict) -> np.ndarray:
        """Shared gate conjunction over the ROUNDED feature columns
        (query + violation check both apply this to their own
        features)."""
        return ((cols["brightness"] >= ImageCurator.BRIGHT_LO)
                & (cols["brightness"] <= ImageCurator.BRIGHT_HI)
                & (cols["contrast"] >= ImageCurator.CONTRAST_MIN)
                & (cols["min_side"] >= ImageCurator.MIN_SIDE)
                & (cols["sharpness"] >= SHARP_KEEP_MIN)
                & (cols["score"] >= 0.5)
                & (cols["alignment"] >= ALIGN_KEEP_MIN))

    def keep_of(self, cols: dict) -> np.ndarray:
        return self.keep_mask(cols)


def make_pair_curation_fn(images_ref, weights_ref, proj_ref):
    """Task-pool wrapper with per-worker cached fused-gate state."""
    from ..stages.fetch import _cached

    key = ("pair_curate",
           getattr(images_ref, "hex", lambda: id(images_ref))(),
           getattr(weights_ref, "hex", lambda: id(weights_ref))(),
           getattr(proj_ref, "hex", lambda: id(proj_ref))())

    def fn(batch: pa.Table) -> pa.Table:
        return _cached(key, lambda: PairCurationStage(
            images_ref, weights_ref, proj_ref))(batch)

    return fn


def curate_image_text_pairs(sf_dir: str) -> pd.DataFrame:
    """Fused pair-curation gate over the tier's world: every image
    decoded ONCE, all four filter families evaluated (photometric,
    blur, model score, caption alignment), one metadata row per image
    with the full feature vector and the conjunction keep decision —
    the end-to-end LAION filter as a single Ray Data stage.

    Scale shape: broadcast payload table + both checkpoints ship once
    per session (``_session_put``); per-worker cached fused state; one
    decode-bound task pool; no exchange."""
    from ..pipelines.flagship import _ref_for, tier_of, world_for

    w = world_for(sf_dir)
    images_ref = _ref_for(tier_of(sf_dir), w, "images")
    wref = _session_put("img_model_w", image_model_weights)
    pref = _session_put("align_proj", alignment_proj)
    return _run_per_image_stage(
        sf_dir, make_pair_curation_fn(images_ref, wref, pref))
