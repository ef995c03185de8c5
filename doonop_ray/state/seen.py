"""URL-seen set: cuckoo filter + exact set, sharded across actors.

Reference: a single driver-held ``HashSet<Url>`` with insert-at-discovery
semantics (/root/reference/src/workload.rs:28,202-211). The rebuild
shards by ``hash(canonical_url) % num_shards`` so membership checks are
a hash-partitioned anti-join instead of a driver bottleneck, and bounds
memory with a cuckoo filter (Fan et al., "Cuckoo Filter: Practically
Better Than Bloom", CoNEXT 2014):

- ``exact`` mode (default): python set is the authority — bit-exact
  conformance with the reference's seen set; the cuckoo filter is kept
  in sync to exercise the scale path.
- ``cuckoo`` mode: the filter is the authority — fixed memory at
  10^10-URL scale, with a documented false-positive rate (a false
  positive drops a URL exactly once; deletion-capable so retries could
  un-mark if ever needed).

``check_and_add`` is batch-first: one actor round-trip per batch per
shard, not per URL.
"""

from __future__ import annotations

import pickle

import numpy as np

_FP_BITS = 16
_BUCKET = 4
_MAX_KICKS = 500


def url_hash64(url: str) -> int:
    """Stable 64-bit hash of a canonical URL (blake2b; no PYTHONHASHSEED).

    Used by the cuckoo filter (needs 64 fingerprint+index bits); shard
    routing uses the vectorizable polynomial hash (``shard_of`` /
    ``shards_of_batch``)."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(url.encode("utf-8", "surrogatepass"), digest_size=8).digest(),
        "big",
    )


_POLY = 0x100000001B3  # FNV-1a 64-bit prime (odd ⇒ full-period mod 2^64)
_MASK64 = (1 << 64) - 1

try:  # Rust-vectorized string hash (20-40x the crc32-genexp it replaced)
    import polars as _pl
except ImportError:  # pragma: no cover - polars ships in this environment
    _pl = None

# which batch-hash implementation this process routes with; recorded in
# crawl checkpoints so a resume under a different environment fails
# loudly instead of silently routing URLs to the wrong seen shard.
# polars documents ``Series.hash`` as unstable across versions, so the
# polars version is part of the name.
HASH_IMPL = (f"polars-ahash/{_pl.__version__}" if _pl is not None
             else "fnv-poly64-splitmix64")


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (vectorized, wraps mod 2^64): spreads every
    input bit over the low bits that ``% num_shards`` keeps."""
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _hash64_poly(arr) -> np.ndarray:
    """Fallback: 64-bit polynomial hash computed with numpy segmented
    ops over the Arrow offsets+data buffers (``h = sum(byte_i *
    P^(len-1-i)) mod 2^64``), then the splitmix64 finalizer: modulo a
    power of two the raw polynomial weights the bytes by powers of P
    that cycle with a short period (mod 8, P = 3 and P^2 = 1), so
    structured URL sets could pile onto a few shards. Only used when
    polars is absent."""
    import pyarrow as pa

    n = len(arr)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    buf_off = np.frombuffer(arr.buffers()[1], dtype=off_dtype)
    offs = buf_off[arr.offset: arr.offset + n + 1].astype(np.int64)
    start, end = int(offs[0]), int(offs[-1])
    data = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[start:end]
    lens = np.diff(offs)
    total = end - start
    if total == 0:
        return np.zeros(n, dtype=np.uint64)
    maxlen = int(lens.max())
    pows = np.full(maxlen, np.uint64(_POLY))
    pows[0] = 1
    np.cumprod(pows, out=pows)  # uint64 overflow wraps mod 2^64 — wanted
    seg_end = np.repeat(offs[1:] - start, lens)
    pos_from_end = seg_end - 1 - np.arange(total, dtype=np.int64)
    terms = data.astype(np.uint64) * pows[pos_from_end]
    # reduceat quirks: an empty segment returns terms[idx] instead of 0,
    # and a trailing empty segment would index past the end — clip then
    # zero the empties explicitly
    idx = np.minimum(offs[:-1] - start, total - 1)
    out = np.add.reduceat(terms, idx)
    out[lens == 0] = 0
    return _mix64(out)


def hash64_batch(arr) -> np.ndarray:
    """Vectorized 64-bit hash of a UTF-8 string column — the seen-shard
    routing hash (router hot path: no ``to_pylist``, no per-string
    Python). Accepts ``pa.Array``/``ChunkedArray`` of string or
    large_string, or a plain list of str.

    Deterministic across processes within one environment (polars'
    ahash uses fixed seeds; the numpy fallback is a fixed polynomial),
    but NOT across environments that disagree on ``HASH_IMPL`` — the
    checkpoint manifest pins it for resume safety."""
    import pyarrow as pa

    if isinstance(arr, (list, tuple)):
        arr = pa.array(arr, pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if len(arr) == 0:
        return np.zeros(0, dtype=np.uint64)
    if _pl is not None:
        return _pl.from_arrow(arr).hash(seed=0).to_numpy()
    return _hash64_poly(arr)


def shards_of_batch(arr, num_shards: int) -> np.ndarray:
    """Batch seen-shard routing (the router's hot path)."""
    return (hash64_batch(arr) % np.uint64(num_shards)).astype(np.int64)


def shard_of(url: str, num_shards: int) -> int:
    """Scalar twin of ``shards_of_batch`` — delegates to the batch path
    so the two can never diverge. Only for low-volume call sites."""
    return int(shards_of_batch([url], num_shards)[0])


def host_shard_of(url: str, num_shards: int) -> int:
    """Frontier routing by HOST hash: every URL of a host lands on one
    frontier shard, so (a) that host's robots.txt compiles exactly once
    cluster-wide (reference parity: robots.rs:5-12 caches per (domain,
    robot)) and (b) the per-host politeness token bucket is a single
    globally-correct bucket instead of N per-shard ones. The seen set
    keeps URL-hash sharding for balance; only the frontier is
    host-partitioned. Skewed hosts are bounded by the per-host
    politeness/per-drain caps, not by shard placement."""
    import zlib

    from ..url import host_of

    return zlib.crc32(host_of(url).encode("utf-8", "surrogatepass")) % num_shards


class CuckooFilter:
    """Numpy-backed (n_buckets x 4) 16-bit-fingerprint cuckoo filter."""

    def __init__(self, capacity: int, seed: int = 0):
        n = max(16, int(capacity / (_BUCKET * 0.95)))
        self.n_buckets = 1 << (n - 1).bit_length()  # power of two
        self.table = np.zeros((self.n_buckets, _BUCKET), dtype=np.uint16)
        self.rng = np.random.default_rng(seed)
        self.count = 0
        # rare eviction-failure stash of (bucket_index, fingerprint) pairs;
        # both valid buckets of the homeless fingerprint are recorded
        self.overflow: set[tuple[int, int]] = set()

    def _fp_and_index(self, h: int) -> tuple[int, int]:
        fp = (h & 0xFFFF) or 1  # fingerprint 0 means empty slot
        i1 = (h >> 16) % self.n_buckets
        return fp, i1

    def _alt_index(self, i: int, fp: int) -> int:
        # standard partial-key cuckoo: i2 = i1 xor hash(fp)
        return (i ^ (fp * 0x5BD1E995)) % self.n_buckets

    def contains_hash(self, h: int) -> bool:
        fp, i1 = self._fp_and_index(h)
        if fp in self.table[i1] or (i1, fp) in self.overflow:
            return True
        i2 = self._alt_index(i1, fp)
        return fp in self.table[i2] or (i2, fp) in self.overflow

    def add_hash(self, h: int) -> None:
        fp, i1 = self._fp_and_index(h)
        for i in (i1, self._alt_index(i1, fp)):
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # evict loop
        i = i1
        for _ in range(_MAX_KICKS):
            slot = int(self.rng.integers(0, _BUCKET))
            fp, self.table[i, slot] = int(self.table[i, slot]), fp
            i = self._alt_index(i, fp)
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        # table effectively full: stash the homeless fingerprint under both
        # of its valid buckets so membership stays false-negative-free
        self.overflow.add((i, fp))
        self.overflow.add((self._alt_index(i, fp), fp))
        self.count += 1

    def __contains__(self, url: str) -> bool:
        return self.contains_hash(url_hash64(url))

    def add(self, url: str) -> None:
        self.add_hash(url_hash64(url))


class SeenCore:
    """One shard of the seen set (embeddable in an actor or used inline)."""

    def __init__(self, mode: str = "exact", capacity: int = 1 << 16, seed: int = 0):
        assert mode in ("exact", "cuckoo")
        self.mode = mode
        self.exact: set[str] = set()
        self.filter = CuckooFilter(capacity, seed)

    def check_and_add(self, urls: list[str]) -> list[bool]:
        """True = first discovery (kept), False = already seen (dropped).

        Duplicates *within* the batch resolve in list order — first
        occurrence wins, matching sequential insertion
        (workload.rs:202-211).
        """
        out = []
        if self.mode == "exact":
            # pure set-speed hot path; the cuckoo filter is exercised by
            # "cuckoo" mode and its own tests, not synced here
            for u in urls:
                if u in self.exact:
                    out.append(False)
                else:
                    self.exact.add(u)
                    out.append(True)
        else:
            for u in urls:
                h = url_hash64(u)
                if self.filter.contains_hash(h):
                    out.append(False)
                else:
                    self.filter.add_hash(h)
                    out.append(True)
        return out

    def __len__(self) -> int:
        return len(self.exact) if self.mode == "exact" else self.filter.count

    def occupancy(self) -> dict[str, int]:
        """Memory-budget telemetry: ``stash`` > 0 means the cuckoo table
        is effectively full and membership is degrading toward an
        unbounded exact set — size ``seen_capacity_per_shard`` up."""
        return {
            "count": len(self),
            "stash": len(self.filter.overflow),
            "slots": self.filter.n_buckets * _BUCKET,
        }

    def snapshot(self) -> bytes:
        return pickle.dumps(
            {
                "mode": self.mode,
                "exact": self.exact,
                "table": self.filter.table,
                "overflow": self.filter.overflow,
                "count": self.filter.count,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        self.mode = st["mode"]
        self.exact = st["exact"]
        self.filter.table = st["table"]
        # geometry travels with the table: a shard rebuilt with a
        # different constructor capacity would otherwise mod every
        # lookup by the wrong n_buckets — silent false negatives and
        # duplicate crawling (ADVICE round 1)
        self.filter.n_buckets = int(st["table"].shape[0])
        self.filter.overflow = st["overflow"]
        self.filter.count = st["count"]


class SeenShard(SeenCore):
    """Ray-actor-ready shard: decorate at use site with @ray.remote so the
    module stays importable without a Ray session."""

    def urls(self) -> list[str]:
        return sorted(self.exact)
