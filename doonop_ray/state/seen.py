"""URL-seen set: cuckoo filter + exact set, one partition per frontier
shard.

Reference: a single ``HashSet<Url>`` beside the URL pool, held by the
crawl loop, with insert-at-discovery semantics (the reference's
src/workload.rs:28,202-211). The rebuild keeps that pairing per shard:
the seen set is partitioned by the same host hash as the frontier
(``host_shard_of``), and each ``FrontierShard`` actor holds its
partition as a ``SeenCore``, so a discovered link's membership check
and its push happen in one process. Memory is bounded with a cuckoo filter (Fan et al., "Cuckoo
Filter: Practically Better Than Bloom", CoNEXT 2014):

- ``exact`` mode (default): a python set is the authority — bit-exact
  conformance with the reference's seen set. No cuckoo filter is built:
  exact mode needs no numpy, holds no table and snapshots none.
- ``cuckoo`` mode: the filter is the authority — fixed memory at
  10^10-URL scale, with a documented false-positive rate (a false
  positive drops a URL exactly once; deletion-capable so retries could
  un-mark if ever needed). Once an insert's eviction walk has failed,
  the table is effectively full and later inserts whose two buckets are
  full go straight to the stash.

``check_and_add`` is batch-first: one actor round-trip per batch per
shard, not per URL.
"""

from __future__ import annotations

import pickle

_FP_BITS = 16
_BUCKET = 4
_MAX_KICKS = 500

# the shard partition a crawl checkpoint was written under; a resume
# refuses a manifest that names another one (e.g. the URL-hash
# "polars-ahash/<version>" partition of earlier checkpoints). crc32 of
# the host is the same in every environment, so no library version is
# part of the name.
HASH_IMPL = "host-crc32"


def url_hash64(url: str) -> int:
    """Stable 64-bit hash of a canonical URL (blake2b; no PYTHONHASHSEED).

    Used by the cuckoo filter (needs 64 fingerprint+index bits); shard
    routing hashes the host (``host_shard_of``)."""
    import hashlib

    return int.from_bytes(
        hashlib.blake2b(url.encode("utf-8", "surrogatepass"), digest_size=8).digest(),
        "big",
    )


def host_shard_of(url: str, num_shards: int) -> int:
    """Shard of a URL, by HOST hash: every URL of a host lands on one
    shard, so (a) that host's robots.txt compiles exactly once
    cluster-wide (reference parity: robots.rs:5-12 caches per (domain,
    robot)), (b) the per-host politeness token bucket is a single
    globally-correct bucket instead of N per-shard ones, and (c) the
    host's seen-set partition lives beside its frontier, so a link is
    checked and pushed in one process. Skewed hosts are bounded by the
    per-host politeness token buckets, not by shard placement."""
    import zlib

    from ..url import host_of

    return zlib.crc32(host_of(url).encode("utf-8", "surrogatepass")) % num_shards


# ``scheme://authority``: ``urlsplit`` reads the host from the text
# between the first ``//`` and the next ``/``, ``?`` or ``#``, so this
# prefix has the same host as the whole URL. A string without that shape
# does not match and is routed whole.
_ORIGIN_RE = r"^(?P<origin>[^/?#]*//[^/?#]*)"


def host_shards_of_batch(urls, num_shards: int) -> np.ndarray:
    """Batch twin of ``host_shard_of`` (the link router's hot path): an
    Arrow kernel cuts each URL to its origin, the origins are
    dictionary-encoded, and ``host_shard_of`` runs once per distinct
    origin, so the batch and scalar routing cannot diverge. Accepts a
    ``pa.Array``/``ChunkedArray`` of strings or a list of str."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(urls, (list, tuple)):
        urls = pa.array(urls, pa.string())
    elif isinstance(urls, pa.ChunkedArray):
        urls = urls.combine_chunks()
    n = len(urls)
    if num_shards == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    origin = pc.struct_field(pc.extract_regex(urls, _ORIGIN_RE), [0])
    enc = pc.dictionary_encode(pc.coalesce(origin, urls))
    per_origin = np.fromiter(
        (host_shard_of(o, num_shards) for o in enc.dictionary.to_pylist()),
        dtype=np.int64, count=len(enc.dictionary))
    return per_origin[enc.indices.to_numpy(zero_copy_only=False)]


class CuckooFilter:
    """Numpy-backed (n_buckets x 4) 16-bit-fingerprint cuckoo filter."""

    def __init__(self, capacity: int, seed: int = 0):
        import numpy as np

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
        import numpy as np

        fp, i1 = self._fp_and_index(h)
        i2 = self._alt_index(i1, fp)
        for i in (i1, i2):
            row = self.table[i]
            empty = np.flatnonzero(row == 0)
            if len(empty):
                row[empty[0]] = fp
                self.count += 1
                return
        if self.overflow:
            # a walk has already failed, so the table is effectively
            # full: another 500-kick walk would almost surely fail too.
            # Stash under both buckets, as a failed walk does.
            self.overflow.add((i1, fp))
            self.overflow.add((i2, fp))
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
        self.capacity = capacity
        self.seed = seed
        self.exact: set[str] = set()
        # exact mode never reads a filter: build (and import numpy for)
        # one only in cuckoo mode
        self.filter = (CuckooFilter(capacity, seed) if mode == "cuckoo"
                       else None)

    def check_and_add(self, urls: list[str]) -> list[bool]:
        """True = first discovery (kept), False = already seen (dropped).

        Duplicates *within* the batch resolve in list order — first
        occurrence wins, matching sequential insertion
        (workload.rs:202-211).
        """
        out = []
        if self.mode == "exact":
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
        unbounded exact set — raise ``expected_total_urls``. An
        exact shard has no slots and no stash."""
        if self.filter is None:
            return {"count": len(self), "stash": 0, "slots": 0}
        return {
            "count": len(self),
            "stash": len(self.filter.overflow),
            "slots": self.filter.n_buckets * _BUCKET,
        }

    def snapshot(self) -> bytes:
        st = {"mode": self.mode, "exact": self.exact}
        if self.filter is not None:
            st.update(table=self.filter.table, overflow=self.filter.overflow,
                      count=self.filter.count)
        return pickle.dumps(st, protocol=pickle.HIGHEST_PROTOCOL)

    def restore(self, blob: bytes) -> None:
        st = pickle.loads(blob)
        self.mode = st["mode"]
        self.exact = st["exact"]
        if self.mode == "exact":
            # a snapshot written before exact shards dropped their
            # filter still carries its (never read) table: ignored
            self.filter = None
            return
        if self.filter is None:
            self.filter = CuckooFilter(self.capacity, self.seed)
        self.filter.table = st["table"]
        # geometry travels with the table: a shard rebuilt with a
        # different constructor capacity would otherwise mod every
        # lookup by the wrong n_buckets — silent false negatives and
        # duplicate crawling (ADVICE round 1)
        self.filter.n_buckets = int(st["table"].shape[0])
        self.filter.overflow = st["overflow"]
        self.filter.count = st["count"]
