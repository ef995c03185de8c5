"""Deterministic synthetic world generator.

Replaces the reference's live WebDriver + fixture web site
(/root/reference/tests/www, docker-compose.yml) with seeded synthetic
tables matching FIXTURES.md:

- ``pages``  — the web graph: one row per fetchable URL, links in
  on-page document order (order matters: backend.rs:89-111 harvests
  hrefs in DOM order and frontier order depends on it).
- ``images`` — image+caption payload table with the authoritative
  input_hint schema (image_id, bytes, w, h, fmt, caption, phash).
- ``robots`` — robots.txt bodies per host (fixture for robots.rs:35-51).
- ``seeds``  — raw seed list incl. duplicates (cfg.rs:185-213).

Everything is a pure function of (seed, params): expected pixels and
captions are regenerable per image_id, so validation stages need no side
channel. Host sizes are Zipf-skewed to exercise hot-host salting.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import encode_image, phash64
from .robots import FETCH_ERROR_MARKER

CAPTION_WORDS = (
    "amber basalt cedar dune ember fjord grove harbor iris juniper "
    "kelp lagoon mesa nectar onyx prairie quartz reef sierra tundra"
).split()


@dataclass
class WorldParams:
    seed: int = 42
    n_hosts: int = 4
    pages_per_host: int = 8          # mean; per-host sizes are Zipf-skewed
    zipf_s: float = 1.2
    # skew-adversarial worlds: host 0 takes this fraction of ALL pages
    # (None = pure Zipf). Exercises the salted groupby(host) expansion
    # and per-host politeness under a single dominating host.
    hot_host_frac: float | None = None
    fanout: int = 3
    p_relative: float = 0.35
    p_cross: float = 0.2
    p_dead: float = 0.05
    p_invalid: float = 0.04
    p_image: float = 0.9
    img_min: int = 16
    img_max: int = 40
    p_jpeg: float = 0.5
    p_timeout: float = 0.06
    p_error: float = 0.04
    max_fail: int = 3
    p_robots_host: float = 0.5
    p_robots_err_host: float = 0.1
    robots_disallow_frac: float = 0.15
    n_seeds: int = 3
    with_images: bool = True


def host_name(h: int) -> str:
    return f"h{h:03d}.example.com"


def page_url(h: int, i: int) -> str:
    return f"https://{host_name(h)}/p/{i}"


def image_index(image_id: str) -> int:
    """The integer after an image id's first ``-`` (``img-0000042`` →
    42), which seeds its truth. Raises IndexError or ValueError for an
    id without one."""
    return int(image_id.split("-")[1])


def expected_pixels(image_id: str, seed: int, img_min: int = 16,
                    img_max: int = 40) -> np.ndarray:
    """Regenerate the ground-truth pixels for an image_id — a pure
    function of (image_id, seed, size bounds).

    This is the definition of truth: the world builder encodes it, the
    ``image_validate`` check recomputes it driver-side, and
    ``TruthBatch`` (the ``Validator``'s chunk path) is tested bit for
    bit against it (``tests/test_properties.py``).

    It is kept cheap so that it does not drown the real work it
    harnesses (entropy decode + PSNR). Per image, an SFC64 generator
    (~2x PCG64's raw byte rate) seeded with ``[seed, 7919, index]``
    draws the width and height, then per-channel frequencies and
    phases; the texture is a SUM of a sinusoidal ramp down the rows and
    a cosine ramp across the columns (uint8, no float (h, w, 3) temp),
    and full-resolution noise is the generator's next ``h*w*3`` raw
    bytes masked to 3 bits (2D noise keeps the PNG/JPEG blobs' entropy
    realistic), added in HWC order. Ramps are lru_cached (np.linspace
    pays an errstate context manager per call).

    Cost on one CPU (56-72 px): ~110 us/image, of which the generator's
    construction, draws and noise bytes are about half, so the chunk
    validator seeds its generators together (``TruthBatch``) instead."""
    idx = image_index(image_id)
    rng = np.random.Generator(np.random.SFC64([seed, 7919, idx]))
    w = int(rng.integers(img_min, img_max + 1))
    h = int(rng.integers(img_min, img_max + 1))
    f = rng.uniform(1, 5, (3, 2)).astype(np.float32)
    p = rng.uniform(0, 2 * np.pi, (3, 2)).astype(np.float32)
    two_pi = np.float32(2 * np.pi)
    ay = (np.float32(61.0) + np.float32(45.0) * np.sin(
        two_pi * f[:, :1] * _ramp(h)[None, :] + p[:, :1])).astype(np.uint8)
    bx = (np.float32(61.0) + np.float32(45.0) * np.cos(
        two_pi * f[:, 1:] * _ramp(w)[None, :] + p[:, 1:])).astype(np.uint8)
    # (3,h,w) contiguous broadcast add: ay in [16,106] + bx in [16,106]
    # -> [32,212]; +7 noise max 219, no saturation pass needed
    chw = np.add(ay[:, :, None], bx[:, None, :])
    noise = np.frombuffer(rng.bytes(h * w * 3), dtype=np.uint8)
    out = noise.reshape(h, w, 3) & 7
    out += chw.transpose(1, 2, 0)  # fused gather+add, contiguous write
    return out


@functools.lru_cache(maxsize=1024)
def _ramp(n: int) -> np.ndarray:
    return np.linspace(0.0, 0.5, n, dtype=np.float32)


# NumPy's SeedSequence (a pool of four 32-bit words) and SFC64 seeding,
# restated over arrays so that a chunk's generators are seeded in one
# pass (numpy/random/bit_generator.pyx, _sfc64.pyx; both are fixed-integer
# algorithms). TruthBatch checks itself against expected_pixels once per
# (seed, bounds) and process, so a NumPy whose streams differ falls back
# to expected_pixels rather than to wrong truth.
_M32 = 0xFFFFFFFF
_SS_POOL = 4
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_SS_XSHIFT = np.uint32(16)
_TWO_PI = np.float32(2 * np.pi)


def _ss_hashmix(v, const: int):
    """SeedSequence's ``hashmix``; returns the value and the next hash
    constant (a scalar sequence, the same for every row)."""
    v = v ^ np.uint32(const)
    const = const * _SS_MULT_A & _M32
    v = v * np.uint32(const)
    return v ^ (v >> _SS_XSHIFT), const


def _ss_mix(x, y):
    r = np.uint32(_SS_MIX_L) * x - np.uint32(_SS_MIX_R) * y
    return r ^ (r >> _SS_XSHIFT)


def _sfc64_seed_state(words) -> list:
    """``SFC64(SeedSequence(words))``'s state ``[a, b, c, counter]`` per
    row; ``words`` are the entropy words, uint32 arrays or scalars."""
    const = _SS_INIT_A
    pool = []
    for i in range(_SS_POOL):
        v, const = _ss_hashmix(words[i] if i < len(words) else np.uint32(0),
                               const)
        pool.append(v)
    for src in range(_SS_POOL):
        for dst in range(_SS_POOL):
            if src != dst:
                h, const = _ss_hashmix(pool[src], const)
                pool[dst] = _ss_mix(pool[dst], h)
    # generate_state(3, uint64): six words, little-endian pairs
    const = _SS_INIT_B
    half = []
    for i in range(6):
        v = pool[i % _SS_POOL] ^ np.uint32(const)
        const = const * _SS_MULT_B & _M32
        v = v * np.uint32(const)
        half.append((v ^ (v >> _SS_XSHIFT)).astype(np.uint64))
    s = [half[2 * k] | (half[2 * k + 1] << np.uint64(32)) for k in range(3)]
    s.append(np.uint64(1))
    for _ in range(12):
        _sfc64_next(s)
    return s


def _sfc64_next(s: list):
    """One SFC64 output per row; advances ``s`` in place."""
    a, b, c, n = s
    out = a + b + n
    s[0] = b ^ (b >> np.uint64(11))
    s[1] = c + (c << np.uint64(3))
    s[2] = ((c << np.uint64(24)) | (c >> np.uint64(40))) + out
    s[3] = n + np.uint64(1)
    return out


def _may_redraw(leftover, rng_excl):
    """Rows whose Lemire size draw may be rejected and redrawn: NumPy
    compares a leftover below the range with the exact threshold."""
    return leftover < rng_excl


def _ramp_chain(f, p, sizes, fn):
    """Every row's ``61 + 45·fn(2π·f·ramp + p)`` in ONE float32 chain
    with expected_pixels' operations (channel-major, in place), stacked
    as (Σ sizes, 3) uint8; also the row offsets."""
    at = np.zeros(len(sizes) + 1, np.int64)
    np.cumsum(sizes, out=at[1:])
    t = np.repeat((_TWO_PI * f).T, sizes, axis=1)
    t *= np.concatenate([_ramp(k) for k in sizes.tolist()])
    t += np.repeat(p.T, sizes, axis=1)
    fn(t, out=t)
    t *= np.float32(45.0)
    t += np.float32(61.0)
    return t.T.astype(np.uint8, order="C"), at


class TruthBatch:
    """``expected_pixels`` for a batch of image indices under one seed
    and one pair of size bounds, with the per-image generator work done
    once for the batch.

    In numpy, over every row: the seeding of each image's SFC64, both
    size draws (the low and then the high half of one output), both
    ``uniform((3, 2))`` draws, and the sine and cosine ramps. Per row,
    ``pixels(k)`` keeps only what is the image's own: its noise bytes
    (one reused SFC64, set to the row's state) and the texture add, in
    an (h, 3w) layout — HWC order, the order the PSNR reads.

    ``scalar[k]`` marks the rows that must take ``expected_pixels``
    instead: an index outside [0, 2**32) (more than one entropy word) or
    a size draw that may be redrawn. ``supports`` says whether a seed
    and bounds can be batched at all."""

    def __init__(self, idx: list[int], seed: int, img_min: int,
                 img_max: int):
        n = len(idx)
        inside = np.array([0 <= i <= _M32 for i in idx], dtype=bool)
        word = np.array([i if ok else 0 for i, ok in zip(idx, inside)],
                        dtype=np.uint32)
        self.scalar = ~inside
        with np.errstate(over="ignore"):
            s = _sfc64_seed_state([np.uint32(seed), np.uint32(7919), word])
            rng = img_max - img_min
            if rng:
                x = _sfc64_next(s)
                ex = np.uint64(rng + 1)
                lo_m = (x & np.uint64(_M32)) * ex
                hi_m = (x >> np.uint64(32)) * ex
                self.w = (lo_m >> np.uint64(32)).astype(np.int64) + img_min
                self.h = (hi_m >> np.uint64(32)).astype(np.int64) + img_min
                self.scalar |= _may_redraw(lo_m & np.uint64(_M32), ex)
                self.scalar |= _may_redraw(hi_m & np.uint64(_M32), ex)
            else:
                self.w = self.h = np.full(n, img_min, np.int64)
            # uniform(lo, hi, (3, 2)): lo + (hi - lo) * next_double, six
            # outputs each, then expected_pixels' float32 cast
            u = np.empty((12, n))
            for j in range(12):
                u[j] = (_sfc64_next(s) >> np.uint64(11)) * (1.0 / 2**53)
        f = (1.0 + 4.0 * u[:6].T).astype(np.float32).reshape(n, 3, 2)
        p = (0.0 + (2 * np.pi) * u[6:].T).astype(np.float32).reshape(n, 3, 2)
        self._state = np.stack(np.broadcast_arrays(*s), axis=1)
        ay, ay_at = _ramp_chain(f[:, :, 0], p[:, :, 0], self.h, np.sin)
        bx, bx_at = _ramp_chain(f[:, :, 1], p[:, :, 1], self.w, np.cos)
        # each row's 3 channel bytes, 8 times over: a 24-byte (3 x
        # uint64) unit whose row-wise repeat IS the (h, 3w) row texture
        self._ay8 = np.tile(ay, 8).view(np.uint64)
        self._bx = bx
        # the per-row loop reads Python ints
        self.h, self.w = self.h.tolist(), self.w.tolist()
        self.scalar = self.scalar.tolist()
        self._ay_at, self._bx_at = ay_at.tolist(), bx_at.tolist()
        self._bitgen = np.random.SFC64(0)

    @staticmethod
    def supports(seed: int, img_min: int, img_max: int) -> bool:
        """True for a seed of one entropy word and bounds whose size draw
        is a Lemire draw on 32 bits (or no draw), that NumPy computes as
        this class restates them."""
        return (0 <= seed <= _M32 and 1 <= img_min <= img_max < 2**31
                and _agrees(seed, img_min, img_max))

    def pixels(self, k: int) -> np.ndarray:
        """Row ``k``'s truth as an (h, 3w) uint8 array (``k`` must not be
        ``scalar``); its (h, w, 3) reshape is ``expected_pixels``."""
        h, w = self.h[k], self.w[k]
        self._bitgen.state = {"bit_generator": "SFC64",
                              "state": {"state": self._state[k]},
                              "has_uint32": 0, "uinteger": 0}
        nb = h * w * 3
        raw = self._bitgen.random_raw(-(-nb // 8)).astype("<u8", copy=False)
        out = raw.view(np.uint8)[:nb].reshape(h, 3 * w)
        np.bitwise_and(out, np.uint8(7), out=out)
        b = self._bx_at[k]
        out += self._bx[b:b + w].reshape(1, 3 * w)
        a = self._ay_at[k]
        ay = np.repeat(self._ay8[a:a + h], -(-w // 8), axis=0)
        out += ay.view(np.uint8).reshape(h, -1)[:, :3 * w]
        return out


@functools.lru_cache(maxsize=64)
def _agrees(seed: int, img_min: int, img_max: int) -> bool:
    """TruthBatch reproduces expected_pixels on a few indices (checked
    once per seed and bounds)."""
    probe = [0, 1, 7919, _M32]
    tb = TruthBatch(probe, seed, img_min, img_max)
    return all(tb.scalar[k] or np.array_equal(
        tb.pixels(k).reshape(tb.h[k], tb.w[k], 3),
        expected_pixels(f"img-{i}", seed, img_min, img_max))
        for k, i in enumerate(probe))


def expected_caption(image_id: str, seed: int) -> str:
    """Pure function of (image_id, seed); blake2b word picks instead of
    a numpy Generator — the per-row RNG construction alone cost 23 us
    and the validator pays this once per page (4 us now)."""
    idx = image_index(image_id)
    d = hashlib.blake2b(b"%d:%d" % (seed, idx), digest_size=12).digest()
    nw = len(CAPTION_WORDS)
    words = [CAPTION_WORDS[int.from_bytes(d[i:i + 2], "little") % nw]
             for i in range(0, 12, 2)]
    return f"caption {image_id}: " + " ".join(words)


@dataclass
class World:
    params: WorldParams
    pages: pa.Table
    images: pa.Table
    robots: pa.Table
    seeds: pa.Table
    host_sizes: list[int] = field(default_factory=list)

    def pages_by_url(self) -> dict[str, dict]:
        return {r["url"]: r for r in self.pages.to_pylist()}

    def robots_map(self) -> dict[str, str]:
        return dict(zip(
            self.robots.column("host").to_pylist(),
            self.robots.column("robots_txt").to_pylist(),
        ))

    def write(self, out_dir: str) -> None:
        import dataclasses
        import json
        import os

        os.makedirs(out_dir, exist_ok=True)
        for name in ("pages", "images", "robots", "seeds"):
            pq.write_table(getattr(self, name), f"{out_dir}/{name}.parquet")
        # persist params: readers regenerate pixel ground truth from
        # (world_seed, img bounds) — a world written with non-default
        # params would otherwise validate against the wrong truth
        with open(f"{out_dir}/params.json", "w") as fh:
            json.dump(dataclasses.asdict(self.params), fh)


def _host_sizes(p: WorldParams, rng: np.random.Generator) -> list[int]:
    w = 1.0 / np.arange(1, p.n_hosts + 1) ** p.zipf_s
    if p.hot_host_frac is not None and p.n_hosts > 1:
        # host 0 pinned to the requested share; the rest split the
        # remainder Zipf-style
        rest = w[1:] / w[1:].sum() * (1.0 - p.hot_host_frac)
        w = np.concatenate(([p.hot_host_frac], rest))
    else:
        w /= w.sum()
    total = p.n_hosts * p.pages_per_host
    sizes = np.maximum(1, np.round(w * total)).astype(int)
    return sizes.tolist()


def build_world(params: WorldParams | None = None, **kw) -> World:
    p = params or WorldParams(**kw)
    rng = np.random.default_rng([p.seed, 13])
    sizes = _host_sizes(p, rng)
    all_pages = [(h, i) for h in range(p.n_hosts) for i in range(sizes[h])]
    n = len(all_pages)

    urls, hosts, paths, links_col, image_ids, datas = [], [], [], [], [], []
    lat, fmode, fcount = [], [], []
    img_rows = []
    img_counter = 0

    for h, i in all_pages:
        url = page_url(h, i)
        urls.append(url)
        hosts.append(host_name(h))
        paths.append(f"/p/{i}")

        k = int(rng.integers(0, p.fanout + 1))
        links = []
        for _ in range(k):
            r = rng.random()
            if r < p.p_invalid:
                links.append(rng.choice(["http://", "http://[bad", ""]))
                continue
            if r < p.p_invalid + p.p_dead:
                links.append(f"/dead/{int(rng.integers(0, 10_000))}")
                continue
            if rng.random() < p.p_cross and p.n_hosts > 1:
                th = int(rng.integers(0, p.n_hosts))
            else:
                th = h
            ti = int(rng.integers(0, sizes[th]))
            if th == h and rng.random() < p.p_relative:
                links.append(
                    f"/p/{ti}" if rng.random() < 0.5 else f"../p/{ti}"
                )
            else:
                links.append(page_url(th, ti))
        links_col.append(links)

        if p.with_images and rng.random() < p.p_image:
            image_id = f"img-{img_counter:07d}"
            img_counter += 1
            pix = expected_pixels(image_id, p.seed, p.img_min, p.img_max)
            fmt = "jpeg" if rng.random() < p.p_jpeg else "png"
            img_rows.append(
                {
                    "image_id": image_id,
                    "bytes": encode_image(pix, fmt),
                    "w": pix.shape[1],
                    "h": pix.shape[0],
                    "fmt": fmt,
                    "caption": expected_caption(image_id, p.seed),
                    "phash": phash64(pix),
                }
            )
            image_ids.append(image_id)
        else:
            image_ids.append(None)

        datas.append(json.dumps({"u": url, "h": h, "i": i}, sort_keys=True))
        lat.append(int(rng.integers(1, 40)))
        r = rng.random()
        if r < p.p_timeout:
            fmode.append("timeout")
            fcount.append(int(rng.integers(1, p.max_fail + 1)))
        elif r < p.p_timeout + p.p_error:
            fmode.append("error")
            fcount.append(1)
        else:
            fmode.append("")
            fcount.append(0)

    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array(hosts, pa.string()),
            "path": pa.array(paths, pa.string()),
            "links": pa.array(links_col, pa.list_(pa.string())),
            "image_id": pa.array(image_ids, pa.string()),
            "data": pa.array(datas, pa.string()),
            "latency_ms": pa.array(lat, pa.int32()),
            "fail_mode": pa.array(fmode, pa.string()),
            "fail_count": pa.array(fcount, pa.int32()),
        }
    )

    images = pa.table(
        {
            "image_id": pa.array([r["image_id"] for r in img_rows], pa.string()),
            "bytes": pa.array([r["bytes"] for r in img_rows], pa.binary()),
            "w": pa.array([r["w"] for r in img_rows], pa.int32()),
            "h": pa.array([r["h"] for r in img_rows], pa.int32()),
            "fmt": pa.array([r["fmt"] for r in img_rows], pa.string()),
            "caption": pa.array([r["caption"] for r in img_rows], pa.string()),
            "phash": pa.array([r["phash"] for r in img_rows], pa.int64()),
        }
    )

    # robots fixtures
    rb_hosts, rb_bodies = [], []
    for h in range(p.n_hosts):
        r = rng.random()
        if r < p.p_robots_err_host:
            rb_hosts.append(host_name(h))
            rb_bodies.append(FETCH_ERROR_MARKER)
        elif r < p.p_robots_err_host + p.p_robots_host:
            # cap at a realistic rule count (real robots.txt files have
            # tens of rules; an O(pages) rule list is a fixture artifact)
            n_block = min(50, max(1, int(sizes[h] * p.robots_disallow_frac)))
            blocked = sorted(
                int(x) for x in rng.choice(sizes[h], size=min(n_block, sizes[h]), replace=False)
            )
            body = ["User-agent: DoonopRobot"]
            body += [f"Disallow: /p/{b}$" for b in blocked]
            body += ["", "User-agent: *", "Disallow: /private"]
            rb_hosts.append(host_name(h))
            rb_bodies.append("\n".join(body))
        # else: no row → 404 → empty rules → allow all
    robots = pa.table(
        {
            "host": pa.array(rb_hosts, pa.string()),
            "robots_txt": pa.array(rb_bodies, pa.string()),
        }
    )

    # seed list: random pages + one duplicate + one dead URL
    seed_urls = [page_url(h, 0) for h in range(min(p.n_seeds, p.n_hosts))]
    if seed_urls:
        seed_urls.append(seed_urls[0])  # duplicate → dedup in clean_urls
    seeds = pa.table(
        {
            "url": pa.array(seed_urls, pa.string()),
            "order": pa.array(range(len(seed_urls)), pa.int32()),
        }
    )

    return World(p, pages, images, robots, seeds, host_sizes=sizes)


def read_world(in_dir: str) -> World:
    import json
    import os

    t = {n: pq.read_table(f"{in_dir}/{n}.parquet") for n in ("pages", "images", "robots", "seeds")}
    params = WorldParams()
    pfile = os.path.join(in_dir, "params.json")
    if os.path.exists(pfile):
        with open(pfile) as fh:
            saved = json.load(fh)
        known = {f.name for f in __import__("dataclasses").fields(WorldParams)}
        params = WorldParams(**{k: v for k, v in saved.items() if k in known})
    return World(params, t["pages"], t["images"], t["robots"], t["seeds"])
