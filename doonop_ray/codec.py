"""Image codecs for the image+caption payload tables.

The sandbox has no image libraries (no PIL / cv2), so this module provides:

- a real, spec-compliant PNG encoder/decoder (pure numpy + zlib) for
  ``fmt == "png"`` rows — lossless round-trip;
- a clearly-marked DETERMINISTIC FAKE "jpeg" codec for ``fmt == "jpeg"``
  rows: a quantize-then-deflate container standing in for a real JPEG
  codec.  It is lossy (uniform quantization, step ``QSTEP``) so the
  PSNR >= 40 dB validation path is exercised with real math, and it is
  byte-deterministic so tests are reproducible.  Swap ``encode_jpeg`` /
  ``decode_jpeg`` for a real libjpeg binding in production.

Also: PSNR and a 64-bit average-hash perceptual hash (``phash64``) used
for the ``phash`` column of the image table (BASELINE.json input_hint)
and for optional near-duplicate bucketing.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

# ---------------------------------------------------------------------------
# PNG (RGB8 only — what the synthetic corpus uses)
# ---------------------------------------------------------------------------

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def encode_png(pixels: np.ndarray, level: int = 6) -> bytes:
    """Encode an (h, w, 3) uint8 array as a PNG (color type 2, filter 0)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("encode_png expects (h, w, 3) uint8")
    h, w = pixels.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    # filter byte 0 (None) prepended to every scanline
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = pixels.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def _paeth(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa, pb, pc = np.abs(p - a), np.abs(p - b), np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def decode_png(data) -> np.ndarray:
    """Decode an RGB8 PNG produced by any encoder using filters 0-4.

    Accepts bytes or any buffer (e.g. a zero-copy Arrow memoryview —
    note Arrow buffers expose signed-char views, so header compares
    must coerce through bytes())."""
    if bytes(data[:8]) != _PNG_SIG:
        raise ValueError("not a PNG")
    pos, w = 8, None
    idat = bytearray()
    while pos < len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        tag = bytes(tag)
        if tag == b"IHDR":
            w, h, depth, ctype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if depth != 8 or ctype != 2 or interlace != 0:
                raise ValueError("decoder supports 8-bit RGB non-interlaced only")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    raw = np.frombuffer(zlib.decompress(bytes(idat)), dtype=np.uint8)
    stride = 1 + w * 3
    raw = raw.reshape(h, stride)
    if not raw[:, 0].any():  # filter 0 everywhere (our encoder) → no scan
        return raw[:, 1:].reshape(h, w, 3)
    out = np.zeros((h, w * 3), dtype=np.uint8)
    bpp = 3
    for y in range(h):
        f, line = raw[y, 0], raw[y, 1:].copy()
        prev = out[y - 1] if y else np.zeros(w * 3, dtype=np.uint8)
        if f == 0:
            out[y] = line
        elif f == 2:  # Up
            out[y] = line + prev
        else:  # Sub(1) / Average(3) / Paeth(4) need left-to-right scan per pixel
            cur = out[y]
            for x in range(w * 3):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                if f == 1:
                    v = line[x] + a
                elif f == 3:
                    v = line[x] + ((int(a) + int(b)) >> 1)
                else:
                    v = line[x] + _paeth(
                        np.uint8(a), np.uint8(b), np.uint8(c)
                    )
                cur[x] = v
    return out.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# FAKE JPEG — deterministic lossy stand-in (no codec libs in this container)
# ---------------------------------------------------------------------------

_FJPG_MAGIC = b"FJPG"
QSTEP = 4  # uniform quantization step → max error 2/channel → PSNR ≈ 47 dB


def encode_jpeg(pixels: np.ndarray, level: int = 6) -> bytes:
    """DETERMINISTIC FAKE lossy codec (see module docstring)."""
    if pixels.dtype != np.uint8 or pixels.ndim != 3 or pixels.shape[2] != 3:
        raise ValueError("encode_jpeg expects (h, w, 3) uint8")
    h, w = pixels.shape[:2]
    q = (pixels // QSTEP).astype(np.uint8)
    body = zlib.compress(q.tobytes(), level)
    return _FJPG_MAGIC + struct.pack(">IIB", w, h, QSTEP) + body


def decode_jpeg(data) -> np.ndarray:
    """Accepts bytes or any buffer (see decode_png)."""
    if bytes(data[:4]) != _FJPG_MAGIC:
        raise ValueError("not a FJPG payload")
    w, h, qstep = struct.unpack_from(">IIB", data, 4)
    q = np.frombuffer(zlib.decompress(data[13:]), dtype=np.uint8)
    if qstep * 64 <= 256:  # fits uint8: q<=255//qstep so q*qstep+half<256
        pix = q * np.uint8(qstep) + np.uint8(qstep // 2)
    else:
        pix = np.minimum(q.astype(np.uint16) * qstep + qstep // 2, 255).astype(np.uint8)
    return pix.reshape(h, w, 3)


def encode_image(pixels: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return encode_png(pixels)
    if fmt == "jpeg":
        return encode_jpeg(pixels)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    if fmt == "png":
        return decode_png(data)
    if fmt == "jpeg":
        return decode_jpeg(data)
    raise ValueError(f"unknown fmt {fmt!r}")


# ---------------------------------------------------------------------------
# Validation helpers
# ---------------------------------------------------------------------------


def squared_error(a: np.ndarray, b: np.ndarray) -> np.float32:
    """Sum of squared differences of two same-size uint8 images.

    ONE float32 temp (a buffered-cast subtract), then a BLAS dot: this
    stage is the crawl's memory-bandwidth hot spot at 32-way. Every
    difference is exact in float32, so the shapes of ``a`` and ``b``
    do not change the sum."""
    d = np.subtract(a.reshape(-1), b.reshape(-1), dtype=np.float32)
    return np.dot(d, d)


def psnr_from_sse(sse: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Peak signal-to-noise ratio in dB of many image pairs from each
    pair's squared-error sum (``squared_error``) and element count. A
    pair whose shapes differ has ``size`` 0 and reads 0.0 dB; identical
    images read ``inf``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        p = 10.0 * np.log10(255.0 * 255.0 / (sse / size))
    return np.where(size > 0, p, 0.0)


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """``psnr_from_sse`` of one pair of uint8 images."""
    size = a.size if a.shape == b.shape else 0
    sse = squared_error(a, b) if size else 0.0
    return float(psnr_from_sse(np.array([sse], np.float64),
                               np.array([size], np.float64))[0])


def phash64(pixels: np.ndarray) -> int:
    """64-bit average-hash: 8x8 block-mean grayscale thresholded at its mean.

    Returned as a SIGNED int64 (two's complement) so it fits the
    ``phash: int64`` column of the input_hint schema.
    """
    gray = pixels.astype(np.float64).mean(axis=2)
    h, w = gray.shape
    ys = (np.arange(9) * h) // 8
    xs = (np.arange(9) * w) // 8
    cells = np.empty((8, 8), dtype=np.float64)
    for i in range(8):
        for j in range(8):
            cells[i, j] = gray[ys[i] : max(ys[i + 1], ys[i] + 1),
                               xs[j] : max(xs[j + 1], xs[j] + 1)].mean()
    bits = (cells > cells.mean()).astype(np.uint64).ravel()
    val = np.uint64(0)
    for b in bits:
        val = np.uint64(val << np.uint64(1)) | np.uint64(b)
    return int(val.astype(np.int64))


def hamming64(a: int, b: int) -> int:
    return int(bin((a ^ b) & 0xFFFFFFFFFFFFFFFF).count("1"))
