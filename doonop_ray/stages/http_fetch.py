"""Real HTTP fetch backend (stdlib urllib transport).

The reference fetches through a WebDriver session and harvests every
``<a href>`` in DOM order (engine_builder.rs:76-136, backend.rs:84-111).
This backend is only the transport, over plain HTTP with ``urllib`` +
an ``html.parser`` link harvester: fetch the page body and collect
``<a href>`` in document order (missing hrefs skipped —
backend.rs:97-104). The rest of the per-URL unit of work
(engine.rs:29-68: absolutize against the post-redirect URL, filter,
the extraction lane) is ``doonop_ray.stages.fetch.fetch_tail``, the
function the synthetic ``Fetcher`` ends in too. So both backends keep
the same batch contract (in: url/attempt/depth Arrow batch; out:
url/attempt/depth/status/data/links/image_id/latency_ms) under the
same link rules, and the whole downstream engine (validator, router,
frontier, checkpoints) is transport-agnostic — the loopback
integration test runs the reference's own fixture pattern
(``python3 -m http.server`` serving tests/www, docker-compose.yml:9-16)
against this class end-to-end.

This container has no external network, so tests bind 127.0.0.1; the
code itself is host-agnostic. The timeout maps to the reference's
page-load timeout (cfg.rs:22,245-248): a socket timeout reports status
"timeout" (retryable, backend.rs:60-65), every other failure "error".

Proxy configuration mirrors the reference's proxy string format
(cfg.rs:300-328): ``"sock;address=HOST:PORT;version=5"`` or
``"http;address=HOST:PORT"``. An ``http`` proxy is applied to the
urllib opener (engine_builder.rs:113-120 parity); SOCKS5 is a
pure-stdlib RFC 1928 CONNECT handshake (``make_socks5_handler``);
SOCKS4 raises loudly at session build.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass
from html.parser import HTMLParser

import numpy as np
import pyarrow as pa

from ..filters import FilterSpec
from .fetch import fetch_tail


@dataclass
class ProxyConfig:
    """Parsed proxy spec (reference M9, cfg.rs:300-328)."""

    kind: str  # "sock" | "http"
    address: str
    version: int | None = None  # SOCKS version (4/5); None for http


def parse_proxy(spec: str) -> ProxyConfig:
    """Parse ``kind;key=value;...`` proxy strings.

    >>> parse_proxy("sock;address=127.0.0.1:9050;version=5")
    ProxyConfig(kind='sock', address='127.0.0.1:9050', version=5)
    """
    parts = [p.strip() for p in spec.split(";") if p.strip()]
    if not parts:
        raise ValueError("empty proxy spec")
    kind = parts[0].lower()
    if kind not in ("sock", "http"):
        raise ValueError(f"unknown proxy kind {kind!r}")
    kv = {}
    for p in parts[1:]:
        k, _, v = p.partition("=")
        kv[k.strip().lower()] = v.strip()
    if "address" not in kv:
        raise ValueError("proxy spec missing address=")
    version = None
    if kind == "sock":
        version = int(kv.get("version", "5"))
        if version not in (4, 5):
            raise ValueError(f"unsupported SOCKS version {version}")
    return ProxyConfig(kind=kind, address=kv["address"], version=version)


def _recv_exact(sock, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise OSError("SOCKS5 proxy closed the connection mid-handshake")
        buf += chunk
    return buf


def _socks5_connect(proxy_host: str, proxy_port: int, host: str, port: int,
                    timeout: float):
    """Pure-stdlib SOCKS5 CONNECT (RFC 1928, no-auth method): returns a
    socket tunneled to ``host:port`` through the proxy. The reference
    passes SOCKS config through WebDriver capabilities
    (engine_builder.rs:113-120, cfg.rs:300-328); with no SOCKS library
    in this environment the handshake is implemented directly."""
    import socket
    import struct

    s = socket.create_connection((proxy_host, proxy_port), timeout)
    try:
        s.sendall(b"\x05\x01\x00")  # VER=5, 1 method: no-auth
        ver, method = _recv_exact(s, 2)
        if ver != 5 or method != 0:
            raise OSError(f"SOCKS5 greeting refused (ver={ver} method={method})")
        hb = host.encode("idna")
        s.sendall(b"\x05\x01\x00\x03" + bytes([len(hb)]) + hb
                  + struct.pack(">H", port))  # CMD=CONNECT, ATYP=domain
        ver, rep, _rsv, atyp = _recv_exact(s, 4)
        if rep != 0:
            raise OSError(f"SOCKS5 CONNECT refused: reply code {rep}")
        if atyp == 1:       # bound address: IPv4
            _recv_exact(s, 4 + 2)
        elif atyp == 3:     # domain
            _recv_exact(s, _recv_exact(s, 1)[0] + 2)
        elif atyp == 4:     # IPv6
            _recv_exact(s, 16 + 2)
        else:
            raise OSError(f"SOCKS5 bad ATYP {atyp}")
        return s
    except BaseException:
        s.close()
        raise


def make_socks5_handler(proxy_addr: str):
    """urllib handler routing plain-http requests through a SOCKS5
    proxy. https-over-SOCKS would additionally need a TLS wrap of the
    tunneled socket — raises loudly rather than silently going direct."""
    import http.client
    import urllib.request

    phost, _, pport_s = proxy_addr.rpartition(":")
    pport = int(pport_s)

    class Socks5Connection(http.client.HTTPConnection):
        def connect(self):
            self.sock = _socks5_connect(
                phost, pport, self.host, self.port,
                self.timeout if self.timeout is not None else 10.0)

    class Socks5HttpHandler(urllib.request.HTTPHandler):
        handler_order = 100  # beat the default HTTP/HTTPS handlers

        def http_open(self, req):
            return self.do_open(Socks5Connection, req)

        # *_open methods are auto-registered by OpenerDirector: this
        # claims https too, so an https URL can't silently bypass the
        # proxy by falling through to the direct HTTPSHandler
        def https_open(self, req):
            import urllib.error

            raise urllib.error.URLError(
                "https over SOCKS5 needs a TLS wrap of the tunneled "
                "socket; not implemented — use an http target or an "
                "http proxy")

    return Socks5HttpHandler()


class _LinkHarvester(HTMLParser):
    """Collect ``<a href>`` values in document order; anchors without an
    href are skipped (backend.rs:97-104 skips None-href elements)."""

    def __init__(self):
        super().__init__()
        self.hrefs: list[str] = []

    def handle_starttag(self, tag, attrs):
        if tag == "a":
            for k, v in attrs:
                if k == "href" and v is not None:
                    self.hrefs.append(v)
                    break


def harvest_links(html_text: str) -> list[str]:
    p = _LinkHarvester()
    try:
        p.feed(html_text)
        p.close()
    except Exception:
        pass  # malformed tail: keep what parsed (browsers are lenient)
    return p.hrefs


class HttpFetcher:
    """Fetch stage over real HTTP (stdlib urllib transport).

    ``__init__`` is the once-per-worker session construction seam
    (engine_builder.rs:93-136): build the opener (with the parsed proxy
    applied — :113-120), set UA and timeout. ``__call__`` fetches one
    Arrow batch of URLs through a per-worker thread pool
    (``max_concurrency``, I/O-bound — sockets release the GIL), so one
    slow host stalls a batch for ~the slowest page, not
    ``batch_size x timeout``. Per-row status/data/links mapping is
    positional, so batch results are deterministic regardless of fetch
    completion order. Per-host politeness is enforced UPSTREAM at the
    frontier drain (token buckets bound what a drain releases); within a
    released chunk the reference, too, fetches hosts concurrently when
    ``-j > 1`` (workload.rs:281-305).

    ``data`` is the decoded page text (the ``document.body.innerText``
    feed for the check-file UDFs); the raw hrefs, that text and the
    post-redirect URLs go to ``fetch_tail``, where an ``extractor``
    replaces the text per OK page exactly as for the synthetic Fetcher.
    ``image_id`` is null — payload validation is a synthetic-world
    notion.
    """

    def __init__(self, filters: FilterSpec, proxy: str | None = None,
                 page_load_timeout_s: float = 10.0,
                 user_agent: str = "DoonopRobot", extractor=None,
                 max_concurrency: int = 8):
        import urllib.request

        self.filters = filters
        self.proxy = parse_proxy(proxy) if proxy else None
        self.timeout = page_load_timeout_s
        self.user_agent = user_agent
        self.extractor = extractor
        self.max_concurrency = max(1, int(max_concurrency))
        self._pool = None  # lazy: executors aren't picklable
        handlers = []
        if self.proxy is not None:
            if self.proxy.kind == "sock":
                if self.proxy.version != 5:
                    raise NotImplementedError(
                        "only SOCKS5 is implemented (RFC 1928 CONNECT); "
                        "SOCKS4 needs a different handshake"
                    )
                handlers.append(make_socks5_handler(self.proxy.address))
            else:
                addr = self.proxy.address
                if "://" not in addr:
                    addr = "http://" + addr
                handlers.append(urllib.request.ProxyHandler(
                    {"http": addr, "https": addr}))
        self.opener = urllib.request.build_opener(*handlers)
        self.opener.addheaders = [("User-Agent", self.user_agent)]

    def __getstate__(self):
        # a used instance holds its thread pool, which cannot pickle; the
        # copy builds its own on first call
        state = dict(self.__dict__)
        state["_pool"] = None
        return state

    def _transport(self, url: str) -> tuple[str, list[str], str]:
        """Fetch one page; returns (page_text, raw hrefs in doc order,
        final post-redirect URL — the base a browser would resolve
        relative hrefs against). Raises socket.timeout/URLError upward
        for status mapping."""
        with self.opener.open(url, timeout=self.timeout) as resp:
            body = resp.read()
            final_url = resp.geturl() or url
        text = body.decode("utf-8", "replace")
        return text, harvest_links(text), final_url

    def _fetch_one(self, url: str):
        """One page: (status, data, raw hrefs, base URL, latency_ms).
        Timeout maps to the retryable "timeout" status
        (backend.rs:60-65); everything else is "error"."""
        import socket
        import urllib.error

        t0 = time.monotonic()

        def lat() -> int:
            return max(1, int((time.monotonic() - t0) * 1000))

        try:
            text, hrefs, final_url = self._transport(url)
        except (socket.timeout, TimeoutError):
            return "timeout", None, None, None, lat()
        except urllib.error.URLError as e:
            # a timeout may also surface wrapped in URLError
            if isinstance(getattr(e, "reason", None),
                          (socket.timeout, TimeoutError)):
                return "timeout", None, None, None, lat()
            return "error", None, None, None, lat()
        except Exception:
            return "error", None, None, None, lat()
        # the base is the POST-redirect URL: urllib followed redirects,
        # and a browser (the reference's WebDriver backend) resolves
        # relative hrefs against the final location, not the requested one
        return "ok", text, hrefs, final_url, lat()

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        n = len(urls)
        if n > 1 and self.max_concurrency > 1:
            # I/O-bound fan-out inside the worker: batch wall-time ≈ the
            # slowest page, not the sum of timeouts
            if self._pool is None:
                from concurrent.futures import ThreadPoolExecutor

                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_concurrency,
                    thread_name_prefix="doonop-fetch")
                # the pool's threads end with the fetcher
                weakref.finalize(self, self._pool.shutdown, wait=False)
            results = list(self._pool.map(self._fetch_one, urls))
        else:
            results = [self._fetch_one(u) for u in urls]
        status, data, hrefs, bases, latency = (
            zip(*results) if n else ((),) * 5)
        return fetch_tail(
            batch, np.array(status, dtype=object), pa.array(data, pa.string()),
            pa.array(hrefs, pa.list_(pa.string())), pa.nulls(n, pa.string()),
            pa.array(latency, pa.int32()), self.filters, self.extractor,
            bases=pa.array(bases, pa.string()))
