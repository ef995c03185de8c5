"""URL canonicalization and absolutization.

Mirrors the behavior of the reference's URL handling (rust `url` crate):

- parse/normalize: lowercase scheme+host, elide default ports, empty path
  becomes "/", dot segments removed (reference: `url::Url::parse`, used for
  identity in the seen set — /root/reference/src/workload.rs:28);
- absolutize: absolute URLs pass through, scheme-less hrefs join against
  the base page URL, unparseable hrefs are dropped
  (reference: make_absolute_url, /root/reference/src/engine.rs:59-68).

Only http/https URLs are considered fetchable here (the synthetic corpus
emits nothing else).

``make_absolute`` is the one definition of link semantics.
``make_absolute_batch`` resolves a whole chunk of harvested links with
Arrow kernels, but only for href shapes whose result it can prove equal
to ``make_absolute``'s (canonical absolute, root-relative and
parent-relative ``../`` hrefs); every other href goes through
``make_absolute`` itself (see the invariants above
``make_absolute_batch``). No URL either returns holds a tab, carriage
return or newline (``urlsplit`` strips them and the Arrow shapes admit
none), which is what lets the link router newline-join a shard's links.
"""

from __future__ import annotations

import ipaddress
import re
from urllib.parse import urljoin, urlsplit, urlunsplit

_DEFAULT_PORTS = {"http": "80", "https": "443"}


def _remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 (the rust url crate applies this on parse)."""
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(out) > 1:
                out.pop()
            continue
        out.append(seg)
    if path.endswith(("/.", "/..")):
        out.append("")
    res = "/".join(out)
    if not res.startswith("/"):
        res = "/" + res
    return res


def canonicalize(url: str) -> str | None:
    """Normalize an absolute http(s) URL; None if unparseable."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return None
    scheme = parts.scheme.lower()
    if scheme not in ("http", "https"):
        return None
    host = (parts.hostname or "").lower()
    if not host:
        return None
    try:
        # out-of-range or non-numeric ports drop the URL, as the rust
        # url crate's parse error does (engine.rs:59-68)
        port = parts.port
        if parts.netloc.rpartition("@")[2].startswith("["):
            # IPv6 literal: keep the brackets (hostname strips them) and
            # serialize the address in its compressed form
            host = f"[{ipaddress.IPv6Address(host).compressed}]"
    except ValueError:
        return None
    netloc = host
    if port is not None and str(port) != _DEFAULT_PORTS[scheme]:
        netloc = f"{host}:{port}"
    path = _remove_dot_segments(parts.path) if parts.path else "/"
    return urlunsplit((scheme, netloc, path, parts.query, parts.fragment))


def host_of(url: str) -> str:
    try:
        return (urlsplit(url).hostname or "").lower()
    except ValueError:
        return ""


def path_of(url: str) -> str:
    try:
        p = urlsplit(url).path
    except ValueError:
        return "/"
    return p or "/"


def host_path_of(url: str) -> tuple[str, str]:
    """``(host_of(url), path_of(url))`` from one ``urlsplit``."""
    try:
        parts = urlsplit(url)
    except ValueError:
        return "", "/"
    return (parts.hostname or "").lower(), parts.path or "/"


# a canonical ``http(s)://host[/path][?query][#fragment]`` whose host is
# lower-case ``[a-z0-9.-]`` (no userinfo, port or IPv6 literal): its
# ``urlsplit`` netloc is the host and its path runs to the first ``?`` or
# ``#``. ``urlsplit`` deletes tabs, CRs and LFs anywhere before cutting,
# so a URL holding one is left to it
_HOST_PATH_RE = re.compile(
    r"https?://([a-z0-9.-]+)(/[^?#\t\r\n]*)?(?:[?#][^\t\r\n]*)?")


def cut_host_path(url: str) -> tuple[str, str]:
    """``host_path_of(url)``, cut by one precompiled regex when ``url``
    is canonical (the frontier drain's hot path) and by
    ``host_path_of`` otherwise."""
    m = _HOST_PATH_RE.fullmatch(url)
    if m is None:
        return host_path_of(url)
    return m[1], m[2] or "/"


def make_absolute(base: str, href: str) -> str | None:
    """Reference semantics (engine.rs:59-68): absolute parse first; a
    scheme-less href joins against the base; anything else drops."""
    href = href.strip()
    if not href:
        return None
    try:
        parts = urlsplit(href)
    except ValueError:
        return None
    if parts.scheme:
        # absolute (or unsupported scheme / broken host → drop)
        return canonicalize(href)
    try:
        return canonicalize(urljoin(base, href))
    except ValueError:
        return None


# ---------------------------------------------------------------------------
# Batch resolution (the fetch stage's link path)
#
# Invariants of the fast path. An href is resolved by Arrow kernels only
# when the result is provably what ``make_absolute`` returns:
#
# - an absolute href already in canonical form, ``https?://`` + a
#   lower-case ``[a-z0-9.-]`` host + a path of safe characters, passes
#   through unchanged (``canonicalize`` is the identity on it);
# - a root-relative href, ``/`` + safe path characters with no empty
#   segment (``urljoin`` collapses ``//`` inside the path), becomes the
#   base page's origin + the href, when that origin is itself canonical;
# - a parent-relative href, ``../`` + safe path characters with no empty
#   segment, becomes the base page's origin + the parent of its
#   directory + the href without its ``../``, when that origin is
#   canonical and the page's path is clean: ``/`` + safe segments, none
#   empty and none a dot segment, optionally followed by ``?…`` or
#   ``#…`` (both of which a path-carrying href discards). The page's
#   directory is its path up to the last ``/``; the parent of ``/`` is
#   ``/`` (``https://h/p/12`` + ``../p/5`` → ``https://h/p/5``).
#
# Safe path characters exclude ``;?#\``, whitespace, control and
# non-ASCII characters. The host class excludes ports, userinfo and IPv6
# literals. A dot segment (``/.`` or ``/..`` followed by ``/`` or the end)
# anywhere disqualifies an href (the leading ``../`` of a parent-relative
# href has no ``/`` before it and so is not one), and anywhere in a
# page URL disqualifies its parent-relative hrefs. Every other href,
# and every href of a page whose origin is not canonical, goes through
# ``make_absolute``.
# ---------------------------------------------------------------------------

_SEG_CH = r"[A-Za-z0-9._~!$&'()*+,=:@%-]"
_ORIGIN = r"https?://[a-z0-9.-]+"
_CANON_ABS_RE = f"^{_ORIGIN}/(?:{_SEG_CH}|/)*$"
_ROOT_REL_RE = f"^/(?:{_SEG_CH}+/)*{_SEG_CH}*$"
_UP_REL_RE = rf"^\.\./(?:{_SEG_CH}+/)*{_SEG_CH}*$"
_DOT_SEG_RE = r"/\.\.?(?:/|$)"
# origin, and (when the path is clean) the parent of the page's
# directory: the lazy ``parent`` stops one directory short of the last
# ``/``, or at the root; ``parent`` is empty when the second branch
# matched
_BASE_RE = (f"^(?P<origin>{_ORIGIN})(?:(?P<parent>/(?:{_SEG_CH}+/)*?)"
            f"(?:{_SEG_CH}+/)?{_SEG_CH}*(?:[?#]|$)|[/?#]|$)")


def _mask(arr, pattern: str):
    import numpy as np
    import pyarrow.compute as pc

    return np.asarray(pc.match_substring_regex(arr, pattern).fill_null(False))


def make_absolute_batch(bases, hrefs):
    """``make_absolute`` over every href of every page in one pass.

    ``bases`` (``pa.Array`` of string) holds one page URL per row and
    ``hrefs`` (``list<string>``) that page's harvested links. Returns a
    flat string array aligned with ``pc.list_flatten(hrefs)``: the
    absolute canonical URL, or null where ``make_absolute`` drops the
    href. Arrow is imported here, not at module level: the frontier
    actors import this module for ``cut_host_path`` only."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(bases, pa.ChunkedArray):
        bases = bases.combine_chunks()
    if isinstance(hrefs, pa.ChunkedArray):
        hrefs = hrefs.combine_chunks()
    flat = pc.list_flatten(hrefs)
    if len(flat) == 0:
        return pa.array([], pa.string())
    parent = np.asarray(pc.list_parent_indices(hrefs))
    no_dot = ~_mask(flat, _DOT_SEG_RE)
    as_is = _mask(flat, _CANON_ABS_RE) & no_dot
    base = pc.extract_regex(bases, _BASE_RE)
    origin = pc.struct_field(base, [0])
    up_dir = pc.struct_field(base, [1])
    up_ok = (np.asarray(pc.utf8_length(up_dir).fill_null(0)) > 0) \
        & ~_mask(bases, _DOT_SEG_RE)
    joined = _mask(flat, _ROOT_REL_RE) & no_dot & np.asarray(
        origin.is_valid())[parent]
    up = _mask(flat, _UP_REL_RE) & no_dot & up_ok[parent]
    out = pc.if_else(pa.array(as_is), flat, pa.scalar(None, pa.string()))
    # each joined shape: its page's prefix + the href past ``skip`` chars
    for mask, prefix, skip in (
            (joined, origin, 0),
            (up, pc.binary_join_element_wise(origin, up_dir, ""), 3)):
        if mask.any():
            idx = np.flatnonzero(mask)
            tail = flat.take(idx)
            if skip:
                tail = pc.utf8_slice_codeunits(tail, skip)
            out = pc.replace_with_mask(out, pa.array(mask),
                                       pc.binary_join_element_wise(
                                           prefix.take(parent[idx]), tail, ""))
    slow = ~(as_is | joined | up) & np.asarray(flat.is_valid())
    if slow.any():
        slow_idx = np.flatnonzero(slow)
        slow_out = [
            make_absolute(b, h) for b, h in zip(
                bases.take(parent[slow_idx]).to_pylist(),
                flat.take(slow_idx).to_pylist())
        ]
        out = pc.replace_with_mask(out, pa.array(slow),
                                   pa.array(slow_out, pa.string()))
    return out
