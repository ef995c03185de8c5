import pyarrow as pa

from doonop_ray.filters import FilterSpec
from doonop_ray.url import (canonicalize, host_of, make_absolute,
                            make_absolute_batch)


def test_canonicalize():
    assert canonicalize("https://Example.NET") == "https://example.net/"
    assert canonicalize("https://example.net:443/a") == "https://example.net/a"
    assert canonicalize("http://example.net:8080/a?x=1") == "http://example.net:8080/a?x=1"
    assert canonicalize("https://e.net/a/../b/./c") == "https://e.net/b/c"
    assert canonicalize("http://") is None
    assert canonicalize("mailto:x@y.z") is None
    assert canonicalize("http://[bad") is None


def test_make_absolute_reference_table():
    # mirrors the table test at /root/reference/src/engine.rs:70-96
    base = "https://example.net"
    assert make_absolute(base, "https://example_1.net") == "https://example_1.net/"
    assert (
        make_absolute(base, "https://example_1.net?p1=123&p2=asd")
        == "https://example_1.net/?p1=123&p2=asd"
    )
    assert make_absolute(base, "/path") == "https://example.net/path"
    assert make_absolute(base, "/path?p1=123&p2=asd") == "https://example.net/path?p1=123&p2=asd"
    assert make_absolute("https://e.net/p/3", "../p/5") == "https://e.net/p/5"
    assert make_absolute("https://e.net/p/3", "http://") is None
    assert make_absolute(base, "") is None


def test_bad_port_drops_the_link_instead_of_raising():
    base = "https://e.net/p/3"
    for href in ("http://h:99999/x", "https://h:abc/", "http://h:-1/",
                 "//h:70000/x"):
        assert make_absolute(base, href) is None
        assert canonicalize(href if "://" in href else "http:" + href) is None
    assert make_absolute(base, "http://h:65535/x") == "http://h:65535/x"
    assert make_absolute("http://h:99999/p", "/x") is None


def test_ipv6_literal_keeps_its_brackets():
    assert canonicalize("http://[::1]:80/") == "http://[::1]/"
    assert canonicalize("http://[::1]:8080/a") == "http://[::1]:8080/a"
    assert canonicalize("https://[0:0::1]/") == "https://[::1]/"
    assert canonicalize("http://[::FFFF:1.2.3.4]/") == "http://[::ffff:102:304]/"
    assert make_absolute("http://[::1]/a/b", "../c") == "http://[::1]/c"
    assert canonicalize("http://[v1.fe]/") is None
    assert canonicalize("http://[1.2.3.4]/") is None


def test_make_absolute_batch_fast_and_fallback_shapes():
    bases = ["https://e.net/p/3", "HTTP://E.net/x", "http://e.net:8080/x"]
    hrefs = [
        ["https://a.org/x", "/p/5", "../p/5", "http://", "/a//b", "/./x",
         "/x;y", "/x?q", "HTTP://A.org/", "http://a.org", ""],
        ["/p/5", "https://a.org/x"],
        ["/p/5"],
    ]
    out = make_absolute_batch(pa.array(bases),
                              pa.array(hrefs, pa.list_(pa.string())))
    assert out.to_pylist() == [
        make_absolute(b, h) for b, hs in zip(bases, hrefs) for h in hs]
    assert out.to_pylist()[:3] == [
        "https://a.org/x", "https://e.net/p/5", "https://e.net/p/5"]
    empty = make_absolute_batch(pa.array(["http://e.net/"]),
                                pa.array([[]], pa.list_(pa.string())))
    assert len(empty) == 0


def test_regex_filter_mirrors_reference_cases():
    # /root/reference/src/filters.rs:35-60
    f = FilterSpec(ignore_regexes=(".jpg$",))
    assert not f.is_ignored("http://google.com")
    assert not f.is_ignored("http://google.com/image.png")
    assert f.is_ignored("http://google.com/some/thing/second.jpg")
    f2 = FilterSpec(ignore_regexes=("^http://google.com",))
    assert f2.is_ignored("http://google.com")
    assert f2.is_ignored("http://google.com/image.png")
    assert not f2.is_ignored("http://microsoft.com")


def test_domain_filter_mirrors_reference_cases():
    # /root/reference/src/filters.rs:62-83
    f = FilterSpec(allow_domains=("google.com", "www.bing.com"))
    assert not f.is_ignored("http://google.com")
    assert not f.is_ignored("http://google.com/image.png")
    assert not f.is_ignored("http://bing.com/image.png?asd=13")
    assert f.is_ignored("http://yahoo.com")
    assert f.is_ignored("http://www.yahoo.com")
    assert not f.is_ignored("http://www.google.com/x")


def test_vectorized_mask_agrees_with_scalar():
    f = FilterSpec(ignore_regexes=(r"/private/", r"\.jpg$"), allow_domains=("a.com", "b.com"))
    urls = [
        "https://a.com/x",
        "https://a.com/private/x",
        "https://b.com/pic.jpg",
        "https://c.com/x",
        "https://www.a.com/ok",
    ]
    mask = f.ignored_mask(pa.array(urls))
    assert list(mask) == [f.is_ignored(u) for u in urls]


def test_lookaround_regex_falls_back_to_python_engine():
    f = FilterSpec(ignore_regexes=(r"^(?!https://keep\.com).*$",))
    assert f.is_ignored("https://drop.com/x")
    assert not f.is_ignored("https://keep.com/x")
    mask = f.ignored_mask(["https://drop.com/x", "https://keep.com/x"])
    assert list(mask) == [True, False]


def test_host_of():
    assert host_of("https://A.B.com:8443/x") == "a.b.com"
    assert host_of("not a url") == ""
