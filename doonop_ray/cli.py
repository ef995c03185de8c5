"""CLI entry point — the reference's EP1 surface (main.rs:13-39 +
cfg.rs clap options) mapped onto the Ray engine.

    python -m doonop_ray [opts] [URL ...]

Flags mirror the reference: ``-j/--engines``, ``--limit``,
``--retry-policy {no,first,last}``, ``--retry-threshold-ms``,
``--retry-count``, ``-i/--ignore REGEX`` (repeatable), ``-f
domain=NAME`` (repeatable), ``--robot NAME``, ``--no-robots``,
``-s/--seed-file``, plus rebuild-only ``--world DIR`` (synthetic world
tables; no live web in this sandbox), ``--out DIR``, ``--checkpoint
DIR``, ``--resume``, ``--conformance`` (single-lane, reference j=1
order), ``--json`` (JSONL artifacts to stdout, main.rs:36-38).

Output: JSONL data values to stdout; a final
``Statistics: visited V, collected C, errors E, retries R`` line to
stderr (matching tests/crawling.rs:8-10's asserted format).
"""

from __future__ import annotations

import argparse
import json
import sys


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="doonop-ray", description=__doc__)
    p.add_argument("urls", nargs="*", help="seed URLs (CLI position = S1)")
    p.add_argument("-s", "--seed-file", help="one URL per line (S2)")
    p.add_argument("-j", "--engines", type=int, default=1)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--retry-policy", choices=("no", "first", "last"),
                   default="first")
    p.add_argument("--retry-threshold-ms", type=int, default=10_000)
    p.add_argument("--retry-count", type=int, default=3)
    p.add_argument("-i", "--ignore", action="append", default=[],
                   metavar="REGEX")
    p.add_argument("-f", "--filter", action="append", default=[],
                   metavar="NAME=VALUE", help="e.g. domain=example.com")
    p.add_argument("--robot", default="DoonopRobot")
    p.add_argument("--no-robots", action="store_true")
    p.add_argument("--check-file", default=None,
                   help="extraction UDF file: .js snippet or Selenium-IDE "
                        ".side/.json script (S3/M2/M3; default UDF is "
                        "'return window.location.href')")
    p.add_argument("--check-file-format", choices=("js", "side", "json"),
                   default=None,
                   help="override check-file format sniffing")
    p.add_argument("--proxy", default=None,
                   help="proxy string for the HTTP transport "
                        "(parsed and validated; live transport is stubbed "
                        "in this sandbox)")
    p.add_argument("--page-load-time", type=int, default=10_000,
                   help="page-load timeout ms (cfg.rs DEFAULT_LOAD_TIME)")
    p.add_argument("-b", "--browser", choices=("firefox", "chrome"),
                   default="firefox",
                   help="browser type for the WebDriver transport "
                        "(cfg.rs:62-67; parsed for parity — the live "
                        "transport is stubbed in this sandbox)")
    p.add_argument("--webdriver-url", default="http://localhost:4444",
                   help="WebDriver hub address (cfg.rs:86-88; parsed "
                        "and validated; transport stubbed)")
    p.add_argument("--world", default=None,
                   help="synthetic world dir (pages/images/robots/seeds "
                        "parquet); required unless --http")
    p.add_argument("--http", action="store_true",
                   help="crawl over real HTTP with the urllib transport "
                        "(loopback or live; replaces the synthetic world "
                        "tables — no image validation)")
    p.add_argument("--out", default="/tmp/doonop_out/cli")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-every-sec", type=float, default=None,
                   help="periodic checkpoint interval in seconds (with "
                        "--checkpoint; a final checkpoint is always "
                        "written)")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--conformance", action="store_true",
                   help="single-lane reference-exact order (j=1 semantics)")
    p.add_argument("--json", action="store_true",
                   help="print collected data as JSON lines to stdout")
    p.add_argument("--host-rate", type=float, default=None,
                   help="politeness: requests per second per host "
                        "(token bucket; default unthrottled)")
    p.add_argument("--num-cpus", type=int, default=None,
                   help="ray.init num_cpus when no session exists")
    return p


def parse_domain_filters(filters: list[str]) -> tuple[str, ...] | None:
    domains = []
    for f in filters:
        name, _, value = f.partition("=")
        if name.strip().lower() != "domain":
            raise SystemExit(f"unknown filter {name!r} (only domain= is supported)")
        domains.append(value.strip())
    return tuple(domains) if domains else None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    from .config import CrawlConfig
    from .sources.seeds import load_seed_file
    from .synth import read_world

    seeds = list(args.urls)
    if args.seed_file:
        seeds.extend(load_seed_file(args.seed_file))
    if not seeds:
        print("Statistics: visited 0, collected 0, errors 0, retries 0",
              file=sys.stderr)
        return 0

    from .functions.checkfile import default_extractor, load_check_file

    if args.check_file:
        extractor = load_check_file(args.check_file, args.check_file_format)
    else:
        # reference default UDF (cfg.rs:344-346): data = the page URL
        extractor = default_extractor()

    if args.proxy:
        from .stages.http_fetch import parse_proxy

        parse_proxy(args.proxy)  # validate now; transport is stubbed
    from urllib.parse import urlsplit as _us

    if not _us(args.webdriver_url).scheme:  # cfg.rs:243-244 parse check
        raise SystemExit(
            f"Failed to parse a webdriver address {args.webdriver_url!r}")

    if not args.http and not args.world:
        raise SystemExit("--world DIR is required (or pass --http)")
    w = read_world(args.world) if not args.http else None
    cfg = CrawlConfig(
        extractor=extractor,
        seeds=seeds,
        limit=args.limit,
        retry_policy=args.retry_policy,
        retry_threshold_ms=args.retry_threshold_ms,
        retry_count=args.retry_count,
        robot=args.robot,
        use_robots=not args.no_robots,
        ignore_regexes=tuple(args.ignore),
        allow_domains=parse_domain_filters(args.filter),
        engines=args.engines,
        checkpoint_dir=args.checkpoint,
        checkpoint_every_sec=args.checkpoint_every_sec,
        host_rate_per_sec=args.host_rate,
    )

    fetch_backend = None
    if args.http:
        from functools import partial

        from .filters import FilterSpec
        from .stages.http_fetch import HttpFetcher

        fetch_backend = partial(
            HttpFetcher,
            FilterSpec(tuple(args.ignore), parse_domain_filters(args.filter)),
            proxy=args.proxy,
            page_load_timeout_s=args.page_load_time / 1000.0,
            user_agent=args.robot,
            extractor=extractor,
        )

    def _world_args():
        if args.http:
            if args.no_robots:
                return None, None, {}, 42, (16, 40)
            # robots-backend factory carrying the crawl's scheme/port
            # (inferred from the first seed — robots.txt must be
            # fetched from the same authority the pages live on, or a
            # non-default-port crawl gets a connection-refused robots
            # fetch and silently drops every URL). The robots cache
            # keys by hostname, so one scheme/port per crawl — the
            # documented single-authority simplification.
            from functools import partial
            from urllib.parse import urlsplit

            from .robots import make_http_robots_fetcher

            sp = urlsplit(seeds[0]) if seeds else None
            # a scheme-less seed like "localhost:8080/x" parses with
            # scheme="localhost" — using it verbatim builds a garbage
            # robots URL and every robots fetch then errors, silently
            # dropping all URLs; only http/https are real authorities
            scheme = sp.scheme if sp and sp.scheme in ("http", "https") \
                else "http"
            try:
                port = sp.port if sp else None
            except ValueError:  # invalid port in a malformed seed
                port = None
            robots = partial(
                make_http_robots_fetcher, scheme=scheme, port=port,
            )
            return None, None, robots, 42, (16, 40)
        return (w.pages, w.images, w.robots_map(), w.params.seed,
                (w.params.img_min, w.params.img_max))

    pages, images, robots_map, world_seed, img_bounds = _world_args()

    if args.conformance:
        from .pipelines.crawler import run_conformance

        res = run_conformance(
            cfg, pages, images, robots_map,
            world_seed=world_seed,
            img_bounds=img_bounds,
            fetch_backend=fetch_backend,
        )
        stats = res["stats"]
        if args.json:
            for c in res["collected"]:
                print(json.dumps(None if c["data"] is None else
                                 json.loads(c["data"])))
    else:
        import ray

        if not ray.is_initialized():
            ray.init(address="local", num_cpus=args.num_cpus,
                     include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext

        DataContext.get_current().enable_progress_bars = False
        from .pipelines.crawler import RayCrawler

        # world params restored from params.json so pixel/caption truth
        # regenerates with the WRITER's seed and image bounds (ADVICE r1)
        crawler = RayCrawler(
            cfg, pages, images, robots_map, args.out,
            world_seed=world_seed,
            img_bounds=img_bounds,
            fetch_backend=fetch_backend,
        )
        restore = crawler.install_signal_checkpoint()
        try:
            with crawler:
                stats = crawler.run(resume=args.resume).as_dict()
        finally:
            restore()
        if args.json:
            import pyarrow.parquet as pq

            t = pq.read_table(args.out, columns=["status", "data"])
            for st, d in zip(t.column("status").to_pylist(),
                             t.column("data").to_pylist()):
                if st == "ok":
                    print(json.dumps(None if d is None else json.loads(d)))
        ray.shutdown()

    print(
        "Statistics: visited {visited}, collected {collected}, "
        "errors {errors}, retries {retries}".format(**stats),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
