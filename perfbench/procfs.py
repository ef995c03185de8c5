"""Process counts and peak memory read from ``/proc`` (no psutil, and
``ray.util.state`` needs the dashboard, which the benchmark leaves off)."""

from __future__ import annotations

import os
import re
import time

_LEAKABLE = re.compile(r"ray::\w*(FrontierShard|SeenRouterShard)\b")


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:  # the process exited between listing and reading
        return None


def pids() -> list[int]:
    return [int(p) for p in os.listdir("/proc") if p.isdigit()]


def title(pid: int) -> str:
    raw = _read(f"/proc/{pid}/cmdline") or b""
    return raw.replace(b"\0", b" ").decode(errors="replace").strip()


def ray_procs() -> dict[int, str]:
    """pid -> title of every live ``ray::`` worker or actor process that
    this process started (other Ray sessions on the host are not ours)."""
    out = {}
    for p in descendants(os.getpid()):
        t = title(p)
        if t.startswith("ray::"):
            out[p] = t
    return out


def leaked_state_actors() -> int:
    """Frontier and seen actor processes alive right now."""
    return sum(bool(_LEAKABLE.match(t)) for t in ray_procs().values())


def vm_hwm_kb(pid: int) -> int:
    raw = _read(f"/proc/{pid}/status")
    if raw is None:
        return 0
    m = re.search(rb"^VmHWM:\s+(\d+) kB", raw, re.M)
    return int(m.group(1)) if m else 0


def peak_rss_mb() -> float:
    """Summed peak RSS of this process and every ``ray::`` process."""
    kb = vm_hwm_kb(os.getpid()) + sum(vm_hwm_kb(p) for p in ray_procs())
    return kb / 1024.0


def _ppid(pid: int) -> int | None:
    raw = _read(f"/proc/{pid}/stat")
    if raw is None:
        return None
    return int(raw[raw.rindex(b")") + 2:].split()[1])


def descendants(root: int) -> set[int]:
    children: dict[int, list[int]] = {}
    for p in pids():
        pp = _ppid(p)
        if pp is not None:
            children.setdefault(pp, []).append(p)
    out, todo = set(), [root]
    while todo:
        for c in children.get(todo.pop(), ()):
            out.add(c)
            todo.append(c)
    return out


def alive(pid: int) -> bool:
    raw = _read(f"/proc/{pid}/stat")
    # a zombie has exited; only its parent's wait is outstanding
    return raw is not None and raw[raw.rindex(b")") + 2:][:1] != b"Z"


def wait_gone(procs: set[int], timeout: float) -> set[int]:
    """Wait until every pid in ``procs`` has exited; returns survivors."""
    deadline = time.monotonic() + timeout
    left = {p for p in procs if alive(p)}
    while left and time.monotonic() < deadline:
        time.sleep(0.05)
        left = {p for p in left if alive(p)}
    return left
