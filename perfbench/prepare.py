"""Build one workload's world and replay the oracle over it, into the
benchmark's cache. Run as ``python3 -m perfbench.prepare <workload> <seed>``
from the repository root; ``run.py`` does this on a cache miss."""

from __future__ import annotations

import os
import shutil
import sys

from perfbench.workloads import (WORKLOADS, cache_dir, oracle_config,
                                 world_params, write_oracle)


def main(name: str, seed: int) -> None:
    from doonop_ray.oracle import run_oracle
    from doonop_ray.synth import build_world

    w = WORKLOADS[name]
    final = cache_dir(w, seed)
    tmp = f"{final}.tmp-{os.getpid()}"
    world = build_world(world_params(w, seed))
    world.write(tmp)
    res = run_oracle(oracle_config(w, world), world.pages_by_url(),
                     world.robots_map())
    write_oracle(tmp, res)
    try:
        os.rename(tmp, final)
    except OSError:  # another process published the same world first
        shutil.rmtree(tmp)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
