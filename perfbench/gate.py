"""Correctness gate for one crawl, run outside the timed window: the
engine's stats and seen set equal the oracle's, the artifacts hold one
row per visit, and every collected page with an image validates.
"""

from __future__ import annotations


def check(stats: dict, seen: set, rows: int, validated: int,
          oracle) -> list[str]:
    """Problems found (empty when the crawl is correct)."""
    bad = []
    if rows != stats["visited"]:
        bad.append(f"artifact rows {rows} != visited {stats['visited']}")
    if stats != oracle.stats:
        bad.append(f"stats {stats} != oracle {oracle.stats}")
    if seen != oracle.seen:
        bad.append(f"seen set differs from the oracle's: "
                   f"{len(seen - oracle.seen)} extra, "
                   f"{len(oracle.seen - seen)} missing")
    if validated != oracle.validated:
        bad.append(f"validated {validated} != oracle {oracle.validated}")
    return bad
