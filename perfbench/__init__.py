"""Crawl benchmark for doonop_ray: generated worlds, oracle-checked runs,
end-to-end and per-layer metrics. Entry point: ``python3 perfbench/run.py``."""
