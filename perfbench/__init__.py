"""The repository benchmark: paper sweeps and a large-graph skip-gram fit,
with a traced per-layer breakdown.  Run ``python3 perfbench/run.py --help``."""
