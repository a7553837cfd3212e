"""The repo benchmark: four workloads, per-layer drives and a traced run.

``BENCHMARK.json`` at the repo root names ``benchmarks/perf/run.py`` as
the command; ``README.md`` in this directory is the metric and workload
catalogue.  Everything the benchmark needs lives here: the files under
``src/`` are measured, never edited, by this package.
"""
