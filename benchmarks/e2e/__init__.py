"""The repo's single end-to-end benchmark (see README.md in this
directory): five workloads, two clocks, an outside-in per-layer trace.

Everything the benchmark needs lives in this directory; it reads the
program under ``src/`` and changes nothing outside ``benchmarks/e2e/``.
"""
