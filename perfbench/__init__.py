"""perfbench — the standing benchmark for the PIP reproduction.

Six workloads drive ``repro`` through its public entry points only, one
closed-loop client each; ``run.py`` is the single-run entry point named by
``BENCHMARK.json`` and ``python -m perfbench`` runs and compares whole
sets.  See ``perfbench/README.md``.
"""
