"""The ladder: one five-workload benchmark of the simulator and the system it models.

Run it as ``python -m benchmarks.ladder`` from the repository root; see
``README.md`` beside this file for the metric definitions, the workloads
and the measurement protocol.  ``BENCHMARK.json`` at the repository root
names this directory as the benchmark's only path.

Everything here measures ``repro`` from outside, through its public
entry points; nothing under ``src/`` knows this package exists.
"""
