"""The performance ledger: four workloads, an end-to-end gate, layer tracing.

``python -m benchmarks.ledger run`` measures every workload and records a
set; ``python -m benchmarks.ledger compare`` judges a change against its
parent; ``benchmarks/ledger/run.py`` runs one workload (the benchmark
command of ``BENCHMARK.json``).  See ``README.md`` in this directory.
"""

__all__ = []
