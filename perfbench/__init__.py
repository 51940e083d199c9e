"""End-to-end and per-layer benchmark of the spin-neuron associative memory.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; see ``perfbench/README.md``.
"""
