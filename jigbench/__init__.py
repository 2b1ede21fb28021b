"""Steady two-clock benchmark of the Jigsaw serving stack.

Run ``python3 jigbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``jigbench/README.md``.
"""
