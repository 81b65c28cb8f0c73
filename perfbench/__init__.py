"""Repository benchmark: seeded workloads, output checks, traced layers.

Run ``python3 perfbench/run.py --help`` for the command line; see
``perfbench/README.md`` for the workloads and metrics.
"""
