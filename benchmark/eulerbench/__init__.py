"""Seeded closed-loop benchmark of eulermod: workloads, oracles and tracing.

Nothing in this package imports eulermod at module level, so a workload's
set-up can be timed from a fresh interpreter before ``import eulermod``.
"""
