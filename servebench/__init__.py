"""Serving-path benchmark: prepare to HTTP page on four workloads.

Run ``python3 servebench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` for the
workloads, the metrics and what each one is meant to show.
"""
