"""Every workload, untraced then traced, in one report.

Usage, from the repository root::

    python3 servebench/report.py --seed 1 --seconds 20

For each workload this prints the untraced run's end-to-end metrics and
workload properties, the traced run's per-layer metrics (``n/a`` where a
layer does not apply) and the tracing overhead: traced over untraced
``answers_per_s`` and ``requests_per_s``.  Each run is its own
``run.py`` process.  Exits non-zero if any run failed its answer check.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = os.path.dirname(os.path.abspath(__file__))


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict, int]:
    completed = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
        ],
        capture_output=True,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(completed.stderr)
        return [], {}, completed.returncode or 1
    return lines[:-1], json.loads(lines[-1]), completed.returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    status = 0
    for workload in args.workload or WORKLOAD_NAMES:
        plain_lines, plain, plain_code = _run(workload, args.seed, args.seconds, 0)
        traced_lines, traced, traced_code = _run(workload, args.seed, args.seconds, 1)
        status |= plain_code | traced_code
        print("\n".join(plain_lines))
        print("\n".join(line for line in traced_lines if line.startswith("  layer ")))
        if plain and traced:
            for name in ("answers_per_s", "requests_per_s"):
                untraced = plain["metrics"][name]["value"]
                with_trace = traced["metrics"][f"trace.{name}"]["value"]
                print(
                    f"  tracing overhead {name:<16} traced/untraced = "
                    f"{with_trace / untraced:.3f} ({with_trace:.1f} vs {untraced:.1f})"
                )
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
