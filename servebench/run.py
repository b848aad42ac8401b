"""Serving-path benchmark: one workload, one seed, one run.

Usage, from the repository root::

    python3 servebench/run.py --workload scan-tropical --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that prints the per-layer
metrics (and, on the scan workloads, the layer ledger).  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 only when every delivered answer matched the reference.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("scan-tropical", "scan-maxtimes", "cold-ttf", "hot-rw")
#: Latency percentiles above the median are reported only when at
#: least ten samples lie beyond them.
TAIL_MIN_SAMPLES = 200


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def execute(
    workload_name: str,
    seed: int,
    seconds: float,
    traced: bool,
    workdir: str,
):
    """Set up, run the timed load, and tear down one workload.

    Returns the :class:`~servebench.workloads.Run` and, for a traced
    run, the per-layer metrics (``name -> (value, unit, applicable)``).
    """
    from servebench import ledger
    from servebench.tracing import LayerTrace
    from servebench.workloads import SCAN_PAGE, SCAN_QUERY, SETUP_REPEATS, WORKLOADS, Run, client

    workload = WORKLOADS[workload_name]
    trace = LayerTrace() if traced else None
    run = Run(seed, seconds, workdir, trace)
    env = None
    layers: dict[str, tuple[float, str, bool]] = {}
    try:
        for attempt in range(SETUP_REPEATS):
            if env is not None:
                env.close()
                env = None
                gc.collect()
            start = time.perf_counter()
            env = workload.setup(run, attempt)
            run.setup_s.append(time.perf_counter() - start)
        if trace is not None:
            trace.install(env.engine, env.gateway.server)
        try:
            workload.load(run, env)
        finally:
            if trace is not None:
                trace.uninstall()
        if trace is not None:
            layers.update(trace.metrics())
            rates = dict.fromkeys(
                (f"ledger.{name}_aps" for name in ledger.BOUNDARIES), 0.0
            )
            if workload.ledger:
                with client(env) as http:
                    rates = ledger.measure(env, SCAN_QUERY, SCAN_PAGE, http)
            for name, value in rates.items():
                layers[name] = (value, "answers/s", workload.ledger)
            anyk_aps, iter_aps = rates["ledger.anyk_aps"], rates["ledger.iter_aps"]
            anyk_us = 1e6 / anyk_aps if anyk_aps else 0.0
            layers["anyk.us_per_answer"] = (anyk_us, "us", workload.ledger)
            layers["enumeration.us_per_answer"] = (
                1e6 / iter_aps - anyk_us if iter_aps else 0.0,
                "us",
                workload.ledger,
            )
            layers["trace.answers_per_s"] = (
                run.answers / run.wall_s, "answers/s", True
            )
            layers["trace.requests_per_s"] = (
                run.requests / run.wall_s, "req/s", True
            )
            traces = os.path.join(os.path.dirname(workdir), "traces")
            os.makedirs(traces, exist_ok=True)
            trace.write(os.path.join(traces, f"{workload_name}-seed{seed}.json"))
    finally:
        if env is not None:
            env.close()
    return run, layers


def end_to_end(run) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """The gated end-to-end metrics, plus report-only lines."""
    from repro.obs.latency import percentile

    if not run.page_s or not run.ttf_s or run.wall_s <= 0:
        raise RuntimeError("the run delivered no page; nothing was measured")
    metrics = {
        "answers_per_s": (run.answers / run.wall_s, "answers/s"),
        "requests_per_s": (run.requests / run.wall_s, "req/s"),
        "page_ms.p50": (percentile(run.page_s, 50) * 1e3, "ms"),
        "ttf_ms.p50": (percentile(run.ttf_s, 50) * 1e3, "ms"),
        "setup_s": (statistics.median(run.setup_s), "s"),
        "rss_peak_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }
    samples = {
        "answers_per_s": f"{run.answers} answers in {run.wall_s:.2f} s timed",
        "requests_per_s": f"{run.requests} requests in {run.wall_s:.2f} s timed",
        "page_ms.p50": f"n={len(run.page_s)} fetches",
        "ttf_ms.p50": f"n={len(run.ttf_s)} first pages",
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "rss_peak_mb": "whole process",
    }
    lines = [
        f"  {name:<22} {value:>14.4f} {unit:<10} ({samples[name]})"
        for name, (value, unit) in metrics.items()
    ]
    for name, values in (("page_ms.p95", run.page_s), ("ttf_ms.p95", run.ttf_s)):
        if len(values) >= TAIL_MIN_SAMPLES:
            value = percentile(values, 95) * 1e3
            lines.append(f"  {name:<22} {value:>14.4f} {'ms':<10} (n={len(values)})")
        else:
            lines.append(
                f"  {name:<22} {'n/a':>14} {'ms':<10} "
                f"(n={len(values)} < {TAIL_MIN_SAMPLES} samples)"
            )
    share = run.failed / run.attempted if run.attempted else 0.0
    lines.append(
        f"  {'error_share':<22} {share:>14.4f} {'ratio':<10} "
        f"({run.failed} of {run.attempted} operations; "
        f"{run.wrong_answers} wrong answers)"
    )
    return metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            "servebench: no src/repro package next to servebench/; "
            "run from a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    workdir = os.path.join(
        ROOT, ".servebench", f"{args.workload}-seed{args.seed}-{os.getpid()}"
    )
    os.makedirs(workdir)
    try:
        run, layers = execute(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, lines = end_to_end(run)
    print(
        f"servebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}"
    )
    for line in lines:
        print(line)
    for name, value in run.properties.items():
        print(f"  property {name:<22} {_format(value)}")
    if args.trace:
        for name, (value, unit, applicable) in layers.items():
            shown = f"{value:>14.4f}" if applicable else f"{'n/a':>14}"
            print(f"  layer {name:<32} {shown} {unit}")
        metrics = {name: (value, unit) for name, (value, unit, _) in layers.items()}
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def _format(value) -> str:
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


if __name__ == "__main__":
    sys.exit(main())
