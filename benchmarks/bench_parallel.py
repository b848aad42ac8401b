#!/usr/bin/env python
"""Build-pipeline benchmark: direct lowering vs the object reference.

Measures, per storage backend, on the 4-path workload:

* **lowering** — the object-graph reference lowering
  (``compile_tdp(build_tdp(...))``: what user-built T-DPs and the tests'
  ``flat=False`` reference still run) vs the production unsharded bind
  (the direct key-space lowering, one fragment), timed in the same run;
* **sharded binds** at 1/2/4/8 fragments (always the fused
  in-process build), with TTF and answers/sec for a top-k run through
  the ranked k-way shard merge.

Every timed cell is gated by a bit-identity assertion first: each
ranked prefix must equal the object-reference enumerator's exactly.

Results merge into ``BENCH_parallel.json`` at the repo root (committed,
one section per ``full``/``smoke`` mode).  The headline number is
``lowering_speedup`` on the SQLite backend — reference lowering time
over the unsharded bind time; ``cpu_count`` is recorded alongside.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py            # full
    BENCH_SMOKE=1 python benchmarks/bench_parallel.py             # CI-sized
    BENCH_SMOKE=1 BENCH_CHECK=1 python benchmarks/bench_parallel.py
        # regression gate: fail (exit 1) unless the SQLite 4-path
        # lowering_speedup stays >= BENCH_MIN_SPEEDUP (default 1.5) and
        # within BENCH_TOLERANCE (default 30%) of the committed number
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

from repro.data.backend import SQLiteBackend  # noqa: E402
from repro.anyk.base import make_enumerator  # noqa: E402
from repro.data.generators import uniform_database  # noqa: E402
from repro.dp.builder import build_tdp  # noqa: E402
from repro.dp.flat import compile_tdp  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.query.builders import path_query  # noqa: E402
from repro.query.jointree import build_join_tree  # noqa: E402

SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
CHECK = os.environ.get("BENCH_CHECK", "") not in ("", "0")
TOLERANCE = float(os.environ.get("BENCH_TOLERANCE", "0.30"))
MIN_SPEEDUP = float(os.environ.get("BENCH_MIN_SPEEDUP", "1.5"))
MODE = "smoke" if SMOKE else "full"
JSON_PATH = os.path.join(ROOT, "BENCH_parallel.json")

N = 2_500 if SMOKE else 20_000
TOP_K = 300 if SMOKE else 1_000
REPEATS = 3
SHARD_COUNTS = [1, 2, 4, 8]
#: Ranked prefix compared bit-exactly before any cell is timed.
VERIFY_PREFIX = 200

QUERY = path_query(4)


def signature(results, k):
    out = []
    for result in results:
        out.append(
            (result.weight, tuple(sorted(result.assignment.items())),
             result.witness_ids)
        )
        if len(out) >= k:
            break
    return out


def bind_once(database, shards=None, core_cache="off"):
    """One cold bind on a fresh engine; returns (physical, seconds).

    Persistence is off by default: with ``core_cache="auto"`` the first
    bind would write a ``.core`` next to the SQLite file and every later
    "cold" bind would silently warm-start from it, corrupting the build
    measurements.  The warm-start path is measured explicitly (and only
    there is ``core_cache="auto"`` passed).
    """
    gc.collect()
    engine = Engine(database, core_cache=core_cache)
    start = time.perf_counter()
    physical = engine.prepare(QUERY, shards=shards).bind()
    return physical, time.perf_counter() - start


def best_bind_ms(database, shards=None, core_cache="off"):
    times = []
    for _ in range(REPEATS):
        _physical, seconds = bind_once(database, shards, core_cache)
        times.append(seconds)
    return round(min(times) * 1e3, 2)


def reference_lowering(database):
    """One object-graph build + compile; returns (T-DP, seconds)."""
    gc.collect()
    tree = build_join_tree(QUERY)
    start = time.perf_counter()
    tdp = build_tdp(database, tree)
    compile_tdp(tdp)
    return tdp, time.perf_counter() - start


def best_reference_ms(database):
    return round(
        min(reference_lowering(database)[1] for _ in range(REPEATS)) * 1e3, 2
    )


def enumeration_metrics(physical) -> dict:
    """TTF + answers/sec for a warm top-k run over a bound plan."""
    best = None
    for _ in range(REPEATS):
        gc.collect()
        clock = time.perf_counter
        start = clock()
        produced = 0
        ttf = None
        for _result in physical.iter():
            if ttf is None:
                ttf = clock() - start
            produced += 1
            if produced >= TOP_K:
                break
        total = clock() - start
        sample = (produced / total, ttf, total, produced)
        if best is None or sample[0] > best[0]:
            best = sample
    answers_per_sec, ttf, total, produced = best
    return {
        "produced": produced,
        "answers_per_sec": round(answers_per_sec, 1),
        "ttf_ms": round((ttf or 0.0) * 1e3, 4),
        "ttl_ms": round(total * 1e3, 3),
    }


def run_cell(name: str, database) -> dict:
    print(f"== {name} (n={N}, top-{TOP_K})")
    reference_tdp, _ = reference_lowering(database)
    reference = signature(
        make_enumerator(reference_tdp, "take2", flat=False), VERIFY_PREFIX
    )
    unsharded_physical, _ = bind_once(database)
    assert signature(unsharded_physical.iter(), VERIFY_PREFIX) == reference, (
        f"{name}: unsharded prefix diverged from the object reference"
    )
    reference_ms = best_reference_ms(database)
    unsharded_ms = best_bind_ms(database)
    lowering_speedup = round(reference_ms / unsharded_ms, 2)
    unsharded_enum = enumeration_metrics(unsharded_physical)
    print(f"  object reference lowering {reference_ms} ms, unsharded bind "
          f"{unsharded_ms} ms ({lowering_speedup}x); "
          f"{unsharded_enum['answers_per_sec']:.0f} answers/s, "
          f"ttf {unsharded_enum['ttf_ms']} ms")

    shard_cells = {}
    for shards in SHARD_COUNTS:
        physical, _ = bind_once(database, shards)
        assert signature(physical.iter(), VERIFY_PREFIX) == reference, (
            f"{name}: sharded prefix diverged at shards={shards}"
        )
        preprocess_ms = best_bind_ms(database, shards)
        enum = enumeration_metrics(physical)
        shard_cells[str(shards)] = {
            "preprocess_ms": preprocess_ms,
            "mode": physical.mode,
            **enum,
        }
        print(f"  shards={shards}: preprocess {preprocess_ms} ms "
              f"({physical.mode}), "
              f"{enum['answers_per_sec']:.0f} answers/s, "
              f"ttf {enum['ttf_ms']} ms")

    # Informational warm-start row (file-backed cells only): write the
    # compiled core once, then time fresh-engine binds that mmap it.
    # The gated warm-start acceptance lives in bench_hotpath's coldstart
    # section; this row shows the same effect under sharding.
    warm_mmap_ms = None
    core_path = getattr(getattr(database, "backend", None), "core_path", None)
    if core_path:
        writer = Engine(database)  # core_cache="auto" writes <db>.core
        writer.prepare(QUERY, shards=4).bind()
        writer.clear_caches()
        physical, _ = bind_once(database, 4, core_cache="auto")
        assert signature(physical.iter(), VERIFY_PREFIX) == reference, (
            f"{name}: warm-start prefix diverged at shards=4"
        )
        warm_mmap_ms = best_bind_ms(database, 4, core_cache="auto")
        print(f"  4-shard warm mmap bind: {warm_mmap_ms} ms")
        if os.path.exists(core_path):
            os.unlink(core_path)

    return {
        "n": N,
        "top_k": TOP_K,
        "reference_lowering_ms": reference_ms,
        "unsharded_bind_ms": unsharded_ms,
        "lowering_speedup": lowering_speedup,
        "unsharded": unsharded_enum,
        "shards": shard_cells,
        "warm_mmap_bind_ms_at_4": warm_mmap_ms,
    }


def run_benchmark() -> dict:
    database = uniform_database(4, N, seed=93)
    cells = {"4-path[memory]": run_cell("4-path[memory]", database)}

    tmp = tempfile.mkdtemp(prefix="bench_parallel_")
    db_path = os.path.join(tmp, "bench.db")
    backend = SQLiteBackend(db_path)
    for relation in database:
        backend.ingest(relation)
    sqlite_database = backend.database()
    try:
        cells["4-path[sqlite]"] = run_cell("4-path[sqlite]", sqlite_database)
    finally:
        backend.close()
        os.unlink(db_path)
        os.rmdir(tmp)

    return {
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "repeats": REPEATS,
        "cells": cells,
    }


def regression_gate(previous: dict, current: dict) -> list[str]:
    """The committed acceptance: SQLite unsharded lowering speedup.

    Two conditions: the absolute floor (``lowering_speedup >=
    MIN_SPEEDUP``) and no regression beyond TOLERANCE against the
    committed same-mode number.  The speedup is a same-machine ratio of
    two timings from the same run, so it is robust to slower CI runners.
    """
    failures = []
    cell = current["cells"].get("4-path[sqlite]", {})
    speedup = cell.get("lowering_speedup") or 0.0
    if speedup < MIN_SPEEDUP:
        failures.append(
            f"sqlite 4-path lowering_speedup = {speedup:.2f}x "
            f"< required {MIN_SPEEDUP:.2f}x"
        )
    old_cell = (
        previous.get("modes", {}).get(MODE, {}).get("cells", {})
        .get("4-path[sqlite]", {})
    )
    old_speedup = old_cell.get("lowering_speedup")
    if old_speedup and speedup < old_speedup * (1.0 - TOLERANCE):
        failures.append(
            f"sqlite 4-path lowering_speedup regressed: {speedup:.2f}x vs "
            f"committed {old_speedup:.2f}x (tolerance {TOLERANCE * 100:.0f}%)"
        )
    return failures


def main() -> int:
    previous = {}
    if os.path.exists(JSON_PATH):
        with open(JSON_PATH) as handle:
            previous = json.load(handle)

    current = run_benchmark()
    failures = regression_gate(previous, current) if CHECK else []

    merged = {"benchmark": "parallel", "modes": previous.get("modes", {})}
    merged["modes"][MODE] = current
    with open(JSON_PATH, "w") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {JSON_PATH} ({MODE} mode)")
    for cell_name, cell in current["cells"].items():
        print(f"headline {cell_name}: unsharded lowering speedup over the "
              f"object reference = {cell['lowering_speedup']}x")

    if failures:
        print("\nPARALLEL PERF GATE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if CHECK:
        print(f"parallel perf gate passed (floor {MIN_SPEEDUP:.2f}x, "
              f"tolerance {TOLERANCE * 100:.0f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
