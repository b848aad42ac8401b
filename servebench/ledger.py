"""Layer ledger: cumulative answers/s at each boundary of a served answer.

On a scan workload's own inputs and bound plan, the traced run pulls
the same number of answers through each boundary in turn, every time
from a fresh stream (the plan is rebound between boundaries, so no
boundary replays another's memoized answers):

========  ===============================================================
anyk      ``make_enumerator`` over the bound T-DP (the raw any-k core)
iter      ``PreparedQuery.iter`` (adds ``QueryResult`` materialisation)
stream    ``PrefixStream.slice`` in pages (adds the memoized prefix)
session   ``SessionManager.fetch`` in pages (adds cursors and slicing)
encode    session pages plus ``protocol.encode(result_message(...))``
http      the gateway over HTTP, ``HttpServeClient.fetch`` in pages
========  ===============================================================

Each row is cumulative: its answers/s includes every layer above it,
so the drop from one row to the next is what that layer costs.
"""

from __future__ import annotations

import time
from itertools import islice

from repro.anyk import make_enumerator
from repro.ranking.dioid import NAMED_DIOIDS
from repro.serve import SessionManager, protocol

#: Answers pulled through every boundary.
LEDGER_ANSWERS = 20_000
BOUNDARIES = ("anyk", "iter", "stream", "session", "encode", "http")


def measure(env, query: str, page: int, http_client) -> dict[str, float]:
    """Answers/s at each boundary (``ledger.<boundary>_aps``)."""
    engine = env.engine
    dioid_name = env.extra["dioid"]
    prepared = engine.prepare(query, dioid=NAMED_DIOIDS[dioid_name])
    variant = prepared.logical.algorithm

    def fresh():
        prepared.invalidate()
        return prepared.bind()

    def paged(fetch_page) -> int:
        served = 0
        while served < LEDGER_ANSWERS:
            got = fetch_page(served)
            served += got
            if got == 0:
                break
        return served

    # Each step rebinds and opens its cursor untimed, then returns the
    # timed pull.
    def anyk():
        enumerator = make_enumerator(fresh().tdp, variant)
        return lambda: sum(1 for _ in islice(enumerator, LEDGER_ANSWERS))

    def iterate():
        fresh()
        return lambda: sum(1 for _ in islice(prepared.iter(), LEDGER_ANSWERS))

    def stream():
        fresh()
        memo = prepared.stream()
        return lambda: paged(lambda served: len(memo.slice(served, served + page)))

    def session(encode: bool):
        def step():
            fresh()
            manager = SessionManager(engine)
            _, cursor = manager.open_cursor(
                "ledger", query, algorithm=variant, dioid=prepared.logical.dioid
            )

            def fetch_page(served: int) -> int:
                results = manager.fetch("ledger", cursor, page).results
                if encode:
                    for offset, result in enumerate(results):
                        protocol.encode(protocol.result_message(served + offset, result))
                return len(results)

            return lambda: paged(fetch_page)

        return step

    def http():
        fresh()
        cursor = http_client.prepare(
            "ledger", query, dioid=dioid_name, algorithm=variant
        )["cursor"]
        return lambda: paged(
            lambda _: len(http_client.fetch("ledger", cursor, page).results)
        )

    steps = {
        "anyk": anyk,
        "iter": iterate,
        "stream": stream,
        "session": session(encode=False),
        "encode": session(encode=True),
        "http": http,
    }
    rates = {}
    for name in BOUNDARIES:
        pull = steps[name]()
        start = time.perf_counter()
        answers = pull()
        rates[f"ledger.{name}_aps"] = answers / (time.perf_counter() - start)
    http_client.close_session("ledger")
    fresh()
    return rates
