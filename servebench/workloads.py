"""The four workloads: set-up, timed closed-loop load, answer checks.

Every workload runs in one process that also hosts the gateway thread
(:class:`repro.serve.GatewayThread`); clients are
:class:`repro.serve.HttpServeClient` callers that wait for each reply
(closed loops).  Inputs come only from the ``--seed``; the program
receives the generated graphs and query texts and nothing else.
README.md records why each workload exists and what it should show.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable

from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.graphs import twitter_like
from repro.engine import Engine
from repro.ranking.dioid import NAMED_DIOIDS
from repro.serve import AccessPolicy, GatewayThread, HttpServeClient, ServeClientError

from servebench import gate

#: Bearer token every request carries (the edge policy's auth check
#: runs on every request, as in a deployment).
TOKEN = "servebench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

# scan-*: rounds of deep 4-path scans, one per any-k variant, over one
# bound plan.
SCAN_GRAPH = {"num_nodes": 1_500, "num_edges": 12_000}
SCAN_QUERY = "Q(x1, x2, x3, x4, x5) :- E(x1, x2), E(x2, x3), E(x3, x4), E(x4, x5)"
#: Every variant owns its own memoized stream, so consecutive scans
#: never replay each other's answers.  ``batch`` is left out: it sorts
#: the whole output before its first answer.
SCAN_VARIANTS = ("take2", "lazy", "eager", "all", "recursive")
SCAN_PAGE = 1_000
#: Answers per scan: fixed, so the memoized prefix (and RSS) does not
#: grow when serving gets faster; a faster program runs more rounds.
#: Whole rounds keep the variant mix of every run the same.
SCAN_DEPTH = 4 * SCAN_PAGE

# cold-ttf: distinct physical plans, first page of 10 each.
COLD_PATH_GRAPH = {"num_nodes": 600, "num_edges": 3_000}
#: Cycles run on smaller graphs: a cold 4-cycle on the scan graph takes
#: seconds and would dominate the run.
COLD_CYCLE_GRAPH = {"num_nodes": 200, "num_edges": 800}
COLD_RELATIONS = 6
COLD_PAGE = 10
COLD_SHAPES = {
    # shape -> (atom variable pairs, relation family)
    "path3": ((("x1", "x2"), ("x2", "x3"), ("x3", "x4")), "E"),
    "path4": ((("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5")), "E"),
    "star3": ((("x1", "y1"), ("x1", "y2"), ("x1", "y3")), "E"),
    "cycle3": ((("x1", "x2"), ("x2", "x3"), ("x3", "x1")), "C"),
    "cycle4": ((("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x1")), "C"),
}
COLD_DIOIDS = ("tropical", "max-plus", "max-times", "boolean")

# hot-rw: a skewed hot set over a SQLite-stored graph, with appends.
HOT_GRAPH = {"num_nodes": 1_000, "num_edges": 5_000}
HOT_QUERIES = (
    # (query text, dioid, any-k variant, reads per write interval)
    ("Q(x1, x2, x3) :- E(x1, x2), E(x2, x3)", "tropical", "take2", 10),
    ("Q(x1, x2, x3) :- E(x1, x2), E(x2, x3)", "tropical", "lazy", 6),
    ("Q(x1, x2, x3, x4) :- E(x1, x2), E(x2, x3), E(x3, x4)", "tropical", "take2", 5),
    ("Q(x1, x2, x3, x4) :- E(x1, x2), E(x2, x3), E(x3, x4)", "max-plus", "eager", 4),
    ("Q(x1, y1, y2, y3) :- E(x1, y1), E(x1, y2), E(x1, y3)", "tropical", "take2", 3),
    ("Q(x1, x2, x3) :- E(x1, x2), E(x2, x3)", "max-times", "take2", 2),
)
#: Reads per reader between two writes: every interval holds the same
#: skewed query mix and the same k values (log-spaced from 10 to 1000);
#: the seed only shuffles their order and pairing.
HOT_READS_PER_WRITE = sum(reads for *_, reads in HOT_QUERIES)
HOT_KS = tuple(
    round(10 ** (1 + 2 * i / (HOT_READS_PER_WRITE - 1)))
    for i in range(HOT_READS_PER_WRITE)
)
HOT_READERS = 2
HOT_WRITE_BATCH = 5


@dataclass
class Run:
    """What one benchmark run measures; shared by client threads."""

    seed: int
    seconds: float
    workdir: str
    trace: Any = None
    wall_s: float = 0.0
    setup_s: list[float] = field(default_factory=list)
    answers: int = 0
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    wrong_answers: int = 0
    page_s: list[float] = field(default_factory=list)
    ttf_s: list[float] = field(default_factory=list)
    properties: dict[str, Any] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def time_left(self) -> bool:
        return self.wall_s < self.seconds

    @contextmanager
    def segment(self):
        """A timed stretch of the load; spans are recorded only here."""
        if self.trace is not None:
            self.trace.start()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.wall_s += time.perf_counter() - start
            if self.trace is not None:
                self.trace.stop()

    def request(
        self, call: Callable[[], Any], counted: bool = True
    ) -> tuple[bool, Any, float, float]:
        """One operation: ``(ok, response, sent, done)``.

        A refusal from the server counts as a failed operation; any
        other exception ends the run.  ``counted`` requests (prepare
        and fetch) make up ``requests_per_s``.
        """
        sent = time.perf_counter()
        try:
            response, ok = call(), True
        except ServeClientError:
            response, ok = None, False
        done = time.perf_counter()
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
            elif counted:
                self.requests += 1
        return ok, response, sent, done

    def delivered(self, page_s: float, answers: int, ttf_s: float | None = None) -> None:
        with self._lock:
            self.page_s.append(page_s)
            self.answers += answers
            if ttf_s is not None:
                self.ttf_s.append(ttf_s)

    def check(self, rows, head, expected, start: int, requested: int) -> None:
        """Gate one delivered page (outside the timed region)."""
        wrong = gate.mismatches(rows, head, expected, start, requested)
        if wrong:
            with self._lock:
                self.failed += 1
                self.wrong_answers += wrong


@dataclass
class Env:
    """One set-up: engine, gateway, and what the load needs."""

    engine: Engine
    gateway: GatewayThread
    address: tuple[str, int]
    extra: dict[str, Any] = field(default_factory=dict)

    def close(self) -> None:
        self.gateway.stop()
        self.engine.close()


def serve(engine: Engine, extra: dict | None = None) -> Env:
    gateway = GatewayThread(
        engine, policy=AccessPolicy(auth_token=TOKEN), log_requests=False
    )
    return Env(engine, gateway, gateway.start(), extra or {})


def client(env: Env) -> HttpServeClient:
    return HttpServeClient(*env.address, timeout=120, token=TOKEN)


# -- scan-tropical / scan-maxtimes -----------------------------------------------


def scan_setup(run: Run, dioid_name: str, attempt: int) -> Env:
    engine = Engine(Database([twitter_like(seed=run.seed, **SCAN_GRAPH)]))
    dioid = NAMED_DIOIDS[dioid_name]
    for variant in SCAN_VARIANTS:
        engine.prepare(SCAN_QUERY, dioid=dioid, algorithm=variant)
    engine.prepare(SCAN_QUERY, dioid=dioid).bind()
    return serve(engine, {"dioid": dioid_name})


def scan_load(run: Run, env: Env) -> None:
    engine = env.engine
    dioid_name = env.extra["dioid"]
    dioid = NAMED_DIOIDS[dioid_name]
    prepared = {
        variant: engine.prepare(SCAN_QUERY, dioid=dioid, algorithm=variant)
        for variant in SCAN_VARIANTS
    }
    head = prepared["take2"].query.head
    expected = {
        variant: gate.reference(query, SCAN_DEPTH) for variant, query in prepared.items()
    }
    depths: list[int] = []
    wire_bytes = wire_answers = 0
    with client(env) as http:
        for round_ in count():
            if not run.time_left():
                break
            for variant in SCAN_VARIANTS:
                depth, first_page = _scan(
                    run, http, f"scan-{round_}-{variant}", variant, dioid_name,
                    head, expected[variant],
                )
                depths.append(depth)
                if first_page:
                    wire_bytes += len(json.dumps(first_page, separators=(",", ":")))
                    wire_answers += len(first_page)
            if run.trace is not None:
                run.trace.sample_stream_bytes(engine)
            # The next round must not find this plan's streams memoized.
            prepared["take2"].invalidate()
            prepared["take2"].bind()
    fetches = len(run.page_s)
    run.properties.update(
        {
            "scans": len(depths),
            "answers_per_page": run.answers / fetches if fetches else 0.0,
            "wire_bytes_per_answer": wire_bytes / wire_answers if wire_answers else 0.0,
            "answers_per_scan": sum(depths) / len(depths) if depths else 0.0,
        }
    )


def _scan(run, http, session, variant, dioid_name, head, expected) -> tuple[int, list]:
    """Open a cursor on a fresh stream and page it to ``SCAN_DEPTH``.

    Returns the depth reached and the first page's rows.
    """
    with run.segment():
        ok, opened, sent, _ = run.request(
            lambda: http.prepare(session, SCAN_QUERY, dioid=dioid_name, algorithm=variant)
        )
    if not ok:
        return 0, []
    position = 0
    first_page: list = []
    while position < SCAN_DEPTH:
        with run.segment():
            ok, page, start, done = run.request(
                lambda: http.fetch(session, opened["cursor"], SCAN_PAGE)
            )
        if not ok:
            break
        run.delivered(done - start, len(page.results), done - sent if position == 0 else None)
        run.check(page.results, head, expected, position, SCAN_PAGE)
        if position == 0:
            first_page = page.results
        position += len(page.results)
        if page.exhausted:
            break
    with run.segment():
        run.request(lambda: http.close_session(session), counted=False)
    return position, first_page


# -- cold-ttf --------------------------------------------------------------------


def cold_setup(run: Run, attempt: int) -> Env:
    relations = []
    for family, graph in (("E", COLD_PATH_GRAPH), ("C", COLD_CYCLE_GRAPH)):
        for index in range(1, COLD_RELATIONS + 1):
            edges = twitter_like(seed=run.seed * 100 + index, **graph)
            relations.append(edges.rename(f"{family}{index}"))
    database = Database(relations)
    # Untimed warm binds on a throwaway engine: load the lazily
    # imported planning/sharding code once, without filling the
    # measured engine's caches.  The first 20 plans hold every shape
    # and dioid; one plan from each later period of 20 adds shards
    # and constants.
    warm = Engine(database)
    plans = _cold_plans(random.Random(-1 - run.seed), database, limit=80)
    for index, plan in enumerate(plans):
        if index < 20 or index % 20 == 0:
            dioid = NAMED_DIOIDS[plan["dioid"]]
            warm.prepare(plan["query"], dioid=dioid, shards=plan["shards"]).bind()
    warm.clear_caches()
    return serve(Engine(database))


def _cold_plans(rng: random.Random, database: Database, limit: int | None = None):
    """Distinct physical plans: shape, dioid, shards, relations, constant.

    The structural axes cycle with periods 5, 20, 40 and 80, so every
    80 consecutive plans hold each combination once; the seed picks
    the relations of each atom and the selection constants.  At least
    one relation of every query appears only once, which sharding
    needs to pick an anchor.
    """
    seen = set()
    shapes = list(COLD_SHAPES)
    for index in count():
        if limit is not None and index >= limit:
            return
        shape = shapes[index % len(shapes)]
        dioid = COLD_DIOIDS[(index // 5) % len(COLD_DIOIDS)]
        shards = (None, 2)[(index // 20) % 2]
        constant = (index // 40) % 2 == 1 and not shape.startswith("cycle")
        atoms, family = COLD_SHAPES[shape]
        while True:
            names = [f"{family}{rng.randint(1, COLD_RELATIONS)}" for _ in atoms]
            if not any(names.count(name) == 1 for name in names):
                continue
            value = None
            if constant:
                source = database[names[0]]
                column = 1 if shape == "star3" else 0
                value = source.tuples[rng.randrange(len(source))][column]
            key = (shape, tuple(names), dioid, shards, value)
            if key not in seen:
                seen.add(key)
                break
        yield {
            "shape": shape,
            "query": _query_text(atoms, names, value, shape),
            "dioid": dioid,
            "shards": shards,
        }


def _query_text(atoms, names, constant, shape) -> str:
    """Datalog text; a constant replaces the first atom's free endpoint."""
    rendered = []
    for position, ((left, right), name) in enumerate(zip(atoms, names)):
        if position == 0 and constant is not None:
            if shape == "star3":
                right = str(constant)
            else:
                left = str(constant)
        rendered.append(f"{name}({left}, {right})")
    variables = []
    for atom in rendered:
        for token in atom[atom.index("(") + 1:-1].split(", "):
            if not token.isdigit() and token not in variables:
                variables.append(token)
    return f"Q({', '.join(variables)}) :- {', '.join(rendered)}"


def cold_load(run: Run, env: Env) -> None:
    engine = env.engine
    shapes: dict[str, int] = {}
    compiled = object_path = 0
    with client(env) as http:
        for plan in _cold_plans(random.Random(run.seed), engine.database):
            if not run.time_left():
                break
            fields = {"dioid": plan["dioid"]}
            if plan["shards"] is not None:
                fields["shards"] = plan["shards"]
            with run.segment():
                ok, opened, sent, _ = run.request(
                    lambda: http.prepare("cold", plan["query"], **fields)
                )
                if ok:
                    ok, page, start, done = run.request(
                        lambda: http.fetch("cold", opened["cursor"], COLD_PAGE)
                    )
                    if ok:
                        run.request(
                            lambda: http.close_cursor("cold", opened["cursor"]),
                            counted=False,
                        )
            if not ok:
                continue
            run.delivered(done - start, len(page.results), done - sent)
            prepared = engine.prepare(
                plan["query"], dioid=NAMED_DIOIDS[plan["dioid"]], shards=plan["shards"]
            )
            expected = gate.reference(prepared, COLD_PAGE)
            run.check(page.results, prepared.query.head, expected, 0, COLD_PAGE)
            shapes[plan["shape"]] = shapes.get(plan["shape"], 0) + 1
            if "compiled core" in prepared.explain():
                compiled += 1
            else:
                object_path += 1
    plans = compiled + object_path
    run.properties.update(
        {
            "plans": plans,
            "compiled_share": compiled / plans if plans else 0.0,
            "object_path_share": object_path / plans if plans else 0.0,
            "shape_mix": {name: shapes[name] for name in sorted(shapes)},
        }
    )


# -- hot-rw ----------------------------------------------------------------------


def hot_setup(run: Run, attempt: int) -> Env:
    path = os.path.join(run.workdir, f"hot-{attempt}.db")
    backend = SQLiteBackend(path)
    backend.ingest(twitter_like(seed=run.seed, **HOT_GRAPH))
    engine = Engine.from_backend(backend)
    for text, dioid, variant, _ in HOT_QUERIES:
        engine.prepare(text, dioid=NAMED_DIOIDS[dioid], algorithm=variant).bind()
    return serve(engine)


def hot_load(run: Run, env: Env) -> None:
    engine = env.engine
    edges = engine.database["E"]
    weights = edges.weights
    low, high = min(weights), max(weights)
    nodes = HOT_GRAPH["num_nodes"]
    writer = random.Random(run.seed * 7 + 1)
    readers = [random.Random(run.seed * 7 + 2 + i) for i in range(HOT_READERS)]
    mix = [index for index, (*_, reads) in enumerate(HOT_QUERIES) for _ in range(reads)]
    binds_before = engine.stats.binds
    writes = extended = served = 0
    clients = [client(env) for _ in range(HOT_READERS)]
    try:
        while run.time_left():
            records: list[list[tuple]] = [[] for _ in range(HOT_READERS)]
            errors: list[BaseException] = []
            with run.segment():
                threads = [
                    threading.Thread(
                        target=_hot_reader,
                        args=(run, clients[i], f"hot-{i}", readers[i], mix, records[i], errors),
                    )
                    for i in range(HOT_READERS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
            if errors:
                raise errors[0]
            served_now, extended_now = _hot_check(run, engine, records)
            served += served_now
            extended += extended_now
            if run.trace is not None:
                run.trace.sample_stream_bytes(engine)
            if not run.time_left():
                break
            batch = [
                ((writer.randrange(nodes), writer.randrange(nodes)), writer.uniform(low, high))
                for _ in range(HOT_WRITE_BATCH)
            ]
            with run.segment():
                for values, weight in batch:
                    edges.add(values, weight)
            run.attempted += 1
            writes += 1
    finally:
        for http in clients:
            http.close()
    run.properties.update(
        {
            "writes": writes,
            "replayed_share": 1.0 - extended / served if served else 0.0,
            "extended_share": extended / served if served else 0.0,
            "rebinds_per_write": (engine.stats.binds - binds_before) / writes if writes else 0.0,
        }
    )


def _hot_reader(run, http, session, rng, mix, records, errors) -> None:
    try:
        ks = list(HOT_KS)
        rng.shuffle(ks)
        for index, k in zip(rng.sample(mix, len(mix)), ks):
            text, dioid, variant, _ = HOT_QUERIES[index]
            ok, opened, sent, _ = run.request(
                lambda: http.prepare(session, text, dioid=dioid, algorithm=variant)
            )
            if not ok:
                continue
            ok, page, start, done = run.request(
                lambda: http.fetch(session, opened["cursor"], k)
            )
            if not ok:
                continue
            run.delivered(done - start, len(page.results), done - sent)
            records.append((index, k, page.results))
        run.request(lambda: http.close_session(session), counted=False)
    except BaseException as exc:  # re-raised by the main thread
        errors.append(exc)


def _hot_check(run: Run, engine: Engine, records) -> tuple[int, int]:
    """Gate one write interval's reads; returns (served, extended)."""
    deepest: dict[int, int] = {}
    for reader in records:
        for index, k, _ in reader:
            deepest[index] = max(deepest.get(index, 0), k)
    served = extended = 0
    for index, depth in deepest.items():
        text, dioid, variant, _ = HOT_QUERIES[index]
        prepared = engine.prepare(text, dioid=NAMED_DIOIDS[dioid], algorithm=variant)
        expected = gate.reference(prepared, depth)
        for reader in records:
            for used, k, rows in reader:
                if used == index:
                    run.check(rows, prepared.query.head, expected, 0, k)
                    served += len(rows)
        extended += prepared.stream().stats()["extensions"]
    return served, extended


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Run, int], Env]
    load: Callable[[Run, Env], None]
    #: Whether the traced run also measures the layer ledger.
    ledger: bool = False


WORKLOADS = {
    "scan-tropical": Workload(
        "scan-tropical",
        lambda run, attempt: scan_setup(run, "tropical", attempt),
        scan_load,
        ledger=True,
    ),
    "scan-maxtimes": Workload(
        "scan-maxtimes",
        lambda run, attempt: scan_setup(run, "max-times", attempt),
        scan_load,
        ledger=True,
    ),
    "cold-ttf": Workload("cold-ttf", cold_setup, cold_load),
    "hot-rw": Workload("hot-rw", hot_setup, hot_load),
}
