"""One encode per page, and witnesses materialised on demand.

* **Byte identity** — a raw HTTP ``/v1/fetch`` body equals the rendering
  the gateway produced when it folded the dispatcher's per-answer lines
  back into one document: the terminator's fields followed by
  ``results`` built from the decoded ``{"result": ...}`` lines.  The
  reference is rendered here from the line transports' output for the
  same cursor state, across float, tuple (lexicographic) and max-times
  weights, a projection, two shards, a cycle, an exhausting page and a
  partial deadline page.
* **Unencodable answers** — a value JSON cannot encode fails its fetch
  with the same typed error and status on HTTP as on the line
  transports, and the failing slice is rewound on both.
* **Witness on demand** — ``QueryResult.witness`` is computed only when
  read, equals the T-DP's ``witness(states)`` on the flat, warm-mapped,
  sharded and projection paths, and still does after the plan was
  rebound or the core cache closed.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
from contextlib import contextmanager
from itertools import islice

import pytest

from repro.anyk import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.generators import uniform_database
from repro.data.relation import Relation
from repro.dp.flat import FragmentTDP
from repro.engine import Engine
from repro.ranking.dioid import MAX_TIMES, LexicographicDioid
from repro.serve import GatewayThread, SessionManager
from repro.serve.server import OpDispatcher

PATH3 = "Q(x1, x2, x3, x4) :- R1(x1, x2), R2(x2, x3), R3(x3, x4)"
PATH2 = "Q(x1, x2, x3) :- R1(x1, x2), R2(x2, x3)"
PROJECTED = "Q(x1, x3) :- R1(x1, x2), R2(x2, x3)"
CYCLE = "Q(a, b, c) :- R1(a, b), R2(b, c), R3(c, a)"
LEX = "Q(a, b, c) :- L1(a, b), L2(b, c)"


class _TickClock:
    """A clock advancing a fixed step per reading (deterministic deadlines)."""

    def __init__(self, step: float):
        self.t = 0.0
        self.step = step

    def __call__(self) -> float:
        self.t += self.step
        return self.t


class _LineRecorder:
    """A line transport's writer: keeps every protocol line as written."""

    def __init__(self):
        self.lines: list[bytes] = []

    def write(self, data: bytes) -> None:
        self.lines.append(data)

    async def drain(self) -> None:
        return None

    def is_closing(self) -> bool:
        return False


def dispatch_lines(manager: SessionManager, request: dict) -> list[bytes]:
    recorder = _LineRecorder()
    asyncio.run(OpDispatcher(manager).dispatch(request, recorder))
    return recorder.lines


def folded_page(lines: list[bytes]) -> bytes:
    """The page body rebuilt from per-answer lines (decode, then fold)."""
    messages = [json.loads(line) for line in lines]
    body = dict(messages[-1])
    body["results"] = [m["result"] for m in messages if "result" in m]
    return json.dumps(body, separators=(",", ":")).encode("utf-8")


def http_fetch(address, request: dict) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("POST", "/v1/fetch", body=json.dumps(request).encode())
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def mixed_database() -> Database:
    """Float-weighted R1..R3 plus tuple-weighted L1, L2 (lexicographic)."""
    database = uniform_database(3, 40, domain_size=5, seed=9)
    rng = random.Random(4)
    for name in ("L1", "L2"):
        tuples = [(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(12)]
        weights = [
            (float(rng.randint(0, 3)), rng.randint(0, 9) / 4) for _ in tuples
        ]
        database.add(Relation(name, 2, tuples, weights))
    return database


@contextmanager
def manager_pair(engine: Engine, clock_step: float | None = None):
    """Two managers over one engine: one read through line dispatch, one
    served over HTTP.  With ``clock_step`` each gets its own tick clock,
    so equal call sequences expire deadlines at the same slice."""

    def manager() -> SessionManager:
        options = {"slice_size": 8}
        if clock_step is not None:
            options["clock"] = _TickClock(clock_step)
        return SessionManager(engine, **options)

    lines, served = manager(), manager()
    with GatewayThread(None, manager=served) as address:
        yield lines, served, address


@pytest.fixture(scope="module")
def engine():
    engine = Engine(mixed_database())
    yield engine
    engine.close()


CASES = {
    "tropical": (PATH3, {}, [20, 30]),
    "lexicographic": (LEX, {"dioid": LexicographicDioid(2)}, [5, 7]),
    "max-times": (PATH3, {"dioid": MAX_TIMES}, [20, 30]),
    "projection": (PROJECTED, {}, [20, 30]),
    "shards-2": (PATH3, {"shards": 2}, [20, 30]),
    "cycle": (CYCLE, {}, [9, 17]),
    "exhaustion": (PATH2, {}, [40, 100_000, 5]),
}


class TestHttpPageBytes:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_body_matches_folded_lines(self, engine, case):
        query, options, pages = CASES[case]
        with manager_pair(engine) as (lines, served, address):
            _, line_cursor = lines.open_cursor("s", query, **options)
            _, http_cursor = served.open_cursor("s", query, **options)
            assert line_cursor == http_cursor
            answers = 0
            for n in pages:
                request = {"session": "s", "cursor": line_cursor, "n": n}
                expected = folded_page(
                    dispatch_lines(lines, {"op": "fetch", **request})
                )
                status, body = http_fetch(address, request)
                assert status == 200
                assert body == expected
                answers += len(json.loads(body)["results"])
            assert answers > 0, "the case must serve answers"
            if case == "exhaustion":
                assert json.loads(body)["exhausted"] is True
            if case == "lexicographic":
                assert isinstance(json.loads(body)["results"][0]["weight"], list)

    def test_partial_deadline_page(self, engine):
        with manager_pair(engine, clock_step=0.001) as (lines, served, address):
            _, cursor = lines.open_cursor("d", PATH3)
            served.open_cursor("d", PATH3)
            request = {"session": "d", "cursor": cursor, "n": 500,
                       "deadline_ms": 25}
            line_output = dispatch_lines(lines, {"op": "fetch", **request})
            status, body = http_fetch(address, request)
            page = json.loads(body)
            assert status == 200
            assert page["deadline_exceeded"] is True
            assert 0 < page["served"] < 500
            assert body == folded_page(line_output)

    def test_line_transports_encode_tuples_as_arrays(self, engine):
        manager = SessionManager(engine, slice_size=8)
        _, cursor = manager.open_cursor("t", LEX, dioid=LexicographicDioid(2))
        lines = dispatch_lines(
            manager, {"op": "fetch", "session": "t", "cursor": cursor, "n": 3}
        )
        first = json.loads(lines[0])["result"]
        assert lines[0] == (
            json.dumps({"result": first}, separators=(",", ":")) + "\n"
        ).encode()
        assert isinstance(first["weight"], list)


def unencodable_database() -> Database:
    """A 2-path whose answers from rank 8 on carry a frozenset value."""
    r1 = [(i, i % 3) for i in range(8)]
    r2 = [(b, f"v{b}") for b in range(3)] + [(b, frozenset({b})) for b in range(3)]
    weights2 = [0.0, 0.0, 0.0, 100.0, 100.0, 100.0]
    return Database([
        Relation("R1", 2, r1, [float(i) for i in range(8)]),
        Relation("R2", 2, r2, weights2),
    ])


class TestUnencodableAnswer:
    def test_same_typed_error_and_rewind_on_every_transport(self):
        engine = Engine(unencodable_database())
        with manager_pair(engine) as (lines, served, address):
            _, cursor = lines.open_cursor("u", PATH2)
            served.open_cursor("u", PATH2)
            request = {"session": "u", "cursor": cursor, "n": 12}
            line_output = dispatch_lines(lines, {"op": "fetch", **request})
            error = json.loads(line_output[-1])
            assert error["ok"] is False and error["error"] == "bad_query"
            assert "frozenset" in error["message"]
            status, body = http_fetch(address, request)
            assert status == 400
            assert body == line_output[-1].rstrip(b"\n")
            # Both transports delivered slice one and rewound slice two.
            assert lines.cursor("u", cursor).position == 8
            assert served.cursor("u", cursor).position == 8


# -- witness on demand -----------------------------------------------------------


def oracle_witness(database, query, result) -> tuple:
    """Input tuples in atom order, looked up by the answer's witness ids."""
    return tuple(
        database[atom.relation_name].tuple_at(tuple_id)
        for atom, tuple_id in zip(query.atoms, result.witness_ids)
    )


def tdp_witnesses(physical, k: int) -> list[tuple]:
    """``tdp.witness(states)`` of the plan's first ``k`` answers."""
    enumerator = make_enumerator(physical.tdp, "take2")
    return [r.tdp.witness(r.states) for r in islice(enumerator, k)]


@pytest.fixture
def witness_calls(monkeypatch):
    calls = []
    original = FragmentTDP.witness

    def counted(self, states):
        calls.append(states)
        return original(self, states)

    monkeypatch.setattr(FragmentTDP, "witness", counted)
    return calls


def sqlite_path(tmp_path) -> str:
    path = str(tmp_path / "witness.db")
    backend = SQLiteBackend(path)
    for relation in uniform_database(3, 40, domain_size=5, seed=9):
        backend.ingest(relation)
    backend.close()
    return path


class TestWitnessOnDemand:
    def test_flat_path_computes_only_when_read(self, witness_calls):
        engine = Engine(uniform_database(3, 40, domain_size=5, seed=9))
        prepared = engine.prepare(PATH3)
        expected = tdp_witnesses(prepared.bind(), 30)
        witness_calls.clear()
        results = prepared.top(30)
        assert witness_calls == [], "no witness is built while serving"
        assert [r.witness for r in results] == expected
        assert len(witness_calls) == 30
        assert [r.witness for r in results] == expected
        assert len(witness_calls) == 30, "a read witness is kept"

    def test_flat_path_after_rebind(self):
        database = uniform_database(3, 40, domain_size=5, seed=9)
        engine = Engine(database)
        prepared = engine.prepare(PATH3)
        old = prepared.bind()
        expected = tdp_witnesses(old, 30)
        results = prepared.top(30)
        database["R1"].add((1, 1), 0.5)
        assert prepared.bind() is not old
        assert [r.witness for r in results] == expected

    @pytest.mark.parametrize("shards", [None, 2])
    def test_warm_mapped_path_after_rebind_and_core_close(
        self, tmp_path, shards
    ):
        path = sqlite_path(tmp_path)
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            engine.prepare(PATH3, shards=shards).bind()
        with Engine.from_backend(SQLiteBackend(path)) as engine:
            prepared = engine.prepare(PATH3, shards=shards)
            physical = prepared.bind()
            assert engine.stats.core_hits == 1
            query = prepared.logical.query
            results = prepared.top(30)
            expected = [
                oracle_witness(engine.database, query, r) for r in results
            ]
            if shards is None:
                assert physical.warm
                assert tdp_witnesses(physical, 30) == expected
            del physical
            engine.database["R1"].add((1, 1), 0.5)
            prepared.bind()
            engine.core_cache.close()
            assert [r.witness for r in results] == expected

    def test_sharded_path(self):
        database = uniform_database(3, 40, domain_size=5, seed=9)
        engine = Engine(database)
        prepared = engine.prepare(PATH3, shards=2)
        assert prepared.bind().shard_count == 2
        results = prepared.top(30)
        query = prepared.logical.query
        expected = [oracle_witness(database, query, r) for r in results]
        database["R1"].add((1, 1), 0.5)
        prepared.bind()
        assert [r.witness for r in results] == expected

    def test_projection_path(self):
        database = uniform_database(3, 40, domain_size=5, seed=9)
        engine = Engine(database)
        prepared = engine.prepare(PROJECTED)
        inner = prepared.bind().inner
        expected = tdp_witnesses(inner, 30)
        results = prepared.top(30)
        assert all(set(r.assignment) == {"x1", "x3"} for r in results)
        database["R1"].add((1, 1), 0.5)
        prepared.bind()
        assert [r.witness for r in results] == expected
