"""The engine's one build pipeline: direct key-space lowering.

An unsharded bind of a ``key_is_value`` plan is the one-fragment case
of the fragment builder.  These tests pin what that must preserve:

* on a tie-heavy acyclic query, every any-k variant over the engine —
  memory and SQLite, cold build and warm ``.core`` load — emits exactly
  the sequence of the object-graph reference
  (``make_enumerator(build_tdp(...), flat=False)``), ties included;
* the bind never builds an object T-DP nor runs the object compiler;
* ``Engine.prepare`` resolves dioid registry names.
"""

from __future__ import annotations

import random
from importlib import import_module

import pytest

from repro.anyk.base import make_enumerator
from repro.data.backend import SQLiteBackend
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
from repro.dp.flat import CompiledTDP
from repro.engine import Engine
from repro.query.jointree import build_join_tree
from repro.query.parser import parse_query
from repro.ranking.dioid import MAX_PLUS, NAMED_DIOIDS, TROPICAL

ALL_VARIANTS = [
    "take2", "lazy", "eager", "all", "recursive", "batch", "batch_nosort",
]

#: A branching tree (non-chain layout).
TREE = parse_query("Q(a, b, c, d, e) :- R1(a, b), R2(b, c), R3(b, d), R4(d, e)")
#: A chain whose anchor is long enough for the vectorized anchor scan.
CHAIN = parse_query("Q(a, b, c, d) :- R1(a, b), R2(b, c), R3(c, d)")


def tie_heavy_database(
    seed: int = 17, rows: int = 14, domain: int = 4, names=("R1", "R2", "R3", "R4")
) -> Database:
    """Few distinct weights: most answers tie."""
    rng = random.Random(seed)
    return Database(
        [
            Relation(
                name,
                2,
                [
                    (rng.randint(1, domain), rng.randint(1, domain))
                    for _ in range(rows)
                ],
                [float(rng.choice((1, 2))) for _ in range(rows)],
            )
            for name in names
        ]
    )


WORKLOADS = {
    "tree": (TREE, lambda: tie_heavy_database()),
    "chain": (
        CHAIN,
        lambda: tie_heavy_database(rows=600, domain=400, names=("R1", "R2", "R3")),
    ),
}


def signature(results) -> list[tuple]:
    return [
        (
            result.weight,
            tuple(sorted(result.assignment.items())),
            result.witness_ids,
            result.witness,
        )
        for result in results
    ]


def reference(database: Database, query, dioid, variant: str) -> list[tuple]:
    tdp = build_tdp(database, build_join_tree(query), dioid=dioid)
    return signature(make_enumerator(tdp, variant, flat=False))


def engine_factory(database: Database, backend: str, tmp_path):
    """Fresh engines over one backend, persistence on."""
    if backend == "memory":
        core_path = str(tmp_path / "memory.core")
        return lambda: Engine(database, core_cache=core_path)
    path = str(tmp_path / "ties.db")
    sqlite = SQLiteBackend(path)
    for relation in database:
        sqlite.ingest(relation)
    sqlite.close()
    return lambda: Engine.from_backend(SQLiteBackend(path))


class TestTieHeavyBitIdentity:
    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_cold_and_warm_match_object_reference(
        self, tmp_path, workload, backend, dioid
    ):
        query, make_database = WORKLOADS[workload]
        database = make_database()
        expected = {
            v: reference(database, query, dioid, v) for v in ALL_VARIANTS
        }
        weights = [row[0] for row in expected["take2"]]
        assert len(expected["take2"]) > 50
        assert len(set(weights)) < len(weights) // 4, "workload must be tie-heavy"
        make_engine = engine_factory(database, backend, tmp_path)
        for phase in ("cold", "warm"):
            with make_engine() as engine:
                for variant in ALL_VARIANTS:
                    prepared = engine.prepare(query, algorithm=variant, dioid=dioid)
                    assert signature(prepared.iter()) == expected[variant], (
                        f"{variant} {phase} over {backend} diverged"
                    )
                stats = engine.stats.as_dict()
                if phase == "cold":
                    assert stats["core_writes"] == 1 and stats["core_hits"] == 0
                else:
                    assert stats["core_hits"] == 1 and stats["core_writes"] == 0
                    assert "(mapped warm start)" in prepared.explain()


class TestNoObjectBuild:
    @pytest.mark.parametrize("dioid", [TROPICAL, MAX_PLUS], ids=["tropical", "max-plus"])
    def test_bind_skips_build_tdp_and_compiler(self, monkeypatch, dioid):
        plan_module = import_module("repro.engine.plan")

        def forbidden(*_args, **_kwargs):
            raise AssertionError("the unsharded bind took the object path")

        monkeypatch.setattr(plan_module, "build_tdp", forbidden)
        monkeypatch.setattr(CompiledTDP, "__init__", forbidden)
        database = tie_heavy_database()
        physical = Engine(database).prepare(TREE, dioid=dioid).bind()
        assert physical.compiled is not None
        assert physical.tdp._compiled is physical.compiled
        assert physical.top(5)

    def test_generic_dioid_still_builds_object_tdp(self, monkeypatch):
        plan_module = import_module("repro.engine.plan")

        calls = []
        original = plan_module.build_tdp

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(plan_module, "build_tdp", counted)
        physical = Engine(tie_heavy_database()).prepare(
            TREE, dioid="max-times"
        ).bind()
        assert calls and physical.compiled is None


class TestModesAndNames:
    def test_prepare_resolves_dioid_names(self):
        engine = Engine(tie_heavy_database())
        by_name = engine.prepare(TREE, dioid="max-plus")
        assert by_name.logical.dioid is MAX_PLUS
        assert by_name is engine.prepare(TREE, dioid=MAX_PLUS)
        assert by_name.top(3) == engine.prepare(TREE, dioid=MAX_PLUS).top(3)

    def test_unknown_dioid_name_lists_valid_ones(self):
        engine = Engine(tie_heavy_database())
        with pytest.raises(ValueError) as info:
            engine.prepare(TREE, dioid="min-times")
        message = str(info.value)
        assert "unknown dioid 'min-times'" in message
        for name in NAMED_DIOIDS:
            assert repr(name) in message
