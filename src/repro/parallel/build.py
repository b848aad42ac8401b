"""Direct key-space lowering: fragment T-DPs built straight to flat arrays.

This is the engine's one bottom-up pass for ``key_is_value`` dioids
(tropical, max-plus).  Each stage is lowered *directly* into the
compiled core's key-space arrays — one bulk backend fetch per stage,
native float arithmetic, grouped entry pairs — with no object-graph
:class:`~repro.dp.graph.TDP` in between.  An unsharded bind is the
one-fragment case (:func:`lower_unsharded`): the anchor is the join
tree's own first root stage and the fragment spans the whole relation.

Work sharing across fragments rests on one structural fact: the
bottom-up construction never propagates a root restriction downward, so
with the anchor at a component root **every non-anchor stage is
fragment-independent**.  The builder therefore runs in two phases:

* **phase A** (once): build all non-anchor stages — state arrays,
  connector entry pools, join-key maps — shared read-only by every
  fragment;
* **phase B** (per fragment): scan only the fragment's slice of the
  anchor relation, resolve child connectors against phase A's join-key
  maps, and emit a per-fragment root connector.

Per-fragment cores (:func:`repro.dp.flat.assemble_core`) alias the
shared uid-indexed structures (entry pairs, lazily heapified Take2
orders, sorted lists, REA heap templates), so ranking structures for
shared connectors are built once per database version — not once per
fragment.

Both phases run in-process, fragment after fragment, each fragment
loading its own anchor rows inline (one rowid-range fetch per range
fragment, one shared bucketing scan for hash fragments).  No measured
host built faster with phase B on a thread pool, SQLite (whose fetch
path releases the GIL) included.

Dioids without the ``key_is_value`` contract — and the ``canonical``
tie-break, which ranks fragments under the Section 6.3
:class:`~repro.ranking.dioid.TieBreakingDioid` — keep the generic
object-graph builder per fragment (:func:`build_object_fragment`).
"""

from __future__ import annotations

import time
from typing import Sequence

from repro.anyk.base import Enumerator, make_enumerator
from repro.data.database import Database
from repro.data.relation import Relation
from repro.dp.builder import build_tdp
from repro.dp.flat import (
    LANE_CALL,
    LANE_ID,
    LANE_NEG,
    CompiledTDP,
    FragmentTDP,
    assemble_core,
    key_lane,
)
from repro.dp.graph import TDP
from repro.obs.trace import NULL_TRACER
from repro.parallel.sharder import Fragment, ShardPlan, stable_hash
from repro.query.jointree import JoinTree
from repro.ranking.dioid import SelectiveDioid, TieBreakingDioid
from repro.util import vec


def _trailing_rows(
    relation: Relation, lo: int | None = None, hi: int | None = None
) -> list[tuple]:
    """Rows as flat tuples with the weight trailing (bulk, order-stable).

    Backend-stored, unmaterialised relations use the backend's bulk
    ``fetch_rows`` (a single rowid-range ``fetchall`` for SQLite);
    in-memory relations normalise their parallel lists once per stage.
    """
    backend = relation.backend
    if backend is not None and not relation.is_materialized:
        return backend.fetch_rows(relation.table, lo, hi)
    tuples = relation.tuples
    weights = relation.weights
    if lo is not None or hi is not None:
        tuples = tuples[lo:hi]
        weights = weights[lo:hi]
    return [t + (w,) for t, w in zip(tuples, weights)]


# -- the shared lower stages (phase A) -----------------------------------------


class SharedLower:
    """Phase A output: every fragment-independent stage, lowered flat.

    All structures are read-only once built.  Connector uids are
    assigned ``0 .. num_conns-1`` here; fragment root connectors extend
    the uid space from ``num_conns`` upward (one per fragment).
    """

    __slots__ = (
        "query", "tree", "dioid", "lane", "order", "num_stages",
        "parent_stage", "children_stages", "anchor_stage", "tuples",
        "tuple_ids", "values_key", "pi1_key", "child_uids", "conn_of",
        "pairs", "conn_stage", "conn_min", "conn_maps", "root_uid",
        "num_conns", "complete", "own_key_positions",
        "parent_key_positions", "arities", "seconds",
    )

    def __init__(self, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int):
        self.query = query
        self.tree = tree
        self.dioid = dioid
        self.lane = key_lane(dioid)
        self.order = list(tree.order)
        self.num_stages = len(self.order)
        stage_of_atom = {a: s for s, a in enumerate(self.order)}
        self.parent_stage = [
            -1 if tree.parent[a] == -1 else stage_of_atom[tree.parent[a]]
            for a in self.order
        ]
        self.children_stages: list[list[int]] = [[] for _ in range(self.num_stages)]
        for stage, parent in enumerate(self.parent_stage):
            if parent != -1:
                self.children_stages[parent].append(stage)
        self.anchor_stage = anchor_stage
        if self.parent_stage[anchor_stage] != -1:
            raise ValueError("the anchor stage must be a component root")
        self.own_key_positions: list[tuple[int, ...]] = []
        self.parent_key_positions: list[tuple[int, ...]] = []
        for stage, atom_idx in enumerate(self.order):
            atom = query.atoms[atom_idx]
            shared = tree.shared_variables(atom_idx)
            self.own_key_positions.append(atom.positions_of(shared))
            if self.parent_stage[stage] == -1:
                self.parent_key_positions.append(())
            else:
                parent_atom = query.atoms[tree.parent[atom_idx]]
                self.parent_key_positions.append(parent_atom.positions_of(shared))
        self.arities = [query.atoms[a].arity for a in self.order]

        empty: list[list] = [[] for _ in range(self.num_stages)]
        self.tuples: list[list[tuple]] = [list(x) for x in empty]
        self.tuple_ids: list[list[int]] = [list(x) for x in empty]
        self.values_key: list[list[float]] = [list(x) for x in empty]
        self.pi1_key: list[list[float]] = [list(x) for x in empty]
        #: Flattened child connector uids per stage (branch-major).
        self.child_uids: list[list[int]] = [list(x) for x in empty]
        #: Connector uid governing stage ``s``, indexed by parent state
        #: (``None`` for root stages and for children of the anchor —
        #: those rows are fragment-specific).
        self.conn_of: list[list[int] | None] = [None] * self.num_stages
        #: uid -> unsorted (key, state) entry pairs.
        self.pairs: list[list[tuple[float, int]]] = []
        self.conn_stage: list[int] = []
        self.conn_min: list[float] = []
        #: Per stage: join key -> connector uid (phase B resolves the
        #: anchor's child branches against the anchor-children's maps).
        self.conn_maps: list[dict] = [dict() for _ in range(self.num_stages)]
        #: Root connector uids of *non-anchor* root stages.
        self.root_uid: dict[int, int] = {}
        self.num_conns = 0
        #: False when some non-anchor component is empty (then every
        #: fragment is empty regardless of its anchor rows).
        self.complete = True
        self.seconds = 0.0

    def child_lookups(self, stage: int):
        """Per child branch: (single_column, positions, conn_map)."""
        return [
            (
                self.parent_key_positions[c][0]
                if len(self.parent_key_positions[c]) == 1
                else None,
                self.parent_key_positions[c],
                self.conn_maps[c],
            )
            for c in self.children_stages[stage]
        ]


def build_shared_lower(
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid, anchor_stage: int
) -> SharedLower:
    """Phase A: lower every non-anchor stage to key-space flat arrays.

    Mirrors :func:`repro.dp.builder.build_tdp` stage by stage — same row
    order, same alive filter, same left-fold weight aggregation — but in
    dioid key space, so the produced keys are the bit-exact ``key``
    image of the object builder's values (the PR-4 ``key_is_value``
    contract).
    """
    start = time.perf_counter()
    shared = SharedLower(query, tree, dioid, anchor_stage)
    lane = shared.lane
    identity = lane == LANE_ID
    negate = lane == LANE_NEG
    key_of = dioid.key

    for stage in reversed(range(shared.num_stages)):
        if stage == anchor_stage:
            continue
        atom = query.atoms[shared.order[stage]]
        relation = database[atom.relation_name]
        warity = atom.arity
        check_repeats = atom.has_repeated_variables()
        satisfies = atom.satisfies_repeats
        lookups = shared.child_lookups(stage)
        rows = _trailing_rows(relation)

        tuples_out = shared.tuples[stage]
        ids_out = shared.tuple_ids[stage]
        vk_out = shared.values_key[stage]
        pk_out = shared.pi1_key[stage]
        cu_out = shared.child_uids[stage]
        t_append = tuples_out.append
        i_append = ids_out.append
        v_append = vk_out.append
        p_append = pk_out.append
        c_append = cu_out.append

        own_pos = shared.own_key_positions[stage]
        own_single = own_pos[0] if len(own_pos) == 1 else None
        groups: dict = {}
        g_get = groups.get
        conn_min = shared.conn_min
        state = 0

        if len(lookups) == 1 and lookups[0][0] is not None and own_single is not None:
            # Hot path: one single-column child branch, single-column
            # own join key — the chain layout of path queries and
            # cycle-decomposition members.
            child_col, _positions, cmap = lookups[0]
            cm_get = cmap.get
            for tid, row in enumerate(rows):
                if check_repeats and not satisfies(row):
                    continue
                cu = cm_get(row[child_col])
                if cu is None:
                    continue
                pi = conn_min[cu]
                w = row[warity]
                k = w if identity else (-w if negate else key_of(w))
                entry = (k + pi, state)
                jk = row[own_single]
                bucket = g_get(jk)
                if bucket is None:
                    groups[jk] = [entry]
                else:
                    bucket.append(entry)
                t_append(row)
                i_append(tid)
                v_append(k)
                p_append(pi)
                c_append(cu)
                state += 1
        else:
            for tid, row in enumerate(rows):
                if check_repeats and not satisfies(row):
                    continue
                pi = 0.0
                conns: list[int] = []
                dead = False
                for single, positions, cmap in lookups:
                    if single is None:
                        cu = cmap.get(tuple(row[p] for p in positions))
                    else:
                        cu = cmap.get(row[single])
                    if cu is None:
                        dead = True
                        break
                    conns.append(cu)
                    pi = pi + conn_min[cu]
                if dead:
                    continue
                w = row[warity]
                k = w if identity else (-w if negate else key_of(w))
                entry = (k + pi, state)
                if own_single is None:
                    jk = tuple(row[p] for p in own_pos)
                else:
                    jk = row[own_single]
                bucket = g_get(jk)
                if bucket is None:
                    groups[jk] = [entry]
                else:
                    bucket.append(entry)
                t_append(row)
                i_append(tid)
                v_append(k)
                p_append(pi)
                cu_out.extend(conns)
                state += 1

        cmap_out = shared.conn_maps[stage]
        uid = shared.num_conns
        pairs = shared.pairs
        conn_stage = shared.conn_stage
        conn_min_out = shared.conn_min
        for join_key, entries in groups.items():
            cmap_out[join_key] = uid
            pairs.append(entries)
            conn_stage.append(stage)
            conn_min_out.append(min(entries)[0])
            uid += 1
        shared.num_conns = uid

        if shared.parent_stage[stage] == -1:
            root = cmap_out.get(())
            if root is None:
                shared.complete = False
            else:
                shared.root_uid[stage] = root

    # conn_of rows for stages whose parent is a shared (non-anchor)
    # stage; children of the anchor get fragment-specific rows later.
    for stage in range(shared.num_stages):
        parent = shared.parent_stage[stage]
        if parent == -1 or parent == anchor_stage:
            continue
        fanout = len(shared.children_stages[parent])
        branch = shared.children_stages[parent].index(stage)
        row = shared.child_uids[parent]
        shared.conn_of[stage] = row[branch::fanout] if fanout else []

    shared.seconds = time.perf_counter() - start
    return shared


# -- phase B: one fragment -----------------------------------------------------


#: Row count below which the vectorized phase-B scan is not worth the
#: numpy round-trip.
_VEC_SCAN_MIN = 512


def _scan_anchor_vec(
    shared: SharedLower,
    rows: list[tuple],
    base: int | None,
    global_ids: Sequence[int] | None,
):
    """Vectorized chain-shape anchor scan (identity/negate lanes only).

    The join-key dict probes stay in Python (hash tables do not
    vectorize); the alive mask, the key transform, and the ``k + pi``
    entry keys run as numpy float64 kernels — the same IEEE operations
    in the same order as the scalar loop, so the produced arrays are
    bit-identical.  All outputs convert back to native Python scalars
    (``.tolist()``): nothing downstream ever sees a numpy type.
    """
    np = vec.np
    child_col, _positions, cmap = shared.child_lookups(shared.anchor_stage)[0]
    cm_get = cmap.get
    warity = shared.arities[shared.anchor_stage]
    n = len(rows)
    cu_all = np.fromiter(
        (cm_get(row[child_col], -1) for row in rows), np.int64, n
    )
    alive = np.flatnonzero(cu_all >= 0)
    cu = cu_all[alive]
    alive_list = alive.tolist()
    w = np.fromiter((rows[i][warity] for i in alive_list), np.float64, len(alive_list))
    k = w if shared.lane == LANE_ID else -w
    pi = np.asarray(shared.conn_min, dtype=np.float64)[cu]
    ek = k + pi
    vk_out = k.tolist()
    pk_out = pi.tolist()
    cu_out = cu.tolist()
    entries = list(zip(ek.tolist(), range(len(vk_out))))
    tuples_out = [rows[i] for i in alive_list]
    if base is not None:
        ids_out = (alive + base).tolist()
    else:
        ids_out = [global_ids[i] for i in alive_list]
    return entries, tuples_out, ids_out, vk_out, pk_out, cu_out


def _scan_anchor(
    shared: SharedLower,
    rows: list[tuple],
    base: int | None,
    global_ids: Sequence[int] | None,
):
    """Phase B scan: lower one fragment's anchor rows to flat arrays.

    Returns ``(entries, tuples_out, ids_out, vk_out, pk_out, cu_out)``;
    ``entries`` states are sequential (``0 .. alive-1``).
    """
    anchor = shared.anchor_stage
    atom = shared.query.atoms[shared.order[anchor]]
    warity = atom.arity
    check_repeats = atom.has_repeated_variables()
    satisfies = atom.satisfies_repeats
    lookups = shared.child_lookups(anchor)
    lane = shared.lane
    identity = lane == LANE_ID
    negate = lane == LANE_NEG
    key_of = shared.dioid.key
    conn_min = shared.conn_min

    chain = len(lookups) == 1 and lookups[0][0] is not None
    if (
        chain
        and not check_repeats
        and lane != LANE_CALL
        and len(rows) >= _VEC_SCAN_MIN
        and vec.np is not None
    ):
        return _scan_anchor_vec(shared, rows, base, global_ids)

    tuples_out: list[tuple] = []
    ids_out: list[int] = []
    vk_out: list[float] = []
    pk_out: list[float] = []
    cu_out: list[int] = []
    entries: list[tuple[float, int]] = []
    t_append = tuples_out.append
    i_append = ids_out.append
    v_append = vk_out.append
    p_append = pk_out.append
    e_append = entries.append
    state = 0

    if chain:
        child_col, _positions, cmap = lookups[0]
        cm_get = cmap.get
        c_append = cu_out.append
        for local, row in enumerate(rows):
            if check_repeats and not satisfies(row):
                continue
            cu = cm_get(row[child_col])
            if cu is None:
                continue
            pi = conn_min[cu]
            w = row[warity]
            k = w if identity else (-w if negate else key_of(w))
            e_append((k + pi, state))
            t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            c_append(cu)
            state += 1
    else:
        for local, row in enumerate(rows):
            if check_repeats and not satisfies(row):
                continue
            pi = 0.0
            conns: list[int] = []
            dead = False
            for single, positions, cmap in lookups:
                if single is None:
                    cu = cmap.get(tuple(row[p] for p in positions))
                else:
                    cu = cmap.get(row[single])
                if cu is None:
                    dead = True
                    break
                conns.append(cu)
                pi = pi + conn_min[cu]
            if dead:
                continue
            w = row[warity]
            k = w if identity else (-w if negate else key_of(w))
            e_append((k + pi, state))
            t_append(row)
            i_append(base + local if base is not None else global_ids[local])
            v_append(k)
            p_append(pi)
            cu_out.extend(conns)
            state += 1

    return entries, tuples_out, ids_out, vk_out, pk_out, cu_out


def build_fragment(
    shared: SharedLower,
    fragment: Fragment,
    rows: list[tuple],
    global_ids: Sequence[int] | None,
    uid: int,
    uid_lists: dict,
) -> tuple[CompiledTDP, float]:
    """Phase B: lower one anchor fragment and assemble its compiled core.

    ``rows`` is the fragment's slice of the anchor relation (trailing
    weight); ``global_ids`` maps local row positions to insertion
    positions (``None`` for range fragments, whose ids are ``lo +
    local``).  ``uid`` is the fragment root connector's id inside the
    common uid space; ``uid_lists`` holds the cross-fragment aliased
    structures (see :func:`_uid_lists`).
    """
    start = time.perf_counter()
    base = fragment.lo if global_ids is None else None
    entries, tuples_out, ids_out, vk_out, pk_out, cu_out = _scan_anchor(
        shared, rows, base, global_ids
    )
    anchor = shared.anchor_stage
    conn_min = shared.conn_min
    children = shared.children_stages[anchor]
    fanout = len(children)

    empty = not entries or not shared.complete
    best_key = 0.0
    for root, parent in enumerate(shared.parent_stage):
        if parent != -1:
            continue
        if root == anchor:
            if not entries:
                empty = True
                break
            best_key = best_key + min(entries)[0]
        else:
            root_conn = shared.root_uid.get(root)
            if root_conn is None:
                empty = True
                break
            best_key = best_key + conn_min[root_conn]
    if empty:
        best_key = shared.dioid.key(shared.dioid.zero)

    uid_lists["pairs"][uid] = entries
    uid_lists["conn_stage"][uid] = anchor
    uid_lists["conn_meta"][uid] = (fanout, vk_out, cu_out, anchor)

    values_key = list(shared.values_key)
    values_key[anchor] = vk_out
    pi1_key = list(shared.pi1_key)
    pi1_key[anchor] = pk_out
    child_uids = list(shared.child_uids)
    child_uids[anchor] = cu_out
    conn_of = list(shared.conn_of)
    for branch, child in enumerate(children):
        conn_of[child] = cu_out[branch::fanout]
    root_uid = dict(shared.root_uid)
    root_uid[anchor] = uid

    shell = FragmentTDP(
        shared.dioid, shared.order, shared.parent_stage, shared.query,
        shared.tree,
    )
    shell.tuples = list(shared.tuples)
    shell.tuples[anchor] = tuples_out
    shell.tuple_ids = list(shared.tuple_ids)
    shell.tuple_ids[anchor] = ids_out
    compiled = assemble_core(
        shell, values_key, pi1_key, child_uids, conn_of, root_uid,
        best_key, empty, uid_lists,
    )
    return compiled, time.perf_counter() - start


def _uid_lists(shared: SharedLower, num_fragments: int) -> dict:
    """The cross-fragment aliased uid-indexed structures (pre-sized;
    each fragment fills its own root-connector slot by index)."""
    total = shared.num_conns + num_fragments
    tail = [None] * num_fragments
    return {
        "pairs": shared.pairs + tail,
        "conn_stage": shared.conn_stage + tail,
        "conn_meta": [
            None
            if shared.conn_stage[uid] < 0
            else (
                len(shared.children_stages[shared.conn_stage[uid]]),
                shared.values_key[shared.conn_stage[uid]],
                shared.child_uids[shared.conn_stage[uid]],
                shared.conn_stage[uid],
            )
            for uid in range(shared.num_conns)
        ]
        + tail,
        "take2": [None] * total,
        "sorted": [None] * total,
        "rea": [None] * total,
    }


def lower_unsharded(
    database: Database, query, tree: JoinTree, dioid: SelectiveDioid
) -> CompiledTDP:
    """The unsharded bind's core: one fragment, no merge, no re-root.

    The anchor is the join tree's own first root stage and the fragment
    spans the whole relation, so states, entry order, and keys are
    exactly those :func:`repro.dp.builder.build_tdp` +
    :func:`repro.dp.flat.compile_tdp` would produce — without the
    object graph in between.  The returned core's ``tdp`` is its
    :class:`~repro.dp.flat.FragmentTDP` shell.
    """
    shared = build_shared_lower(database, query, tree, dioid, 0)
    rows = _trailing_rows(_anchor_relation(database, query, shared.order, 0))
    compiled, _seconds = build_fragment(
        shared, Fragment(0, "range", 0, len(rows)), rows, None,
        shared.num_conns, _uid_lists(shared, 1),
    )
    return compiled


# -- fragment row sources ------------------------------------------------------


def _anchor_relation(database: Database, query, shared_order, anchor_stage: int) -> Relation:
    return database[query.atoms[shared_order[anchor_stage]].relation_name]


def _hash_buckets(
    relation: Relation, shards: int
) -> list[tuple[list[tuple], list[int]]]:
    """One scan of the anchor relation, bucketed by stable content hash."""
    arity = relation.arity
    buckets: list[tuple[list[tuple], list[int]]] = [
        ([], []) for _ in range(shards)
    ]
    for gid, row in enumerate(_trailing_rows(relation)):
        rows, gids = buckets[stable_hash(row[:arity]) % shards]
        rows.append(row)
        gids.append(gid)
    return buckets


# -- the object-graph fragment path --------------------------------------------


def _restricted_database(
    database: Database, anchor_name: str, tuples: list, weights: list
) -> Database:
    """A database view replacing the anchor relation with one fragment.

    Shares every other relation object; only sound when ``anchor_name``
    occurs in exactly one atom (the sharder enforces that for this
    path).
    """
    restricted = Database()
    for relation in database:
        if relation.name == anchor_name:
            restricted.relations[relation.name] = Relation(
                relation.name, relation.arity, tuples, weights
            )
        else:
            restricted.relations[relation.name] = relation
    return restricted


def build_object_fragment(
    database: Database,
    shard_plan: ShardPlan,
    fragment: Fragment,
    dioid: SelectiveDioid,
    lift,
    anchor_rows: tuple[list[tuple], list],
    global_ids: Sequence[int] | None,
) -> TDP:
    """One fragment through the generic builder (canonical/object path)."""
    query = shard_plan.join_tree.query
    anchor_name = query.atoms[shard_plan.anchor_atom].relation_name
    tuples, weights = anchor_rows
    restricted = _restricted_database(database, anchor_name, tuples, weights)
    tdp = build_tdp(restricted, shard_plan.join_tree, dioid=dioid, lift=lift)
    anchor_stage = shard_plan.anchor_stage
    local_ids = tdp.tuple_ids[anchor_stage]
    if global_ids is None:
        lo = fragment.lo
        tdp.tuple_ids[anchor_stage] = [lo + i for i in local_ids]
    else:
        tdp.tuple_ids[anchor_stage] = [global_ids[i] for i in local_ids]
    return tdp


# -- orchestration -------------------------------------------------------------


class FragmentRuntime:
    """One built fragment, ready to hand out enumerators."""

    __slots__ = ("index", "compiled", "tdp", "empty", "seconds", "anchor_stage")

    def __init__(
        self,
        index: int,
        compiled: CompiledTDP | None,
        tdp: TDP | None,
        seconds: float,
        anchor_stage: int = 0,
    ):
        self.index = index
        self.compiled = compiled
        self.tdp = tdp if tdp is not None else (compiled.tdp if compiled else None)
        self.empty = compiled.empty if compiled is not None else tdp.is_empty()
        self.seconds = seconds
        self.anchor_stage = anchor_stage

    def make_enumerator(self, algorithm: str, counter=None) -> Enumerator:
        if self.compiled is not None:
            from repro.anyk.flat import make_flat_enumerator

            return make_flat_enumerator(self.compiled, algorithm, counter=counter)
        return make_enumerator(self.tdp, algorithm, counter=counter)

    def anchor_states(self) -> int:
        """Alive states at the anchor stage (this fragment's own slice)."""
        if self.compiled is not None:
            return len(self.compiled.values_key[self.anchor_stage])
        return len(self.tdp.tuples[self.anchor_stage])


class PreprocessResult:
    """What the preprocessor hands the sharded physical plan."""

    __slots__ = ("fragments", "mode", "shared_seconds", "notes", "tie")

    def __init__(self, fragments, mode, shared_seconds, notes, tie):
        self.fragments: list[FragmentRuntime] = fragments
        #: ``"fused"`` for an in-process build, ``"mmap"`` for a warm
        #: start from a ``.core`` file.
        self.mode = mode
        self.shared_seconds = shared_seconds
        self.notes: list[str] = notes
        #: The TieBreakingDioid fragments rank under (canonical mode).
        self.tie: TieBreakingDioid | None = tie


class ParallelPreprocessor:
    """Builds every fragment of a shard plan, in-process and in order."""

    def __init__(
        self,
        database: Database,
        logical,
        shard_plan: ShardPlan,
        tracer=NULL_TRACER,
    ):
        self.database = database
        self.logical = logical
        self.shard_plan = shard_plan
        self.tracer = tracer

    # -- flat path -------------------------------------------------------------

    def _build_flat(self) -> PreprocessResult:
        plan = self.shard_plan
        with self.tracer.span("shared.lower") as span:
            shared = build_shared_lower(
                self.database,
                self.logical.query,
                plan.join_tree,
                self.logical.dioid,
                plan.anchor_stage,
            )
            span.set(connectors=shared.num_conns)
        lists = _uid_lists(shared, len(plan.fragments))
        relation = _anchor_relation(
            self.database, shared.query, shared.order, plan.anchor_stage
        )
        buckets = (
            _hash_buckets(relation, plan.spec.shards)
            if plan.spec.strategy == "hash"
            else None
        )
        fragments = []
        with self.tracer.span("fragments.fanout", fragments=len(plan.fragments)):
            for fragment in plan.fragments:
                if buckets is None:
                    rows = _trailing_rows(relation, fragment.lo, fragment.hi)
                    gids = None
                else:
                    rows, gids = buckets[fragment.index]
                compiled, seconds = build_fragment(
                    shared, fragment, rows, gids,
                    shared.num_conns + fragment.index, lists,
                )
                fragments.append(
                    FragmentRuntime(
                        fragment.index, compiled, None, seconds,
                        anchor_stage=plan.anchor_stage,
                    )
                )
        return PreprocessResult(
            fragments, "fused", shared.seconds, list(plan.notes), None
        )

    # -- object path -----------------------------------------------------------

    def _build_object(self) -> PreprocessResult:
        from repro.engine.plan import make_tie_lift

        plan = self.shard_plan
        logical = self.logical
        notes = list(plan.notes)
        query = logical.query
        tie = None
        dioid: SelectiveDioid = logical.dioid
        lift = None
        if plan.spec.tie_break == "canonical":
            variables = query.variables
            tie = TieBreakingDioid(logical.dioid, len(variables))
            var_position = {v: i for i, v in enumerate(variables)}
            lift = make_tie_lift(tie, var_position)
            dioid = tie

        relation = _anchor_relation(
            self.database, query, list(plan.join_tree.order), plan.anchor_stage
        )
        tuples = relation.tuples
        weights = relation.weights
        if plan.spec.strategy == "hash":
            arity = relation.arity
            assignment = [
                stable_hash(t) % plan.spec.shards if len(t) == arity else
                stable_hash(t[:arity]) % plan.spec.shards
                for t in tuples
            ]
            sources = []
            for fragment in plan.fragments:
                gids = [
                    gid for gid, f in enumerate(assignment) if f == fragment.index
                ]
                sources.append(
                    (
                        fragment,
                        ([tuples[g] for g in gids], [weights[g] for g in gids]),
                        gids,
                    )
                )
        else:
            sources = [
                (
                    fragment,
                    (tuples[fragment.lo:fragment.hi], weights[fragment.lo:fragment.hi]),
                    None,
                )
                for fragment in plan.fragments
            ]

        fragments = []
        with self.tracer.span("fragments.fanout", fragments=len(sources)):
            for fragment, rows, gids in sources:
                start = time.perf_counter()
                tdp = build_object_fragment(
                    self.database, plan, fragment, dioid, lift, rows, gids
                )
                fragments.append(
                    FragmentRuntime(
                        fragment.index, None, tdp, time.perf_counter() - start,
                        anchor_stage=plan.anchor_stage,
                    )
                )
        return PreprocessResult(fragments, "fused", 0.0, notes, tie)

    # -- entry point -----------------------------------------------------------

    def build(self) -> PreprocessResult:
        flat_path = (
            getattr(self.logical.dioid, "key_is_value", False)
            and self.shard_plan.spec.tie_break == "arrival"
        )
        return self._build_flat() if flat_path else self._build_object()
