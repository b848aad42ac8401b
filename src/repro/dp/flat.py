"""Compiled flat enumeration core: the T-DP lowered to parallel arrays.

The object-graph :class:`~repro.dp.graph.TDP` is the right structure for
*building* the state space (Eq. 2/7 bottom-up, semi-join pruning), but a
poor one for *enumerating* over it: every ``Succ`` call walks
:class:`~repro.dp.graph.ChoiceSet` objects holding boxed ``(key, state,
value)`` triples, and every weight combination dispatches through
``SelectiveDioid.times``/``key`` even though nearly all workloads rank
by the tropical ``(min, +)`` dioid over plain floats.

:func:`compile_tdp` lowers a bound T-DP into a :class:`CompiledTDP` —
a bundle of flat, cache-friendly parallel structures:

* ``entry_key`` / ``entry_state`` — one CSR-style pool per T-DP with
  per-connector ``conn_offsets`` slices, replacing the per-``ChoiceSet``
  Python tuple lists.  Keys are raw ``float``\\ s in *key space*.
* ``values_key`` / ``pi1_key`` — per-stage contiguous state values and
  precomputed ``pi1`` keys (plain float lists: hot random-access reads).
* ``child_uids`` — the ``child_conns`` adjacency flattened to one
  integer array per stage (``state * num_branches + branch`` indexing),
  plus ``root_uid`` for the virtual start state's branches.

Everything is expressed in **key space**: the compilation step requires
``dioid.key_is_value`` — keys are floats and ``key`` is additive over
``times`` (``key(a ⊗ b) == key(a) + key(b)``, exactly, by IEEE
sign-symmetry for the tropical min/max dioids).  The flat enumerators in
:mod:`repro.anyk.flat` then combine weights with native ``+`` and
compare with native float ordering; the ranked output is bit-identical
to the object-graph path because every float operation performed is the
image (under ``key``) of the corresponding ``times`` call.  Dioids
without the ``key_is_value`` contract (lexicographic vectors,
tie-breaking pairs, ...) are not compiled — :func:`compile_tdp` returns
``None`` and the callers keep the generic object-graph path.

The compiled core is memoized on the source ``TDP`` (``TDP._compiled``),
so the engine's version-stamped physical-plan cache shares one
``CompiledTDP`` across all any-k algorithm variants and all serving
sessions of a database version.

A core has two construction routes.  :func:`compile_tdp` lowers an
object-graph T-DP (user-built ``DPProblem``/``build_tdp_for_query``
T-DPs, and the ``flat=False`` reference the tests compare against).
The engine's binds never build the object graph for a ``key_is_value``
dioid: :mod:`repro.parallel.build` lowers relation rows straight into
key space and :func:`assemble_core` wraps the arrays, behind a
connector-free :class:`FragmentTDP` shell; an unsharded bind is the
one-fragment case of that builder.  The ``.core`` loader of
:mod:`repro.dp.corebuf` assembles the same way over mmapped sections.
Only dioids that are both ``key_is_value`` and registered in
``NAMED_DIOIDS`` — tropical min-plus and max-plus — are persisted; the
dioid travels by registry name, never by pickled instance.
"""

from __future__ import annotations

from array import array
from heapq import heapify as _heapify
from typing import Any

from repro.dp.graph import TDP
from repro.ranking.dioid import SelectiveDioid
from repro.util import vec

#: Connector size above which :meth:`CompiledTDP.sorted_pairs` prefers a
#: numpy ``lexsort`` over ``sorted`` on tuples.  Both orders are
#: identical — primary key ascending, state ascending on ties (states
#: are unique within a connector, so the tie rule is moot but kept for
#: symmetry with the tuple comparison).
_VEC_SORT_MIN = 64


def _seq_bytes(seq: Any) -> int:
    """Heap-byte estimate of one compiled-core column.

    ``memoryview`` columns are mmap-backed and count zero.  Lists of
    scalars/tuples are estimated from their first element (columns are
    homogeneous), so the walk is O(nesting), not O(entries).
    """
    import sys

    if seq is None or isinstance(seq, memoryview):
        return 0
    if isinstance(seq, array):
        return sys.getsizeof(seq)
    if isinstance(seq, (list, tuple)):
        total = sys.getsizeof(seq)
        sample = next((item for item in seq if item is not None), None)
        if sample is None:
            return total
        if isinstance(sample, (list, array, memoryview)):
            for item in seq:  # ragged columns (per-stage / per-connector)
                total += _seq_bytes(item)
        elif isinstance(sample, tuple):
            total += _seq_bytes(sample) * len(seq)  # homogeneous rows
        else:
            total += sys.getsizeof(sample) * len(seq)
        return total
    return sys.getsizeof(seq)


class CompiledTDP:
    """A T-DP lowered to flat arrays in dioid key space.

    Read-only after construction; every per-run mutable structure (heap
    orders, sorted prefixes, memoized solution lists) lives in the
    enumerators of :mod:`repro.anyk.flat`.  Holds a back-reference to
    the source :class:`TDP` for result assembly — witness tuples and
    variable assignments are materialised lazily from ``tuple_ids`` at
    result-construction time, never carried through candidate queues.

    ``__init__`` lowers an object-graph T-DP; :meth:`assemble` fills the
    slots directly (see :func:`assemble_core`).  An assembled core may
    carry its entries as per-connector pair lists only (the direct
    lowering: no CSR pool until :meth:`csr` asks for one) or as CSR
    views only (a mapped ``.core``: pair lists materialise per
    connector on first touch).
    """

    __slots__ = (
        "tdp", "dioid", "num_stages", "num_connectors", "parent_stage",
        "children_stages", "branch_index", "num_branches", "values_key",
        "pi1_key", "conn_offsets", "entry_key", "entry_state",
        "conn_stage", "child_uids", "conn_of", "conn_meta", "root_stages",
        "root_uid", "best_key", "empty", "vfk", "is_chain", "_pairs",
        "_take2_heaps", "_sorted_pairs", "_rea_heaps",
    )

    def __init__(self, tdp: TDP):
        dioid = tdp.dioid
        if not getattr(dioid, "key_is_value", False):
            raise ValueError(
                f"{dioid!r} does not satisfy the key_is_value contract"
            )
        self.tdp = tdp
        self.dioid = dioid
        key_of = dioid.key

        num_stages = tdp.num_stages
        self.num_stages = num_stages
        self.num_connectors = tdp.num_connectors
        self.parent_stage = list(tdp.parent_stage)
        self.children_stages = [list(c) for c in tdp.children_stages]
        self.branch_index = list(tdp.branch_index)
        #: Branch fan-out per stage (row width of ``child_uids``).
        self.num_branches = [len(c) for c in tdp.children_stages]

        #: Per-stage state values and pi1, as key-space floats.  Plain
        #: lists, not ``array``: these are read one element at a time in
        #: the innermost loops, where list indexing (no re-boxing) wins.
        self.values_key: list[list[float]] = [
            [key_of(v) for v in stage_values] for stage_values in tdp.values
        ]
        self.pi1_key: list[list[float]] = [
            [key_of(v) for v in stage_pi1] for stage_pi1 in tdp.pi1
        ]

        # Collect every reachable connector by uid.  (The builder also
        # creates join-key groups no parent references; their uids get
        # empty CSR slices and are never touched.)
        conns: list = [None] * tdp.num_connectors
        for stage_conns in tdp.child_conns:
            for state_conns in stage_conns:
                for conn in state_conns:
                    conns[conn.uid] = conn
        for conn in tdp.root_conn.values():
            conns[conn.uid] = conn

        #: CSR entry pool: connector ``uid`` owns entries
        #: ``conn_offsets[uid] .. conn_offsets[uid + 1]``.  Compact
        #: typed arrays: consumed in bulk (one zip per first view).
        entry_key = array("d")
        entry_state = array("q")
        conn_stage = [-1] * tdp.num_connectors
        offsets = array("q", [0] * (tdp.num_connectors + 1))
        total = 0
        for uid, conn in enumerate(conns):
            if conn is not None:
                conn_stage[uid] = conn.stage
                for entry in conn.entries:
                    entry_key.append(entry[0])
                    entry_state.append(entry[1])
                total += len(conn.entries)
            offsets[uid + 1] = total
        self.conn_offsets = offsets
        self.entry_key = entry_key
        self.entry_state = entry_state
        #: Connector uid -> owning stage.  Plain int list (not a typed
        #: array): read per ``_ensure`` call, and list indexing returns
        #: the stored int without re-boxing.
        self.conn_stage = conn_stage

        #: Flattened adjacency: ``child_uids[s][state * num_branches[s]
        #: + b]`` is the connector uid governing branch ``b`` of that
        #: state (empty for leaf stages).  Plain int lists, as above.
        self.child_uids: list[list[int]] = []
        for stage in range(num_stages):
            flat: list[int] = []
            for state_conns in tdp.child_conns[stage]:
                for conn in state_conns:
                    flat.append(conn.uid)
            self.child_uids.append(flat)

        #: Per *non-root* stage ``s``: the connector uid governing ``s``
        #: indexed directly by the parent's state —
        #: ``conn_of[s][parent_state]`` replaces the
        #: ``child_uids[parent][state * fanout + branch]`` multiply-add
        #: on the enumeration hot path (``None`` for root stages, whose
        #: single connector is in :attr:`root_uid`).
        self.conn_of: list[list[int] | None] = conn_of_rows(
            self.parent_stage, self.branch_index, self.num_branches,
            self.child_uids,
        )

        self.root_stages = list(tdp.root_stages)
        self.root_uid = {
            stage: conn.uid for stage, conn in tdp.root_conn.items()
        }
        #: Serpentine/path shape: every stage's parent is the previous
        #: stage (single root, no branching).  The enumerators install
        #: chain-specialised loops for this, the most common join-tree
        #: layout (path queries, cycle-decomposition members).
        self.is_chain = all(
            self.parent_stage[j] == j - 1 for j in range(num_stages)
        )

        #: Per-connector hot metadata ``(branch_count, own_state_keys,
        #: child_uid_row, stage)`` — one list index + unpack replaces
        #: four attribute/index chains in Recursive's ``_ensure``
        #: (``None`` for the builder's unreferenced join-key groups).
        self.conn_meta: list[tuple | None] = [
            None
            if conn_stage[uid] < 0
            else (
                self.num_branches[conn_stage[uid]],
                self.values_key[conn_stage[uid]],
                self.child_uids[conn_stage[uid]],
                conn_stage[uid],
            )
            for uid in range(tdp.num_connectors)
        ]
        self.empty = tdp.is_empty()
        self.best_key = key_of(tdp.best_weight)

        #: Key-to-value map for result construction, or ``None`` when
        #: the key *is* the value (tropical min-plus): the enumerators
        #: then skip the call entirely on their per-result path.
        self.vfk = vfk_of(dioid)

        #: Shared ``(key, state)`` pair lists per connector — the flat
        #: analogue of ``ChoiceSet.entries`` (unsorted, read-only;
        #: strategies copy before heapify/sort).  Built eagerly in one
        #: C-level pass: this is preprocessing-phase work, paid once per
        #: database version and amortised over every enumeration run.
        all_pairs = list(zip(entry_key, entry_state))
        self._pairs: list[list[tuple[float, int]]] = [
            all_pairs[offsets[uid]:offsets[uid + 1]]
            for uid in range(tdp.num_connectors)
        ]

        # Per-connector ranking structures that are *read-only once
        # built* and therefore shared across every enumerator run (and
        # every concurrent session) over this compiled core, filled
        # lazily on first touch:
        #
        # * Take2's static heap order — heapified once, never popped
        #   (that is the whole point of Take2), so one array serves all
        #   runs where the object path re-heapifies per run;
        # * Eager's sorted entry lists — never mutated after sorting;
        # * Recursive's initial candidate heaps ``[(key, state, 0)]`` —
        #   runs *do* pop/push these, so :meth:`rea_heap` hands out a
        #   C-level copy of the heapified template (the triples inside
        #   are immutable and stay shared).
        self._take2_heaps: list[list | None] = [None] * tdp.num_connectors
        self._sorted_pairs: list[list | None] = [None] * tdp.num_connectors
        self._rea_heaps: list[list | None] = [None] * tdp.num_connectors

    @classmethod
    def assemble(cls, **fields) -> "CompiledTDP":
        """A core whose slots are filled directly (no object T-DP)."""
        self = cls.__new__(cls)
        for name, value in fields.items():
            setattr(self, name, value)
        return self

    # -- accessors -----------------------------------------------------------

    def pairs(self, uid: int) -> list[tuple[float, int]]:
        """The unsorted ``(key, state)`` entry pairs of connector ``uid``.

        Shared by all enumerator runs (and algorithms).  Callers must
        not mutate the returned list — copy first (as the ``sorted`` /
        ``heapify`` call sites do).  A mapped core materialises the list
        from its CSR views on first touch (a benign race, like the
        ranking-structure caches below).
        """
        entries = self._pairs[uid]
        if entries is None:
            offsets = self.conn_offsets
            lo, hi = offsets[uid], offsets[uid + 1]
            entries = self._pairs[uid] = list(
                zip(self.entry_key[lo:hi], self.entry_state[lo:hi])
            )
        return entries

    def csr(self) -> tuple:
        """``(conn_offsets, entry_state)`` over the whole uid space.

        A directly lowered core keeps its entries as pair lists only;
        the first call packs them into the CSR pool the vectorized batch
        expansion reads (pure function of the pairs, so the lazy fill is
        a benign race).
        """
        if self.conn_offsets is None:
            offsets = array("q", [0])
            states = array("q")
            total = 0
            for entries in self._pairs:
                if entries:
                    states.extend([state for _key, state in entries])
                    total += len(entries)
                offsets.append(total)
            self.entry_state = states
            self.conn_offsets = offsets
        return self.conn_offsets, self.entry_state

    def take2_heap(self, uid: int) -> list[tuple[float, int]]:
        """Connector ``uid``'s entries in static heap order (shared).

        Built by one ``heapify`` on first access; read-only afterwards
        (Take2 uses the heap array as a static partial order), so safe
        to share across runs, algorithms, and threads — the lazy fill
        is a benign race: ``heapify`` is deterministic, both winners
        produce the identical list.
        """
        heap = self._take2_heaps[uid]
        if heap is None:
            heap = list(self.pairs(uid))
            _heapify(heap)
            self._take2_heaps[uid] = heap
        return heap

    def sorted_pairs(self, uid: int) -> list[tuple[float, int]]:
        """Connector ``uid``'s entries fully sorted (shared, read-only)."""
        entries = self._sorted_pairs[uid]
        if entries is None:
            pairs = self.pairs(uid)
            np = vec.np
            if np is not None and len(pairs) >= _VEC_SORT_MIN:
                n = len(pairs)
                keys = np.fromiter((p[0] for p in pairs), np.float64, n)
                states = np.fromiter((p[1] for p in pairs), np.int64, n)
                order = np.lexsort((states, keys))
                entries = list(
                    zip(keys[order].tolist(), states[order].tolist())
                )
            else:
                entries = sorted(pairs)
            self._sorted_pairs[uid] = entries
        return entries

    def rea_heap(self, uid: int) -> list[tuple[float, int, int]]:
        """A fresh Recursive candidate heap ``[(key, state, 0), ...]``.

        Returns a per-call copy of a lazily built heapified template:
        the caller mutates its copy freely while the immutable triples
        stay shared, and repeated runs skip both the triple allocation
        and the ``heapify``.
        """
        template = self._rea_heaps[uid]
        if template is None:
            template = [
                (key, state, 0) for key, state in self.pairs(uid)
            ]
            _heapify(template)
            self._rea_heaps[uid] = template
        return list(template)

    def value_from_key(self, key: float) -> Any:
        """Map a key-space float back to the dioid value domain."""
        return self.dioid.value_from_key(key)

    def num_entries(self) -> int:
        """Entries across the whole uid space (shared by all fragments)."""
        if self.conn_offsets is not None:
            return self.conn_offsets[-1]
        return sum(len(entries) for entries in self._pairs if entries)

    def stats(self) -> dict:
        """Compiled-core summary (for ``explain`` physical reports)."""
        return {
            "stages": self.num_stages,
            "connectors": self.num_connectors,
            "entries": self.num_entries(),
            "states": sum(len(v) for v in self.values_key),
            "empty": self.empty,
        }

    def memory_bytes(self) -> int:
        """Estimated heap bytes of this core's columns (scrape-time).

        Mmap-backed ``memoryview`` columns (warm-started cores) count
        zero here — their residency is reported by
        :meth:`repro.dp.corebuf.CoreCache.mmap_bytes` instead, which is
        exactly the heap-vs-mmap split the memory gauges exist to show.
        """
        import sys

        total = sys.getsizeof(self)
        for name in (
            "values_key", "pi1_key", "conn_offsets", "entry_key",
            "entry_state", "conn_stage", "child_uids", "conn_of",
            "root_stages", "_pairs", "_take2_heaps", "_sorted_pairs",
            "_rea_heaps",
        ):
            total += _seq_bytes(getattr(self, name, None))
        return total

    def __repr__(self) -> str:
        return (
            f"CompiledTDP(stages={self.num_stages}, "
            f"entries={self.num_entries()}, best={self.best_key!r})"
        )


def compile_tdp(tdp: TDP) -> CompiledTDP | None:
    """Lower ``tdp`` to a :class:`CompiledTDP`, or ``None`` if unsupported.

    Supported exactly when the dioid advertises ``key_is_value`` (see
    the module docstring for the contract).  The result — including the
    negative answer — is memoized on the ``TDP``, so repeated calls from
    concurrent enumerator constructions cost one attribute read.  The
    memo write is a benign race: two threads may both compile, either
    result is valid, and one wins the slot.
    """
    compiled = tdp._compiled
    if compiled is not None:
        return compiled or None  # ``False`` memoizes "unsupported"
    if not getattr(tdp.dioid, "key_is_value", False):
        tdp._compiled = False
        return None
    compiled = CompiledTDP(tdp)
    tdp._compiled = compiled
    return compiled


# -- direct assembly (no object T-DP) ------------------------------------------

#: Key-space transform lanes of a ``key_is_value`` dioid (:func:`key_lane`).
LANE_ID, LANE_NEG, LANE_CALL = 0, 1, 2


def key_lane(dioid: SelectiveDioid) -> int:
    """How raw weights map into key space for this ``key_is_value`` dioid.

    Tropical keys are the values themselves, max-plus keys are their
    negation; any other (hypothetical) additive float key falls back to
    calling ``dioid.key`` per row.
    """
    probes = (1.25, -3.5, 0.0)
    if all(dioid.key(p) == p for p in probes):
        return LANE_ID
    if all(dioid.key(p) == -p for p in probes):
        return LANE_NEG
    return LANE_CALL


class _NegSeq:
    """Lazily negated read-only view of a key sequence (max-plus values)."""

    __slots__ = ("keys",)

    def __init__(self, keys):
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, index: int):
        return -self.keys[index]


def values_from_keys(dioid: SelectiveDioid, keys, lane: int):
    """A dioid-value view of one stage's key-space sequence."""
    if lane == LANE_ID:
        return keys  # the key *is* the value: alias, no copy
    if lane == LANE_NEG:
        return _NegSeq(keys)
    vfk = dioid.value_from_key
    return [vfk(k) for k in keys]


def vfk_of(dioid: SelectiveDioid):
    """``dioid.value_from_key``, or ``None`` when the key is the value."""
    if type(dioid).value_from_key is SelectiveDioid.value_from_key:
        return None
    return dioid.value_from_key


def conn_of_rows(parent_stage, branch_index, num_branches, child_uids) -> list:
    """Per non-root stage: its connector uid, indexed by parent state."""
    conn_of: list = [None] * len(parent_stage)
    for stage, parent in enumerate(parent_stage):
        if parent == -1:
            continue
        fanout = num_branches[parent]
        row = child_uids[parent]
        conn_of[stage] = row[branch_index[stage]::fanout] if fanout else []
    return conn_of


class FragmentTDP(TDP):
    """A connector-free T-DP shell behind an assembled compiled core.

    Carries exactly what result assembly needs — per-stage rows, global
    tuple ids, the query — and no :class:`~repro.dp.graph.ChoiceSet`
    graph (the flat enumerators never walk one).  Rows are either the
    builder's bulk-fetched rows, which may carry the trailing backend
    weight (:meth:`witness` slices them back to atom arity), or lazily
    fetched bare tuples (``repro.dp.corebuf.LazyRows``, mapped cores).
    ``_compiled`` points at the core, so ``make_enumerator(shell)``
    transparently runs the flat enumerators.
    """

    def __init__(self, dioid, atom_of_stage, parent_stage, query, join_tree):
        super().__init__(
            dioid, atom_of_stage, parent_stage, query=query, join_tree=join_tree
        )
        self._arities = [query.atoms[a].arity for a in self.atom_of_stage]
        self._empty = True

    def is_empty(self) -> bool:
        return self._empty

    def witness(self, states) -> tuple:
        arities = self._arities
        by_atom = sorted(
            (self.atom_of_stage[stage], self.tuples[stage][state][: arities[stage]])
            for stage, state in enumerate(states)
        )
        return tuple(t for _atom, t in by_atom)


def assemble_core(
    shell: FragmentTDP,
    values_key: list,
    pi1_key: list,
    child_uids: list,
    conn_of: list,
    root_uid: dict,
    best_key: float,
    empty: bool,
    uid_lists: dict,
    csr: tuple = (None, None, None),
) -> CompiledTDP:
    """Finish ``shell`` and wrap its key-space arrays in a compiled core.

    ``shell`` already holds its per-stage ``tuples``/``tuple_ids``; the
    per-stage key arrays (``values_key``, ``pi1_key``, ``child_uids``,
    ``conn_of``) are lists or buffer views.  ``uid_lists`` holds the
    uid-indexed structures — ``pairs``, ``conn_stage``, ``conn_meta``
    and the ``take2``/``sorted``/``rea`` ranking caches — which the
    fragments of one shard plan share as the *same list objects*, so a
    ranking structure for a shared connector is built once for every
    fragment, algorithm and serving session.  ``csr`` is the optional
    ``(conn_offsets, entry_key, entry_state)`` pool of a mapped core.
    """
    dioid = shell.dioid
    lane = key_lane(dioid)
    num_stages = shell.num_stages
    uid_space = len(uid_lists["pairs"])
    shell.values = [values_from_keys(dioid, keys, lane) for keys in values_key]
    shell.pi1 = [values_from_keys(dioid, keys, lane) for keys in pi1_key]
    shell.num_connectors = uid_space
    shell.best_weight = dioid.zero if empty else dioid.value_from_key(best_key)
    shell._empty = empty
    conn_offsets, entry_key, entry_state = csr
    compiled = CompiledTDP.assemble(
        tdp=shell,
        dioid=dioid,
        num_stages=num_stages,
        num_connectors=uid_space,
        parent_stage=shell.parent_stage,
        children_stages=shell.children_stages,
        branch_index=shell.branch_index,
        num_branches=[len(c) for c in shell.children_stages],
        values_key=values_key,
        pi1_key=pi1_key,
        conn_offsets=conn_offsets,
        entry_key=entry_key,
        entry_state=entry_state,
        conn_stage=uid_lists["conn_stage"],
        child_uids=child_uids,
        conn_of=conn_of,
        conn_meta=uid_lists["conn_meta"],
        root_stages=shell.root_stages,
        root_uid=root_uid,
        best_key=best_key,
        empty=empty,
        vfk=vfk_of(dioid),
        is_chain=all(
            shell.parent_stage[j] == j - 1 for j in range(num_stages)
        ),
        _pairs=uid_lists["pairs"],
        _take2_heaps=uid_lists["take2"],
        _sorted_pairs=uid_lists["sorted"],
        _rea_heaps=uid_lists["rea"],
    )
    shell._compiled = compiled
    return compiled
