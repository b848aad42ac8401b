"""The public result type yielded by every ranked-enumeration pipeline."""

from __future__ import annotations

from typing import Any


class QueryResult:
    """One ranked answer: weight, variable assignment, optional witness.

    The witness (input tuples in atom order) is either given up front
    or derived on first read from ``source``, the any-k result the
    answer came from (anything with a ``witness`` attribute, e.g.
    :class:`~repro.anyk.base.RankedResult`): no transport serves it, so
    the pipelines that can derive it leave the work to the caller who
    asks.
    """

    __slots__ = (
        "weight", "assignment", "_head", "_witness_ids", "_witness", "_source",
    )

    def __init__(
        self,
        weight: Any,
        assignment: dict[str, Any],
        head: tuple[str, ...],
        witness_ids: tuple | None = None,
        witness: tuple | None = None,
        source: Any = None,
    ):
        self.weight = weight
        self.assignment = assignment
        self._head = head
        self._witness_ids = witness_ids
        self._witness = witness
        self._source = source

    @property
    def output_tuple(self) -> tuple:
        """The answer projected onto the query head."""
        return tuple(self.assignment[v] for v in self._head)

    @property
    def witness_ids(self) -> tuple | None:
        """Per-atom input tuple positions, when the pipeline tracks them."""
        return self._witness_ids

    @property
    def witness(self) -> tuple | None:
        """Per-atom input tuples, when the pipeline tracks them."""
        source = self._source
        if source is not None:
            self._witness = source.witness
            self._source = None
        return self._witness

    def with_assignment(
        self, assignment: dict[str, Any], head: tuple[str, ...]
    ) -> "QueryResult":
        """The same answer (weight, witness) under another assignment."""
        return QueryResult(
            self.weight, assignment, head,
            self._witness_ids, self._witness, self._source,
        )

    def __repr__(self) -> str:
        return f"QueryResult(weight={self.weight!r}, {self.assignment!r})"
