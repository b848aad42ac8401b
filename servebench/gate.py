"""Correctness gate: every delivered answer against an in-process reference.

The reference is :meth:`repro.engine.PreparedQuery.iter` at the same
database version, computed outside the timed region.  Answers are
compared in rank order on ``(weight, output tuple)``; the wire carries
weights as JSON numbers (floats round-trip exactly) and the output
tuple as the ``assignment`` object, read back in head order.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, Sequence


def reference(prepared, k: int) -> list[tuple]:
    """The first ``k`` ranked answers of a fresh enumeration run."""
    return [(r.weight, r.output_tuple) for r in islice(prepared.iter(), k)]


def wire_answers(rows: Iterable[dict], head: Sequence[str]) -> list[tuple]:
    """Decoded HTTP result rows as ``(weight, output tuple)``."""
    return [
        (row["weight"], tuple(row["assignment"][var] for var in head))
        for row in rows
    ]


def mismatches(
    rows: Sequence[dict],
    head: Sequence[str],
    expected: Sequence[tuple],
    start: int,
    requested: int,
) -> int:
    """Answers of a page that differ from the reference.

    The page asked for ``requested`` answers from rank ``start``;
    ``expected`` is the reference from rank 0, at least ``start +
    requested`` long unless the output is smaller.  Missing or extra
    answers count as mismatches too.
    """
    delivered = wire_answers(rows, head)
    wanted = expected[start:start + requested]
    wrong = sum(1 for got, want in zip(delivered, wanted) if got != want)
    return wrong + abs(len(delivered) - len(wanted))
