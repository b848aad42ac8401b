"""The JSON-lines wire protocol of the streaming query server.

One request per line, JSON-encoded; responses are one or more lines.
Every request carries ``op`` plus op-specific fields:

``prepare``
    ``{"op": "prepare", "session": "s1", "query": "Q(x,z) :- R(x,y), S(y,z)",
    "algorithm": "take2", "dioid": "tropical", "projection": "all_weight",
    "budget": 1000}`` → ``{"ok": true, "op": "prepare", "cursor": "c0",
    "strategy": "acyclic-tdp", "shards": null}``.  Opens (or touches)
    the session and returns a cursor positioned at rank 0.  Optional
    ``"shards": N`` binds through the parallel execution layer
    (fragment-sharded T-DPs merged by a ranked k-way merge; see
    :mod:`repro.parallel`), with optional ``shard_tie_break``
    (``"arrival"``/``"canonical"``) and ``shard_strategy``
    (``"range"``/``"hash"``) refinements; the per-session ``stats``
    entries then report the cursor's shard configuration.  Fields the
    protocol does not define are ignored.

``fetch``
    ``{"op": "fetch", "session": "s1", "cursor": "c0", "n": 10}`` →
    ten ``{"result": {"index": i, "weight": w, "assignment": {...}}}``
    lines (streamed as they are enumerated, honouring transport
    backpressure) followed by the terminator ``{"ok": true, "op":
    "fetch", "served": 10, "position": 10, "exhausted": false}``.
    Repeating the request returns the *next* page — pagination is the
    default, no offset bookkeeping client-side.  Over HTTP the page is
    one JSON body instead: the terminator's fields plus ``"results":
    [...]``, the same payloads in rank order.

``explain``
    → ``{"ok": true, "op": "explain", "plan": "..."}`` (the bound
    physical plan report).

``close``
    With ``cursor``: closes one cursor.  Without: closes the whole
    session.  → ``{"ok": true, "op": "close"}``.

``stats`` / ``ping``
    Server observability and liveness.

Errors are single lines ``{"ok": false, "error": "<code>", "message":
"..."}``; the connection stays usable (one bad request does not tear
down the session).

Weights may be floats, ints, bools, or tuples (lexicographic dioids);
tuples are transported as JSON arrays (``json`` writes them as arrays
natively, so nothing is converted before encoding).

Every transport builds an answer's wire form with one function,
:func:`result_payload`, which hands the answer's own ``assignment``
dict to the encoder without copying it.  TCP and WebSocket encode one
line per answer (:func:`result_message` + :func:`encode`); the HTTP
gateway encodes each scheduler slice's payloads as one JSON array
fragment while the fetch runs, so a page is encoded once and never
decoded back on the server (see :mod:`repro.serve.gateway`).
"""

from __future__ import annotations

import json
from typing import Any

from repro.enumeration.result import QueryResult

#: Protocol error codes (mirrored by ServeError subclasses).
ERR_BAD_REQUEST = "bad_request"
ERR_UNKNOWN_OP = "unknown_op"
ERR_UNKNOWN_SESSION = "unknown_session"
ERR_UNKNOWN_CURSOR = "unknown_cursor"
ERR_BUDGET = "budget_exceeded"
ERR_QUERY = "bad_query"
ERR_INTERNAL = "internal"
#: Edge rejections (see :mod:`repro.serve.policy`): the request never
#: reached the session manager or consumed a scheduler slice.
ERR_UNAUTHORIZED = "unauthorized"
ERR_THROTTLED = "throttled"
#: Load shed at the edge (circuit breaker open or too many in-flight
#: fetches); responses carry ``retry_after`` seconds.  HTTP: 503.
ERR_OVERLOADED = "overloaded"
#: A fetch whose deadline expired before enumerating a single result.
#: Partial pages are *not* errors — they return ``ok`` terminators with
#: ``"deadline_exceeded": true``.  HTTP: 504.
ERR_DEADLINE = "deadline_exceeded"
#: A transport feature the gateway does not implement (e.g. a
#: ``Transfer-Encoding`` request body).  HTTP: 501, connection closed.
ERR_UNSUPPORTED = "not_implemented"

#: Ops a server must implement.
OPS = ("prepare", "fetch", "explain", "close", "stats", "ping")


def valid_int(value: Any) -> bool:
    """Whether ``value`` is a JSON integer (rejecting booleans).

    ``bool`` is an ``int`` subclass in Python, so a bare ``isinstance``
    check lets JSON ``true``/``false`` masquerade as ``1``/``0`` — e.g.
    ``{"shards": true}`` silently preparing a 1-shard plan.  Every
    integer-valued protocol field validates through here instead.
    """
    return isinstance(value, int) and not isinstance(value, bool)


def valid_ms(value: Any) -> bool:
    """Whether ``value`` is a positive JSON number (for ``deadline_ms``)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value > 0
    )


def encode(message: dict) -> bytes:
    """One protocol line: compact JSON plus the newline terminator.

    No ``default=`` hook: tuples encode as arrays natively, and a value
    json cannot represent should fail with the standard, descriptive
    ``TypeError`` (a hook returning the object unchanged would turn it
    into an opaque circular-reference error instead).
    """
    return (
        json.dumps(message, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes | str) -> dict:
    """Parse one protocol line; raises ``ValueError`` on malformed input."""
    if isinstance(line, bytes):
        line = line.decode("utf-8")
    message = json.loads(line)
    if not isinstance(message, dict):
        raise ValueError(f"protocol messages are JSON objects, got {line!r}")
    return message


def result_payload(index: int, result: QueryResult) -> dict:
    """The wire form of one ranked answer, shared by every transport.

    The answer's ``assignment`` dict goes to the encoder as is (no
    copy); tuple values and weights encode as JSON arrays.
    """
    payload: dict[str, Any] = {
        "index": index,
        "weight": result.weight,
        "assignment": result.assignment,
    }
    witness_ids = result.witness_ids
    if witness_ids is not None:
        payload["witness_ids"] = witness_ids
    return payload


def result_message(index: int, result: QueryResult) -> dict:
    """One answer as a protocol line's message (TCP and WebSocket)."""
    return {"result": result_payload(index, result)}


def ok(op: str, **fields: Any) -> dict:
    """A success terminator/response line."""
    message = {"ok": True, "op": op}
    message.update(fields)
    return message


def error(code: str, message: str, **fields: Any) -> dict:
    """An error response line (extra fields ride along, e.g.
    ``retry_after`` on throttled/overloaded rejections)."""
    payload = {"ok": False, "error": code, "message": message}
    payload.update(fields)
    return payload
