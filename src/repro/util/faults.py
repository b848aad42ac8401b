"""Deterministic fault injection for chaos testing the serving stack.

A :class:`FaultPlan` is a registry of named *sites* — places in the
code that call :func:`hit` (or :func:`corrupt`) — and *rules* that make
the Nth arrival at a site raise, sleep, mangle bytes, or kill the
process.  Everything is deterministic: rules fire on hit counts, the
RNG is seeded, and the plan is injectable via constructor or the
``REPRO_FAULTS`` environment variable, so a chaos test (or a CI smoke
lane) replays the exact same failure every run.

The default plan is empty and the module-level entry points check that
with one attribute read, so instrumented production paths pay ~nothing
when no faults are configured (the same contract as
:data:`repro.obs.trace.NULL_TRACER`).

Instrumented sites in the tree:

=======================  ====================================================
``sqlite.execute``       every retried statement in ``SQLiteBackend``
``sqlite.executemany``   the unretried batch-insert path (callers roll back)
``core.read``            ``CoreFile`` TOC read (mmap warm starts)
``core.write``           mid-rewrite of the ``.core`` container
``fetch.slice``          every cooperative-scheduler slice
``gateway.write``        every HTTP/WS response write
=======================  ====================================================

Rule syntax (``REPRO_FAULTS`` or :meth:`FaultPlan.parse`): a
comma-separated list of ``site=action[:after[:count[:param]]]``:

* ``action`` — ``raise``, ``delay``, ``corrupt``, or ``exit``;
* ``after`` — 1-based hit number at which the rule starts firing
  (default 1);
* ``count`` — consecutive hits that fire (default 1; ``0`` = forever);
* ``param`` — for ``raise``, the exception shape (``busy``, ``oserror``,
  ``reset``, ``broken``, or the default ``fault``); for ``delay``,
  seconds; for ``corrupt``, ``flip`` or ``truncate``; for ``exit``, an
  optional one-shot token-file path (the rule fires only while the file
  exists and consumes it — lets a forked child process die exactly once).

Example: ``REPRO_FAULTS="sqlite.execute=raise:1:2:busy"`` makes the
first two statements fail with ``database is locked`` — which the
backend's retrier then absorbs.
"""

from __future__ import annotations

import os
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable


class FaultInjected(RuntimeError):
    """The default exception raised by a ``raise`` rule.

    A ``RuntimeError`` subclass on purpose: injected failures travel the
    same degradation paths real infrastructure failures do.
    """


def _make_exception(param: Any, site: str) -> BaseException:
    if param in ("busy", "locked"):
        import sqlite3

        return sqlite3.OperationalError("database is locked")
    if param == "oserror":
        return OSError(f"injected I/O error at {site}")
    if param == "reset":
        return ConnectionResetError(f"injected connection reset at {site}")
    if param == "broken":
        from concurrent.futures.process import BrokenProcessPool

        return BrokenProcessPool(f"injected broken pool at {site}")
    return FaultInjected(f"injected fault at {site}")


@dataclass
class FaultRule:
    """One deterministic rule: fire ``action`` on hits [after, after+count)."""

    site: str
    action: str  # "raise" | "delay" | "corrupt" | "exit"
    after: int = 1
    count: int = 1  # 0 = every hit from ``after`` on
    param: Any = None

    def fires(self, hit_number: int) -> bool:
        if hit_number < self.after:
            return False
        return self.count == 0 or hit_number < self.after + self.count


_ACTIONS = ("raise", "delay", "corrupt", "exit")


class FaultPlan:
    """A seeded, thread-safe registry of fault rules keyed by site name."""

    def __init__(
        self,
        rules: Iterable[FaultRule] = (),
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._rules: dict[str, list[FaultRule]] = {}
        self._hits: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._lock = threading.Lock()
        self.rng = random.Random(seed)
        self._sleep = sleep
        for rule in rules:
            self.add(rule)

    # -- construction ----------------------------------------------------------

    def add(
        self,
        rule: FaultRule | str,
        action: str | None = None,
        after: int = 1,
        count: int = 1,
        param: Any = None,
    ) -> "FaultPlan":
        """Register one rule (a :class:`FaultRule` or field arguments)."""
        if not isinstance(rule, FaultRule):
            rule = FaultRule(rule, action, after, count, param)
        if rule.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {rule.action!r}")
        if rule.after < 1 or rule.count < 0:
            raise ValueError(f"bad fault window in {rule!r}")
        self._rules.setdefault(rule.site, []).append(rule)
        return self

    @classmethod
    def parse(cls, spec: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the ``REPRO_FAULTS`` rule syntax."""
        plan = cls(seed=seed)
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            site, _, rest = chunk.partition("=")
            if not rest:
                raise ValueError(f"fault rule {chunk!r} has no action")
            parts = rest.split(":")
            action = parts[0]
            after = int(parts[1]) if len(parts) > 1 and parts[1] else 1
            count = int(parts[2]) if len(parts) > 2 and parts[2] else 1
            param: Any = parts[3] if len(parts) > 3 and parts[3] else None
            if action == "delay" and param is not None:
                param = float(param)
            plan.add(site.strip(), action, after, count, param)
        return plan

    @classmethod
    def from_env(cls, environ=None) -> "FaultPlan":
        """The plan described by ``REPRO_FAULTS`` (empty when unset)."""
        environ = os.environ if environ is None else environ
        spec = environ.get("REPRO_FAULTS", "")
        seed = int(environ.get("REPRO_FAULTS_SEED", "0") or 0)
        return cls.parse(spec, seed=seed) if spec else cls(seed=seed)

    # -- firing ----------------------------------------------------------------

    def _arm(self, site: str) -> list[FaultRule]:
        """Count one arrival at ``site``; return the rules that fire."""
        with self._lock:
            number = self._hits.get(site, 0) + 1
            self._hits[site] = number
            fired = [
                rule
                for rule in self._rules.get(site, ())
                if rule.fires(number)
            ]
            if fired:
                self._fired[site] = self._fired.get(site, 0) + 1
        return fired

    def _consume_token(self, path: str) -> bool:
        """Atomically claim a one-shot token file (False if already gone)."""
        try:
            os.unlink(path)
            return True
        except OSError:
            return False

    def hit(self, site: str) -> None:
        """One arrival at ``site``; may sleep, raise, or exit the process."""
        if not self._rules:
            return
        for rule in self._arm(site):
            if rule.action == "delay":
                self._sleep(0.01 if rule.param is None else float(rule.param))
            elif rule.action == "raise":
                raise _make_exception(rule.param, site)
            elif rule.action == "exit":
                if rule.param is None or self._consume_token(str(rule.param)):
                    os._exit(13)
            # "corrupt" rules are inert on hit(): they need the bytes.

    def corrupt(self, site: str, data: bytes) -> bytes:
        """Like :meth:`hit`, but ``corrupt`` rules mangle ``data``."""
        if not self._rules:
            return data
        for rule in self._arm(site):
            if rule.action == "delay":
                self._sleep(0.01 if rule.param is None else float(rule.param))
            elif rule.action == "raise":
                raise _make_exception(rule.param, site)
            elif rule.action == "exit":
                if rule.param is None or self._consume_token(str(rule.param)):
                    os._exit(13)
            elif rule.action == "corrupt":
                if rule.param == "truncate":
                    data = data[: len(data) // 2]
                else:
                    # Deterministic bit-flips through the middle of the
                    # payload: enough to break any framing/pickle, stable
                    # across runs (no RNG draw — replayable byte-for-byte).
                    mid = len(data) // 2
                    window = data[mid:mid + 64]
                    data = (
                        data[:mid]
                        + bytes(b ^ 0xFF for b in window)
                        + data[mid + len(window):]
                    )
        return data

    # -- observability ---------------------------------------------------------

    @property
    def empty(self) -> bool:
        return not self._rules

    def counters(self) -> dict:
        """``{"hits": {site: n}, "fired": {site: n}}`` snapshot."""
        with self._lock:
            return {"hits": dict(self._hits), "fired": dict(self._fired)}

    def __repr__(self) -> str:
        rules = sum(len(v) for v in self._rules.values())
        return f"FaultPlan({rules} rules over {len(self._rules)} sites)"


#: The process-wide active plan.  Populated from ``REPRO_FAULTS`` at
#: import; empty (every entry point a near-no-op) otherwise.
_ACTIVE: FaultPlan = FaultPlan.from_env()


def active() -> FaultPlan:
    """The currently active plan (never ``None``)."""
    return _ACTIVE


def activate(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` process-wide; returns the previous plan."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = plan
    return previous


@contextmanager
def injected(plan: FaultPlan | str):
    """Activate a plan (or rule string) for the duration of a block."""
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    previous = activate(plan)
    try:
        yield plan
    finally:
        activate(previous)


def enabled() -> bool:
    """Whether any fault rules are active (False in production)."""
    return not _ACTIVE.empty


def hit(site: str) -> None:
    """Module-level site entry point (one dict check when no faults)."""
    plan = _ACTIVE
    if plan._rules:
        plan.hit(site)


def corrupt(site: str, data: bytes) -> bytes:
    """Module-level byte-mangling entry point (identity when no faults)."""
    plan = _ACTIVE
    if plan._rules:
        return plan.corrupt(site, data)
    return data


def counters() -> dict:
    """Counter snapshot of the active plan (for ``/metrics`` and tests)."""
    return _ACTIVE.counters()
