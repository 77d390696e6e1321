"""Closed-loop clients: run one statement, time it, check its digest.

A target is one client of the system — an in-process ``Session`` or one
``NetClient`` connection.  Both fetch the first page of ``PAGE_SIZE``
rows, stop the first-page clock with the rows serialised in hand, then
drain the rest; the latency clock stops when the reply is complete and
the digest is checked before the next op is sent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.xmlkit.serializer import serialize

from ops import Stmt, UpdateLedger
from rig import OP_TIMEOUT, PAGE_SIZE, digest
from spans import Recorder


@dataclass
class OpResult:
    """One op as the client saw it."""

    #: Statement name (reads) or update kind: the unit whose typical
    #: latency the class metrics are built from.
    name: str
    cls: str
    ok: bool
    latency: float
    first_page: float = 0.0
    rows: int = 0
    round_trips: int = 0
    plan_cache_hit: bool | None = None
    error: str = ""


class InprocTarget:
    """The in-process client: prepare (or reuse a handle), execute,
    fetch a page, serialise, drain."""

    def __init__(self, env):
        self.session = env.session
        self._handles = {}

    def prepare(self, stmt: Stmt) -> None:
        """Make the handle a ``prepared``-mode statement executes."""
        key = (stmt.document, stmt.text)
        if key not in self._handles:
            self._handles[key] = self.session.prepare(stmt.document,
                                                      stmt.text)

    def run(self, stmt: Stmt, recorder: Recorder) -> OpResult:
        """Execute ``stmt`` once."""
        with recorder.span("op", stmt.name) as op:
            started = time.perf_counter()
            with recorder.span("prepare"):
                if stmt.mode == "prepared":
                    prepared = self._handles[stmt.document, stmt.text]
                else:
                    prepared = self.session.prepare(stmt.document,
                                                    stmt.text)
            with recorder.span("execute"):
                cursor = prepared.execute(bindings=stmt.binding_dict,
                                          time_limit=OP_TIMEOUT)
            with cursor:
                with recorder.span("first_page"):
                    page = cursor.fetch(PAGE_SIZE)
                    parts = [serialize(node) for node in page]
                first_page = time.perf_counter() - started
                rows = len(page)
                with recorder.span("drain"):
                    for node in cursor:
                        parts.append(serialize(node))
                        rows += 1
            latency = time.perf_counter() - started
            ok = digest("".join(parts)) == stmt.digest
            op.note(ok=ok, rows=rows)
        return OpResult(stmt.name, stmt.cls, ok, latency, first_page,
                        rows, plan_cache_hit=prepared.from_cache)


class WireTarget:
    """One ``NetClient`` connection with its prepared handles."""

    def __init__(self, env):
        self._env = env
        self.client = env.connect()
        self._handles = {}

    def prepare(self, stmt: Stmt) -> None:
        """Prepare ``stmt`` server-side and keep the handle."""
        key = (stmt.document, stmt.text)
        if key not in self._handles:
            self._handles[key] = self.client.prepare(stmt.document,
                                                     stmt.text)

    def _reconnect(self) -> None:
        """After a timeout the stream position is unknown: redial."""
        self.client.close()
        self.client = self._env.connect()
        wanted, self._handles = self._handles, {}
        for document, text in wanted:
            self._handles[document, text] = self.client.prepare(
                document, text)

    def run(self, stmt: Stmt, recorder: Recorder) -> OpResult:
        """Execute ``stmt`` once over the wire."""
        with recorder.span("op", stmt.name) as op:
            started = time.perf_counter()
            with recorder.span("submit"):
                if stmt.mode == "prepared":
                    handle = self._handles[stmt.document, stmt.text]
                    cursor = handle.execute(
                        bindings=stmt.binding_dict, page_size=PAGE_SIZE,
                        time_limit=OP_TIMEOUT)
                else:
                    cursor = self.client.execute(
                        stmt.document, stmt.text,
                        bindings=stmt.binding_dict, page_size=PAGE_SIZE,
                        time_limit=OP_TIMEOUT)
            # EXECUTE, then one FETCH per page; the server ends every
            # result with a separate empty eof page.
            round_trips = 2
            with recorder.span("first_page"):
                rows = cursor.fetch_page()
            first_page = time.perf_counter() - started
            with recorder.span("drain"):
                page = rows
                while page and cursor.total_rows is None:
                    page = cursor.fetch_page()
                    round_trips += 1
                    rows += page
            latency = time.perf_counter() - started
            ok = digest("".join(rows)) == stmt.digest
            op.note(ok=ok, rows=len(rows))
        return OpResult(stmt.name, stmt.cls, ok, latency, first_page,
                        len(rows), round_trips, cursor.plan_cache_hit)

    def update(self, kind: str, statement: str, bindings: dict | None,
               recorder: Recorder) -> OpResult:
        """Run one updating statement; returning is the acknowledgement."""
        with recorder.span("op", f"update-{kind}"):
            started = time.perf_counter()
            self.client.update("dblp", statement, bindings=bindings)
            latency = time.perf_counter() - started
        return OpResult(kind, "update", True, latency, round_trips=1)


def make_targets(env, count: int) -> list:
    """``count`` clients of ``env``, one session or connection each."""
    kind = InprocTarget if env.kind == "inproc" else WireTarget
    return [kind(env) for _ in range(count)]


def _failed(name: str, cls: str, started: float,
            error: BaseException) -> OpResult:
    return OpResult(name, cls, False, time.perf_counter() - started,
                    error=f"{type(error).__name__}: {error}")


def read_loop(target, sequence, count: int, results: list,
              recorder: Recorder) -> None:
    """Run the next ``count`` ops of ``sequence``, one after the other.

    Any failure — a typed error, a timeout, a dropped connection — is
    one failed op, never the end of the run; only a connection that
    cannot be re-dialled ends the loop early, and the ops it leaves
    unsent count as failed (the caller knows ``count``)."""
    for _ in range(count):
        stmt = next(sequence)
        started = time.perf_counter()
        try:
            results.append(target.run(stmt, recorder))
        except Exception as error:
            results.append(_failed(stmt.name, stmt.cls, started, error))
            if isinstance(target, WireTarget):
                try:
                    target._reconnect()
                except Exception:
                    break


def update_loop(target: WireTarget, sequence, count: int, results: list,
                ledger: UpdateLedger, recorder: Recorder) -> None:
    """``count`` updates back to back; the ledger records what was
    acknowledged."""
    for _ in range(count):
        kind, statement, bindings = next(sequence)
        started = time.perf_counter()
        try:
            results.append(target.update(kind, statement, bindings,
                                         recorder))
        except Exception as error:
            # Outcome unknown: the durability check cannot tell an
            # applied from a lost update after this, so stop writing.
            results.append(_failed(kind, "update", started, error))
            break
        ledger.acknowledge(kind, bindings)
