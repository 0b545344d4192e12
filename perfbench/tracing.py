"""Span tracing installed from outside the program.

The benchmark never edits ``src/``. Instead, :class:`Tracer.install`
replaces each layer's public entry point, at the name its callers look up
at call time (a class attribute or a module global), with a wrapper that
records a span; :meth:`Tracer.uninstall` puts the originals back. Spans
nest per thread. A request that crosses from a client thread to a server
handler thread keeps one trace id: the server-side dispatch wrapper finds
the trace through the session's logged-in user, which the benchmark gives
every client connection uniquely.

Each span records its name, id, parent span, trace id, op type, start, end
and thread. Self time of a span is its duration minus the time its child
spans cover. Spans are kept in memory (up to a cap) and written out by
:meth:`dump`.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

_clock = time.perf_counter_ns

#: Layer order of the waterfall, outermost first.
LAYER_ORDER = (
    "client", "api", "server", "bdms", "beliefsql", "query", "relational",
    "storage", "durability", "lifecycle",
)


_span_ids = itertools.count(1)

#: name, span id, parent span id, trace id, op type, start, end, thread
SPAN_FIELDS = 8

#: Spans kept in memory; later ones are only counted and aggregated.
SPAN_CAP = 200_000


class _Frame:
    __slots__ = (
        "name", "start", "child_ns", "trace", "op", "dispatch_ns", "span",
        "parent",
    )

    def __init__(
        self, name: str, start: int, trace: int, op: str, parent: int
    ) -> None:
        self.name = name
        self.start = start
        self.child_ns = 0
        self.trace = trace
        self.op = op
        self.dispatch_ns = 0
        self.span = next(_span_ids)
        self.parent = parent


class Tracer:
    """Collects spans and counts while installed; see the module docstring."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._trace_ids = itertools.count(1)
        #: user name -> (trace id, op type, root frame) of the request that
        #: user's connection has in flight.
        self._by_user: dict[str, tuple[int, str, _Frame]] = {}
        #: Kept spans, ``SPAN_FIELDS`` integers each, in a flat array: no
        #: per-span objects for the garbage collector to walk while the
        #: program runs.
        self.spans = array("q")
        self._labels: dict[str, int] = {}
        self.dropped_spans = 0
        #: (op type, span name) -> [calls, total ns, self ns]
        self.agg: dict[tuple[str, str], list[int]] = defaultdict(
            lambda: [0, 0, 0]
        )
        self.counts: dict[str, int] = defaultdict(int)
        #: per-request (client-observed ns, server dispatch ns) pairs
        self.roundtrips: list[tuple[int, int]] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.pending = []
            self._local.server_trace = None
        return stack

    def _enter(self, name: str) -> _Frame:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            frame = _Frame(name, _clock(), parent.trace, parent.op, parent.span)
        else:
            ctx = self._local.server_trace
            if ctx is None:
                frame = _Frame(name, _clock(), 0, "", 0)
            else:
                frame = _Frame(name, _clock(), ctx[0], ctx[1], ctx[2].span)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> int:
        end = _clock()
        stack = self._local.stack
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_ns += duration
        elif frame.trace:
            # A server-thread root span: charge it to the client's request.
            root = self._local.server_trace
            if root is not None:
                root[2].child_ns += duration
        else:
            # Read before dispatch resolved the request: held until it does.
            self._local.pending.append((frame, duration))
            return duration
        self._record(frame, end, duration)
        return duration

    def _record(self, frame: _Frame, end: int, duration: int) -> None:
        cell = self.agg[(frame.op or "untraced", frame.name)]
        cell[0] += 1
        cell[1] += duration
        cell[2] += duration - frame.child_ns
        if len(self.spans) < SPAN_CAP * SPAN_FIELDS:
            labels = self._labels
            self.spans.extend((
                labels.setdefault(frame.name, len(labels)), frame.span,
                frame.parent, frame.trace,
                labels.setdefault(frame.op, len(labels)), frame.start, end,
                threading.get_ident(),
            ))
        else:
            self.dropped_spans += 1

    def root(self, op: str, user: str | None = None) -> "_Root":
        """Context manager for one client-issued operation."""
        return _Root(self, op, user)

    def _bind_server_request(self, user: str | None) -> None:
        """Attach this server thread to the request of ``user``'s client."""
        ctx = self._by_user.get(user) if user is not None else None
        self._stack()
        self._local.server_trace = ctx
        pending, self._local.pending = self._local.pending, []
        for frame, duration in pending:
            if ctx is None:
                continue
            frame.trace, frame.op, frame.parent = ctx[0], ctx[1], ctx[2].span
            ctx[2].child_ns += duration
            self._record(frame, frame.start + duration, duration)

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name: str, func: Callable) -> Callable:
        enter, exit_ = self._enter, self._exit

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = enter(name)
            try:
                return func(*args, **kwargs)
            finally:
                exit_(frame)

        return wrapper

    def _codec_wrapper(self, func: Callable, ends_request: bool) -> Callable:
        """Codec spans are named for the side of the connection they run on.

        Encoding the response is the last step of a server-side request, so
        it detaches the handler thread from the request's trace.
        """
        enter, exit_, local = self._enter, self._exit, self._local

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            side = getattr(local, "side", "server")
            frame = enter(f"{side}.codec")
            try:
                return func(*args, **kwargs)
            finally:
                exit_(frame)
                if ends_request and side == "server":
                    local.server_trace = None

        return wrapper

    def _dispatch_wrapper(self, func: Callable) -> Callable:
        enter, exit_ = self._enter, self._exit
        bind, local = self._bind_server_request, self._local

        @functools.wraps(func)
        def wrapper(server: Any, session: Any, request: Any) -> Any:
            bind(session.user_name)
            frame = enter("server.dispatch")
            try:
                return func(server, session, request)
            finally:
                duration = exit_(frame)
                ctx = local.server_trace
                if ctx is not None:
                    ctx[2].dispatch_ns = duration

        return wrapper

    def _counting_wrapper(
        self, name: str, func: Callable, amount: Callable[[Any], int] | None
    ) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = func(*args, **kwargs)
            counts[name] += 1 if amount is None else amount(result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every layer entry point the benchmark measures."""
        import os

        from repro.api import cursor as api_cursor
        from repro.bdms import bdms, dml
        from repro.beliefsql import compiler
        from repro.durability import manager, snapshot, wal
        from repro.lifecycle import registry
        from repro.query import bcq, translate
        from repro.relational import database, datalog
        from repro.server import binproto, protocol, server
        from repro.storage import store

        if self._originals:
            raise RuntimeError("tracer already installed")
        spans = [
            (api_cursor.Cursor, "execute", "api.execute"),
            (server.ReadWriteLock, "acquire_write", "server.lock_wait"),
            (server.ReadWriteLock, "acquire_read", "server.lock_wait"),
            (bdms.BeliefDBMS, "execute_prepared", "bdms.execute"),
            (bdms.BeliefDBMS, "lifecycle_propose", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "lifecycle_transition", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "lifecycle_decay_sweep", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "lifecycle_get", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "lifecycle_list", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "audit_log", "bdms.lifecycle"),
            (bdms.BeliefDBMS, "query", "bdms.query"),
            (compiler.CompiledSelect, "bind", "beliefsql.bind"),
            (compiler.CompiledInsert, "bind", "beliefsql.bind"),
            (compiler.CompiledDelete, "bind", "beliefsql.bind"),
            (bcq.BCQuery, "check_safe", "query.check_safe"),
            (translate, "translate_bcq", "query.translate"),
            (database.RelationalDatabase, "run", "relational.run"),
            (bdms, "insert_tuple", "storage.update"),
            (bdms, "delete_tuple", "storage.update"),
            (dml, "delete_tuple", "storage.update"),
            (store.BeliefStore, "fork_snapshot", "storage.fork"),
            (manager.DurabilityManager, "log_batch", "durability.log"),
            (manager.DurabilityManager, "checkpoint", "durability.checkpoint"),
            (registry.LifecycleRegistry, "apply", "lifecycle.apply"),
            (registry.LifecycleRegistry, "dump", "lifecycle.dump"),
        ]
        for owner, attr, name in spans:
            self._patch(owner, attr, self._span_wrapper(
                name, owner.__dict__[attr]
            ))
        for owner, attr, ends_request in (
            (protocol, "encode_frame", True),
            (protocol, "_parse_body", False),
            (binproto.BinaryCodec, "encode", True),
            (binproto.BinaryCodec, "decode_frame", False),
        ):
            self._patch(owner, attr, self._codec_wrapper(
                owner.__dict__[attr], ends_request
            ))
        self._patch(server.BeliefServer, "_dispatch", self._dispatch_wrapper(
            server.BeliefServer.__dict__["_dispatch"]
        ))
        counted = [
            (datalog, "evaluate_rule", "relational.rules", None),
            (wal.WalWriter, "append_batch", "durability.wal_bytes", int),
            (snapshot, "write_snapshot", "durability.snapshot_bytes",
             os.path.getsize),
        ]
        for owner, attr, name, amount in counted:
            self._patch(owner, attr, self._counting_wrapper(
                name, owner.__dict__[attr], amount
            ))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -------------------------------------------------------------- reports

    def layer_self_ns(self, span: str) -> tuple[int, int]:
        """(calls, self ns) of one span name over every op type."""
        calls = total = 0
        for (_, name), cell in self.agg.items():
            if name == span:
                calls += cell[0]
                total += cell[2]
        return calls, total

    def mean_self_us(self, *names: str, per: int | None = None) -> float:
        """Mean self time in µs per call of the named spans (or per ``per``)."""
        calls = total = 0
        for name in names:
            c, t = self.layer_self_ns(name)
            calls += c
            total += t
        divisor = per if per is not None else calls
        return total / 1000.0 / divisor if divisor else 0.0

    def waterfall(self, ops: dict[str, int]) -> list[str]:
        """Mean self time per layer for each op type, in µs per op."""
        lines = []
        for op in sorted(ops):
            n = ops[op]
            if not n:
                continue
            cells = sorted(
                ((name, cell) for (o, name), cell in self.agg.items()
                 if o == op),
                key=lambda item: (
                    LAYER_ORDER.index(item[0].split(".")[0]), item[0]
                ),
            )
            total = sum(cell[2] for _, cell in cells) / 1000.0 / n
            lines.append(f"waterfall {op} ({n} ops, {total:.1f} us/op):")
            for name, cell in cells:
                per_op = cell[2] / 1000.0 / n
                lines.append(
                    f"  {name:<24} {per_op:10.1f} us/op "
                    f"{100.0 * per_op / total if total else 0.0:5.1f}%  "
                    f"({cell[0] / n:.2f} calls/op)"
                )
        return lines

    def dump(self, path: str) -> None:
        """Write the kept spans, one JSON object per line."""
        label = {index: text for text, index in self._labels.items()}
        spans = self.spans
        with open(path, "w", encoding="utf-8") as out:
            for i in range(0, len(spans), SPAN_FIELDS):
                name, span, parent, trace, op, start, end, thread = (
                    spans[i:i + SPAN_FIELDS]
                )
                out.write(json.dumps({
                    "name": label[name], "span": span, "parent": parent,
                    "trace": trace, "op": label[op], "start_ns": start,
                    "end_ns": end, "thread": thread,
                }) + "\n")


class _Root:
    """The client-side root span of one operation (see :meth:`Tracer.root`)."""

    __slots__ = ("tracer", "op", "user", "frame")

    def __init__(self, tracer: Tracer, op: str, user: str | None) -> None:
        self.tracer, self.op, self.user = tracer, op, user

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._stack()
        tracer._local.side = "client"
        trace = next(tracer._trace_ids)
        frame = self.frame = _Frame(
            "client.roundtrip", _clock(), trace, self.op, 0
        )
        tracer._local.stack.append(frame)
        if self.user is not None:
            tracer._by_user[self.user] = (trace, self.op, frame)

    def __exit__(self, *exc_info: object) -> None:
        tracer = self.tracer
        duration = tracer._exit(self.frame)
        if self.user is not None:
            tracer._by_user.pop(self.user, None)
            tracer.roundtrips.append((duration, self.frame.dispatch_ns))
