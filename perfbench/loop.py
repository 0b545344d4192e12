"""Closed-loop driver: client threads, timed phases, latency samples.

Every client waits for its reply before it sends the next operation. A run
is a sequence of phases; between phases the controller parks every client
(so the tracer can be installed or removed while no operation is in
flight), then lets them go again.
"""

from __future__ import annotations

import gc
import threading
import time
from typing import Any, Callable, Sequence

from tracing import Tracer

#: Fraction-of-one percentiles reported for latency samples.
MEDIAN, P99 = 0.5, 0.99


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of ``samples`` (which need not be sorted)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no samples")
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(samples: Sequence[float]) -> float:
    return quantile(samples, MEDIAN)


class Control:
    """Pause/resume/stop for client threads, plus an all-client rendezvous.

    Clients call :meth:`gate` before each operation and :meth:`rendezvous`
    where every client must line up (a compare-and-swap race). A client
    waiting in either counts as idle, and a rendezvous never releases while
    paused, so :meth:`pause` returns only when no operation is running.
    """

    def __init__(self, clients: int) -> None:
        self.clients = clients
        self._cond = threading.Condition()
        self._paused = True
        self._stop = False
        self._idle = 0
        self._arrived = 0
        self._generation = 0

    def gate(self) -> bool:
        """Block while paused; False once the run is over."""
        with self._cond:
            while self._paused and not self._stop:
                self._idle += 1
                self._cond.notify_all()
                self._cond.wait()
                self._idle -= 1
            return not self._stop

    def rendezvous(self) -> bool:
        """Wait until every client arrives; False if the run ended first."""
        with self._cond:
            generation = self._generation
            self._arrived += 1
            self._idle += 1
            self._cond.notify_all()
            try:
                while True:
                    if self._stop:
                        return False
                    if self._generation != generation:
                        return True
                    if self._arrived == self.clients and not self._paused:
                        self._arrived = 0
                        self._generation += 1
                        self._cond.notify_all()
                        return True
                    self._cond.wait()
            finally:
                self._idle -= 1

    def pause(self) -> None:
        with self._cond:
            self._paused = True
            while self._idle < self.clients and not self._stop:
                self._cond.wait()

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def stop(self) -> None:
        with self._cond:
            self._stop = True
            self._cond.notify_all()


class Client:
    """One closed-loop client: ``step`` runs one operation.

    Subclasses implement :meth:`step` and call :meth:`timed` around the
    single request whose latency counts, so input generation and result
    checks stay out of the samples.
    """

    #: The user this client's connection is logged in as (trace routing).
    user: str | None = None

    def __init__(self) -> None:
        self.control: Control | None = None
        self.tracer: Tracer | None = None
        self.phase = ""
        #: phase name -> op class -> latency samples in seconds
        self.samples: dict[str, dict[str, list[float]]] = {}
        self.error: BaseException | None = None

    def timed(self, op_class: str, call: Callable[[], Any]) -> Any:
        tracer = self.tracer
        start = time.perf_counter()
        if tracer is None:
            result = call()
        else:
            with tracer.root(op_class, self.user):
                result = call()
        elapsed = time.perf_counter() - start
        phase = self.samples.setdefault(self.phase, {})
        phase.setdefault(op_class, []).append(elapsed)
        return result

    def step(self) -> None:  # pragma: no cover — abstract
        raise NotImplementedError

    def run(self) -> None:
        assert self.control is not None
        try:
            while self.control.gate():
                self.step()
        except BaseException as exc:  # noqa: BLE001 — reported by the driver
            self.error = exc
            self.control.stop()


def run_phases(
    clients: list[Client],
    phases: Sequence[tuple[str, float, bool]],
    tracer: Tracer | None = None,
    between: Callable[[], None] | None = None,
) -> dict[str, float]:
    """Run ``(name, seconds, traced)`` phases; returns each phase's seconds.

    Samples land in each client under the phase's name; phases sharing a
    name accumulate. ``between`` runs after every phase but the last, with
    every client parked and no tracer installed; its time counts in no
    phase. Raises the first client error after every thread has stopped.
    """
    control = Control(len(clients))
    for client in clients:
        client.control = control
    threads = [
        threading.Thread(target=client.run, name=f"bench-client-{i}")
        for i, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    elapsed: dict[str, float] = {}
    try:
        control.pause()
        for index, (name, seconds, traced) in enumerate(phases):
            if index and between is not None:
                between()
            # Every phase starts from the same collector state, not with a
            # full collection of garbage the set-up left behind.
            gc.collect()
            if traced:
                assert tracer is not None
                tracer.install()
            for client in clients:
                client.phase = name
                client.tracer = tracer if traced else None
            start = time.perf_counter()
            control.resume()
            deadline = start + seconds
            while time.perf_counter() < deadline:
                if any(c.error is not None for c in clients):
                    break
                time.sleep(min(0.05, max(0.0, deadline - time.perf_counter())))
            control.pause()
            elapsed[name] = elapsed.get(name, 0.0) + (
                time.perf_counter() - start
            )
            if traced:
                tracer.uninstall()
            if any(c.error is not None for c in clients):
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        for client in clients:
            client.tracer = None
        control.stop()
        for thread in threads:
            thread.join()
    for client in clients:
        if client.error is not None:
            raise client.error
    return elapsed
