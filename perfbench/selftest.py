"""Self-test of the benchmark: tiny runs pass, planted faults are caught.

Runs every workload at tiny scale and requires a clean pass, then plants a
wrong answer (or a silent background failure) into the program for one
run at a time and requires the correctness gate to fail that run. Run from
the root of a checkout::

    python3 perfbench/selftest.py

Exits 0 when every expectation holds.
"""

from __future__ import annotations

import contextlib
import os
import sys
from typing import Any, Callable, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402

SECONDS = 1.5


@contextlib.contextmanager
def patched(owner: Any, attr: str, make: Callable[[Any], Any]) -> Iterator:
    original = owner.__dict__[attr]
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def drop_a_row(original: Callable) -> Callable:
    """The engine loses one row of every non-empty answer."""

    def wrong(*args: Any, **kwargs: Any) -> set:
        answer = set(original(*args, **kwargs))
        if answer:
            answer.remove(min(answer, key=repr))
        return answer

    return wrong


def drop_an_audit_event(original: Callable) -> Callable:
    def wrong(self: Any, *args: Any, **kwargs: Any) -> list:
        return original(self, *args, **kwargs)[1:]

    return wrong


def failing_checkpoint(original: Callable) -> Callable:
    def fail(self: Any, db: Any) -> int:
        raise OSError("disk full (planted)")

    return fail


def run(name: str, trace: bool = False) -> workloads.Outcome:
    scale = workloads.SCALES["tiny"][name]
    work = workloads.reset_dir(
        os.path.join(ROOT, ".bench_out", "selftest", name)
    )
    return workloads.WORKLOADS[name](7, SECONDS, trace, scale, work)


def main() -> int:
    from repro.bdms import bdms
    from repro.durability.manager import DurabilityManager
    from repro.lifecycle.registry import LifecycleRegistry

    failures: list[str] = []

    def expect(label: str, outcome: workloads.Outcome, clean: bool) -> None:
        ok = not outcome.problems and not outcome.failed
        print(f"{label}: {'clean' if ok else 'caught'} "
              f"({len(outcome.problems)} problems, {outcome.failed} failed)")
        for problem in outcome.problems[:3]:
            print(f"    {problem}")
        if ok != clean:
            failures.append(label)

    for name in workloads.WORKLOADS:
        expect(f"{name} tiny", run(name), clean=True)
        traced = run(name, trace=True)
        expect(f"{name} tiny traced", traced, clean=True)
        if not traced.layers or not traced.waterfall:
            failures.append(f"{name} traced run reported no layers")
    plants = [
        ("annotate-lookup", "wrong lookup answers",
         (bdms, "evaluate_translated", drop_a_row)),
        ("belief-analytics", "wrong Table 2 answers",
         (bdms, "evaluate_translated", drop_a_row)),
        ("curation-durable", "a lost audit event",
         (LifecycleRegistry, "audit_events", drop_an_audit_event)),
        ("annotate-lookup", "silent checkpoint failures",
         (DurabilityManager, "checkpoint", failing_checkpoint)),
    ]
    for name, what, (owner, attr, make) in plants:
        with patched(owner, attr, make):
            expect(f"{name} with {what}", run(name), clean=False)
    if failures:
        print(f"self-test FAILED: {failures}")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
