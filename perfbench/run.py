"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload annotate-lookup --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` installs the span wrappers for half of the timed run and
reports the per-layer metrics, a per-op waterfall and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 only
when every correctness check and the background-failure check pass.
Outputs (spans, the full result with its run metadata) go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: A run that has not finished this long after its timed phase would have
#: ended is stopped with a failure exit: set-ups, recovery and checks take
#: well under a minute at the full sizes.
DEADLINE_MARGIN_S = 120.0


def source_digest() -> str:
    """sha256 over the program's source files (the checkout has no git)."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> tuple[dict, list[str], int]:
    """Run one workload; returns (result, report lines, exit code)."""
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"unknown workload {args.workload!r}; "
            f"pick one of {sorted(workloads.WORKLOADS)}"
        )
    scale = workloads.SCALES["full"][args.workload]
    work = os.path.join(
        OUT, f"{args.workload}-s{args.seed}-t{args.trace}"
    )
    workloads.reset_dir(work)
    started = time.time()
    outcome = workloads.WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), scale, work
    )
    correct = not outcome.problems
    if not correct and not outcome.failed:
        outcome.failed = 1
    attempted = max(1, outcome.attempted)
    chosen = outcome.layers if args.trace else outcome.metrics
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in sorted(chosen.items())
    }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "wal_sync": workloads.WAL_SYNC,
        "started_unix": started,
        "error_ratio": outcome.failed / attempted,
        **outcome.meta,
    }
    full = {
        "correct": correct, "attempted": attempted, "failed": outcome.failed,
        "metrics": metrics, "meta": meta, "problems": outcome.problems,
        "end_to_end": dict(outcome.metrics),
    }
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as out:
        json.dump(full, out, indent=1, sort_keys=True, default=str)
    for name in ("data", "data-spare"):
        shutil.rmtree(os.path.join(work, name), ignore_errors=True)
    lines = [f"meta {json.dumps(meta, sort_keys=True, default=str)}"]
    lines += [f"problem: {p}" for p in outcome.problems]
    lines += outcome.waterfall
    lines += [
        f"{name:<32} {value:>14.6g} {unit}"
        for name, (value, unit) in sorted(chosen.items())
    ]
    result = {
        "correct": correct, "attempted": attempted, "failed": outcome.failed,
        "metrics": metrics,
    }
    return result, lines, 0 if correct else 1


def _watchdog(deadline: float) -> None:
    time.sleep(deadline)
    print(f"run exceeded {deadline:.0f}s; stopping", file=sys.stderr)
    sys.stderr.flush()
    os._exit(3)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"no program to benchmark: {SRC}/repro is missing",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [HERE, SRC]
    deadline = args.seconds + DEADLINE_MARGIN_S
    threading.Thread(target=_watchdog, args=(deadline,),
                     name="bench-watchdog", daemon=True).start()
    result, lines, code = run(args)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
