"""Run the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 perfbench/trajectory.py --workload annotate-lookup \\
        --seeds 1-10 --seconds 30 [--append]

Prints, per end-to-end metric, the median of the runs and the distance
between the first and third quartile as a share of the median (the spread
the bounds in BENCHMARK.json are checked against). ``--append`` adds one
JSON line with the summary and the runs' metadata to
``perfbench/trajectory.jsonl``, the committed record later changes compare
against without rerunning history.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TRAJECTORY = os.path.join(HERE, "trajectory.jsonl")

#: Metadata that must agree across the runs of one summary line.
SHARED_META = (
    "git_sha", "source_sha256", "nproc", "python", "wal_sync",
    "checkpoint_every", "preload", "codecs", "seconds",
)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", seconds,
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = out.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"seed {seed}: no output\n{out.stderr}")
    result = json.loads(lines[-1])
    meta = json.loads(lines[0][len("meta "):]) if lines[0].startswith(
        "meta ") else {}
    return {"exit": out.returncode, "result": result, "meta": meta}


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--append", action="store_true")
    args = parser.parse_args(argv)
    runs = []
    for seed in parse_seeds(args.seeds):
        started = time.time()
        run = run_once(args.workload, seed, args.seconds)
        res = run["result"]
        print(f"seed {seed}: exit {run['exit']} correct {res['correct']} "
              f"failed {res['failed']}/{res['attempted']} "
              f"({time.time() - started:.0f}s)", flush=True)
        runs.append((seed, run))
    metrics: dict[str, list[float]] = {}
    for _, run in runs:
        for name, cell in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(cell["value"])
    summary = {name: summarize(values) for name, values in metrics.items()}
    for name, cell in sorted(summary.items()):
        print(f"{name:<24} median {cell['median']:>12.5g}  "
              f"spread {cell['spread']:.3f}")
    ok = all(run["exit"] == 0 for _, run in runs)
    if args.append:
        first = runs[0][1]["meta"]
        line = {
            "workload": args.workload,
            "seeds": [seed for seed, _ in runs],
            "all_correct": ok,
            "recorded_unix": time.time(),
            **{key: first.get(key) for key in SHARED_META},
            "samples": {
                key: [run["meta"].get(key) for _, run in runs]
                for key in ("read_samples", "write_samples")
            },
            "metrics": summary,
        }
        with open(TRAJECTORY, "a", encoding="utf-8") as out:
            out.write(json.dumps(line, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
