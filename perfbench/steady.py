"""Steadiness check for the benchmark, and the per-block baseline table.

    python3 perfbench/steady.py --seeds 1-10                 # every workload, ten seeds
    python3 perfbench/steady.py --workloads bound_grid --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --parent ../parent-checkout
    python3 perfbench/steady.py --baseline                   # per-block table at 20 dB

For each workload it runs ``run.py`` once per seed (untraced), then prints
the median and quartiles of every end-to-end metric with its spread
(q3 - q1) / median next to a third of the metric's bound from
BENCHMARK.json, the same figures for the raw (uncalibrated) times, the
failed share, the exact counts and the result-CSV
hashes of every seed.  ``--parent DIR`` also runs the benchmark of the
checkout DIR on every seed, alternating with this checkout's run so both
see the same machine load, and compares the two sets the way a regression
gate would: worse by more than the bound fails, and counts, hashes and
failed shares must be identical for every seed.  Calibration divides out
most of the machine's drift, and interleaving cancels what is left.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "raw": {"wall_s": statistics.median(record["round_s"][1:]),
                "setup_s": statistics.median(record["setup_s"])},
        "counts": record["counts"],
        "hashes": record["hashes"],
        "run_s": took,
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(workload: str, runs: dict[int, dict]) -> bool:
    steady = True
    print(f"\n== {workload}: {len(runs)} runs, "
          f"{statistics.median(r['run_s'] for r in runs.values()):.1f} s each (median)")
    print(f"{'metric':<14s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound/3':>8s}")
    for m in SPEC["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs.values()]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med
        limit = m["bound"] / 3
        flag = "" if spread <= limit else "  TOO WIDE"
        steady &= not flag
        print(f"{m['name']:<14s} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} {limit:>8.2%}{flag}")
    for name in ("wall_s", "setup_s"):  # as measured, before calibration
        q1, med, q3 = quartiles([r["raw"][name] for r in runs.values()])
        print(f"{'raw ' + name:<14s} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {(q3 - q1) / med:>8.2%}")
    shares = {r["failed"] / r["attempted"] for r in runs.values()}
    print(f"failed share per run: {sorted(shares)}")
    for seed, r in runs.items():
        print(f"  seed {seed}: attempted {r['attempted']} failed {r['failed']} "
              f"counts {r['counts']} hashes {r['hashes']}")
    return steady


def compare(old: dict, new: dict) -> bool:
    ok = True
    for workload, runs in new.items():
        before = old.get(workload)
        if not before:
            continue
        for m in SPEC["end_to_end"]:
            a = statistics.median(r["metrics"][m["name"]] for r in before.values())
            b = statistics.median(r["metrics"][m["name"]] for r in runs.values())
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            flag = "" if worse <= m["bound"] else "  REGRESSION"
            ok &= not flag
            print(f"{workload:<15s} {m['name']:<12s} {a:>12.6g} -> {b:>12.6g} "
                  f"worse by {worse:+.2%} (bound {m['bound']:.0%}){flag}")
        for seed, r in runs.items():
            prev = before[seed]
            for key in ("counts", "hashes"):
                if prev[key] != r[key]:
                    ok = False
                    print(f"{workload} seed {seed}: {key} differ: {prev[key]} vs {r[key]}")
            if prev["failed"] * r["attempted"] != r["failed"] * prev["attempted"]:
                ok = False
                print(f"{workload} seed {seed}: failed share differs")
    return ok


def baseline() -> None:
    """Per-block time of one 16384-trial block at 20 dB, best of 3, workers=1."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from qssm import montecarlo

    block = montecarlo.TRIALS_PER_BLOCK
    configs = {
        "QSSM ideal L=4 4QAM": dict(scheme="qssm", L=4, M=4),
        "QSSM ideal L=8 16QAM": dict(scheme="qssm", L=8, M=16),
        "SSM ideal L=4 4QAM": dict(scheme="ssm", L=4, M=4),
        "QSSM physical L=4 N=32 dft_grid": dict(scheme="qssm", L=4, M=4, channel_mode="physical"),
        "QSSM physical L=4 N=32 min_sep": dict(
            scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="min_sep"),
    }
    print(f"{'config':<34s} {'block ms':>9s} {'Mtrials/s':>10s}")
    for name, kw in configs.items():
        config = montecarlo.SimConfig(kind="qam", trials=block, seed=0, **kw)
        montecarlo.run_point(config, 20.0)
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            montecarlo.run_point(config, 20.0)
            best = min(best, time.perf_counter() - start)
        print(f"{name:<34s} {1e3 * best:>9.1f} {block / best / 1e6:>10.3f}")


def main() -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--parent", type=Path, default=None)
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    if args.baseline:
        baseline()
        return 0

    seeds = parse_seeds(args.seeds)
    parent = args.parent.resolve() if args.parent else None
    results: dict[str, dict] = {}
    parents: dict[str, dict] = {}
    steady = True
    for workload in args.workloads.split(","):
        runs, parent_runs = {}, {}
        for seed in seeds:
            # alternate which checkout goes first, so neither always runs after the other
            order = [(ROOT, runs), (parent, parent_runs)][:: 1 if seed % 2 else -1]
            for root, into in order:
                if root is not None:
                    into[seed] = run_once(root, workload, seed, args.seconds)
        results[workload] = runs
        steady &= summarize(workload, runs)
        if parent:
            parents[workload] = parent_runs
            steady &= summarize(f"{workload} (parent)", parent_runs)
    if parent:
        print("\n== parent", parent, "-> this checkout")
        steady &= compare(parents, results)
    print("\nsteady" if steady else "\nNOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
