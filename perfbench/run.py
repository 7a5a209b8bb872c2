"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload ideal_sweep --seed 1 --seconds 22 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  The run

1. times fresh interpreters that import the package, build the workload's
   inputs and warm up: ``PROBES_BEFORE`` of them before the rounds and
   ``PROBES_AFTER`` after, so set-up is sampled across the whole run
   (``setup_s`` is their median);
2. repeats whole rounds of the workload for about ``--seconds`` seconds
   (``wall_s`` is the median round; with ``--trace 1`` untraced and traced
   rounds alternate, and per-layer figures come from the traced ones);
3. checks every round's outputs (see ``workloads.py``) and prints
   ``{"correct", "attempted", "failed", "metrics"}`` as the last line.

The fixed kernel in ``calibration.py`` runs between rounds, and each round
is reported in seconds at the reference machine's speed measured by the
kernel calls on either side of it, so the shared machine's drift cancels
out.  The raw times and the kernel calls go to the run record.

A run record (and, when traced, the spans) is written under ``perfbench/out``.
"""

from __future__ import annotations

import os

# Thread budget of the whole run: the machine has two cores.  BLAS and OpenMP
# stay single-threaded in this process, in the set-up probes and in the
# process pool of physical_sweep, whose two workers are the only parallelism.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("ideal_sweep", "physical_sweep", "bound_grid", "api_per_symbol")
PROBES_BEFORE = 3
PROBES_AFTER = 2
MIN_ROUNDS = 3
PROBE_TIMEOUT_S = 120


def require_sources() -> None:
    if not (SRC / "qssm" / "__init__.py").is_file():
        raise SystemExit(f"error: no qssm sources under {SRC}; run from a source checkout")


def import_package() -> float:
    """Import qssm from this checkout's sources; returns the import time."""
    require_sources()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import qssm
    import qssm.cli  # noqa: F401  (the CLI is part of the package's import cost)

    elapsed = time.perf_counter() - start
    if Path(qssm.__file__).resolve().parent != (SRC / "qssm").resolve():
        raise SystemExit(f"error: qssm imported from {qssm.__file__}, not from {SRC}")
    return elapsed


def make_workload(name: str, seed: int):
    import workloads

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    return workloads.WORKLOADS[name](seed, OUT_DIR)


def probe(args) -> int:
    """Set-up only: import, build inputs, warm up, report when ready."""
    import_s = import_package()
    make_workload(args.workload, args.seed).warm_up()
    print("READY " + json.dumps({"ready_at": time.time(), "import_s": import_s}), flush=True)
    return 0


def measure_setup(workload: str, seed: int, probes: int) -> tuple[list[float], list[float]]:
    """Process start to ready, and import time, of ``probes`` fresh interpreters."""
    setup, imports = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--probe"]
    for _ in range(probes):
        start = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        record = json.loads(lines[-1][len("READY "):])
        setup.append(record["ready_at"] - start)
        imports.append(record["import_s"])
    return setup, imports


class Rounds:
    """Repeats whole rounds, checks each, and keeps per-round times."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.work = None
        self.kernel_s: list[float] = []  # calibration kernel calls, in order
        self.scaled: list[float] = []  # untraced round times in reference seconds
        self.traced_scaled: list[float] = []

    def _one(self, tracer):
        wl = self.workload
        start = time.perf_counter()
        spans = None
        try:
            if tracer is None:
                output = wl.run_round()
            else:
                output, spans = tracer.run_round(wl.run_round)
        except Exception as exc:  # a raising round fails all of its operations
            elapsed = time.perf_counter() - start
            wl.fail(f"round raised {type(exc).__name__}: {exc}")
            self.attempted += wl.ops_per_round
            self.failed += wl.ops_per_round
            return elapsed, spans
        elapsed = time.perf_counter() - start
        self.attempted += wl.ops_per_round
        try:
            self.failed += wl.check_round(output)
        except Exception as exc:  # a check that cannot complete fails the round
            wl.fail(f"checking the round raised {type(exc).__name__}: {exc}")
            self.failed += wl.ops_per_round
        if self.work is None:
            self.work = wl.work_units(output)
        return elapsed, spans

    def run(self, seconds: float, trace=None):
        """Rounds until the next cycle would end past ``seconds``.

        Without ``trace`` a cycle is one round.  With ``trace = (tracer,
        install)`` a cycle is an untraced round followed by a traced one, so
        both kinds see the same machine load.  Calibration kernel calls
        follow every round, and each round is also kept in reference seconds
        (``self.scaled``, ``self.traced_scaled``).  Returns the raw untraced
        round times, the raw traced round times and the spans of each
        traced round.
        """
        untraced, traced, spans = [], [], []
        begin = time.perf_counter()
        cycle = 0.0
        before = self._calibrate(0.0)
        while len(untraced) < MIN_ROUNDS or (time.perf_counter() - begin) + cycle <= seconds:
            lap = time.perf_counter()
            elapsed, _ = self._one(None)
            untraced.append(elapsed)
            after = self._calibrate(elapsed)
            self.scaled.append(elapsed * calibration.factor(before + after))
            before = after
            if trace is not None:
                tracer, install = trace
                install(tracer)
                try:
                    elapsed, round_spans = self._one(tracer)
                finally:
                    tracer.unwrap_all()
                traced.append(elapsed)
                spans.append(round_spans)
                after = self._calibrate(elapsed)
                self.traced_scaled.append(elapsed * calibration.factor(before + after))
                before = after
            cycle = time.perf_counter() - lap
        return untraced, traced, spans

    def _calibrate(self, after_s: float) -> list[float]:
        calls = calibration.sample(after_s)
        self.kernel_s += calls
        return calls


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
    }


def layer_metrics(spans_per_round, untraced, traced, import_s, counts) -> dict:
    from tracing import EXACT_METRICS, round_layer_metrics

    per_round = [round_layer_metrics(s) for s in spans_per_round]
    metrics = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        metrics[name] = values[0] if name in EXACT_METRICS else statistics.median(values)
    metrics["cli.bytes_written"] = counts.get("cli.bytes_written", 0)
    metrics["setup.import_s"] = statistics.median(import_s)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced[1:])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    require_sources()
    if args.probe:
        return probe(args)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    setup_s, import_s = measure_setup(args.workload, args.seed, PROBES_BEFORE)
    import_package()
    wl = make_workload(args.workload, args.seed)
    wl.warm_up()
    rounds = Rounds(wl)

    trace = None
    if args.trace:
        import qssm
        from tracing import Tracer, install

        trace = (Tracer(), lambda t: install(t, qssm, qssm.montecarlo.TRIALS_PER_BLOCK))
    times, traced, spans = rounds.run(args.seconds, trace)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    more_setup, more_import = measure_setup(args.workload, args.seed, PROBES_AFTER)
    setup_s += more_setup
    import_s += more_import

    try:
        extra_attempted, extra_failed = wl.final_checks()
    except Exception as exc:  # a check that cannot complete fails its operations
        wl.fail(f"final checks raised {type(exc).__name__}: {exc}")
        extra_attempted = extra_failed = wl.final_ops
    attempted = rounds.attempted + extra_attempted
    failed = rounds.failed + extra_failed
    counts = wl.counts()
    # the first round fills allocator pools and caches; it is checked, not timed
    wall_s = statistics.median(rounds.scaled[1:])
    # set-up probes run outside the rounds: they take the whole run's factor
    setup_scale = calibration.factor(rounds.kernel_s)

    if args.trace:
        values = layer_metrics(spans, rounds.scaled, rounds.traced_scaled, import_s, counts)
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_scale * statistics.median(setup_s),
            "work_per_s": rounds.work / wall_s,
            "peak_rss_mb": peak_rss_mb,
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": wl.unit,
        "work_per_round": rounds.work,
        "nominal_kernel_s": calibration.NOMINAL_S,
        "kernel_s": rounds.kernel_s,
        "setup_scale": setup_scale,
        "round_s": times,
        "scaled_round_s": rounds.scaled,
        "traced_round_s": traced,
        "setup_s": setup_s,
        "import_s": import_s,
        "counts": counts,
        "hashes": wl.hashes(),
        "problems": wl.problems[:50],
        "versions": versions(),
        "result": result,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    if args.trace:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w") as handle:
            for round_spans in spans:
                for sid, parent, name, start, end, meta in round_spans:
                    handle.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                             "start": start, "end": end, "meta": meta}) + "\n")
    for problem in wl.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
