"""In-memory span tracing around the public functions of ``qssm``.

The tracer rebinds module attributes at run time, so the program itself
carries no tracing code: a call that goes through ``qssm.montecarlo.run_point``
(or any other wrapped name) records one span.  Spans are tuples
``(id, parent, name, start, end, meta)`` kept in a list until the run
ends; ``meta`` holds counts that the wrapper derives from the call's
arguments and result after the span's clock has stopped.
"""

from __future__ import annotations

import functools
import statistics
from math import ceil
from time import perf_counter

ROUND = "bench.round"


class Tracer:
    """Span recorder with a parent stack; one instance per traced phase."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple] = []

    def _open(self) -> tuple[int, int | None]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def wrap(self, module, attr: str, name: str, annotate=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span per call."""
        original = getattr(module, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid, parent = tracer._open()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end, {"raised": 1}))
                raise
            end = perf_counter()
            tracer._stack.pop()
            meta = annotate(args, kwargs, result) if annotate else None
            tracer.spans.append((sid, parent, name, start, end, meta))
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def unwrap_all(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def run_round(self, fn):
        """Call ``fn`` under a root span; return its result and the round's spans."""
        first = len(self.spans)
        sid, parent = self._open()
        start = perf_counter()
        try:
            result = fn()
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, ROUND, start, end, None))
        return result, self.spans[first:]


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its direct children."""
    own = {s[0]: s[4] - s[3] for s in spans}
    for sid, parent, _name, start, end, _meta in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def _by_name(spans, *names):
    return [s for s in spans if s[2] in names]


def _mean_us(spans, name: str) -> float:
    durations = [s[4] - s[3] for s in _by_name(spans, name)]
    return 1e6 * statistics.fmean(durations) if durations else 0.0


def round_layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one traced round (see README for each one's meaning)."""
    own = self_times(spans)
    points = _by_name(spans, "montecarlo.run_point")
    point_time = sum(s[4] - s[3] for s in points)
    used = sum(s[5]["blocks_used"] for s in points if s[5])
    submitted = sum(s[5]["blocks_submitted"] for s in points if s[5])
    bounds = _by_name(spans, "analysis.abep_point", "analysis.abep_point_ssm")
    books = _by_name(spans, "modem.build_symbol_book")
    writes = _by_name(spans, "cli.write_curve")
    metrics = {
        "montecarlo.block_ms": 1e3 * point_time / used if used else 0.0,
        "montecarlo.point_s": point_time / len(points) if points else 0.0,
        "montecarlo.blocks_submitted": submitted,
        "montecarlo.blocks_used": used,
        "montecarlo.useful_block_ratio": used / submitted if submitted else 0.0,
        "montecarlo.trials": sum(s[5]["trials"] for s in points if s[5]),
        "montecarlo.bit_errors": sum(s[5]["bit_errors"] for s in points if s[5]),
        "analysis.bound_s": sum(own[s[0]] for s in bounds),
        "analysis.pairs": sum(s[5]["pairs"] for s in bounds if s[5]),
        "analysis.table_mb": max((s[5]["table_mb"] for s in bounds if s[5]), default=0.0),
        "modem.book_builds": len(books),
        "modem.book_s": sum(s[4] - s[3] for s in books),
        "channel.sample_us": _mean_us(spans, "channel.sample_channel"),
        "cli.write_s": sum(s[4] - s[3] for s in writes),
    }
    for kind in ("ideal", "physical", "ssm"):
        metrics[f"transceiver.observe_{kind}_us"] = _mean_us(
            spans, f"transceiver.observe_{kind}"
        )
        metrics[f"transceiver.detect_{kind}_us"] = _mean_us(
            spans, f"transceiver.detect_{kind}"
        )
    return metrics


#: Layer metrics computed from counts; they repeat exactly across rounds.
EXACT_METRICS = (
    "montecarlo.blocks_submitted",
    "montecarlo.blocks_used",
    "montecarlo.useful_block_ratio",
    "montecarlo.trials",
    "montecarlo.bit_errors",
    "analysis.pairs",
    "analysis.table_mb",
    "modem.book_builds",
)


def install(tracer: Tracer, qssm, trials_per_block: int) -> None:
    """Wrap every layer boundary the per-layer metrics are read from."""
    def point_meta(args, kwargs, estimate):
        config = args[0]
        workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
        used = ceil(estimate.trials / trials_per_block)
        # a pool is handed every block up front; the serial loop stops early
        submitted = ceil(config.trials / trials_per_block) if workers > 1 else used
        return {
            "trials": estimate.trials,
            "bit_errors": estimate.bit_errors,
            "blocks_used": used,
            "blocks_submitted": submitted,
        }

    def table_meta(size: int) -> dict:
        # each AbepPoint evaluates two union bounds over an S x S pair table
        return {"pairs": 2 * size * size, "table_mb": 8.0 * size * size / 1e6}

    def qssm_bound_meta(args, kwargs, _result):
        return table_meta(len(args[0]))

    def ssm_bound_meta(args, kwargs, _result):
        return table_meta(args[0] * args[1].order)

    mc, an, cli = qssm.montecarlo, qssm.analysis, qssm.cli
    tracer.wrap(mc, "run_point", "montecarlo.run_point", point_meta)
    tracer.wrap(mc, "sweep", "montecarlo.sweep")
    tracer.wrap(mc, "build_symbol_book", "modem.build_symbol_book")
    tracer.wrap(an, "abep_point", "analysis.abep_point", qssm_bound_meta)
    tracer.wrap(an, "abep_point_ssm", "analysis.abep_point_ssm", ssm_bound_meta)
    tracer.wrap(cli, "run_experiment", "cli.run_experiment")
    tracer.wrap(cli, "write_curve", "cli.write_curve")
    tracer.wrap(qssm.channel, "sample_channel", "channel.sample_channel")
    tr = qssm.transceiver
    for attr, name in (
        ("qssm_observe_ideal", "transceiver.observe_ideal"),
        ("qssm_observe_physical", "transceiver.observe_physical"),
        ("ssm_observe_ideal", "transceiver.observe_ssm"),
        ("ml_detect_ideal", "transceiver.detect_ideal"),
        ("ml_detect_physical", "transceiver.detect_physical"),
        ("ssm_detect_ideal", "transceiver.detect_ssm"),
    ):
        tracer.wrap(tr, attr, name)
