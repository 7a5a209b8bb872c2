"""Command-line front end: experiment configs, sweeps, reports, validation.

Subcommands: ``run`` (JSON experiment file), ``sweep`` (one config from
flags, built as a file's config is), ``table`` (symbol-book dump),
``validate`` (analysis self-checks and the union bound checked against a
simulated curve), ``compare`` (gain report between two result CSVs).  Exit
codes: 0 success, 1 ``validate`` verdict fail, 2 configuration error, 3
numerical error, 4 I/O error, 5 internal error (a fault in the program, not
in its input).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, montecarlo
from .analysis import NumericalError
from .channel import SamplingError
from .modem import _label_table, build_constellation, build_symbol_book, spectral_efficiency
from .montecarlo import AbepCurve, BerEstimate, CurvePoint, SimConfig

OUTPUT_DIR_ENV = "QSSM_OUT_DIR"

CSV_HEADER = "snr_db,abep_sim,ci_low,ci_high,abep_analytic,abep_asymptotic,trials,bit_errors"

#: Keys of one experiment-file config: the SimConfig fields, its name, and
#: "snr" as another spelling of "snr_db"
_CONFIG_KEYS = {f.name for f in dataclasses.fields(SimConfig)} | {"name", "snr"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _from_input(build, *args, **kwargs):
    """``build(*args, **kwargs)`` on values the user gave: a ValueError it raises,
    SimConfig validation among them, is a configuration error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentSpec:
    """Named simulation configs plus comparison and report options."""

    configs: tuple[tuple[str, SimConfig], ...]
    output_dir: str | None
    comparisons: tuple[tuple[str, str], ...]
    levels: tuple[float, ...]


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _floats(values, path: str) -> list[float]:
    """Command-line text values as floats."""
    try:
        return [float(v) for v in values]
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _numbers(values, path: str) -> list[float]:
    """Experiment-file values as floats: JSON numbers only, not bools or strings."""
    for v in values:
        if isinstance(v, bool):
            raise ConfigError(f"{path}: expected numbers, not bools")
        if not isinstance(v, (int, float)):
            raise ConfigError(f"{path}: expected numbers, got {v!r}")
    try:
        return [float(v) for v in values]
    except OverflowError as exc:  # an integer beyond the float range
        raise ConfigError(f"{path}: {exc}") from exc


#: Most points a start/stop/step SNR grid may span; counted before it is built
_SNR_GRID_POINTS = 4096


def _snr_grid_from_spec(entry, path: str) -> tuple[float, ...]:
    """SNR grid of a list of numbers or a start/stop/step object of numbers."""
    if isinstance(entry, dict):
        missing = {"start", "stop", "step"} - set(entry)
        if missing:
            raise ConfigError(f"{path}: missing {sorted(missing)}")
        start, stop, step = _numbers((entry["start"], entry["stop"], entry["step"]), path)
        if step <= 0:
            raise ConfigError(f"{path}.step: must be > 0")
        stop += step * 1e-9
        if not (stop - start) / step <= _SNR_GRID_POINTS:  # NaN and inf fail too
            raise ConfigError(f"{path}: spans more than {_SNR_GRID_POINTS} points")
        grid = np.arange(start, stop, step)
        return tuple(float(s) for s in grid)
    if isinstance(entry, list) and entry:
        return tuple(_numbers(entry, path))
    raise ConfigError(f"{path}: expected a non-empty list or a start/stop/step object")


#: Longest config name (bytes), so compare_<a>_vs_<b>.txt.tmp<hex> fits in 255
_MAX_NAME_BYTES = 100


def _check_name(name, where: str) -> None:
    """A config name is the stem of its result files: it must name a file inside
    the output directory, and be printable, as ``run`` lists paths one per line."""
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where}: must be a non-empty string")
    if not name.isprintable() or Path(name).name != name:  # NUL, newline, lone surrogate
        raise ConfigError(f"{where}: must be a file name, printable, with no directory part")
    if len(os.fsencode(name)) > _MAX_NAME_BYTES:
        raise ConfigError(f"{where}: must encode to at most {_MAX_NAME_BYTES} bytes")


def _config_from_dict(raw: dict, path: str, label=None) -> tuple[str, SimConfig]:
    """(name, config) of an experiment-file config or the ``sweep`` flags; a key
    left out takes SimConfig's default.  Messages name a key ``label(key)``."""
    label = label or (lambda key: f"{path}.{key}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("scheme", "L", "M"):
        if key not in raw:
            raise ConfigError(f"{label(key)}: required")
    kwargs = {k: raw[k] for k in raw if k not in ("name", "snr", "snr_db")}
    if "snr_db" in raw and "snr" in raw:
        raise ConfigError(f"{path}: give either 'snr_db' or 'snr', not both")
    for key in ("snr_db", "snr"):
        if key in raw:
            kwargs["snr_db"] = _snr_grid_from_spec(raw[key], label(key))
    try:
        config = SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    name = raw.get("name", f"{config.scheme}_L{config.L}_{config.M}{config.kind}")
    _check_name(name, label("name"))
    return name, config


def _check_equal_rate(where: str, a: tuple[str, SimConfig], b: tuple[str, SimConfig]) -> None:
    """Raise unless the (name, config) pairs a and b send equal bits per channel use."""
    (name_a, config_a), (name_b, config_b) = a, b
    rate_a, rate_b = config_a.spectral_efficiency(), config_b.spectral_efficiency()
    if rate_a != rate_b:
        raise ConfigError(
            f"{where}spectral efficiencies differ "
            f"({name_a}: {rate_a} b/s/Hz, {name_b}: {rate_b} b/s/Hz)"
        )


def _check_levels(levels, where: str) -> tuple[float, ...]:
    """Levels of a file or ``compare --levels``: numbers in (0, 1), not bools."""
    if not isinstance(levels, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and 0 < v < 1 for v in levels
    ):
        raise ConfigError(f"{where}: expected a list of numbers in (0, 1)")
    return tuple(float(v) for v in levels)


def parse_config(text: str) -> ExperimentSpec:
    """Parse and validate a JSON experiment document."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected an object")
    unknown = set(raw) - {"configs", "output_dir", "comparisons", "levels"}
    if unknown:
        raise ConfigError(f"top level: unknown keys {sorted(unknown)}")
    entries = raw.get("configs")
    if not isinstance(entries, list) or not entries:
        raise ConfigError("configs: expected a non-empty list")
    by_name = {}
    for i, entry in enumerate(entries):
        name, config = _config_from_dict(entry, f"configs[{i}]")
        if name in by_name:
            raise ConfigError(f"configs[{i}].name: duplicate name {name!r}")
        by_name[name] = config

    pairs = raw.get("comparisons", [])
    if not isinstance(pairs, list):
        raise ConfigError("comparisons: expected a list")
    comparisons = []
    for i, pair in enumerate(pairs):
        path = f"comparisons[{i}]"
        if not isinstance(pair, dict) or set(pair) != {"a", "b"}:
            raise ConfigError(f"{path}: expected an object with keys 'a' and 'b'")
        for side in ("a", "b"):
            if not isinstance(pair[side], str) or pair[side] not in by_name:
                raise ConfigError(f"{path}.{side}: unknown config name {pair[side]!r}")
        a, b = pair["a"], pair["b"]
        _check_equal_rate(f"{path}: ", (a, by_name[a]), (b, by_name[b]))
        comparisons.append((a, b))

    levels = _check_levels(raw.get("levels", [1e-3, 1e-4]), "levels")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    return ExperimentSpec(
        configs=tuple(by_name.items()),
        output_dir=output_dir,
        comparisons=tuple(comparisons),
        levels=levels,
    )


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, content: str) -> None:
    """Write ``path`` through a sibling temp file renamed over it.  The temp
    file is created with mode 0o666 less the umask, as a plain open would,
    where mkstemp would give 0o600."""
    tmp = path.with_name(f"{path.name}.tmp{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def curve_csv(curve: AbepCurve) -> str:
    lines = [CSV_HEADER]
    for p in curve.points:
        e = p.estimate
        lines.append(
            ",".join(
                [
                    _fmt(e.snr_db),
                    _fmt(e.abep),
                    _fmt(e.ci_low),
                    _fmt(e.ci_high),
                    _fmt(p.abep_analytic),
                    _fmt(p.abep_asymptotic),
                    str(e.trials),
                    str(e.bit_errors),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def manifest_json(name: str, curve: AbepCurve) -> str:
    record = {
        "name": name,
        "csv": f"{name}.csv",
        "config": curve.config.to_dict(),
        "config_hash": curve.config_hash,
        "seed": curve.config.seed,
        "stream_version": curve.stream_version,
        "version": __version__,
    }
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def write_curve(curve: AbepCurve, name: str, out_dir: Path) -> dict[str, Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{name}.csv"
    manifest_path = out_dir / f"{name}.manifest.json"
    _write_atomic(csv_path, curve_csv(curve))
    _write_atomic(manifest_path, manifest_json(name, curve))
    return {"csv": csv_path, "manifest": manifest_path}


def load_curve(csv_path: Path) -> AbepCurve:
    """Rebuild a curve from a result CSV and its sibling manifest.

    A manifest without ``stream_version`` predates the key: its curve was
    drawn from stream version 1.  A config with ``redraw`` predates the
    removal of the per-block channel mode: a ``"per_trial"`` one loads
    without it and its ``redraw_block``, a ``"per_block"`` one is refused.
    A config with ``convention`` predates the removal of that field: an
    ``"exact_model"`` one loads without it, a ``"paper_eq21"`` one is
    refused, as its ``abep_analytic`` column is not the package's bound.
    """
    manifest_path = csv_path.with_name(csv_path.name.removesuffix(".csv") + ".manifest.json")
    if not manifest_path.exists():
        raise ConfigError(f"manifest not found next to {csv_path} ({manifest_path.name})")
    try:
        record = json.loads(manifest_path.read_text())
        raw = dict(record["config"])
        if raw.pop("redraw", "per_trial") != "per_trial":
            raise ConfigError("the per-block channel redraw mode was removed")
        raw.pop("redraw_block", None)
        convention = raw.pop("convention", "exact_model")
        if convention != "exact_model":
            raise ConfigError(
                f"convention {convention!r}: its abep_analytic column is not the "
                "package's exact_model bound, and the loaded curve would present it as one"
            )
        config = SimConfig(**raw)
        config_hash = record["config_hash"]
        stream_version = int(record.get("stream_version", 1))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{manifest_path}: {exc}") from exc
    lines = csv_path.read_text().strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{csv_path}: unexpected CSV header")
    try:
        points = tuple(_curve_point(line.split(","), config) for line in lines[1:])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{csv_path}: {exc}") from exc
    return AbepCurve(
        config=config, config_hash=config_hash, points=points, stream_version=stream_version
    )


def _curve_point(cols: list[str], config: SimConfig) -> CurvePoint:
    estimate = BerEstimate(
        snr_db=float(cols[0]),
        trials=int(cols[6]),
        bit_errors=int(cols[7]),
        bits_per_trial=config.bits_per_trial,
        abep=float(cols[1]),
        ci_low=float(cols[2]),
        ci_high=float(cols[3]),
    )
    return CurvePoint(
        estimate=estimate, abep_analytic=float(cols[4]), abep_asymptotic=float(cols[5])
    )


def _try_crossing(curve: AbepCurve, level: float, which: str) -> float | None:
    try:
        return montecarlo.crossing_snr_db(curve.snr_db, curve.values(which), level)
    except ValueError:
        return None


def compare_report(
    curve_a: AbepCurve,
    curve_b: AbepCurve,
    levels,
    label_a: str = "a",
    label_b: str = "b",
) -> str:
    """Per-level SNR gains of curve a over curve b, with CI-derived ranges.

    A level that a curve's simulated column never crosses within its SNR
    grid reads ``n/a`` in that curve's snr column and in the gain, as an
    interval column that never crosses reads ``[n/a]`` in the range.
    """
    lines = [
        f"gain of {label_a} over {label_b} (positive = {label_a} needs less SNR)",
        f"{'abep level':>12s} {'snr_a':>9s} {'snr_b':>9s} {'gain_db':>9s} {'gain_range_db':>18s}",
    ]
    for level in levels:
        cross_a = _try_crossing(curve_a, level, "sim")
        cross_b = _try_crossing(curve_b, level, "sim")
        a_lo = _try_crossing(curve_a, level, "ci_low")
        a_hi = _try_crossing(curve_a, level, "ci_high")
        b_lo = _try_crossing(curve_b, level, "ci_low")
        b_hi = _try_crossing(curve_b, level, "ci_high")
        if None not in (a_lo, a_hi, b_lo, b_hi):
            spread = f"[{b_lo - a_hi:+.2f}, {b_hi - a_lo:+.2f}]"
        else:
            spread = "[n/a]"
        snr_a = "n/a" if cross_a is None else f"{cross_a:.3f}"
        snr_b = "n/a" if cross_b is None else f"{cross_b:.3f}"
        gain = "n/a" if None in (cross_a, cross_b) else f"{cross_b - cross_a:+.3f}"
        lines.append(f"{level:>12.3e} {snr_a:>9s} {snr_b:>9s} {gain:>9s} {spread:>18s}")
    return "\n".join(lines) + "\n"


def run_experiment(
    spec: ExperimentSpec, workers: int = 1, out_dir: str | None = None
) -> dict[str, Path]:
    """Sweep every config, write CSVs/manifests, then comparison reports."""
    target = Path(
        out_dir
        or spec.output_dir
        or os.environ.get(OUTPUT_DIR_ENV)
        or "results"
    )
    written: dict[str, Path] = {}
    curves: dict[str, AbepCurve] = {}
    for name, config in spec.configs:
        curve = montecarlo.sweep(config, workers=workers)
        curves[name] = curve
        paths = write_curve(curve, name, target)
        written[f"{name}.csv"] = paths["csv"]
        written[f"{name}.manifest.json"] = paths["manifest"]
    for name_a, name_b in spec.comparisons:
        report = compare_report(
            curves[name_a], curves[name_b], spec.levels, name_a, name_b
        )
        path = target / f"compare_{name_a}_vs_{name_b}.txt"
        _write_atomic(path, report)
        written[path.name] = path
    return written


# ---------------------------------------------------------------------------
# validation report
# ---------------------------------------------------------------------------

#: rho*eta_bar products of the quadrature check: each decade and its double,
#: the products behind the paper's eq. 21 (the closed form at 2*rho)
_VALIDATION_GRID = tuple(f * 10.0**e for e in range(-3, 5) for f in (1.0, 2.0))

#: Largest relative error of the closed form against quadrature that passes
_QUADRATURE_TOLERANCE = 1e-8


def validate_analysis(trials: int = 1_000_000, seed: int = 0, workers: int = 1) -> str:
    """Closed-form vs quadrature errors, and the union bound and the bound at
    2 rho checked against one simulated curve.  The verdict passes when the
    closed form is within 1e-8 of quadrature and only the union bound lies
    above and tracks the simulation."""
    book = build_symbol_book(4, build_constellation("qam", 4))
    # the points of the default grid where the union bound is at most 1e-2
    grid = tuple(
        snr_db
        for snr_db in montecarlo.DEFAULT_SNR_GRID_DB
        if analysis.abep_union_bound(book, analysis.snr_db_to_rho(snr_db))
        <= montecarlo._JUDGED_BOUND
    )
    config = _from_input(SimConfig, "qssm", 4, 4, snr_db=grid, trials=trials, seed=seed)

    lines = ["closed-form vs quadrature (relative error)"]
    lines.append(f"{'rho*etabar':>12s} {'rel_error':>12s}")
    worst = 0.0
    for product in _VALIDATION_GRID:
        closed = analysis.pep_closed_form(product, 1.0)
        err = abs(analysis.pep_quadrature(product, 1.0) - closed) / closed
        worst = max(worst, err)
        lines.append(f"{product:>12.1e} {err:>12.2e}")
    lines.append(f"max relative error: {worst:.3e}")

    lines.append("")
    lines.append(f"bound check (QSSM L=4 4QAM ideal, {trials} trials/point, seed {seed})")
    curve = montecarlo.sweep(config, workers=workers)
    at_2rho = [analysis.abep_union_bound(book, 2.0 * analysis.snr_db_to_rho(s)) for s in grid]
    exact = montecarlo.check_bound(curve)
    paper = montecarlo.check_bound(curve, at_2rho)
    lines.append(
        f"{'snr_db':>8s} {'simulated':>12s} {'paper_eq21':>12s} {'exact_model':>12s}"
    )
    for p, bound_paper in zip(curve.points, at_2rho):
        lines.append(
            f"{p.estimate.snr_db:>8.1f} {p.estimate.abep:>12.4e} {bound_paper:>12.4e} "
            f"{p.abep_analytic:>12.4e}"
        )
    lines.append(
        f"bound above simulation at every point: paper_eq21={paper.above} "
        f"exact_model={exact.above}"
    )
    lines.append(
        f"bound within factor 2 at the two highest SNRs: paper_eq21={paper.tracks} "
        f"exact_model={exact.tracks}"
    )
    passed = (
        worst < _QUADRATURE_TOLERANCE
        and exact.above
        and exact.tracks
        and not (paper.above and paper.tracks)
    )
    lines.append(f"verdict: {'pass' if passed else 'fail'}")
    return "\n".join(lines) + "\n"


#: Most rows ``qssm table`` dumps: L = 64 at M = 64, above every QSSM book
#: SimConfig accepts
_TABLE_ROWS = 1 << 18


def symbol_table_csv(L: int, M: int, kind: str) -> str:
    """Symbol book as CSV: label, scatterer indices, signal components."""
    if L * L * M > _TABLE_ROWS:
        raise ValueError(f"table: L^2 * M = {L * L * M} rows, over the {_TABLE_ROWS} it dumps")
    constellation = build_constellation(kind, M)
    width = spectral_efficiency(M, L)
    table = (array.tolist() for array in _label_table(L, constellation, 2))
    lines = ["label,k1,k2,x_re,x_im"]
    lines += [
        f"{label:0{width}b},{k1 + 1},{k2 + 1},{_fmt(u)},{_fmt(v)}"
        for label, (k1, k2, u, v) in enumerate(zip(*table))
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _parse_snr_arg(text: str) -> list[float] | dict[str, float]:
    """``--snr`` text as the list or start/stop/step object of an experiment file."""
    if ":" not in text:
        return _floats(text.split(","), "--snr")
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--snr: expected start:stop:step, got {text!r}")
    return dict(zip(("start", "stop", "step"), _floats(parts, "--snr")))


_WORKERS_HELP = (
    "worker processes for Monte Carlo blocks: 1 (the default) runs them in this "
    "process, and a value above the CPUs this process may use starts only that "
    "many, each with one BLAS thread; results do not depend on it, and one pool "
    "serves every config of the run"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qssm",
        description="Link-level QSSM/SSM simulation and error-rate analysis.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON experiment file")
    p_run.add_argument("config", type=Path)
    p_run.add_argument("--out-dir", default=None)
    given = {"type": int, "default": argparse.SUPPRESS}  # absent unless given
    p_run.add_argument("--seed", **given, help="override every config seed")
    p_run.add_argument("--trials", **given, help="override every trial count")
    p_run.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    # a config flag left out takes SimConfig's default, as an omitted file key does
    p_sweep = sub.add_parser(
        "sweep", help="sweep a single config given by flags", argument_default=argparse.SUPPRESS
    )
    p_sweep.add_argument("--scheme", default="qssm")
    p_sweep.add_argument("--L", type=int, required=True)
    p_sweep.add_argument("--M", type=int, required=True)
    p_sweep.add_argument("--kind")
    p_sweep.add_argument("--snr", help="start:stop:step or comma list (dB)")
    p_sweep.add_argument("--trials", type=int)
    p_sweep.add_argument("--seed", type=int)
    p_sweep.add_argument("--channel-mode")
    p_sweep.add_argument("--angle-mode")
    p_sweep.add_argument("--name")
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p_table = sub.add_parser("table", help="dump the symbol book as CSV")
    p_table.add_argument("--L", type=int, default=4)
    p_table.add_argument("--M", type=int, default=4)
    p_table.add_argument("--kind", choices=["psk", "qam"], default="qam")
    p_table.add_argument("--out", type=Path, default=None)

    p_validate = sub.add_parser(
        "validate", help="analysis self-checks and the union bound against a simulated curve"
    )
    p_validate.add_argument("--trials", type=int, default=1_000_000)
    p_validate.add_argument("--seed", type=int, default=0)
    p_validate.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p_validate.add_argument("--out", type=Path, default=None)

    p_compare = sub.add_parser("compare", help="gain report between two result CSVs")
    p_compare.add_argument("csv_a", type=Path)
    p_compare.add_argument("csv_b", type=Path)
    p_compare.add_argument("--levels", default="1e-3,1e-4")
    p_compare.add_argument("--out", type=Path, default=None)

    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(out, text)


def _cmd_run(args) -> int:
    spec = parse_config(args.config.read_text())
    overrides = {key: value for key, value in vars(args).items() if key in ("seed", "trials")}
    if overrides:
        spec = dataclasses.replace(
            spec,
            configs=tuple(
                (name, _from_input(dataclasses.replace, cfg, **overrides))
                for name, cfg in spec.configs
            ),
        )
    return _run_and_list(spec, args)


def _run_and_list(spec: ExperimentSpec, args) -> int:
    """run_experiment on ``spec``, then print every written path in name order."""
    _from_input(montecarlo._check_workers, args.workers)
    written = run_experiment(spec, workers=args.workers, out_dir=args.out_dir)
    for name in sorted(written):
        print(written[name])
    return 0


def _cmd_sweep(args) -> int:
    raw = {key: value for key, value in vars(args).items() if key in _CONFIG_KEYS}
    if "snr" in raw:
        raw["snr"] = _parse_snr_arg(raw["snr"])
    named = _config_from_dict(raw, "sweep", lambda key: "--" + key.replace("_", "-"))
    spec = ExperimentSpec(configs=(named,), output_dir=None, comparisons=(), levels=())
    return _run_and_list(spec, args)


def _cmd_table(args) -> int:
    _emit(_from_input(symbol_table_csv, args.L, args.M, args.kind), args.out)
    return 0


def _cmd_validate(args) -> int:
    _from_input(montecarlo._check_workers, args.workers)
    report = validate_analysis(trials=args.trials, seed=args.seed, workers=args.workers)
    _emit(report, args.out)
    return 0 if report.splitlines()[-1] == "verdict: pass" else 1


def _cmd_compare(args) -> int:
    levels = _check_levels(_floats(args.levels.split(","), "--levels"), "--levels")
    curve_a = load_curve(args.csv_a)
    curve_b = load_curve(args.csv_b)
    _check_equal_rate("", (args.csv_a.name, curve_a.config), (args.csv_b.name, curve_b.config))
    report = compare_report(
        curve_a, curve_b, levels, args.csv_a.stem, args.csv_b.stem
    )
    _emit(report, args.out)
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "table": _cmd_table,
    "validate": _cmd_validate,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, SamplingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a fault in the program, not in its input
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
