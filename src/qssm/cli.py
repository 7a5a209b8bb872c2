"""Command-line front end: experiment configs, sweeps, reports, validation.

Subcommands: ``run`` (JSON experiment file), ``sweep`` (single config from
flags), ``table`` (symbol-book dump), ``validate`` (analysis self-checks
and the convention arbiter), ``compare`` (gain report between two result
CSVs).  Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 I/O error, 5 internal error (a fault in the program, not in its input).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, montecarlo
from .analysis import NumericalError, PepConvention
from .channel import SamplingError
from .modem import _label_table, build_constellation, spectral_efficiency
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
    try:
        return [float(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _snr_grid_from_spec(entry, path: str) -> tuple[float, ...]:
    if isinstance(entry, dict):
        missing = {"start", "stop", "step"} - set(entry)
        if missing:
            raise ConfigError(f"{path}: missing {sorted(missing)}")
        start, stop, step = _floats((entry["start"], entry["stop"], entry["step"]), path)
        if step <= 0:
            raise ConfigError(f"{path}.step: must be > 0")
        grid = np.arange(start, stop + step * 1e-9, step)
        return tuple(float(s) for s in grid)
    if isinstance(entry, list) and entry:
        return tuple(_floats(entry, path))
    raise ConfigError(f"{path}: expected a non-empty list or a start/stop/step object")


def _default_name(config: SimConfig) -> str:
    return f"{config.scheme}_L{config.L}_{config.M}{config.kind}"


def _config_from_dict(raw: dict, path: str) -> tuple[str, SimConfig]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("scheme", "L", "M"):
        if key not in raw:
            raise ConfigError(f"{path}.{key}: required")
    kwargs = {k: raw[k] for k in raw if k not in ("name", "snr", "snr_db")}
    if "snr_db" in raw and "snr" in raw:
        raise ConfigError(f"{path}: give either 'snr_db' or 'snr', not both")
    if "snr_db" in raw:
        kwargs["snr_db"] = _snr_grid_from_spec(raw["snr_db"], f"{path}.snr_db")
    elif "snr" in raw:
        kwargs["snr_db"] = _snr_grid_from_spec(raw["snr"], f"{path}.snr")
    try:
        config = SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    name = raw.get("name") or _default_name(config)
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}.name: must be a non-empty string")
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
    configs = []
    names = set()
    for i, entry in enumerate(entries):
        name, config = _config_from_dict(entry, f"configs[{i}]")
        if name in names:
            raise ConfigError(f"configs[{i}].name: duplicate name {name!r}")
        names.add(name)
        configs.append((name, config))
    by_name = dict(configs)

    comparisons = []
    for i, pair in enumerate(raw.get("comparisons", [])):
        path = f"comparisons[{i}]"
        if not isinstance(pair, dict) or set(pair) != {"a", "b"}:
            raise ConfigError(f"{path}: expected an object with keys 'a' and 'b'")
        for side in ("a", "b"):
            if pair[side] not in by_name:
                raise ConfigError(f"{path}.{side}: unknown config name {pair[side]!r}")
        a, b = pair["a"], pair["b"]
        _check_equal_rate(f"{path}: ", (a, by_name[a]), (b, by_name[b]))
        comparisons.append((a, b))

    levels = raw.get("levels", [1e-3, 1e-4])
    if not isinstance(levels, list) or not all(
        isinstance(v, (int, float)) and v > 0 for v in levels
    ):
        raise ConfigError("levels: expected a list of positive numbers")
    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir: expected a string")
    return ExperimentSpec(
        configs=tuple(configs),
        output_dir=output_dir,
        comparisons=tuple(comparisons),
        levels=tuple(float(v) for v in levels),
    )


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, content: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
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
    drawn from stream version 1.
    """
    manifest_path = csv_path.with_name(csv_path.name.removesuffix(".csv") + ".manifest.json")
    if not manifest_path.exists():
        raise ConfigError(f"manifest not found next to {csv_path} ({manifest_path.name})")
    try:
        record = json.loads(manifest_path.read_text())
        config = SimConfig(**record["config"])
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


def _crossing(curve: AbepCurve, level: float, label: str) -> float:
    """Where the simulated curve crosses ``level``; a level it never reaches is
    a configuration error of the comparison."""
    try:
        return montecarlo.crossing_snr_db(curve.snr_db, curve.values("sim"), level)
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from exc


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
    """Per-level SNR gains of curve a over curve b, with CI-derived ranges."""
    lines = [
        f"gain of {label_a} over {label_b} (positive = {label_a} needs less SNR)",
        f"{'abep level':>12s} {'snr_a':>9s} {'snr_b':>9s} {'gain_db':>9s} {'gain_range_db':>18s}",
    ]
    for level in levels:
        cross_a = _crossing(curve_a, level, label_a)
        cross_b = _crossing(curve_b, level, label_b)
        gain = cross_b - cross_a
        a_lo = _try_crossing(curve_a, level, "ci_low")
        a_hi = _try_crossing(curve_a, level, "ci_high")
        b_lo = _try_crossing(curve_b, level, "ci_low")
        b_hi = _try_crossing(curve_b, level, "ci_high")
        if None not in (a_lo, a_hi, b_lo, b_hi):
            spread = f"[{b_lo - a_hi:+.2f}, {b_hi - a_lo:+.2f}]"
        else:
            spread = "[n/a]"
        lines.append(
            f"{level:>12.3e} {cross_a:>9.3f} {cross_b:>9.3f} {gain:>+9.3f} {spread:>18s}"
        )
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

_VALIDATION_GRID = tuple(10.0**e for e in range(-3, 5))


def validate_analysis(trials: int = 1_000_000, seed: int = 0, workers: int = 1) -> str:
    """Closed-form vs quadrature errors, asymptotic-ratio table, arbiter verdict."""
    lines = ["closed-form vs quadrature (relative error)"]
    lines.append(f"{'rho*etabar':>12s} {'paper_eq21':>12s} {'exact_model':>12s}")
    worst = 0.0
    for product in _VALIDATION_GRID:
        errs = []
        for convention in PepConvention:
            closed = analysis.pep_closed_form(product, 1.0, convention)
            quadrature = analysis.pep_quadrature(product, 1.0, convention)
            errs.append(abs(quadrature - closed) / closed)
        worst = max(worst, *errs)
        lines.append(f"{product:>12.1e} {errs[0]:>12.2e} {errs[1]:>12.2e}")
    lines.append(f"max relative error: {worst:.3e}")

    lines.append("")
    lines.append("asymptotic / closed-form (paper_eq21) ratio (13/12 = 1.0833333)")
    lines.append(f"{'rho*etabar':>12s} {'ratio':>12s}")
    for product in (1e2, 1e3, 1e4, 1e5, 1e6):
        ratio = analysis.pep_asymptotic(product, 1.0) / analysis.pep_closed_form(
            product, 1.0, PepConvention.PAPER_EQ21
        )
        lines.append(f"{product:>12.1e} {ratio:>12.7f}")

    lines.append("")
    lines.append(f"convention arbiter (QSSM L=4 4QAM ideal, {trials} trials/point, seed {seed})")
    report = montecarlo.arbitrate_convention(trials=trials, seed=seed, workers=workers)
    lines.append(
        f"{'snr_db':>8s} {'simulated':>12s} {'paper_eq21':>12s} {'exact_model':>12s}"
    )
    for p in report.points:
        lines.append(
            f"{p.snr_db:>8.1f} {p.simulated:>12.4e} {p.bound_paper:>12.4e} "
            f"{p.bound_exact:>12.4e}"
        )
    lines.append(
        f"bound above simulation at every point: paper_eq21={report.above_paper} "
        f"exact_model={report.above_exact}"
    )
    lines.append(
        f"bound within factor 2 at the two highest SNRs: paper_eq21={report.tracks_paper} "
        f"exact_model={report.tracks_exact}"
    )
    verdict = report.verdict.value if report.verdict else "inconclusive"
    lines.append(f"verdict: {verdict} (package default: {analysis.DEFAULT_CONVENTION.value})")
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

def _parse_snr_arg(text: str) -> tuple[float, ...]:
    if ":" not in text:
        return _snr_grid_from_spec(text.split(","), "--snr")
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--snr: expected start:stop:step, got {text!r}")
    return _snr_grid_from_spec(dict(zip(("start", "stop", "step"), parts)), "--snr")


_WORKERS_HELP = (
    "worker processes for Monte Carlo blocks (results do not depend on it); "
    "each worker's BLAS may start its own threads, so with more than one worker "
    "set OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1) to keep them from "
    "oversubscribing the cores"
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
    p_run.add_argument("--seed", type=int, default=None, help="override every config seed")
    p_run.add_argument("--trials", type=int, default=None, help="override every trial count")
    p_run.add_argument(
        "--convention",
        choices=[c.value for c in PepConvention],
        default=None,
        help="override the analysis convention",
    )
    p_run.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p_sweep = sub.add_parser("sweep", help="sweep a single config given by flags")
    p_sweep.add_argument("--scheme", choices=["qssm", "ssm"], default="qssm")
    p_sweep.add_argument("--L", type=int, required=True)
    p_sweep.add_argument("--M", type=int, required=True)
    p_sweep.add_argument("--kind", choices=["psk", "qam"], default="qam")
    p_sweep.add_argument("--snr", default="0:40:2", help="start:stop:step or comma list (dB)")
    p_sweep.add_argument("--trials", type=int, default=1_000_000)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--channel-mode", choices=["ideal", "physical"], default="ideal")
    p_sweep.add_argument("--angle-mode", choices=["dft_grid", "min_sep"], default="dft_grid")
    p_sweep.add_argument(
        "--convention",
        choices=[c.value for c in PepConvention],
        default=analysis.DEFAULT_CONVENTION.value,
    )
    p_sweep.add_argument("--name", default=None)
    p_sweep.add_argument("--out-dir", default=None)
    p_sweep.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)

    p_table = sub.add_parser("table", help="dump the symbol book as CSV")
    p_table.add_argument("--L", type=int, default=4)
    p_table.add_argument("--M", type=int, default=4)
    p_table.add_argument("--kind", choices=["psk", "qam"], default="qam")
    p_table.add_argument("--out", type=Path, default=None)

    p_validate = sub.add_parser("validate", help="analysis self-checks and arbiter")
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
    given = {"seed": args.seed, "trials": args.trials, "convention": args.convention}
    overrides = {key: value for key, value in given.items() if value is not None}
    if overrides:  # SimConfig turns a convention name into its PepConvention
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
    written = run_experiment(spec, workers=args.workers, out_dir=args.out_dir)
    for name in sorted(written):
        print(written[name])
    return 0


def _cmd_sweep(args) -> int:
    config = _from_input(
        SimConfig,
        scheme=args.scheme,
        L=args.L,
        M=args.M,
        kind=args.kind,
        channel_mode=args.channel_mode,
        angle_mode=args.angle_mode,
        snr_db=_parse_snr_arg(args.snr),
        trials=args.trials,
        seed=args.seed,
        convention=PepConvention(args.convention),
    )
    name = args.name or _default_name(config)
    spec = ExperimentSpec(configs=((name, config),), output_dir=None, comparisons=(), levels=())
    return _run_and_list(spec, args)


def _cmd_table(args) -> int:
    _emit(_from_input(symbol_table_csv, args.L, args.M, args.kind), args.out)
    return 0


def _cmd_validate(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials: must be >= 1, got {args.trials}")
    _emit(
        validate_analysis(trials=args.trials, seed=args.seed, workers=args.workers),
        args.out,
    )
    return 0


def _cmd_compare(args) -> int:
    curve_a = load_curve(args.csv_a)
    curve_b = load_curve(args.csv_b)
    _check_equal_rate("", (args.csv_a.name, curve_a.config), (args.csv_b.name, curve_b.config))
    levels = _floats(args.levels.split(","), "--levels")
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
