"""Config parsing, artifact emission, and the command-line surface."""

import json
import multiprocessing
import os
import signal
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from qssm.analysis import abep_point
from qssm.cli import (
    CSV_HEADER,
    ConfigError,
    compare_report,
    curve_csv,
    load_curve,
    main,
    parse_config,
    run_experiment,
    symbol_table_csv,
    validate_analysis,
)
from qssm import cli, montecarlo
from qssm.modem import build_constellation, build_symbol_book
from qssm.montecarlo import SimConfig, sweep

MINIMAL = {
    "configs": [
        {"scheme": "qssm", "L": 4, "M": 4, "snr": {"start": 0, "stop": 24, "step": 2}}
    ]
}


def test_parse_minimal_config_fills_defaults():
    spec = parse_config(json.dumps(MINIMAL))
    name, config = spec.configs[0]
    assert name == "qssm_L4_4qam"
    assert config.n_t == 32 and config.n_r == 32
    assert config.spacing == 0.5
    assert config.angle_mode == "dft_grid"
    assert config.trials == 1_000_000
    assert "convention" not in config.to_dict()
    assert config.snr_db == tuple(float(s) for s in range(0, 25, 2))
    assert spec.levels == (1e-3, 1e-4)


def test_parse_rejects_bad_documents():
    with pytest.raises(ConfigError):
        parse_config("not json")
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"configs": []}))
    with pytest.raises(ConfigError):
        parse_config(json.dumps({"configs": [{"scheme": "qssm", "L": 4}]}))
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config(
            json.dumps({"configs": [{"scheme": "qssm", "L": 4, "M": 4, "trails": 5}]})
        )
    # comparisons are a list, and levels are finite numbers in (0, 1), not bools
    one = {"configs": [{"name": "a", "scheme": "qssm", "L": 4, "M": 4}]}
    for comparisons in (5, None, {"a": "a", "b": "a"}, [{"a": ["a"], "b": "a"}]):
        with pytest.raises(ConfigError, match="comparisons"):
            parse_config(json.dumps({**one, "comparisons": comparisons}))
    for levels in ([True, float("inf")], [True], [float("inf")], [float("nan")], [1.0],
                   [0.0], [-1e-3], ["1e-3"], 1e-3, None):
        with pytest.raises(ConfigError, match="levels"):
            parse_config(json.dumps({**one, "levels": levels}))
    assert parse_config(json.dumps({**one, "levels": [0.5, 1e-300]})).levels == (0.5, 1e-300)
    # a name is the stem of the result files: a non-empty string with no
    # directory part and no NUL
    entry = one["configs"][0]
    for name in ("/tmp/x", "../escaped", "a/b", "a/", ".", "a\0b"):
        with pytest.raises(ConfigError, match="name: must be a file name"):
            parse_config(json.dumps({"configs": [{**entry, "name": name}]}))
    for name in ("", False, 0, None, ["a"]):
        with pytest.raises(ConfigError, match="name: must be a non-empty string"):
            parse_config(json.dumps({"configs": [{**entry, "name": name}]}))
    # spacing is a finite real number in (0, 2^20] wavelengths; numbers are not bools
    physical = {**entry, "channel_mode": "physical"}
    for spacing in (float("inf"), float("nan"), 1e308, True, "0.5", 0.0, -0.5):
        with pytest.raises(ConfigError, match="spacing must be a real number"):
            parse_config(json.dumps({"configs": [{**physical, "spacing": spacing}]}))
    for snr in ([True], [0.0, True], {"start": True, "stop": 4, "step": 2}):
        with pytest.raises(ConfigError, match="not bools"):
            parse_config(json.dumps({"configs": [{**entry, "snr_db": snr}]}))
    # SNR points are JSON numbers, as levels are: strings and nulls are refused, in
    # both spellings and both grid forms (the --snr text of the command line parses)
    for key, snr in (("snr_db", ["10", " 20 "]), ("snr_db", [0, "4"]), ("snr", [None]),
                     ("snr", {"start": "0", "stop": 4, "step": 2}),
                     ("snr_db", {"start": 0, "stop": "4", "step": 2})):
        with pytest.raises(ConfigError, match=f"{key}: expected numbers, got"):
            parse_config(json.dumps({"configs": [{**entry, key: snr}]}))
    with pytest.raises(ConfigError, match="snr_db: int too large to convert to float"):
        parse_config(json.dumps({"configs": [{**entry, "snr_db": [10**400]}]}))
    spec = parse_config(json.dumps({"configs": [{**entry, "snr": [0, 2.5]}]}))
    assert spec.configs[0][1].snr_db == (0.0, 2.5)
    with pytest.raises(ConfigError, match="configs\\[1\\]"):
        parse_config(
            json.dumps(
                {
                    "configs": [
                        {"scheme": "qssm", "L": 4, "M": 4},
                        {"scheme": "qssm", "L": 4, "M": 5},
                    ]
                }
            )
        )
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(
            json.dumps(
                {
                    "configs": [
                        {"name": "x", "scheme": "qssm", "L": 4, "M": 4},
                        {"name": "x", "scheme": "qssm", "L": 2, "M": 4},
                    ]
                }
            )
        )


def test_parse_comparison_rate_check():
    accepted = {
        "configs": [
            {"name": "a", "scheme": "qssm", "L": 2, "M": 4},
            {"name": "b", "scheme": "ssm", "L": 4, "M": 4},
        ],
        "comparisons": [{"a": "a", "b": "b"}],
    }
    spec = parse_config(json.dumps(accepted))
    assert spec.comparisons == (("a", "b"),)

    mismatched = {
        "configs": [
            {"name": "a", "scheme": "qssm", "L": 4, "M": 4},
            {"name": "b", "scheme": "ssm", "L": 4, "M": 4},
        ],
        "comparisons": [{"a": "a", "b": "b"}],
    }
    with pytest.raises(ConfigError, match="6 b/s/Hz.*4 b/s/Hz"):
        parse_config(json.dumps(mismatched))


def test_symbol_table_matches_bit_mapping():
    text = symbol_table_csv(4, 4, "qam")
    lines = text.strip().splitlines()
    assert lines[0] == "label,k1,k2,x_re,x_im"
    assert len(lines) == 65
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert rows["000000"][1:3] == ["1", "1"]
    assert float(rows["000000"][3]) == pytest.approx(-1 / np.sqrt(2))
    assert rows["011011"][1:3] == ["2", "3"]
    assert float(rows["011011"][4]) == pytest.approx(+1 / np.sqrt(2))


@pytest.mark.parametrize(
    "L,M,kind", [(1, 2, "psk"), (2, 8, "qam"), (4, 16, "psk"), (8, 32, "qam"), (16, 64, "psk")]
)
def test_symbol_table_equals_object_rendering(L, M, kind):
    """The CSV formatted from the label table is the rendering of the book's
    QssmSymbol objects, byte for byte."""
    book = build_symbol_book(L, build_constellation(kind, M))
    expected = "label,k1,k2,x_re,x_im\n" + "".join(
        f"{s.label},{s.k1},{s.k2},{s.x_re:.17g},{s.x_im:.17g}\n" for s in book.symbols
    )
    assert symbol_table_csv(L, M, kind) == expected


def test_symbol_table_peak_memory():
    """The largest table (L = 64, M = 64, 17 MB of CSV) peaks below five times its
    text; rendering it from QssmSymbol objects peaked at eight times."""
    tracemalloc.start()
    try:
        text = symbol_table_csv(64, 64, "qam")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text.splitlines()) == 64 * 64 * 64 + 1
    assert peak < 5 * len(text)


def test_snr_grid_is_counted_before_it_is_built():
    """A start/stop/step grid spans at most 4096 points; the count includes the
    stop point's tolerance, as np.arange sees it.  (The grid stays below the
    3000 dB ceiling of SimConfig.)"""
    grid = {"start": -2000, "stop": 2095, "step": 1}
    assert parse_config(json.dumps({"configs": [
        {"scheme": "qssm", "L": 2, "M": 4, "snr_db": grid}
    ]})).configs[0][1].snr_db == tuple(float(s) for s in range(-2000, 2096))
    with pytest.raises(ConfigError, match="spans more than 4096 points"):
        parse_config(json.dumps({"configs": [
            {"scheme": "qssm", "L": 2, "M": 4, "snr_db": {**grid, "stop": 2096}}
        ]}))


def _tiny_spec_dict(trials=2000, seed=1):
    return {
        "configs": [
            {
                "name": "qssm_small",
                "scheme": "qssm",
                "L": 2,
                "M": 4,
                "snr_db": [0.0, 6.0, 12.0, 18.0, 24.0, 30.0],
                "trials": trials,
                "seed": seed,
            },
            {
                "name": "ssm_small",
                "scheme": "ssm",
                "L": 4,
                "M": 4,
                "snr_db": [0.0, 6.0, 12.0, 18.0, 24.0, 30.0],
                "trials": trials,
                "seed": seed,
            },
        ],
        "comparisons": [{"a": "qssm_small", "b": "ssm_small"}],
        "levels": [0.05],
    }


def test_run_experiment_artifacts(tmp_path):
    spec = parse_config(json.dumps(_tiny_spec_dict()))
    written = run_experiment(spec, out_dir=str(tmp_path / "out"))
    csv_path = written["qssm_small.csv"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 7
    manifest = json.loads(written["qssm_small.manifest.json"].read_text())
    assert manifest["config"]["L"] == 2
    assert manifest["config_hash"]
    assert manifest["seed"] == 1
    assert manifest["stream_version"] == montecarlo.STREAM_VERSION == 3
    report = written["compare_qssm_small_vs_ssm_small.txt"].read_text()
    assert "gain of qssm_small over ssm_small" in report

    # byte-identical rerun
    before = csv_path.read_bytes()
    run_experiment(spec, out_dir=str(tmp_path / "out"))
    assert csv_path.read_bytes() == before


@pytest.mark.skipif(montecarlo._pool_size(2) < 2, reason="workers=2 runs serially on one CPU")
def test_run_experiment_shares_one_pool_across_configs(tmp_path, monkeypatch):
    """Every config of one run, and a second run, use the same worker processes."""
    spec = parse_config(json.dumps(_tiny_spec_dict()))
    serial = run_experiment(spec, out_dir=str(tmp_path / "serial"))
    seen = []
    real_sweep = montecarlo.sweep

    def recording_sweep(*args, **kwargs):
        curve = real_sweep(*args, **kwargs)
        seen.append(sorted(p.pid for p in multiprocessing.active_children()))
        return curve

    monkeypatch.setattr(montecarlo, "sweep", recording_sweep)
    for run in ("pooled", "again"):
        written = run_experiment(spec, workers=2, out_dir=str(tmp_path / run))
        for name, path in written.items():
            if name.endswith(".csv"):
                assert path.read_bytes() == serial[name].read_bytes()
    assert len(seen) == 4 and len(seen[0]) == 2
    assert all(pids == seen[0] for pids in seen)


_TEST_PID = os.getpid()


def _kill_worker(*args):
    """Stands in for a block: the worker process running it dies."""
    assert os.getpid() != _TEST_PID, "a block meant for a pool ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


def test_two_curve_recipe_analytic_ordering(tmp_path):
    # more spatial bits -> higher bound at every SNR, visible in the CSV columns
    spec = parse_config(
        json.dumps(
            {
                "configs": [
                    {"name": "L4", "scheme": "qssm", "L": 4, "M": 4,
                     "snr": {"start": 0, "stop": 40, "step": 8}, "trials": 500, "seed": 1},
                    {"name": "L8", "scheme": "qssm", "L": 8, "M": 4,
                     "snr": {"start": 0, "stop": 40, "step": 8}, "trials": 500, "seed": 1},
                ]
            }
        )
    )
    written = run_experiment(spec, out_dir=str(tmp_path))
    bounds = {}
    for name in ("L4", "L8"):
        rows = written[f"{name}.csv"].read_text().splitlines()[1:]
        bounds[name] = [float(r.split(",")[4]) for r in rows]
    assert all(b8 > b4 for b4, b8 in zip(bounds["L4"], bounds["L8"]))


def test_csv_roundtrip_preserves_values(tmp_path):
    config = SimConfig(
        scheme="qssm", L=2, M=4, snr_db=(0.0, 8.0, 16.0), trials=1000, seed=3
    )
    curve = sweep(config)
    spec = parse_config(
        json.dumps(
            {
                "configs": [
                    {
                        "name": "c",
                        "scheme": "qssm",
                        "L": 2,
                        "M": 4,
                        "snr_db": [0.0, 8.0, 16.0],
                        "trials": 1000,
                        "seed": 3,
                    }
                ]
            }
        )
    )
    written = run_experiment(spec, out_dir=str(tmp_path))
    loaded = load_curve(written["c.csv"])
    assert loaded.config == config
    assert loaded.config_hash == curve.config_hash
    assert np.array_equal(loaded.values("sim"), curve.values("sim"))
    assert np.array_equal(loaded.values("analytic"), curve.values("analytic"))
    assert loaded.stream_version == montecarlo.STREAM_VERSION


def test_load_curve_reads_manifests_without_stream_version(tmp_path):
    # manifests written before the key existed were drawn from stream version 1;
    # the CSV layout and the config hash do not depend on the version
    config = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 8.0), trials=300, seed=3)
    curve = sweep(config)
    written = run_experiment(
        parse_config(json.dumps({"configs": [{"name": "c", **config.to_dict()}]})),
        out_dir=str(tmp_path),
    )
    manifest = json.loads(written["c.manifest.json"].read_text())
    assert manifest["config_hash"] == config.config_hash()
    del manifest["stream_version"]
    written["c.manifest.json"].write_text(json.dumps(manifest))
    loaded = load_curve(written["c.csv"])
    assert loaded.stream_version == 1
    assert loaded.config_hash == curve.config_hash
    assert curve_csv(loaded) == curve_csv(curve) == written["c.csv"].read_text()


#: The result of ``qssm sweep --L 2 --M 4 --snr 0,10,20 --trials 2000 --seed 3
#: --name old`` as written while SimConfig still had the per-block channel redraw
#: mode: its manifest config holds "redraw" and "redraw_block"
_REDRAW_ERA_CSV = """\
snr_db,abep_sim,ci_low,ci_high,abep_analytic,abep_asymptotic,trials,bit_errors
0,0.38174999999999998,0.37116344674955815,0.39245006187199161,1.6591330486115783,2.2170138888888893,2000,3054
10,0.17749999999999999,0.16928257245791825,0.18602699650994489,0.35607398980082472,0.22795138888888891,2000,1420
20,0.026624999999999999,0.023318063072628632,0.030386331377486829,0.041297910721654001,0.022795138888888893,2000,213
"""
_REDRAW_ERA_MANIFEST = """\
{
  "config": {
    "L": 2,
    "M": 4,
    "angle_mode": "dft_grid",
    "channel_mode": "ideal",
    "convention": "exact_model",
    "kind": "qam",
    "n_r": 32,
    "n_t": 32,
    "redraw": "per_trial",
    "redraw_block": 128,
    "scheme": "qssm",
    "seed": 3,
    "snr_db": [
      0.0,
      10.0,
      20.0
    ],
    "spacing": 0.5,
    "trials": 2000
  },
  "config_hash": "24fefddfdfd40be33fa1fde2a3c4a91e2f685b596f159fdc4a6414c6d1f9e8de",
  "csv": "old.csv",
  "name": "old",
  "seed": 3,
  "stream_version": 2,
  "version": "0.1.0"
}
"""


def _write_redraw_era_result(tmp_path, redraw: str):
    (tmp_path / "old.csv").write_text(_REDRAW_ERA_CSV)
    manifest = _REDRAW_ERA_MANIFEST.replace('"per_trial"', json.dumps(redraw))
    (tmp_path / "old.manifest.json").write_text(manifest)
    return str(tmp_path / "old.csv")


def test_load_curve_reads_per_trial_manifests_with_redraw_keys(tmp_path, capsys):
    # the keys are dropped; the curve keeps its recorded hash, and the config
    # without them redraws the CSV byte for byte
    csv = _write_redraw_era_result(tmp_path, "per_trial")
    loaded = load_curve(tmp_path / "old.csv")
    config = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0, 20.0), trials=2000, seed=3)
    assert loaded.config == config
    recorded = json.loads(_REDRAW_ERA_MANIFEST)["config_hash"]
    assert loaded.config_hash == recorded != config.config_hash()
    assert curve_csv(loaded) == curve_csv(sweep(config)) == _REDRAW_ERA_CSV
    assert main(["compare", csv, csv, "--levels", "0.05"]) == 0
    assert "+0.000" in capsys.readouterr().out


def test_load_curve_refuses_per_block_manifests(tmp_path, capsys):
    csv = _write_redraw_era_result(tmp_path, "per_block")
    with pytest.raises(ConfigError, match="per-block channel redraw mode was removed"):
        load_curve(tmp_path / "old.csv")
    assert main(["compare", csv, csv, "--levels", "0.05"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "redraw mode was removed" in err, err


def test_load_curve_refuses_paper_eq21_manifests(tmp_path, capsys):
    # the curve's abep_analytic column would hold the paper_eq21 bound, which
    # values("analytic") would present as the package's
    csv = _write_redraw_era_result(tmp_path, "per_trial")
    manifest = tmp_path / "old.manifest.json"
    manifest.write_text(manifest.read_text().replace('"exact_model"', '"paper_eq21"'))
    with pytest.raises(ConfigError, match="not the package's exact_model bound"):
        load_curve(tmp_path / "old.csv")
    assert main(["compare", csv, csv, "--levels", "0.05"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 1 and "'paper_eq21'" in err, err


def test_csv_serialises_17_significant_digits():
    config = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0,), trials=3, seed=0)
    curve = sweep(config)
    text = curve_csv(curve)
    value = text.splitlines()[1].split(",")[1]
    assert float(value) == curve.points[0].estimate.abep


def test_compare_report_structure():
    config = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0, 20.0, 30.0), trials=4000, seed=2)
    curve = sweep(config)
    report = compare_report(curve, curve, [0.05], "left", "right")
    assert "left" in report and "right" in report
    line = report.strip().splitlines()[-1]
    assert "+0.000" in line
    # a level neither curve reaches reads n/a in its snr, gain and range columns
    unreached = compare_report(curve, curve, [0.05, 1e-12]).splitlines()
    assert unreached[2] == line
    assert unreached[3] == f"{1e-12:>12.3e} {'n/a':>9s} {'n/a':>9s} {'n/a':>9s} {'[n/a]':>18s}"


def test_run_reports_an_unreached_level(tmp_path, capsys):
    """A comparison level a curve never reaches reads n/a in the report; the run
    writes every file and exits 0."""
    experiment = tmp_path / "levels.json"
    experiment.write_text(json.dumps({
        "configs": [
            {"name": "a", "scheme": "qssm", "L": 2, "M": 4, "snr_db": [0, 10], "trials": 20000},
            {"name": "b", "scheme": "ssm", "L": 4, "M": 4, "snr_db": [0, 10], "trials": 20000},
        ],
        "comparisons": [{"a": "a", "b": "b"}],
        "levels": [1e-9],
    }))
    out = tmp_path / "out"
    assert main(["run", str(experiment), "--out-dir", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert sorted(f.name for f in out.iterdir()) == [
        "a.csv", "a.manifest.json", "b.csv", "b.manifest.json", "compare_a_vs_b.txt"
    ]
    row = (out / "compare_a_vs_b.txt").read_text().splitlines()[2]
    assert row.split() == ["1.000e-09", "n/a", "n/a", "n/a", "[n/a]"]


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("QSSM_OUT_DIR", str(tmp_path / "from_env"))
    spec = parse_config(
        json.dumps(
            {"configs": [{"scheme": "qssm", "L": 2, "M": 4, "snr_db": [0.0], "trials": 100}]}
        )
    )
    written = run_experiment(spec)
    assert (tmp_path / "from_env").exists()
    assert all(p.parent == tmp_path / "from_env" for p in written.values())


def test_main_table_and_validate(tmp_path, capsys):
    assert main(["table", "--L", "2", "--M", "4", "--kind", "qam"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,k1,k2,x_re,x_im")
    assert len(out.strip().splitlines()) == 17

    # the verdict sets the exit code: at 20000 trials seed 1 reads fail, at
    # 400000 (see test_validate_verdict_stable_across_seeds) pass
    report_path = tmp_path / "validation.txt"
    assert main(["validate", "--trials", "20000", "--seed", "1", "--out", str(report_path)]) == 1
    report = report_path.read_text()
    # one quadrature column over each decade and its double, and no ratio table
    lines = report.splitlines()
    assert lines[1].split() == ["rho*etabar", "rel_error"]
    products = [float(line.split()[0]) for line in lines[2:18]]
    assert products == pytest.approx([f * 10.0**e for e in range(-3, 5) for f in (1, 2)])
    assert all(len(line.split()) == 2 for line in lines[2:18])
    assert lines[18].startswith("max relative error: ")
    assert "ratio" not in report and "13/12" not in report
    assert lines[-1] == "verdict: fail"
    assert main(["validate", "--trials", "400000", "--seed", "1", "--out", str(report_path)]) == 0
    assert report_path.read_text().splitlines()[-1] == "verdict: pass"


def test_validate_verdict_covers_the_quadrature_table(tmp_path, monkeypatch):
    # a closed form 0.1% off the quadrature oracle fails the verdict, even where
    # the bound checks pass (400000 trials on seed 1)
    quadrature = cli.analysis.pep_quadrature
    monkeypatch.setattr(
        cli.analysis, "pep_quadrature", lambda rho, eta_bar: 1.001 * quadrature(rho, eta_bar)
    )
    report_path = tmp_path / "validation.txt"
    assert main(["validate", "--trials", "400000", "--seed", "1", "--out", str(report_path)]) == 1
    report = report_path.read_text().splitlines()
    assert report[-1] == "verdict: fail"
    assert report[-2].endswith("exact_model=True")  # the bound still tracks


def test_validate_verdict_covers_the_doubled_products(tmp_path, monkeypatch):
    # the quadrature column holds each decade's double, where the paper's eq. 21
    # evaluates the closed form: an oracle 0.1% off at rho*eta_bar = 2e4 alone
    # fails the verdict
    quadrature = cli.analysis.pep_quadrature
    monkeypatch.setattr(
        cli.analysis, "pep_quadrature",
        lambda rho, eta_bar: quadrature(rho, eta_bar) * (1.001 if rho * eta_bar == 2e4 else 1.0),
    )
    report_path = tmp_path / "validation.txt"
    assert main(["validate", "--trials", "400000", "--seed", "1", "--out", str(report_path)]) == 1
    report = report_path.read_text().splitlines()
    assert report[-1] == "verdict: fail"
    assert report[-2].endswith("exact_model=True")  # the bound still tracks


def test_validate_verdict_stable_across_seeds():
    # trial count large enough that the conclusion is noise-proof
    verdicts = set()
    for seed in (1, 2, 3):
        report = validate_analysis(trials=400_000, seed=seed)
        verdicts.add(report.splitlines()[-1].split()[1])
    assert len(verdicts) == 1
    assert verdicts.pop() == "pass"


def test_main_exit_codes(tmp_path, capsys, monkeypatch):
    missing = tmp_path / "nope.json"
    assert main(["run", str(missing)]) == 4  # unreadable file

    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["run", str(bad)]) == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"configs": [{"scheme": "qssm", "L": 3, "M": 4}]}))
    assert main(["run", str(invalid)]) == 2

    # a book of L^2 * M = 2^26 rows is refused before any symbol is built
    start = time.perf_counter()
    assert main(["table", "--L", "1024", "--M", "64"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "262144" in err and "Traceback" not in err

    # min_sep on an array with exactly L elements can never be sampled
    full = tmp_path / "full.json"
    full.write_text(json.dumps({"configs": [{
        "scheme": "qssm", "L": 4, "M": 4, "channel_mode": "physical",
        "n_t": 4, "n_r": 4, "angle_mode": "min_sep", "trials": 1,
    }]}))
    assert main(["run", str(full)]) == 2
    assert "Traceback" not in capsys.readouterr().err

    # below half-wavelength spacing 8 sines at gaps of 1/3 overrun the arc of 2
    # that sines cover; a 4-path config at the same spacing still runs
    arc = {"scheme": "qssm", "M": 4, "channel_mode": "physical", "spacing": 0.25,
           "angle_mode": "min_sep", "trials": 1}
    crowded = tmp_path / "crowded.json"
    crowded.write_text(json.dumps({"configs": [{**arc, "L": 8, "n_t": 12, "n_r": 12}]}))
    start = time.perf_counter()
    assert main(["run", str(crowded)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "Traceback" not in capsys.readouterr().err
    roomy = tmp_path / "roomy.json"
    roomy.write_text(json.dumps({"configs": [{**arc, "L": 4, "snr_db": [10.0]}]}))
    assert main(["run", str(roomy), "--out-dir", str(tmp_path / "roomy")]) == 0

    # 8 gaps of at least 2/9 fit a period of 2 but are almost never drawn: the
    # sampler gives up at its round cap with a configuration error
    sparse = tmp_path / "sparse.json"
    sparse.write_text(json.dumps({"configs": [{
        "scheme": "qssm", "L": 8, "M": 4, "channel_mode": "physical",
        "n_t": 9, "n_r": 9, "angle_mode": "min_sep", "trials": 1,
    }]}))
    assert main(["run", str(sparse)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "L=8" in err and "N=9" in err and "dft_grid" in err

    # SimConfig validation of a config built from flags is a configuration error,
    # and so are flags that do not parse
    assert main(["sweep", "--L", "3", "--M", "4", "--trials", "1"]) == 2
    assert "L must be a power of two" in capsys.readouterr().err
    # a (kind, M) the modem cannot build, and detector tables over their memory
    # budget, are rejected while the config is built, not inside the run
    assert main(["sweep", "--L", "4", "--M", "128", "--trials", "16", "--snr", "0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err
    assert "order must be one of" in err
    assert main(["sweep", "--L", "64", "--M", "64", "--trials", "1", "--snr", "0"]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "MiB budget" in err
    assert main(["sweep", "--L", "2", "--M", "4", "--snr", "0:x:2"]) == 2
    capsys.readouterr()
    # a start/stop/step grid is counted before it is built: 10^15 points would ask
    # NumPy for petabytes, and inf or NaN bounds span no countable grid
    for grid in ("0:1e12:1e-3", "0:inf:1", "nan:1:1", "0:4096.5:1"):
        assert main(["sweep", "--L", "2", "--M", "4", "--trials", "1", "--snr", grid]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "spans more than 4096 points" in err, grid
    # grid points lie at or below the 3000 dB ceiling, past which the detector's
    # metrics and the bounds overflow (10^(snr/10) itself overflows near 3082.5 dB)
    for snr in ("4000", "3001", "3075"):
        assert main(["sweep", "--L", "2", "--M", "4", "--trials", "64", "--snr", snr]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "above the 3000 dB ceiling" in err, snr
    # counts, sizes and seeds must be integers: floats and bools are refused, in
    # ideal and physical mode alike
    base = {"scheme": "qssm", "L": 2, "M": 4, "snr_db": [0.0], "trials": 16}
    physical = {**base, "channel_mode": "physical"}
    rejected = [({**base, "trials": 1e4}, "must be an integer"),
                ({**base, "M": 4.0}, "must be an integer"),
                ({**base, "seed": 1.5}, "must be an integer"),
                ({**base, "L": True}, "must be an integer"),
                ({**base, "trials": True}, "must be an integer"),
                ({**physical, "n_t": 32.0}, "must be an integer"),
                ({**physical, "n_r": False}, "must be an integer"),
                # array sides and seeds are bounded
                ({**physical, "n_t": 10**20}, "n_t and n_r must be <= 4096"),
                ({**base, "n_r": 4097}, "n_t and n_r must be <= 4096"),
                ({**base, "seed": -1}, "seed must be in [0, 2^64)"),
                ({**base, "seed": 2**64}, "seed must be in [0, 2^64)"),
                # the per-block channel redraw mode and the convention were removed
                ({**base, "redraw": "per_trial"}, "unknown keys ['redraw']"),
                ({**base, "redraw_block": 2}, "unknown keys ['redraw_block']"),
                ({**base, "convention": "exact_model"}, "unknown keys ['convention']")]
    for config, message in rejected:
        refused = tmp_path / "refused.json"
        refused.write_text(json.dumps({"configs": [config]}))
        assert main(["run", str(refused), "--out-dir", str(tmp_path / "ni")]) == 2, config
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err, config
    # bad comparisons and levels are refused before any config runs
    two = {"configs": [{**base, "name": "a"}, {**base, "name": "b"}]}
    for document, message in [({**two, "comparisons": 5}, "comparisons: expected a list"),
                              ({**two, "comparisons": None}, "comparisons: expected a list"),
                              ({**two, "levels": [True, float("inf")]}, "levels: expected"),
                              ({**two, "levels": [1e-3, 2.0]}, "levels: expected")]:
        refused = tmp_path / "refused.json"
        refused.write_text(json.dumps(document))
        assert main(["run", str(refused), "--out-dir", str(tmp_path / "ni")]) == 2, document
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err, document
    assert not (tmp_path / "ni").exists()
    # a name with a directory part would write outside --out-dir, and bad real
    # inputs would run on NaN Grams or bools as 1.0: each is refused before any
    # run, and no file is written
    out = ["--out-dir", str(tmp_path / "ni")]
    names = (str(tmp_path / "absolute"), "../escaped", "a/b", "a\0b")
    cases = [(name, {"configs": [{**base, "name": name}]}, "name: must be a file name")
             for name in names]
    cases += [(spacing, {"configs": [{**physical, "spacing": spacing}]},
               "spacing must be a real number")
              for spacing in (float("inf"), float("nan"), 1e308, True, "0.5")]
    cases.append((True, {"configs": [{**base, "snr_db": [True]}]}, "not bools"))
    cases += [(snr, {"configs": [{**base, "snr_db": snr}]}, "expected numbers, got")
              for snr in (["10", " 20 "], {"start": "0", "stop": "4", "step": "2"})]
    named = tmp_path / "named.json"
    named.write_text("{}")
    listing = sorted(tmp_path.rglob("*"))
    for value, document, message in cases:
        named.write_text(json.dumps(document))
        assert main(["run", str(named), *out]) == 2, value
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and message in err, value
        assert sorted(tmp_path.rglob("*")) == listing, value
    for name in names:
        argv = ["sweep", "--L", "2", "--M", "4", "--trials", "1", "--snr", "0", "--name", name]
        assert main([*argv, *out]) == 2, name
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "--name: must be a file name" in err, name
        assert sorted(tmp_path.rglob("*")) == listing, name
    # an empty name is refused from a file and from --name alike
    named.write_text(json.dumps({"configs": [{**base, "name": ""}]}))
    for argv in (["run", str(named)],
                 ["sweep", "--L", "2", "--M", "4", "--trials", "1", "--snr", "0", "--name", ""]):
        assert main([*argv, *out]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "name: must be a non-empty string" in err, argv
        assert sorted(tmp_path.rglob("*")) == listing, argv
    assert main(["validate", "--trials", "1", "--seed", "-1"]) == 2
    assert "seed must be in [0, 2^64)" in capsys.readouterr().err
    # two grid points of one milli-dB substream key
    assert main(["sweep", "--L", "2", "--M", "4", "--trials", "1", "--snr", "0,0.0004"]) == 2
    assert "share one substream" in capsys.readouterr().err
    assert main(["validate", "--trials", "0"]) == 2
    assert "Traceback" not in capsys.readouterr().err
    # trials above the 2^40 ceiling are refused while the config is built, by
    # validate as by sweep and experiment files
    start = time.perf_counter()
    for argv in (["validate", "--trials", str(2**63)],
                 ["sweep", "--L", "2", "--M", "4", "--trials", str(2**63), "--snr", "0", *out]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "trials must be in [1, 2^40]" in err, argv
    for trials in (2**40 + 1, 10**400):
        refused = tmp_path / "refused.json"
        refused.write_text(json.dumps({"configs": [{**base, "trials": trials}]}))
        assert main(["run", str(refused), *out]) == 2
        assert "trials must be in [1, 2^40]" in capsys.readouterr().err
    assert time.perf_counter() - start < 5.0
    assert not (tmp_path / "ni").exists()
    # a worker count below one is refused before any run
    assert main(["sweep", "--L", "2", "--M", "4", "--trials", "1", "--workers", "0"]) == 2
    assert main(["validate", "--trials", "1", "--workers", "-1"]) == 2
    assert capsys.readouterr().err.count("workers must be >= 1") == 2

    # a ValueError from inside a kernel is a fault of the program, not of its input
    def broken_kernel(*args):
        raise ValueError("kernel fault")

    monkeypatch.setattr(montecarlo, "_block_bit_errors", broken_kernel)
    args = ["sweep", "--L", "2", "--M", "4", "--snr", "10", "--trials", "1",
            "--out-dir", str(tmp_path / "broken")]
    assert main(args) == 5
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: kernel fault\n"

    # a pool worker that dies during the run is a fault of the program as well
    if montecarlo._pool_size(2) >= 2:
        monkeypatch.setattr(montecarlo, "_block_bit_errors", _kill_worker)
        assert main([*args, "--workers", "2"]) == 5
        assert capsys.readouterr().err.startswith("internal error: BrokenProcessPool")


def test_physical_spacings_run_without_warnings(tmp_path):
    """Spacings from below half a wavelength up to 1e6 wavelengths run cleanly."""
    config = {"scheme": "qssm", "L": 2, "M": 4, "channel_mode": "physical", "n_t": 8,
              "n_r": 8, "snr_db": [10.0], "trials": 64}
    for spacing in (0.25, 0.5, 1.0, 1e6):
        path = tmp_path / "spacing.json"
        path.write_text(json.dumps({"configs": [{**config, "spacing": spacing}]}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(path), "--out-dir", str(tmp_path / str(spacing))]) == 0
        manifest = json.loads((tmp_path / str(spacing) / "qssm_L2_4qam.manifest.json").read_text())
        assert manifest["config"]["spacing"] == spacing


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_result_files_honour_the_umask(tmp_path, umask, mode):
    """Result files get the mode a plain write gives, 0o666 less the umask."""
    previous = os.umask(umask)
    try:
        argv = ["sweep", "--L", "2", "--M", "4", "--trials", "1", "--snr", "0",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert main(["table", "--L", "2", "--M", "4", "--out", str(tmp_path / "t.csv")]) == 0
    finally:
        os.umask(previous)
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == ["qssm_L2_4qam.csv", "qssm_L2_4qam.manifest.json", "t.csv"]
    for path in files:
        assert path.stat().st_mode & 0o777 == mode, path


def test_main_sweep_and_compare(tmp_path, capsys):
    out_dir = tmp_path / "res"
    common = ["--snr", "0:30:6", "--trials", "2000", "--out-dir", str(out_dir)]
    assert main(["sweep", "--scheme", "qssm", "--L", "2", "--M", "4", "--name", "qa", *common]) == 0
    assert main(["sweep", "--scheme", "ssm", "--L", "4", "--M", "4", "--name", "sa", *common]) == 0
    capsys.readouterr()
    code = main(
        ["compare", str(out_dir / "qa.csv"), str(out_dir / "sa.csv"), "--levels", "0.05"]
    )
    assert code == 0
    assert "gain of qa over sa" in capsys.readouterr().out

    # rate mismatch between result files is refused
    assert main(["sweep", "--scheme", "qssm", "--L", "4", "--M", "4", "--name", "qb", *common]) == 0
    capsys.readouterr()
    assert main(["compare", str(out_dir / "qb.csv"), str(out_dir / "sa.csv")]) == 2


def test_convention_is_not_an_input(tmp_path, capsys):
    """A result file carries the exact_model bound, the one `qssm validate` checks:
    no flag or config key selects another, and a sweep's abep_analytic column is
    analysis.abep_point's bound, bit for bit."""
    config = {"name": "c", "scheme": "qssm", "L": 2, "M": 4, "snr_db": [20.0], "trials": 100}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"configs": [config]}))
    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({"configs": [{**config, "convention": "paper_eq21"}]}))
    out = ["--out-dir", str(tmp_path / "out")]
    for argv in (["run", str(path), "--convention", "paper_eq21", *out],
                 ["sweep", "--L", "2", "--M", "4", "--trials", "1", "--convention",
                  "exact_model", *out],
                 ["run", str(keyed), *out]):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an unknown flag
            code = exc.code
        assert code == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and "convention" in err, argv
    assert not (tmp_path / "out").exists()

    snr_db = (0.0, 10.0, 20.0, 30.0)
    assert main(["sweep", "--L", "2", "--M", "4", "--snr", "0,10,20,30", "--trials", "100",
                 "--name", "c", *out]) == 0
    rows = (tmp_path / "out" / "c.csv").read_text().splitlines()[1:]
    book = build_symbol_book(2, build_constellation("qam", 4))
    for row, snr in zip(rows, snr_db, strict=True):
        assert float(row.split(",")[4]) == abep_point(book, snr).abep_analytical


def test_names_fit_a_file_name(tmp_path):
    """A name is printable and encodes to at most 100 bytes, so that a comparison
    report of two such names, with its temp-file suffix, fits the 255 bytes of a
    file name.  Both are checked before any config runs: a 401-character name used
    to run every config and then fail to write (exit 4), a lone surrogate to fail
    to encode (exit 5)."""
    entry = {"scheme": "qssm", "L": 2, "M": 4}
    for name in ("n" * 101, "\u00e9" * 51):
        with pytest.raises(ConfigError, match="name: must encode to at most 100 bytes"):
            parse_config(json.dumps({"configs": [{**entry, "name": name}]}))
    for name in ("\ud800", "a\nb", "a\tb"):
        with pytest.raises(ConfigError, match="name: must be a file name, printable"):
            parse_config(json.dumps({"configs": [{**entry, "name": name}]}))
    a, b = "a" * 100, "\u00e9" * 50
    document = {"configs": [{**entry, "name": a}, {**entry, "name": b, "scheme": "ssm", "L": 4}],
                "comparisons": [{"a": a, "b": b}], "levels": [0.05]}
    for config in document["configs"]:
        config.update(snr_db=[0.0, 10.0, 20.0, 30.0], trials=2000)
    written = run_experiment(parse_config(json.dumps(document)), out_dir=str(tmp_path))
    assert written[f"compare_{a}_vs_{b}.txt"].exists()


def test_compare_levels_follow_the_file_rule(tmp_path, capsys):
    """`compare --levels` takes the rule of a file's levels, numbers in (0, 1),
    checked before any curve is loaded: the result files here do not exist."""
    missing = [str(tmp_path / "a.csv"), str(tmp_path / "b.csv")]
    for levels in ("2", "nan", "0", "-1", "1", "inf", "1e-3,2"):
        assert main(["compare", *missing, "--levels", levels]) == 2, levels
        err = capsys.readouterr().err
        assert err == "error: --levels: expected a list of numbers in (0, 1)\n", levels
    assert main(["compare", *missing, "--levels", "0.5"]) == 2
    assert "manifest not found" in capsys.readouterr().err


def test_sweep_flags_build_the_file_config(monkeypatch):
    """`sweep` flags and experiment-file keys take one path to a config: a flag
    left out takes SimConfig's default, as an omitted key does."""
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, **kwargs: specs.append(spec) or {})
    assert main(["sweep", "--L", "4", "--M", "4"]) == 0
    [(name, config)] = specs.pop().configs
    assert name == "qssm_L4_4qam"
    assert config == SimConfig("qssm", 4, 4)
    assert config.config_hash() == SimConfig("qssm", 4, 4).config_hash()

    keys = {"scheme": "qssm", "L": 4, "M": 16, "kind": "psk", "channel_mode": "physical",
            "angle_mode": "min_sep", "trials": 500, "seed": 7, "name": "x"}
    flags = [text for key, value in keys.items()
             for text in ("--" + key.replace("_", "-"), str(value))]
    for text, snr in (("0:10:5", {"start": 0, "stop": 10, "step": 5}), ("0,2.5,30", [0, 2.5, 30])):
        assert main(["sweep", *flags, "--snr", text]) == 0
        expected = parse_config(json.dumps({"configs": [{**keys, "snr": snr}]}))
        assert specs.pop().configs == expected.configs


def test_run_overrides_only_the_given_flags(tmp_path, monkeypatch):
    """`run --seed` and `--trials` replace a file's values only when given."""
    specs = []
    monkeypatch.setattr(cli, "run_experiment", lambda spec, **kwargs: specs.append(spec) or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"configs": [{"scheme": "qssm", "L": 2, "M": 4, "trials": 4,
                                             "seed": 2}]}))
    for flags, trials, seed in (([], 4, 2), (["--seed", "5"], 4, 5), (["--trials", "3"], 3, 2),
                                (["--trials", "3", "--seed", "0"], 3, 0)):
        assert main(["run", str(path), *flags]) == 0
        [(_, config)] = specs.pop().configs
        assert (config.trials, config.seed) == (trials, seed), flags


#: Values no input should crash on: wrong types, edge and out-of-range numbers,
#: non-finite floats, and strings valid for another key.  Each is valid for its
#: key or refused up front; none that is valid runs long.
_HOSTILE = (
    True, False, None, "", " ", "qssm", "ssm", "psk", "physical", "min_sep", "per_block",
    "paper_eq21", "4", "a/b", "../escaped", "n" * 101, "\ud800", [], [4], [True], ["10"],
    [float("nan")], {}, {"start": 0, "stop": 4, "step": 2}, {"start": 0}, -1, 0, 1, 2, 3,
    1.5, 4.0, -0.0, 1e-300, 4096, 4097, 2**63, 2**64, 10**400, float("nan"), float("inf"),
    float("-inf"), 1e308,
)
#: ``--snr`` texts beyond the catalogue: grids too wide to count and malformed lists
_HOSTILE_SNR_TEXT = ("0:1e12:1e-3", "0:inf:1", "nan:1:1", "4000", "3001", "-3300", "-1e308",
                     "1,", ",", "::", "0:1", "0,0.0004", "10,0")


def test_hostile_inputs_exit_0_or_2(tmp_path, capsys, monkeypatch):
    """Every key of an experiment file, in ideal and physical mode, and every
    `sweep` config flag, set to each catalogue value: the run exits 0 or 2, a
    refusal prints one `error:` line, and nothing is written outside --out-dir.
    The removed keys exit 2 whatever their value."""
    monkeypatch.chdir(tmp_path)
    out_dir = tmp_path / "nested" / "out"
    out = ["--out-dir", str(out_dir)]
    out_dir.mkdir(parents=True)
    case = tmp_path / "case.json"
    case.write_text("{}")

    def outside():
        return sorted(p for p in tmp_path.rglob("*") if out_dir not in (p, *p.parents))

    listing = outside()

    def check(argv, label, allowed=(0, 2)):
        try:
            code = main([*argv, *out])
        except SystemExit as exc:  # argparse refuses a flag value
            code = exc.code
        err = capsys.readouterr().err
        assert code in allowed, (label, code, err)
        if code == 2:
            assert err.count("error:") == 1 and "Traceback" not in err, (label, err)
        assert outside() == listing, label

    ideal = {"scheme": "qssm", "L": 2, "M": 4, "snr_db": [10.0], "trials": 4}
    physical = {**ideal, "channel_mode": "physical"}
    removed = ("redraw", "redraw_block", "convention")
    start = time.perf_counter()
    for mode, base in (("ideal", ideal), ("physical", physical)):
        for key in sorted(cli._CONFIG_KEYS) + list(removed):
            for value in _HOSTILE:
                config = {**base, key: value}
                if key == "snr":
                    del config["snr_db"]
                case.write_text(json.dumps({"configs": [config]}))
                check(["run", str(case)], (mode, key, value), (2,) if key in removed else (0, 2))
    ideal_flags = {"--L": "2", "--M": "4", "--snr": "10", "--trials": "4"}
    for base in (ideal_flags, {**ideal_flags, "--channel-mode": "physical"}):
        for key in ("scheme", "L", "M", "kind", "channel_mode", "angle_mode", "snr", "trials",
                    "seed", "name"):
            flag = "--" + key.replace("_", "-")
            texts = [v if isinstance(v, str) else json.dumps(v) for v in _HOSTILE]
            if key == "snr":
                texts += _HOSTILE_SNR_TEXT
            for text in texts:
                argv = [item for pair in {**base, flag: text}.items() for item in pair]
                check(["sweep", *argv], (flag, text))
    assert time.perf_counter() - start < 60.0


def _readme_input_items() -> dict[str, list[str]]:
    """The input rules of README's CLI section, one item per field: the item's
    lines under its first backticked field name."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    items, field = {}, None
    for line in section.splitlines():
        if line.startswith("- `"):
            field = line.split("`")[1]
            items[field] = [line]
        elif field and line.startswith("  "):
            items[field].append(line.strip())
        else:
            field = None
    return items


def _power_of_two(value) -> str:
    exponent = int(value).bit_length() - 1
    assert value == 2**exponent, value
    return f"2^{exponent}"


def test_readme_states_each_input_bound():
    """Each input bound appears, with the constant that holds it, on its field's
    item of README's input rules, so the prose cannot drift from the code."""
    items = _readme_input_items()
    for key in cli._CONFIG_KEYS | {"comparisons", "levels"}:  # each named on an item's first line
        assert any(f"`{key}`" in lines[0] for lines in items.values()), key
    expected = {
        "n_t": ["`montecarlo._MAX_ELEMENTS`", f"at most {montecarlo._MAX_ELEMENTS} elements"],
        "spacing": ["`montecarlo._MAX_SPACING`",
                    f"in (0, {_power_of_two(montecarlo._MAX_SPACING)}] wavelengths"],
        "snr_db": ["`montecarlo._MAX_SNR_DB`", f"at or below {montecarlo._MAX_SNR_DB:g} dB",
                   "`montecarlo._MIN_SNR_DB`", f"at or above {montecarlo._MIN_SNR_DB:g} dB",
                   "`cli._SNR_GRID_POINTS`", f"spans at most {cli._SNR_GRID_POINTS} points"],
        "trials": ["`montecarlo._MAX_TRIALS`", f"in [1, {_power_of_two(montecarlo._MAX_TRIALS)}]"],
        "seed": ["in [0, 2^64)"],
        "name": ["`cli._MAX_NAME_BYTES`", f"at most {cli._MAX_NAME_BYTES} bytes"],
    }
    for field, phrases in expected.items():
        for phrase in phrases:
            assert phrase in " ".join(items[field]), (field, phrase)
    # the seed range is a literal of _check_seed: probe both of its ends
    montecarlo._check_seed(0)
    montecarlo._check_seed(2**64 - 1)
    for seed in (-1, 2**64):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            montecarlo._check_seed(seed)
