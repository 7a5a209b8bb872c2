"""Config parsing, artifact emission, and the command-line surface."""

import json
import time
import tracemalloc

import numpy as np
import pytest

from qssm.analysis import DEFAULT_CONVENTION
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
from qssm import montecarlo
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
    assert config.convention is DEFAULT_CONVENTION
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
    assert manifest["stream_version"] == montecarlo.STREAM_VERSION == 2
    report = written["compare_qssm_small_vs_ssm_small.txt"].read_text()
    assert "gain of qssm_small over ssm_small" in report

    # byte-identical rerun
    before = csv_path.read_bytes()
    run_experiment(spec, out_dir=str(tmp_path / "out"))
    assert csv_path.read_bytes() == before


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
    with pytest.raises(ValueError, match="does not cross"):
        compare_report(curve, curve, [1e-12])


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

    report_path = tmp_path / "validation.txt"
    assert main(["validate", "--trials", "20000", "--seed", "1", "--out", str(report_path)]) == 0
    report = report_path.read_text()
    assert "max relative error" in report
    assert "verdict" in report


def test_validate_verdict_stable_across_seeds():
    # trial count large enough that the conclusion is noise-proof
    verdicts = set()
    for seed in (1, 2, 3):
        report = validate_analysis(trials=400_000, seed=seed)
        verdicts.add(report.splitlines()[-1].split()[1])
    assert len(verdicts) == 1
    assert verdicts.pop() == DEFAULT_CONVENTION.value


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
    assert main(["validate", "--trials", "0"]) == 2
    assert "Traceback" not in capsys.readouterr().err

    # a ValueError from inside a kernel is a fault of the program, not of its input
    def broken_kernel(*args):
        raise ValueError("kernel fault")

    monkeypatch.setattr(montecarlo, "_block_bit_errors", broken_kernel)
    args = ["sweep", "--L", "2", "--M", "4", "--snr", "10", "--trials", "1",
            "--out-dir", str(tmp_path / "broken")]
    assert main(args) == 5
    err = capsys.readouterr().err
    assert err == "internal error: ValueError: kernel fault\n"


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


def test_convention_override_changes_bound(tmp_path):
    base = {
        "configs": [
            {"name": "c", "scheme": "qssm", "L": 2, "M": 4, "snr_db": [20.0], "trials": 100, "seed": 0}
        ]
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "a")]) == 0
    assert (
        main(
            [
                "run",
                str(path),
                "--out-dir",
                str(tmp_path / "b"),
                "--convention",
                "paper_eq21",
            ]
        )
        == 0
    )
    bound_a = float((tmp_path / "a" / "c.csv").read_text().splitlines()[1].split(",")[4])
    bound_b = float((tmp_path / "b" / "c.csv").read_text().splitlines()[1].split(",")[4])
    assert bound_b < bound_a  # the 3 dB-optimistic normalisation gives a lower bound
