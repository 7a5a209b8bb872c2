"""Acceptance suite: one test per release criterion, one printed verdict line each.

Criterion 6 (equal-rate gain over the single-beam baseline) is known not to
hold for the scalar baseline model this package implements; it is asserted
at its stated tolerance regardless and fails honestly, reporting the
measured gains for both baseline presets.
"""

import numpy as np
import pytest

from qssm.analysis import (
    abep_union_bound,
    eta_bar,
    pep_asymptotic,
    pep_closed_form,
    pep_quadrature,
    snr_db_to_rho,
)
from qssm.channel import ArrayGeometry, array_response, sample_channel, orthogonality_defect
from qssm.modem import (
    PSK,
    QAM,
    build_constellation,
    build_symbol_book,
    demap_symbol,
    hamming_distance,
    map_bits,
)
from qssm.montecarlo import (
    DEFAULT_SNR_GRID_DB,
    SimConfig,
    check_bound,
    crossing_snr_db,
    run_point,
    sweep,
)
from qssm.transceiver import (
    ml_detect_ideal,
    ml_detect_physical,
    qssm_observe_ideal,
    qssm_observe_physical,
)


def _verdict(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# -- 1 -----------------------------------------------------------------------

def test_criterion_1_closed_form_fidelity():
    # at rho*eta_bar and at twice it, where the paper's eq. 21 takes its values
    worst = 0.0
    for exponent in range(-3, 5):
        product = 10.0**exponent
        for rho in (2.0 * product, product):
            closed = pep_closed_form(rho, 1.0)
            numeric = pep_quadrature(rho, 1.0)
            worst = max(worst, abs(numeric - closed) / closed)
    passed = worst < 1e-8
    _verdict("1 closed-form fidelity", passed, f"max rel err {worst:.2e}")
    assert passed


# -- 2 -----------------------------------------------------------------------

def test_criterion_2_asymptotic_ratio():
    # the paper's asymptote against its eq. 21, the closed form at twice the product
    ratio = pep_asymptotic(1e6, 1.0) / pep_closed_form(2e6, 1.0)
    passed = abs(ratio - 13.0 / 12.0) <= 1e-3
    _verdict("2 asymptotic ratio", passed, f"ratio {ratio:.7f} vs 13/12")
    assert passed


# -- 3 -----------------------------------------------------------------------

def test_criterion_3_convention_arbiter():
    # the package's union bound, not the paper's eq. 21 bound (the package's at
    # 2 rho), upper-bounds and tracks the simulation on the L=4 4QAM chain, at
    # the default-grid points where the package's bound is at most 1e-2
    book = build_symbol_book(4, build_constellation(QAM, 4))
    grid = tuple(
        s for s in DEFAULT_SNR_GRID_DB if abep_union_bound(book, snr_db_to_rho(s)) <= 1e-2
    )
    assert grid == (34.0, 36.0, 38.0, 40.0)
    curve = sweep(SimConfig(scheme="qssm", L=4, M=4, snr_db=grid, trials=1_000_000, seed=0))
    at_2rho = [abep_union_bound(book, 2.0 * snr_db_to_rho(s)) for s in grid]
    exact, paper = check_bound(curve), check_bound(curve, at_2rho)
    for p, bound_paper in zip(curve.points, at_2rho):
        print(
            f"  snr {p.estimate.snr_db:5.1f}: sim {p.estimate.abep:.4e} "
            f"paper {bound_paper:.4e} exact {p.abep_analytic:.4e}"
        )
    qualifying = [
        label
        for label, check in (("paper_eq21", paper), ("exact_model", exact))
        if check.above and check.tracks
    ]
    passed = qualifying == ["exact_model"]
    _verdict("3 bound check", passed, f"qualifying bounds {qualifying}, expected exact_model")
    assert passed


# -- 4 -----------------------------------------------------------------------

def test_criterion_4_low_snr_bound_looseness():
    ratios = {}
    for L in (4, 8):
        book = build_symbol_book(L, build_constellation(QAM, 4))
        bound = abep_union_bound(book, snr_db_to_rho(0.0))
        config = SimConfig(
            scheme="qssm", L=L, M=4, snr_db=(0.0,), trials=100_000, seed=40 + L
        )
        simulated = run_point(config, 0.0).abep
        ratios[L] = bound / simulated
    passed = all(r > 1.5 for r in ratios.values())
    _verdict(
        "4 low-SNR looseness",
        passed,
        "bound/sim " + ", ".join(f"L={L}: {r:.1f}" for L, r in ratios.items()),
    )
    assert passed


# -- 5 -----------------------------------------------------------------------

def _simulated_crossing(config: SimConfig, level: float) -> float:
    values = [run_point(config, snr).abep for snr in config.snr_db]
    return crossing_snr_db(np.array(config.snr_db), np.array(values), level)


GAP_GRIDS = {4: (38.0, 40.0, 42.0, 44.0), 8: (42.0, 44.0, 46.0, 48.0), 16: (46.0, 48.0, 50.0, 52.0)}


def test_criterion_5_modulation_order_gaps():
    crossings = {}
    for M, grid in GAP_GRIDS.items():
        config = SimConfig(
            scheme="qssm", L=4, M=M, snr_db=grid, trials=1_000_000, seed=500 + M
        )
        crossings[M] = _simulated_crossing(config, 1e-3)
    gap_8 = crossings[8] - crossings[4]
    gap_16 = crossings[16] - crossings[4]
    passed = abs(gap_8 - 4.3) <= 0.7 and abs(gap_16 - 7.1) <= 0.7
    _verdict(
        "5 modulation-order gaps",
        passed,
        f"8QAM {gap_8:+.2f} dB (target 4.3±0.7), 16QAM {gap_16:+.2f} dB (target 7.1±0.7)",
    )
    assert passed


# -- 6 -----------------------------------------------------------------------

COMPARISON_GRID = tuple(float(s) for s in range(40, 51, 2))


def test_criterion_6_gain_over_baseline():
    qssm_config = SimConfig(
        scheme="qssm", L=2, M=4, snr_db=COMPARISON_GRID, trials=1_000_000, seed=600
    )
    presets = {
        "ssm L=4 4QAM": SimConfig(
            scheme="ssm", L=4, M=4, snr_db=COMPARISON_GRID, trials=1_000_000, seed=601
        ),
        "ssm L=2 8QAM": SimConfig(
            scheme="ssm", L=2, M=8, snr_db=COMPARISON_GRID, trials=1_000_000, seed=602
        ),
    }
    cross_qssm = _simulated_crossing(qssm_config, 1e-4)
    gains = {
        name: _simulated_crossing(config, 1e-4) - cross_qssm
        for name, config in presets.items()
    }
    default_gain = gains["ssm L=4 4QAM"]
    passed = abs(default_gain - 3.6) <= 1.0
    _verdict(
        "6 gain over baseline",
        passed,
        "measured "
        + ", ".join(f"{name}: {g:+.2f} dB" for name, g in gains.items())
        + " (target 3.6±1.0 on the L=4 4QAM preset)",
    )
    assert passed


# -- 7 -----------------------------------------------------------------------

def _check_modem_properties() -> None:
    for L in (1, 2, 4, 8):
        for kind, M in [(PSK, 2), (QAM, 4), (QAM, 16)]:
            book = build_symbol_book(L, build_constellation(kind, M))
            assert np.mean(np.abs(book.constellation.points) ** 2) == pytest.approx(
                1.0, abs=1e-12
            )
            for v in range(len(book)):
                bits = [int(c) for c in format(v, f"0{book.bits_per_symbol}b")]
                assert demap_symbol(map_bits(bits, book), book) == bits
    c16 = build_constellation(QAM, 16)
    step = 2.0 / np.sqrt(10.0)
    for v in range(16):
        for w in range(16):
            if v != w and abs(c16.points[v] - c16.points[w]) == pytest.approx(step, rel=1e-9):
                assert hamming_distance(c16.labels[v], c16.labels[w]) == 1


def _check_channel_properties() -> None:
    rng = np.random.default_rng(70)
    for n in (4, 32, 512, 4096):
        a = array_response(ArrayGeometry(n), rng.uniform(0, 2 * np.pi))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12
    geom = ArrayGeometry(32)
    for _ in range(25):
        assert orthogonality_defect(sample_channel(4, geom, geom, rng)) < 1e-10


def _check_zero_noise_roundtrip() -> None:
    geom = ArrayGeometry(32)
    realization = sample_channel(4, geom, geom, np.random.default_rng(71))
    book = build_symbol_book(4, build_constellation(QAM, 4))
    for symbol in book.symbols:
        ideal = ml_detect_ideal(
            qssm_observe_ideal(symbol, realization.gains, 10.0, None),
            realization.gains,
            book,
            10.0,
        )
        physical = ml_detect_physical(
            qssm_observe_physical(symbol, realization, 10.0, None),
            realization,
            book,
            10.0,
        )
        assert ideal.label_hat == symbol.label
        assert physical.label_hat == symbol.label


def _check_eta_bar_cases() -> None:
    a = complex(-2 ** -0.5, -2 ** -0.5)
    b = complex(2 ** -0.5, -2 ** -0.5)
    assert eta_bar(a, a, True, True).value == 0.0
    assert eta_bar(a, a, False, False).value == pytest.approx(2.0)
    assert eta_bar(a, b, False, True).value == pytest.approx(1.0)
    assert eta_bar(a, b, True, False).value == pytest.approx(3.0)


def _check_root_eta_gaussianity() -> tuple[float, ...]:
    """E|sqrt(eta)|^2 matches the case table within 1% at 10^6 draws per case."""
    rng = np.random.default_rng(72)
    n = 1_000_000
    x = complex(-2 ** -0.5, 2 ** -0.5)
    x_hat = complex(2 ** -0.5, 2 ** -0.5)

    def betas(count):
        return (rng.standard_normal((n, count)) + 1j * rng.standard_normal((n, count))) / np.sqrt(2)

    deviations = []
    # same/same on distinct beams
    g = betas(2)
    root = g[:, 0] * (x.real - x_hat.real) + 1j * g[:, 1] * (x.imag - x_hat.imag)
    deviations.append((np.mean(np.abs(root) ** 2), eta_bar(x, x_hat, True, True).value))
    # diff/same
    g = betas(3)
    root = (g[:, 0] * x.real - g[:, 1] * x_hat.real) + 1j * g[:, 2] * (x.imag - x_hat.imag)
    deviations.append((np.mean(np.abs(root) ** 2), eta_bar(x, x_hat, False, True).value))
    # same/diff
    g = betas(3)
    root = g[:, 0] * (x.real - x_hat.real) + 1j * (g[:, 1] * x.imag - g[:, 2] * x_hat.imag)
    deviations.append((np.mean(np.abs(root) ** 2), eta_bar(x, x_hat, True, False).value))
    # diff/diff, including an index shared across the two beams
    g = betas(4)
    root = (g[:, 0] * x.real - g[:, 1] * x_hat.real) + 1j * (
        g[:, 2] * x.imag - g[:, 0] * x_hat.imag
    )
    deviations.append((np.mean(np.abs(root) ** 2), eta_bar(x, x_hat, False, False).value))
    rel = tuple(abs(emp - ref) / ref for emp, ref in deviations if ref > 0)
    assert all(r < 0.01 for r in rel)
    return rel


def test_criterion_7_property_suites():
    _check_modem_properties()
    _check_channel_properties()
    _check_zero_noise_roundtrip()
    _check_eta_bar_cases()
    rel = _check_root_eta_gaussianity()
    _verdict(
        "7 property suites",
        True,
        f"all invariants hold; sqrt-eta variance dev {max(rel):.2%} at 1e6 draws",
    )
