"""Observation models, detectors, and the baseline chain."""

import dataclasses

import numpy as np
import pytest

from qssm import montecarlo as mc
from qssm.channel import ArrayGeometry, ChannelRealization, sample_channel
from qssm.modem import (
    PSK,
    QAM,
    Constellation,
    build_constellation,
    build_symbol_book,
    ssm_hypotheses,
)
from qssm.transceiver import (
    IdealObservation,
    PhysicalObservation,
    ml_detect_ideal,
    ml_detect_physical,
    qssm_observe_ideal,
    qssm_observe_physical,
    ssm_detect_ideal,
    ssm_observe_ideal,
)

GEOM32 = ArrayGeometry(32)
BOOK44 = build_symbol_book(4, build_constellation(QAM, 4))
INV_SQRT2 = 1.0 / np.sqrt(2.0)

# fixed gains with distinct nonzero magnitudes for noiseless roundtrips
GAINS4 = np.array([1.0 + 0.2j, -0.7 + 0.9j, 0.3 - 1.1j, -1.4 - 0.5j])


def _grid_realization(L=4, seed=0):
    return sample_channel(L, GEOM32, GEOM32, np.random.default_rng(seed))


def test_observe_ideal_cancellation_example():
    gains = np.array([1.0 + 0j, 1j])
    book = build_symbol_book(2, build_constellation(QAM, 4))
    symbol = next(
        s for s in book.symbols
        if (s.k1, s.k2) == (1, 2) and s.x_re > 0 and s.x_im > 0
    )
    obs = qssm_observe_ideal(symbol, gains, 1.0, None)
    # beta_1*x_re + j*beta_2*x_im = 1/sqrt(2) + j*j/sqrt(2) = 0
    assert obs.y_r == pytest.approx(0.0 + 0.0j, abs=1e-15)


def test_observe_ideal_degenerate_quadrature():
    book = build_symbol_book(2, build_constellation(PSK, 2))
    symbol = next(s for s in book.symbols if (s.k1, s.k2) == (2, 2) and s.x_re > 0)
    assert symbol.x_im == 0.0
    gains = np.array([0.4 - 0.1j, 1.2 + 0.3j])
    obs = qssm_observe_ideal(symbol, gains, 4.0, None)
    assert obs.y_r == pytest.approx(2.0 * gains[1] * symbol.x_re, abs=1e-15)


def test_observe_ideal_deterministic_with_seed():
    symbol = BOOK44.symbols[27]
    a = qssm_observe_ideal(symbol, GAINS4, 10.0, np.random.default_rng(5))
    b = qssm_observe_ideal(symbol, GAINS4, 10.0, np.random.default_rng(5))
    assert a.y_r == b.y_r


def test_observe_ideal_validates_inputs():
    symbol = BOOK44.symbols[0]
    with pytest.raises(ValueError):
        qssm_observe_ideal(symbol, GAINS4, -1.0, None)
    with pytest.raises(ValueError):
        qssm_observe_ideal(BOOK44.symbols[-1], GAINS4[:2], 1.0, None)


def test_ml_ideal_noiseless_roundtrip_full_book():
    for symbol in BOOK44.symbols:
        obs = qssm_observe_ideal(symbol, GAINS4, 10.0, None)
        det = ml_detect_ideal(obs, GAINS4, BOOK44, 10.0)
        assert det.label_hat == symbol.label
        assert det.metric == 0.0
        assert (det.k1_hat, det.k2_hat) == (symbol.k1, symbol.k2)
        assert det.x_hat == symbol.x


def test_ml_ideal_tiebreak_at_zero_snr():
    obs = qssm_observe_ideal(BOOK44.symbols[50], GAINS4, 0.0, np.random.default_rng(2))
    det = ml_detect_ideal(obs, GAINS4, BOOK44, 0.0)
    assert det.label_hat == "000000"
    real = _grid_realization(seed=3)
    obs = qssm_observe_physical(BOOK44.symbols[50], real, 0.0, np.random.default_rng(2))
    assert ml_detect_physical(obs, real, BOOK44, 0.0).label_hat == "000000"
    constellation = build_constellation(QAM, 4)
    obs = ssm_observe_ideal(3, constellation.points[2], GAINS4, 0.0, np.random.default_rng(2))
    assert ssm_detect_ideal(obs, GAINS4, constellation, 4, 0.0).label_hat == "0000"


def test_ml_ideal_against_brute_force_oracle():
    # L=2 BPSK, beta=[1,2], y=1.9: the 8-hypothesis enumeration picks k1=2, x=+1
    constellation = build_constellation(PSK, 2)
    book = build_symbol_book(2, constellation)
    gains = np.array([1.0 + 0j, 2.0 + 0j])
    obs = IdealObservation(y_r=1.9 + 0j, snr=1.0)
    det = ml_detect_ideal(obs, gains, book, 1.0)
    # independent exhaustive enumeration
    best = None
    for s in book.symbols:
        metric = abs(obs.y_r - (gains[s.k1 - 1] * s.x_re + 1j * gains[s.k2 - 1] * s.x_im)) ** 2
        if best is None or metric < best[0] - 1e-15:
            best = (metric, s.label)
    assert det.metric == pytest.approx(best[0])
    assert det.k1_hat == 2
    assert det.x_hat == pytest.approx(1.0 + 0j)
    assert det.k2_hat == 1  # tie broken toward the lowest label
    assert det.label_hat == "100"


@pytest.mark.parametrize(
    "chain, kind, M, L",
    [
        ("ideal", PSK, 8, 4),
        ("ideal", QAM, 16, 4),
        ("ssm", PSK, 4, 16),
        ("physical", QAM, 4, 4),
    ],
)
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_detectors_pick_first_brute_force_argmin(chain, kind, M, L, snr_db):
    """Each per-symbol detector decides as an exhaustive |y - h|^2 search does."""
    constellation = build_constellation(kind, M)
    rho = 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(int(snr_db) + 7 * L + M)
    if chain == "ssm":
        k_idx, _, x_re, x_im = ssm_hypotheses(L, constellation)
        x = x_re + 1j * x_im
        profile = np.zeros((len(x), L), dtype=complex)
        profile[np.arange(len(x)), k_idx] = x
    else:
        book = build_symbol_book(L, constellation)
        profile = np.zeros((len(book), L), dtype=complex)
        profile[np.arange(len(book)), book.k1_idx] += book.x_re
        profile[np.arange(len(book)), book.k2_idx] += 1j * book.x_im
    for _ in range(200):
        real = sample_channel(L, GEOM32, GEOM32, rng)
        v = int(rng.integers(0, len(profile)))
        if chain == "ssm":
            obs = ssm_observe_ideal(int(k_idx[v]) + 1, x[v], real.gains, rho, rng)
            det = ssm_detect_ideal(obs, real.gains, constellation, L, rho)
            metrics = np.abs(obs.y_r - np.sqrt(rho) * profile @ real.gains) ** 2
        elif chain == "ideal":
            obs = qssm_observe_ideal(book.symbols[v], real.gains, rho, rng)
            det = ml_detect_ideal(obs, real.gains, book, rho)
            metrics = np.abs(obs.y_r - np.sqrt(rho) * profile @ real.gains) ** 2
        else:
            obs = qssm_observe_physical(book.symbols[v], real, rho, rng)
            det = ml_detect_physical(obs, real, book, rho)
            model = np.sqrt(rho) * real.gains[None, :] * profile
            metrics = np.sum(np.abs(obs.z[None, :] - model) ** 2, axis=1)
        assert int(det.label_hat, 2) == int(np.argmin(metrics))


def test_ml_ideal_global_phase_invariance():
    rng = np.random.default_rng(8)
    rotation = np.exp(1j * 1.2345)
    for _ in range(200):
        symbol = BOOK44.symbols[rng.integers(0, len(BOOK44))]
        obs = qssm_observe_ideal(symbol, GAINS4, 10.0, rng)
        det = ml_detect_ideal(obs, GAINS4, BOOK44, 10.0)
        rotated = IdealObservation(y_r=obs.y_r * rotation, snr=obs.snr)
        det_rot = ml_detect_ideal(rotated, GAINS4 * rotation, BOOK44, 10.0)
        assert det_rot.label_hat == det.label_hat


def test_physical_observation_beam_structure():
    real = _grid_realization(seed=4)
    rho = 9.0
    for symbol in (BOOK44.symbols[27], BOOK44.symbols[0]):
        obs = qssm_observe_physical(symbol, real, rho, None)
        expected = np.zeros(4, dtype=complex)
        expected[symbol.k1 - 1] += np.sqrt(rho) * real.gains[symbol.k1 - 1] * symbol.x_re
        expected[symbol.k2 - 1] += 1j * np.sqrt(rho) * real.gains[symbol.k2 - 1] * symbol.x_im
        assert np.allclose(obs.z, expected, atol=1e-9)


def test_physical_beam_coincidence():
    real = _grid_realization(seed=6)
    symbol = next(s for s in BOOK44.symbols if s.k1 == s.k2 == 3)
    obs = qssm_observe_physical(symbol, real, 4.0, None)
    assert obs.z[2] == pytest.approx(2.0 * real.gains[2] * symbol.x, abs=1e-9)


def test_projected_noise_unit_variance():
    real = _grid_realization(seed=10)
    rng = np.random.default_rng(11)
    symbol = BOOK44.symbols[0]
    draws = np.empty(100_000, dtype=complex)
    # rho=0 leaves pure projected noise on every beam
    for i in range(0, 100_000, 4):
        z = qssm_observe_physical(symbol, real, 0.0, rng).z
        draws[i : i + 4] = z
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, rel=0.02)


def test_physical_noiseless_roundtrip_full_book():
    real = _grid_realization(seed=12)
    for symbol in BOOK44.symbols:
        obs = qssm_observe_physical(symbol, real, 10.0, None)
        det = ml_detect_physical(obs, real, BOOK44, 10.0)
        assert det.label_hat == symbol.label
        assert det.metric < 1e-18


def test_detectors_decide_among_the_book_they_are_given():
    """A book whose points are not the ones its (kind, order) builds: every symbol
    decodes to itself without noise.  Tables built from (kind, order) alone
    decided 12 of 16 symbols of the pi/4-rotated L=2 4QAM book wrongly."""
    qam = build_constellation(QAM, 4)
    rotated = Constellation(QAM, 4, qam.points * np.exp(0.3j), qam.labels)
    book = build_symbol_book(2, rotated)
    gains = GAINS4[:2]
    real = _grid_realization(L=2, seed=3)
    for symbol in book.symbols:
        obs = qssm_observe_ideal(symbol, gains, 100.0, None)
        assert ml_detect_ideal(obs, gains, book, 100.0).label_hat == symbol.label
        obs = qssm_observe_physical(symbol, real, 100.0, None)
        assert ml_detect_physical(obs, real, book, 100.0).label_hat == symbol.label
    for L in (1, 2, 4):
        k_idx, _, x_re, x_im = ssm_hypotheses(L, rotated)
        for v, (k, x) in enumerate(zip(k_idx, x_re + 1j * x_im)):
            obs = ssm_observe_ideal(int(k) + 1, x, GAINS4[:L], 100.0, None)
            det = ssm_detect_ideal(obs, GAINS4[:L], rotated, L, 100.0)
            assert int(det.label_hat, 2) == v


def test_physical_detector_total_on_duplicate_angle():
    theta = np.arcsin(1.0 / 16.0)
    real = ChannelRealization(
        gains=np.array([0.8 + 0.1j, -0.5 + 0.6j]),
        aod=np.array([theta, theta]),
        aoa=np.array([theta, theta]),
        tx_geometry=GEOM32,
        rx_geometry=GEOM32,
    )
    book = build_symbol_book(2, build_constellation(QAM, 4))
    symbol = book.symbols[5]
    obs = qssm_observe_physical(symbol, real, 10.0, np.random.default_rng(3))
    det = ml_detect_physical(obs, real, book, 10.0)
    assert det.label_hat in {s.label for s in book.symbols}


@pytest.mark.parametrize("rho", [-1.0, float("nan"), float("inf"), 1e301])
def test_per_symbol_chains_reject_a_bad_rho(rho):
    """Every observer and detector rejects rho outside [0, 1e300], the Monte
    Carlo ceiling, and NaN before it computes."""
    real = _grid_realization(seed=14)
    symbol = BOOK44.symbols[5]
    constellation = BOOK44.constellation
    calls = [
        lambda: qssm_observe_ideal(symbol, GAINS4, rho, None),
        lambda: qssm_observe_physical(symbol, real, rho, None),
        lambda: ssm_observe_ideal(1, constellation.points[0], GAINS4, rho, None),
        lambda: ml_detect_ideal(IdealObservation(0.3 + 0.1j, 1.0), GAINS4, BOOK44, rho),
        lambda: ml_detect_physical(PhysicalObservation(np.ones(4, complex)), real, BOOK44, rho),
        lambda: ssm_detect_ideal(IdealObservation(0.3 + 0.1j, 1.0), GAINS4, constellation, 4, rho),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="rho must be >= 0"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_per_symbol_detectors_refuse_non_finite_inputs():
    """A NaN or infinite gain or observation raises before detection: its metrics
    would be NaN, and np.argmin would decide the first label.  A NaN angle
    would reach the detector as NaN beam outputs, had the observer not refused it."""
    real = _grid_realization(seed=14)
    constellation = BOOK44.constellation
    y_ok = IdealObservation(0.3 + 0.1j, 1.0)
    z_ok = PhysicalObservation(np.ones(4, complex))
    cases = []
    for bad in (np.nan, np.inf):
        gains = np.array([1.0, 1.0, bad, 1.0], dtype=complex)
        bad_gains = ChannelRealization(gains, real.aod, real.aoa, GEOM32, GEOM32)
        y_bad = IdealObservation(complex(bad, 0.0), 1.0)
        z_bad = PhysicalObservation(np.array([1.0, bad, 1.0, 1.0], dtype=complex))
        cases += [
            (ml_detect_ideal, y_ok, gains, BOOK44),
            (ssm_detect_ideal, y_ok, gains, constellation, 4),
            (ml_detect_physical, z_ok, bad_gains, BOOK44),
            (ml_detect_ideal, y_bad, GAINS4, BOOK44),
            (ssm_detect_ideal, y_bad, GAINS4, constellation, 4),
            (ml_detect_physical, z_bad, real, BOOK44),
        ]
    nan_angle = ChannelRealization(
        real.gains, real.aod, np.array([np.nan, *real.aoa[1:]]), GEOM32, GEOM32
    )
    observation = PhysicalObservation(np.full(4, np.nan, dtype=complex))
    cases.append((ml_detect_physical, observation, nan_angle, BOOK44))
    for detect, *args in cases:
        with pytest.raises(ValueError, match="must be finite"):
            detect(*args, 10.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_per_symbol_observers_refuse_non_finite_inputs(bad):
    """A NaN or infinite gain, angle or signal point raises in the observer: it
    would turn y_r or every beam output NaN without an error."""
    real = _grid_realization(seed=14)
    symbol = BOOK44.symbols[5]
    gains = np.array([1.0, 1.0, bad, 1.0], dtype=complex)
    point = complex(BOOK44.constellation.points[0])
    realizations = [
        ChannelRealization(gains, real.aod, real.aoa, GEOM32, GEOM32),
        ChannelRealization(real.gains, np.array([bad, *real.aod[1:]]), real.aoa, GEOM32, GEOM32),
        ChannelRealization(real.gains, real.aod, np.array([*real.aoa[:3], bad]), GEOM32, GEOM32),
    ]
    calls = [
        lambda: qssm_observe_ideal(symbol, gains, 10.0, None),
        lambda: qssm_observe_ideal(dataclasses.replace(symbol, x_re=bad), GAINS4, 10.0, None),
        lambda: ssm_observe_ideal(2, point, gains, 10.0, None),
        lambda: ssm_observe_ideal(2, complex(bad, 0.0), GAINS4, 10.0, None),
        *(lambda r=r: qssm_observe_physical(symbol, r, 10.0, None) for r in realizations),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be finite"):
            call()
    # the finite inputs still observe
    assert np.isfinite(qssm_observe_ideal(symbol, GAINS4, 10.0, None).y_r)
    assert np.isfinite(ssm_observe_ideal(2, point, GAINS4, 10.0, None).y_r)
    assert np.isfinite(qssm_observe_physical(symbol, real, 10.0, None).z).all()


def test_per_symbol_detection_keeps_the_table_budget():
    """Detection refuses the books SimConfig refuses, before it builds a table:
    an L=32 16QAM book's W alone takes 74 MiB."""
    book = build_symbol_book(32, build_constellation(QAM, 16))
    with pytest.raises(ValueError, match="budget"):
        mc.SimConfig(mc.QSSM, 32, 16)
    mc._scheme_tables.cache_clear()
    with pytest.raises(ValueError, match="budget"):
        ml_detect_ideal(IdealObservation(0.3 + 0.1j, 1.0), np.ones(32, complex), book, 1.0)
    assert mc._scheme_tables.cache_info().currsize == 0


def test_detector_dimension_mismatch():
    real = _grid_realization(seed=14)
    with pytest.raises(ValueError):
        ml_detect_physical(PhysicalObservation(z=np.zeros(3, complex)), real, BOOK44, 1.0)


def _agreement_rate(snr_db, n_trials, seed):
    rng = np.random.default_rng(seed)
    rho = 10 ** (snr_db / 10)
    agree = 0
    for _ in range(n_trials):
        real = sample_channel(4, GEOM32, GEOM32, rng)
        symbol = BOOK44.symbols[rng.integers(0, len(BOOK44))]
        det_p = ml_detect_physical(
            qssm_observe_physical(symbol, real, rho, rng), real, BOOK44, rho
        )
        det_i = ml_detect_ideal(
            qssm_observe_ideal(symbol, real.gains, rho, rng), real.gains, BOOK44, rho
        )
        agree += det_p.label_hat == det_i.label_hat
    return agree / n_trials


def test_ideal_vs_physical_agreement_diagnostic():
    """Quantify the gap between the scalar idealisation and the array chain.

    The joint detector on the L beam outputs sees per-beam noise and the
    beam-energy signature, so it beats the scalar model at mid SNR; the two
    models only converge once both are nearly always right.
    """
    low = _agreement_rate(10.0, 2000, seed=31)
    high = _agreement_rate(40.0, 2000, seed=32)
    print(f"decision agreement: {low:.3f} @ 10 dB, {high:.3f} @ 40 dB")
    assert 0.15 < low < 0.45  # far from identical at mid SNR
    assert high >= 0.99


def test_noise_model_discrepancy_diagnostic():
    """The scalar model's single unit-variance noise versus the summed
    two-beam projection of element noise (which has variance 2)."""
    real = _grid_realization(seed=16)
    rng = np.random.default_rng(17)
    symbol = BOOK44.symbols[0]
    summed = np.empty(20_000, dtype=complex)
    for i in range(20_000):
        z = qssm_observe_physical(symbol, real, 0.0, rng).z
        summed[i] = z[0] + z[1]  # projections onto two distinct orthogonal beams
    var = np.mean(np.abs(summed) ** 2)
    print(f"summed two-beam projection variance: {var:.3f} (scalar model uses 1.0)")
    assert var == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# baseline chain
# ---------------------------------------------------------------------------

def test_ssm_noiseless_roundtrip():
    constellation = build_constellation(QAM, 4)
    for L in (1, 2, 4):
        gains = GAINS4[:L]
        k_idx, _, x_re, x_im = ssm_hypotheses(L, constellation)
        x = x_re + 1j * x_im
        for v in range(L * 4):
            obs = ssm_observe_ideal(int(k_idx[v]) + 1, x[v], gains, 10.0, None)
            det = ssm_detect_ideal(obs, gains, constellation, L, 10.0)
            assert det.k_hat == int(k_idx[v]) + 1
            assert det.x_hat == x[v]
            assert int(det.label_hat, 2) == v
            # complex*complex products differ by ~1 ulp between the scalar
            # observe path and the vectorised hypothesis path
            assert det.metric < 1e-25


def test_ssm_single_scatterer_reduces_to_plain_detection():
    constellation = build_constellation(QAM, 4)
    gains = np.array([0.9 - 0.4j])
    rng = np.random.default_rng(21)
    for _ in range(200):
        v = rng.integers(0, 4)
        obs = ssm_observe_ideal(1, constellation.points[v], gains, 100.0, rng)
        det = ssm_detect_ideal(obs, gains, constellation, 1, 100.0)
        # oracle: nearest point after matched scaling
        nearest = int(np.argmin(np.abs(obs.y_r / (10.0 * gains[0]) - constellation.points)))
        assert det.k_hat == 1
        assert int(det.label_hat, 2) == nearest


def test_ssm_index_validation():
    with pytest.raises(ValueError):
        ssm_observe_ideal(3, 1.0 + 0j, GAINS4[:2], 1.0, None)
