"""Array response, channel sampling, and diagnostic tests."""

import time

import numpy as np
import pytest

from qssm import channel
from qssm.channel import (
    DFT_GRID,
    MIN_SEP,
    ArrayGeometry,
    ChannelRealization,
    array_response,
    channel_matrix,
    dft_grid_sines,
    orthogonality_defect,
    realization_from_json,
    realization_to_json,
    sample_channel,
    sine_separation_ok,
    steering_bank,
    _draw_sines,
    _sines_separated,
)
from qssm.montecarlo import SimConfig

GEOM32 = ArrayGeometry(32)


def test_geometry_validation():
    with pytest.raises(ValueError):
        ArrayGeometry(0)
    with pytest.raises(ValueError):
        ArrayGeometry(4, spacing_over_lambda=0.0)


def test_array_response_zero_angle():
    a = array_response(ArrayGeometry(4), 0.0)
    assert np.allclose(a, 0.5 * np.ones(4))


def test_array_response_unit_norm():
    rng = np.random.default_rng(1)
    for n in (1, 2, 7, 32, 1024, 4096):
        theta = rng.uniform(0, 2 * np.pi)
        a = array_response(ArrayGeometry(n), theta)
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12


def test_array_response_rejects_nonfinite():
    with pytest.raises(ValueError):
        array_response(GEOM32, np.inf)


def test_dft_grid_entries_and_orthogonality():
    # sin(theta) = 1/16 on a 32-element half-wavelength array
    theta = np.arcsin(1.0 / 16.0)
    a = array_response(GEOM32, theta)
    n = np.arange(32)
    assert np.allclose(a, np.exp(1j * np.pi * n / 16.0) / np.sqrt(32.0), atol=1e-14)
    # direct-summation oracle for the inner product against sin = 3/16
    b = array_response(GEOM32, np.arcsin(3.0 / 16.0))
    inner = sum(a[i].conjugate() * b[i] for i in range(32))
    assert abs(inner) < 1e-12


def test_sample_channel_deterministic():
    r1 = sample_channel(4, GEOM32, GEOM32, np.random.default_rng(42))
    r2 = sample_channel(4, GEOM32, GEOM32, np.random.default_rng(42))
    assert np.array_equal(r1.gains, r2.gains)
    assert np.array_equal(r1.aod, r2.aod)
    assert np.array_equal(r1.aoa, r2.aoa)


def test_sample_channel_angle_ranges():
    rng = np.random.default_rng(3)
    for mode in (DFT_GRID, MIN_SEP):
        r = sample_channel(4, GEOM32, GEOM32, rng, mode)
        for angles in (r.aod, r.aoa):
            assert np.all(angles >= 0.0) and np.all(angles < 2 * np.pi)


def test_gain_unit_variance_single_path():
    rng = np.random.default_rng(7)
    draws = np.array(
        [sample_channel(1, ArrayGeometry(2), ArrayGeometry(2), rng).gains[0] for _ in range(100_000)]
    )
    assert np.mean(np.abs(draws) ** 2) == pytest.approx(1.0, abs=0.02)


def test_gain_component_moments():
    # 10^6 gains drawn through the sampler, 32 paths at a time
    rng = np.random.default_rng(11)
    gains = np.concatenate(
        [sample_channel(32, GEOM32, GEOM32, rng, DFT_GRID).gains for _ in range(31_250)]
    )
    assert gains.size == 1_000_000
    for part in (gains.real, gains.imag):
        assert np.mean(part) == pytest.approx(0.0, abs=0.01)
        assert np.var(part) == pytest.approx(0.5, abs=0.01)


def test_min_separation_invariant():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = sample_channel(4, GEOM32, GEOM32, rng, MIN_SEP)
        for angles in (r.aod, r.aoa):
            s = np.sin(angles)
            for i in range(4):
                for j in range(i + 1, 4):
                    assert abs(s[i] - s[j]) >= 1.0 / 16.0 - 1e-12
            assert sine_separation_ok(s, GEOM32)


@pytest.mark.parametrize("mode", [DFT_GRID, MIN_SEP])
@pytest.mark.parametrize(
    "tx, rx", [(GEOM32, GEOM32), (ArrayGeometry(16, 0.25), ArrayGeometry(12, 0.25))]
)
def test_sample_channel_is_one_row_of_the_block_sampler(mode, tx, rx):
    # the per-symbol sampler draws departure sines, arrival sines, then gains,
    # each side as a one-row batch of the Monte Carlo sampler
    for seed in range(20):
        real = sample_channel(4, tx, rx, np.random.default_rng(seed), mode)
        rng = np.random.default_rng(seed)
        sin_aod = _draw_sines(rng, 1, 4, tx.n_elements, mode, tx.spacing_over_lambda)[0]
        sin_aoa = _draw_sines(rng, 1, 4, rx.n_elements, mode, rx.spacing_over_lambda)[0]
        assert np.max(np.abs(np.sin(real.aod) - sin_aod)) <= 1e-15
        assert np.max(np.abs(np.sin(real.aoa) - sin_aoa)) <= 1e-15


def _full_recheck_sines(rng, n_rows, L, n_elements, spacing):
    """min_sep sampling that re-sorts and re-checks every row in every round."""
    sines = np.sin(rng.uniform(0.0, 2.0 * np.pi, (n_rows, L)))
    for _ in range(channel._MAX_REJECTION_ROUNDS):
        bad = ~_sines_separated(sines, n_elements, spacing)
        if not bad.any():
            return sines
        sines[bad] = np.sin(rng.uniform(0.0, 2.0 * np.pi, (int(bad.sum()), L)))
    raise ValueError(
        f"min_sep angle sampling placed no L={L} sines at gaps of "
        f"{1.0 / (spacing * n_elements):g} on N={n_elements} elements in "
        f"{channel._MAX_REJECTION_ROUNDS} rounds; use angle_mode='{DFT_GRID}' or larger arrays"
    )


def test_min_sep_sampler_matches_full_recheck(monkeypatch):
    # re-checking only the redrawn rows consumes the same draws: same sines, and
    # the generator is left in the same state for the gains drawn after them
    for seed in range(20):
        for n_rows in (1, 16384):
            for spacing in (0.5, 0.25):
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                sines = _draw_sines(rng, n_rows, 4, 32, MIN_SEP, spacing)
                expected = _full_recheck_sines(ref_rng, n_rows, 4, 32, spacing)
                assert sines.tobytes() == expected.tobytes(), (seed, n_rows, spacing)
                assert rng.bit_generator.state == ref_rng.bit_generator.state
    # L=8 on 9 elements is feasible but almost never sampled; a lower cap reaches
    # the same raise in fewer rounds
    monkeypatch.setattr(channel, "_MAX_REJECTION_ROUNDS", 2000)
    with pytest.raises(ValueError) as raised:
        _draw_sines(np.random.default_rng(0), 1, 8, 9, MIN_SEP, 0.5)
    with pytest.raises(ValueError) as expected:
        _full_recheck_sines(np.random.default_rng(0), 1, 8, 9, 0.5)
    assert str(raised.value) == str(expected.value)


def test_dft_grid_sampler_tiles_draw_the_same_picks():
    # row tiles bound the (rows, N) uniforms and their argsort; they draw the same
    # uniforms in the same order, so the picks and the generator state are those
    # of one argsort over every row
    for n_rows, n_elements in ((16384, 256), (5000, 1000), (3, 4096)):
        rng, ref_rng = np.random.default_rng(n_rows), np.random.default_rng(n_rows)
        sines = _draw_sines(rng, n_rows, 4, n_elements, DFT_GRID)
        picks = np.argsort(ref_rng.random((n_rows, n_elements)), axis=1)[:, :4]
        assert sines.tobytes() == dft_grid_sines(n_elements)[picks].tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert 256 * 16384 > channel._GRID_DRAW_TILE  # the first case runs in several tiles


def test_min_separation_infeasible():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError):
        sample_channel(33, GEOM32, GEOM32, rng, MIN_SEP)
    with pytest.raises(ValueError):
        sample_channel(33, GEOM32, GEOM32, rng, DFT_GRID)
    with pytest.raises(ValueError):
        sample_channel(0, GEOM32, GEOM32, rng)
    # L gaps of period/N fill the whole period at L = N, and below half-wavelength
    # spacing 7 gaps of 1/3 overrun the arc of 2 that sines cover: both are
    # rejected before any round of the rejection sampler
    for L, geometry in ((4, ArrayGeometry(4)), (8, ArrayGeometry(12, 0.25))):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="cannot place"):
            sample_channel(L, geometry, geometry, rng, MIN_SEP)
        assert time.perf_counter() - start < 0.5
        with pytest.raises(ValueError, match="cannot place"):
            sample_channel(L, GEOM32, geometry, rng, MIN_SEP)


def test_sample_channel_accepts_what_physical_config_accepts(monkeypatch):
    # one feasibility rule for both: the sampler's up-front check and SimConfig in
    # physical mode accept the same (L, N, spacing, angle mode).  With no rejection
    # rounds an accepted min_sep draw ends in SamplingError, raised only after
    # the check has passed
    monkeypatch.setattr(channel, "_MAX_REJECTION_ROUNDS", 0)
    rng = np.random.default_rng(0)
    for L in (1, 2, 4, 8, 16, 32):
        for n in range(1, 34):
            for spacing in (0.25, 0.3, 0.5, 1.0):
                for mode in (DFT_GRID, MIN_SEP):
                    geometry = ArrayGeometry(n, spacing)
                    try:
                        sample_channel(L, geometry, geometry, rng, mode)
                        sampled = True
                    except channel.SamplingError:
                        sampled = True
                    except ValueError:
                        sampled = False
                    try:
                        SimConfig(
                            scheme="qssm", L=L, M=4, channel_mode="physical", n_t=n,
                            n_r=n, spacing=spacing, angle_mode=mode,
                        )
                        configured = True
                    except ValueError:
                        configured = False
                    assert sampled == configured, (L, n, spacing, mode)


def test_orthogonality_defect_dft_grid():
    rng = np.random.default_rng(9)
    for _ in range(20):
        r = sample_channel(4, GEOM32, GEOM32, rng, DFT_GRID)
        assert orthogonality_defect(r) < 1e-10


def test_orthogonality_defect_duplicate_angle():
    theta = np.arcsin(1.0 / 16.0)
    r = ChannelRealization(
        gains=np.array([1.0 + 0j, 1.0 + 0j]),
        aod=np.array([theta, theta]),
        aoa=np.array([theta, np.arcsin(3.0 / 16.0)]),
        tx_geometry=GEOM32,
        rx_geometry=GEOM32,
    )
    assert orthogonality_defect(r) == pytest.approx(1.0, abs=1e-12)


def test_orthogonality_defect_min_sep_bounded():
    # empirical maximum over 1000 draws sits below the first Dirichlet sidelobe bump
    rng = np.random.default_rng(123)
    worst = max(
        orthogonality_defect(sample_channel(4, GEOM32, GEOM32, rng, MIN_SEP))
        for _ in range(1000)
    )
    assert worst < 0.25


def test_defect_needs_two_paths():
    rng = np.random.default_rng(2)
    r = sample_channel(1, GEOM32, GEOM32, rng)
    with pytest.raises(ValueError):
        orthogonality_defect(r)


def test_channel_matrix_rank_one():
    r = ChannelRealization(
        gains=np.array([1.0 + 0j]),
        aod=np.array([0.0]),
        aoa=np.array([0.0]),
        tx_geometry=ArrayGeometry(8),
        rx_geometry=ArrayGeometry(4),
    )
    h = channel_matrix(r)
    assert h.shape == (4, 8)
    assert np.allclose(h, np.ones((4, 8)) / np.sqrt(32.0))


def test_channel_matrix_frobenius_moment():
    rng = np.random.default_rng(17)
    total = 0.0
    n_draws = 10_000
    for _ in range(n_draws):
        r = sample_channel(4, GEOM32, GEOM32, rng, DFT_GRID)
        total += np.linalg.norm(channel_matrix(r), "fro") ** 2
    assert total / n_draws == pytest.approx(4.0, rel=0.02)


def test_effective_gains_recovered_on_grid():
    rng = np.random.default_rng(19)
    r = sample_channel(4, GEOM32, GEOM32, rng, DFT_GRID)
    h = channel_matrix(r)
    a_t = steering_bank(r.tx_geometry, r.aod)
    a_r = steering_bank(r.rx_geometry, r.aoa)
    for l in range(4):
        extracted = a_r[:, l].conj() @ h @ a_t[:, l]
        assert abs(extracted - r.gains[l]) < 1e-9


def test_dft_grid_sines_cover_unit_interval():
    s = dft_grid_sines(32)
    assert s[0] == -1.0
    assert s[-1] == pytest.approx(1.0 - 2.0 / 32.0)
    assert np.all(np.diff(s) == pytest.approx(2.0 / 32.0))


def test_json_roundtrip():
    rng = np.random.default_rng(23)
    r = sample_channel(3, ArrayGeometry(16), ArrayGeometry(8, 0.25), rng, MIN_SEP)
    r2 = realization_from_json(realization_to_json(r))
    assert np.allclose(r.gains, r2.gains)
    assert np.allclose(r.aod, r2.aod)
    assert np.allclose(r.aoa, r2.aoa)
    assert r2.tx_geometry == r.tx_geometry
    assert r2.rx_geometry == r.rx_geometry
