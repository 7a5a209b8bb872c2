"""Array response, channel sampling, and diagnostic tests."""

import itertools
import time

import numpy as np
import pytest

from qssm import channel, montecarlo
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
    _complex_normals,
    _dirichlet_gram,
    _draw_sines,
    _sines_separated,
)
from qssm.montecarlo import SimConfig

GEOM32 = ArrayGeometry(32)


def test_geometry_validation():
    # SimConfig's spacing rule, stated once here: a real number in (0, 2^20]
    # wavelengths, bools refused; beyond it every beam output of a DFT-grid
    # realization comes out equal (2^21) or NaN (inf)
    for spacing in (0.0, -0.5, 2.0**21, np.inf, np.nan, True, "0.5", 1 + 0j):
        with pytest.raises(ValueError, match="spacing must be a real number"):
            ArrayGeometry(4, spacing_over_lambda=spacing)
    for n in (0, -1, True, 4.0, "4"):
        with pytest.raises(ValueError, match="n_elements must be an integer >= 1"):
            ArrayGeometry(n)
    assert ArrayGeometry(4, montecarlo._MAX_SPACING).spacing_over_lambda == 2.0**20
    assert ArrayGeometry(np.int64(4), np.float32(0.25)).n_elements == 4


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


@pytest.mark.parametrize("shape", [None, 5, (300,), (300, 4)])
def test_complex_normals_bytes_equal_complex_division(shape):
    """The draws equal (re + 1j * im) / sqrt(2) to the byte, and to the type."""
    for seed in range(50):
        rng = np.random.default_rng(seed)
        divided = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)
        drawn = _complex_normals(np.random.default_rng(seed), shape)
        assert type(drawn) is type(divided)
        assert np.asarray(drawn).tobytes() == np.asarray(divided).tobytes()


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


def _masked_dirichlet(sines_l, sines_m, n_elements, spacing):
    """The Dirichlet kernel with a masked divide, kept as a reference."""
    angle = spacing * (sines_m - sines_l)
    angle -= np.rint(angle)
    angle *= np.pi
    den = n_elements * np.sin(angle)
    ratio = np.divide(np.sin(n_elements * angle), den, out=np.ones(angle.shape), where=den != 0)
    return ratio * np.exp((1j * (n_elements - 1)) * angle)


def _long_double_dirichlet(sines_l, sines_m, n_elements, spacing):
    """The closed form exp(j(N-1)theta) sin(N theta) / (N sin theta) in long double."""
    diff = np.asarray(sines_m, np.longdouble) - np.asarray(sines_l, np.longdouble)
    x = np.longdouble(spacing) * diff
    theta = (x - np.rint(x)) * (4 * np.arctan(np.longdouble(1)))
    den = n_elements * np.sin(theta)
    ratio = np.divide(
        np.sin(n_elements * theta), den, out=np.ones(theta.shape, np.longdouble), where=den != 0
    )
    return ratio * (np.cos((n_elements - 1) * theta) + 1j * np.sin((n_elements - 1) * theta))


@pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n_elements", [4, 32, 4096])
def test_dirichlet_gram_equals_masked_divide(spacing, n_elements):
    """The kernel is within 4*N*2^-52 of the long-double closed form, and of the
    masked divide, for arrays and 0-d; it is exactly 1 where f = 0 (a beam with
    itself, and at spacing 1 sines one alias period apart)."""
    bound = 4 * n_elements * 2.0**-52
    grid = dft_grid_sines(min(n_elements, 256))
    sines = np.concatenate([grid, np.sin(np.random.default_rng(n_elements).uniform(0, 7, 256))])
    pairs = (sines[:, None], sines[None, :])
    gram = _dirichlet_gram(*pairs, n_elements, spacing)
    exact = _long_double_dirichlet(*pairs, n_elements, spacing)
    assert np.abs(gram - exact).max() <= bound
    assert np.abs(gram - _masked_dirichlet(*pairs, n_elements, spacing)).max() <= bound
    assert (gram == 1.0).sum() >= len(sines)  # the diagonal, and aliases
    for s_l, s_m in ((0.3, 0.3), (-0.5, 0.5), (-1.0, 1.0), (0.1, 0.7)):
        one = _dirichlet_gram(np.array(s_l), np.array(s_m), n_elements, spacing)
        assert one.shape == ()
        for reference in (_long_double_dirichlet, _masked_dirichlet):
            assert abs(one - reference(np.array(s_l), np.array(s_m), n_elements, spacing)) <= bound
        if s_l == s_m:
            assert one == 1.0
    if spacing == 1.0:
        assert _dirichlet_gram(np.array(-0.5), np.array(0.5), n_elements, spacing) == 1.0


@pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0, 2.0])
def test_sines_separated_equals_mod_folding(spacing):
    """Folding with fmod and taking the gaps over whole rows of the sorted circle
    give np.mod's gaps, so every row gets np.mod's verdict, rows of one sine (one
    gap of a full period), exact multiples and row tiles included."""

    def with_mod(sines, n_elements):
        period = 1.0 / spacing
        folded = np.sort(np.mod(sines, period), axis=-1)
        gaps = np.diff(folded, axis=-1, append=folded[..., :1] + period)
        return gaps.min(axis=-1) >= period / n_elements

    rng = np.random.default_rng(int(8 * spacing))
    edges = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0, -1.0 / spacing, 1e-17, -1e-17])
    for L in (1, 2, 4, 8, 32):  # 32 runs in row tiles of _SEPARATION_TILE sines
        rows = np.concatenate([np.sin(rng.uniform(0, 2 * np.pi, (4096, L))),
                               rng.choice(edges, (512, L))])
        for n_elements in (4, 32):
            verdict = _sines_separated(rows, n_elements, spacing)
            np.testing.assert_array_equal(verdict, with_mod(rows, n_elements))
            if L == 1:
                assert verdict.all()


def test_kernel_rewrite_keeps_block_counts(monkeypatch):
    """Physical blocks count the same bit errors with the masked-divide kernel in
    place of _dirichlet_gram (grid tables rebuilt from it), for every config
    SimConfig accepts over both angle modes, spacings 0.25, 0.5 and 1.0 (aliased),
    N in {8, 32, 128}, L in {1, 4, 8} and three SNRs."""
    configs = []
    for mode, spacing, n, L in itertools.product(
        (DFT_GRID, MIN_SEP), (0.25, 0.5, 1.0), (8, 32, 128), (1, 4, 8)
    ):
        try:
            configs.append(SimConfig(
                scheme="qssm", L=L, M=4, channel_mode="physical", n_t=n, n_r=n,
                spacing=spacing, angle_mode=mode, trials=2048, seed=7,
            ))
        except ValueError:
            assert mode == MIN_SEP and L == n  # the only rejected combination
    assert len(configs) == 51

    def counts():
        montecarlo._grid_gram.cache_clear()
        return [
            montecarlo._block_bit_errors(cfg, snr_db, 0, cfg.trials)
            for cfg in configs
            for snr_db in (0.0, 10.0, 20.0)
        ]

    try:
        expected = counts()
        monkeypatch.setattr(montecarlo, "_dirichlet_gram", _masked_dirichlet)
        assert counts() == expected
    finally:
        monkeypatch.undo()
        montecarlo._grid_gram.cache_clear()


def test_draw_rule_keeps_half_wavelength_grid_counts(monkeypatch):
    """Physical DFT-grid blocks at spacing 0.5 count the same bit errors when
    every pick comes from the argsort of N uniforms: on the grid both Grams are
    the identity to about 1e-16, so z does not depend on which grid points were
    drawn.  N = 512 takes grid sines through the kernel instead of the table."""
    configs = [
        SimConfig(scheme="qssm", L=L, M=4, channel_mode="physical", n_t=n, n_r=n,
                  trials=2048, seed=7)
        for n in (8, 32, 128, 512)
        for L in (1, 4, 8)
    ]
    assert sum(channel._draws_ranks(cfg.L, cfg.n_t) for cfg in configs) == 11

    def counts():
        return [
            montecarlo._block_bit_errors(cfg, snr_db, 0, cfg.trials)
            for cfg in configs
            for snr_db in (0.0, 10.0, 20.0)
        ]

    expected = counts()
    monkeypatch.setattr(channel, "_draws_ranks", lambda L, n_elements: False)
    assert counts() == expected


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


def _ranked_picks(rng, n_rows, L, n_elements):
    """The rank draw by its definition: pick i is the free index of rank
    floor(u_i * (N - i)), popped from a list of the indices still free."""
    picks = []
    for row in rng.random((n_rows, L)).tolist():
        free = list(range(n_elements))
        picks.append([free.pop(int(u * (n_elements - i))) for i, u in enumerate(row)])
    return np.array(picks)


def test_dft_grid_sampler_tiles_draw_the_same_picks():
    # where L*L <= 4N a row takes L uniforms and decodes them as ranks; elsewhere row
    # tiles bound the (rows, N) uniforms and their argsort, and draw the same uniforms
    # in the same order.  Either way the picks and the generator state are those of
    # the rule's definition over every row at once
    cases = [
        (16384, 256, 4), (5000, 1000, 4), (3, 4096, 4), (1, 4096, 128), (2, 4096, 128),
        (16384, 256, 64), (5000, 1000, 64), (3, 4096, 256), (1, 32, 16),
    ]
    assert [channel._draws_ranks(L, n) for _, n, L in cases] == [True] * 5 + [False] * 4
    for n_rows, n_elements, L in cases:
        rng, ref_rng = np.random.default_rng(n_rows), np.random.default_rng(n_rows)
        sines = _draw_sines(rng, n_rows, L, n_elements, DFT_GRID)
        if channel._draws_ranks(L, n_elements):
            picks = _ranked_picks(ref_rng, n_rows, L, n_elements)
        else:
            picks = np.argsort(ref_rng.random((n_rows, n_elements)), axis=1)[:, :L]
        assert sines.tobytes() == dft_grid_sines(n_elements)[picks].tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert 256 * 16384 > channel._GRID_DRAW_TILE  # the argsort at N = 256 runs in several tiles


@pytest.mark.parametrize("L, n_elements", [(2, 4), (3, 5), (4, 4), (5, 5), (5, 6)])
def test_grid_picks_are_uniform_over_ordered_tuples(L, n_elements):
    """Over 2^20 rows no row repeats an index, and each of the K = N!/(N-L)!
    ordered tuples is counted within 6 binomial standard deviations
    sqrt(n*p*(1-p)) of n*p, p = 1/K: a fair draw fails one of the K counts
    with probability below K * 2e-9.  The first three cases take the rank
    draw, the last two the argsort."""
    n = 1 << 20
    assert channel._draws_ranks(L, n_elements) == (L * L <= 4 * n_elements)
    picks = channel._draw_grid_picks(np.random.default_rng(10 * L + n_elements), n, L, n_elements)
    assert picks.shape == (n, L) and picks.min() >= 0 and picks.max() < n_elements
    assert (np.diff(np.sort(picks, axis=1), axis=1) > 0).all()
    counts = np.bincount(picks @ n_elements ** np.arange(L), minlength=n_elements**L)
    tuples = [
        sum(p * n_elements**i for i, p in enumerate(t))
        for t in itertools.permutations(range(n_elements), L)
    ]
    p = 1.0 / len(tuples)
    assert counts[tuples].sum() == n
    assert np.abs(counts[tuples] - n * p).max() <= 6.0 * np.sqrt(n * p * (1.0 - p))


def test_largest_uniform_ranks_below_every_bound():
    """rng.random's largest value 1 - 2^-53 times N - i floors to N - i - 1 for
    every N - i <= 4096, in NumPy and in Python floats, so no rank reaches the
    count of free indices; drawn throughout, it picks the grid from the top."""
    top = np.nextafter(1.0, 0.0)
    assert top == 1.0 - 2.0**-53
    bounds = np.arange(1, montecarlo._MAX_ELEMENTS + 1, dtype=float)
    assert (np.floor(top * bounds) == bounds - 1).all()
    assert all(int(top * b) == b - 1 for b in bounds.tolist())

    class TopGenerator:
        def random(self, shape):
            return np.full(shape, top)

    for L, n_elements in ((1, 1), (4, 4), (4, 32), (128, 4096)):
        for n_rows in (1, 3):
            picks = channel._draw_grid_picks(TopGenerator(), n_rows, L, n_elements)
            assert (picks == np.arange(n_elements - 1, n_elements - 1 - L, -1)).all()


@pytest.mark.parametrize("n_rows", [1, 7, 16384])
def test_rank_draw_takes_L_uniforms_per_row(n_rows):
    # the generator ends where L uniforms per row leave it, at every N: the draw
    # is O(L) per row, not O(N)
    for L, n_elements in ((1, 1), (2, 4), (4, 32), (4, 4096), (32, 256), (128, 4096)):
        assert channel._draws_ranks(L, n_elements)
        rng, ref_rng = np.random.default_rng(L), np.random.default_rng(L)
        channel._draw_grid_picks(rng, n_rows, L, n_elements)
        ref_rng.random((n_rows, L))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_one_row_rank_decode_equals_the_vector_decode():
    # one row decodes in Python ints; it gives row 0 of the whole-row decode
    # from the same generator state
    for L, n_elements in itertools.product((1, 2, 3, 4, 8, 16, 32), (1, 2, 4, 5, 8, 33, 256, 4096)):
        if L > n_elements or not channel._draws_ranks(L, n_elements):
            continue
        for seed in range(20):
            one = channel._draw_grid_picks(np.random.default_rng(seed), 1, L, n_elements)
            rows = channel._draw_grid_picks(np.random.default_rng(seed), 3, L, n_elements)
            assert one.shape == (1, L) and one.dtype == rows.dtype
            np.testing.assert_array_equal(one, rows[:1])


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
