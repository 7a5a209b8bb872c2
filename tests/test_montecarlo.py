"""Monte Carlo engine: determinism, statistics, curves."""

import itertools
import multiprocessing
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from qssm.analysis import DEFAULT_CONVENTION, PepConvention, abep_union_bound, snr_db_to_rho
from qssm.channel import (
    DFT_GRID,
    MIN_SEP,
    steering_bank,
    ArrayGeometry,
    ChannelRealization,
    _dirichlet_gram,
    dft_grid_sines,
)
from qssm.modem import PSK, QAM, _is_pow2, build_constellation, build_symbol_book, ssm_hypotheses
from qssm import montecarlo
from qssm.montecarlo import (
    DEFAULT_SNR_GRID_DB,
    IDEAL,
    PHYSICAL,
    QSSM,
    SSM,
    STREAM_VERSION,
    TRIALS_PER_BLOCK,
    AbepCurve,
    BerEstimate,
    CurvePoint,
    SimConfig,
    _block_bit_errors,
    _complex_normals,
    _scheme_tables,
    _draw_sines,
    _substream,
    _PURPOSE_CHANNEL,
    _PURPOSE_LABELS,
    _PURPOSE_NOISE,
    _COMPLEX_BUDGET,
    _block_channel,
    _gram_factor,
    _observe_physical,
    _receive_gram,
    binomial_ci,
    crossing_snr_db,
    gain_at_level,
    run_point,
    sweep,
)
from qssm.transceiver import (
    IdealObservation,
    PhysicalObservation,
    ml_detect_ideal,
    ml_detect_physical,
)


def test_binomial_ci_examples():
    low, high = binomial_ci(0, 100)
    assert low == 0.0
    assert high < 0.05
    low, high = binomial_ci(50, 100)
    assert low < 0.5 < high
    assert high - low < 0.2
    assert abs((0.5 - low) - (high - 0.5)) < 0.01
    low, high = binomial_ci(100, 100)
    assert high == 1.0
    with pytest.raises(ValueError):
        binomial_ci(0, 0)
    with pytest.raises(ValueError):
        binomial_ci(5, 4)


@dataclass(frozen=True)
class _ParentConfigRules:
    """SimConfig's fields and __post_init__ as they stood while SimConfig restated
    the modem's, the array's and the angle sampler's input rules itself: the
    reference of test_config_accepts_what_the_restated_rules_accepted."""

    scheme: str
    L: int
    M: int
    kind: str = QAM
    channel_mode: str = IDEAL
    n_t: int = 32
    n_r: int = 32
    spacing: float = 0.5
    angle_mode: str = DFT_GRID
    snr_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB
    trials: int = 1_000_000
    seed: int = 0
    redraw: str = "per_trial"
    redraw_block: int = 128
    convention: PepConvention = DEFAULT_CONVENTION

    def __post_init__(self) -> None:
        if self.scheme not in (QSSM, SSM):
            raise ValueError(f"scheme must be '{QSSM}' or '{SSM}', got {self.scheme!r}")
        if self.kind not in (PSK, QAM):
            raise ValueError(f"kind must be '{PSK}' or '{QAM}', got {self.kind!r}")
        if not _is_pow2(self.L):
            raise ValueError(f"L must be a power of two >= 1, got {self.L}")
        if not _is_pow2(self.M) or self.M < 2:
            raise ValueError(f"M must be a power of two >= 2, got {self.M}")
        if self.kind == QAM and self.M == 2:
            raise ValueError("2QAM degenerates to BPSK; use kind='psk' with M=2")
        if self.channel_mode not in (IDEAL, PHYSICAL):
            raise ValueError(
                f"channel_mode must be '{IDEAL}' or '{PHYSICAL}', got {self.channel_mode!r}"
            )
        if self.scheme == SSM and self.channel_mode == PHYSICAL:
            raise ValueError("the SSM baseline chain is defined for ideal mode only")
        if self.angle_mode not in (DFT_GRID, MIN_SEP):
            raise ValueError(
                f"angle_mode must be '{DFT_GRID}' or '{MIN_SEP}', got {self.angle_mode!r}"
            )
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("n_t and n_r must be >= 1")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
        n_min = min(self.n_t, self.n_r)
        if self.channel_mode == PHYSICAL and self.L > n_min:
            raise ValueError(
                f"L={self.L} scatterers do not fit the {n_min}-point "
                "sine grid of the smaller array"
            )
        if self.channel_mode == PHYSICAL and self.angle_mode == MIN_SEP and self.L >= 2:
            # L gaps of at least period/N must fit the period; below half-wavelength
            # spacing the L - 1 inner gaps must also fit the arc of 2 sines cover
            gap = 1.0 / (self.spacing * n_min)
            if self.L == n_min or (self.spacing < 0.5 and (self.L - 1) * gap >= 2.0):
                raise ValueError(
                    f"min_sep angle sampling cannot place L={self.L} sines at gaps of "
                    f"{gap:g} on an array of {n_min} elements with spacing "
                    f"{self.spacing:g}; use angle_mode='{DFT_GRID}' or larger arrays"
                )
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if len(self.snr_db) == 0:
            raise ValueError("snr_db grid must not be empty")
        if not all(np.isfinite(s) for s in self.snr_db):
            raise ValueError("snr_db grid values must be finite")
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ValueError("snr_db grid must be strictly increasing")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.redraw not in ("per_trial", "per_block"):
            raise ValueError(
                f"redraw must be 'per_trial' or 'per_block', got {self.redraw!r}"
            )
        if self.redraw_block < 1:
            raise ValueError(f"redraw_block must be >= 1, got {self.redraw_block}")
        if not isinstance(self.convention, PepConvention):
            object.__setattr__(
                self, "convention", PepConvention(str(self.convention))
            )


def _accepts(build, **kwargs) -> bool:
    try:
        build(**kwargs)
    except ValueError:
        return False
    return True


def test_config_accepts_what_the_restated_rules_accepted():
    # SimConfig asks the modem, the arrays and the angle sampler instead of
    # restating their rules; it accepts what the restated rules accepted, except
    # orders the modem cannot build (M > 64) and detector tables over budget:
    # float64 W of 3L (+ L(L-1)/2 for QSSM) rows by S hypotheses, plus one
    # detection tile of at least 256 trials by S
    modes = [(c, a) for c in (IDEAL, PHYSICAL) for a in (DFT_GRID, MIN_SEP)]
    sizes = [(1, 2), (2, 1), (4, 8), (8, 4), (6, 7), (9, 12), (12, 33), (33, 16), (32, 31)]
    checked = {True: 0, False: 0}
    for scheme, kind, L, M in itertools.product(
        (QSSM, SSM), (PSK, QAM, "QAM"), (1, 2, 3, 4, 8, 12, 16, 32, 64),
        (2, 3, 4, 8, 16, 64, 96, 128, 256),
    ):
        S = L * L * M if scheme == QSSM else L * M
        rows = 3 * L + (L * (L - 1) // 2 if scheme == QSSM else 0)
        table_ok = 8 * (rows * S + max(256 * S, 1 << 18)) <= montecarlo._TABLE_BUDGET
        for (n_t, n_r), spacing, (channel_mode, angle_mode) in itertools.product(
            sizes, (0.25, 0.5, 1.0), modes
        ):
            kwargs = dict(
                scheme=scheme, kind=kind, L=L, M=M, n_t=n_t, n_r=n_r, spacing=spacing,
                channel_mode=channel_mode, angle_mode=angle_mode,
            )
            accepted = _accepts(SimConfig, **kwargs)
            expected = _accepts(_ParentConfigRules, **kwargs) and M <= 64 and table_ok
            assert accepted == expected, kwargs
            checked[accepted] += 1
    assert min(checked.values()) > 1000


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(scheme="qsm", L=4, M=4)
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=3, M=4)
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=4, M=5)
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=4, M=4, snr_db=(2.0, 1.0))
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=4, M=4, snr_db=(float("-inf"), 1.0))
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=4, M=2, kind="qam")
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=4, M=4, trials=0)
    with pytest.raises(ValueError):
        SimConfig(scheme="ssm", L=4, M=4, channel_mode="physical")
    with pytest.raises(ValueError):
        SimConfig(scheme="qssm", L=64, M=4, channel_mode="physical", n_t=32, n_r=32)
    # L min_sep gaps of at least period/N cannot fill the period when L == N
    physical = dict(scheme="qssm", M=4, channel_mode="physical")
    with pytest.raises(ValueError):
        SimConfig(**physical, L=4, n_t=4, n_r=4, angle_mode="min_sep")
    with pytest.raises(ValueError):
        SimConfig(**physical, L=4, n_t=32, n_r=4, angle_mode="min_sep")
    SimConfig(**physical, L=4, n_t=4, n_r=4, angle_mode="dft_grid")
    SimConfig(**physical, L=1, n_t=1, n_r=1, angle_mode="min_sep")
    # below half-wavelength spacing the sines cover an arc of 2 of the 1/spacing
    # period, so the L - 1 inner gaps of at least period/N must sum to less than 2
    with pytest.raises(ValueError):
        SimConfig(**physical, L=8, n_t=12, n_r=12, spacing=0.25, angle_mode="min_sep")
    with pytest.raises(ValueError):  # 3 gaps of exactly 2/3 fill the arc
        SimConfig(**physical, L=4, n_t=6, n_r=6, spacing=0.25, angle_mode="min_sep")
    SimConfig(**physical, L=4, n_t=7, n_r=7, spacing=0.25, angle_mode="min_sep")
    with pytest.raises(ValueError):
        SimConfig(**physical, L=4, n_t=12, n_r=12, spacing=0.0)
    feasible = SimConfig(
        **physical, L=4, n_t=32, n_r=32, spacing=0.25, angle_mode="min_sep", trials=64
    )
    assert run_point(feasible, 10.0).trials == 64
    cfg = SimConfig(scheme="qssm", L=4, M=4, convention="paper_eq21")
    assert cfg.convention.value == "paper_eq21"
    assert cfg.spectral_efficiency() == 6
    assert SimConfig(scheme="ssm", L=4, M=4).spectral_efficiency() == 4


def test_run_point_deterministic():
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(12.0,), trials=20_000, seed=3)
    a = run_point(cfg, 12.0)
    b = run_point(cfg, 12.0)
    assert a == b
    assert a.trials == 20_000
    assert a.ci_low <= a.abep <= a.ci_high


def test_run_point_worker_count_invariance():
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(10.0,), trials=3 * TRIALS_PER_BLOCK, seed=5)
    serial = run_point(cfg, 10.0, workers=1)
    parallel = run_point(cfg, 10.0, workers=2)
    assert serial == parallel
    # one pool for both points; the 0 dB point stops early, the 20 dB one runs all blocks
    cfg = SimConfig(
        scheme="qssm", L=2, M=4, snr_db=(0.0, 20.0), trials=3 * TRIALS_PER_BLOCK, seed=5
    )
    serial = sweep(cfg, workers=1, max_errors=40_000)
    parallel = sweep(cfg, workers=2, max_errors=40_000)
    assert serial == parallel
    first, second = (p.estimate for p in serial.points)
    assert first.trials == 2 * TRIALS_PER_BLOCK and first.bit_errors >= 40_000
    assert second.trials == cfg.trials and second.bit_errors < 40_000
    assert multiprocessing.active_children() == []  # the pool is closed on return


def test_run_point_high_snr_error_free():
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(80.0,), trials=10_000, seed=9)
    est = run_point(cfg, 80.0)
    assert est.abep <= 1e-3


def test_run_point_zero_power_is_coin_flipping():
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=100_000, seed=1)
    est = run_point(cfg, float("-inf"))
    assert est.abep == pytest.approx(0.5, abs=0.01)


def test_disjoint_seed_cis_overlap():
    # near-independent bit decisions at 0 dB keep the nominal interval honest
    cfg_a = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=100_000, seed=101)
    cfg_b = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=100_000, seed=202)
    a = run_point(cfg_a, 0.0)
    b = run_point(cfg_b, 0.0)
    assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high


def test_run_point_off_grid_snr_allowed():
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0), trials=5_000, seed=7)
    est = run_point(cfg, 7.5)
    assert est.snr_db == 7.5
    assert est.trials == 5_000


def test_max_errors_early_stop():
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=10 * TRIALS_PER_BLOCK, seed=2)
    est = run_point(cfg, 0.0, max_errors=1000)
    assert est.trials == TRIALS_PER_BLOCK  # first block already crosses 1000
    assert est.bit_errors >= 1000
    again = run_point(cfg, 0.0, max_errors=1000)
    assert est == again


def test_per_block_redraw_statistically_consistent():
    snr = 16.0
    base = SimConfig(scheme="qssm", L=4, M=4, snr_db=(snr,), trials=100_000, seed=5)
    per_block = SimConfig(
        scheme="qssm", L=4, M=4, snr_db=(snr,), trials=100_000, seed=5,
        redraw="per_block", redraw_block=64,
    )
    a = run_point(base, snr)
    b = run_point(per_block, snr)
    assert b.abep == pytest.approx(a.abep, rel=0.05)
    assert run_point(per_block, snr) == b


def test_block_tables_built_once_and_read_only(monkeypatch):
    builds = []

    def counting_build(*args):
        builds.append(args)
        return build_symbol_book(*args)

    monkeypatch.setattr(montecarlo, "build_symbol_book", counting_build)
    _scheme_tables.cache_clear()
    cfg = SimConfig(scheme="qssm", L=2, M=4, trials=300, seed=3)
    for block in range(3):
        _block_bit_errors(cfg, 10.0, block, 100)
    assert len(builds) == 1
    _, book, _, popcounts, coefficients, column_labels = _scheme_tables("qssm", QAM, 4, 2)
    for array in (
        book.k1_idx, book.x_re, book.constellation.points, popcounts, coefficients, column_labels
    ):
        with pytest.raises(ValueError):
            array[0] = 0
    _scheme_tables.cache_clear()


def _brute_force_block_errors(cfg: SimConfig, snr_db: float, block: int, n: int) -> int:
    """Bit errors of one block from |y - h|^2 over every hypothesis, first argmin."""
    rho = snr_db_to_rho(snr_db)
    constellation = build_constellation(cfg.kind, cfg.M)
    if cfg.scheme == "ssm":
        k_idx, _, x_re, x_im = ssm_hypotheses(cfg.L, constellation)
        x = x_re + 1j * x_im
        profile = np.zeros((len(x), cfg.L), dtype=complex)
        profile[np.arange(len(x)), k_idx] = x
    else:
        book = build_symbol_book(cfg.L, constellation)
        profile = np.zeros((len(book), cfg.L), dtype=complex)
        profile[np.arange(len(book)), book.k1_idx] += book.x_re
        profile[np.arange(len(book)), book.k2_idx] += 1j * book.x_im
    size = len(profile)
    labels = _substream(cfg.seed, snr_db, _PURPOSE_LABELS, block).integers(0, size, n)
    noise_rng = _substream(cfg.seed, snr_db, _PURPOSE_NOISE, block)
    crng = _substream(cfg.seed, snr_db, _PURPOSE_CHANNEL, block)
    gains = _complex_normals(crng, (n, cfg.L))
    if cfg.channel_mode == "ideal":
        y = np.sqrt(rho) * np.sum(gains * profile[labels], axis=1)
        y = y + _complex_normals(noise_rng, n)
        hyp = np.sqrt(rho) * gains @ profile.T  # (n, S)
        metrics = np.abs(y[:, None] - hyp) ** 2
    else:
        def steer(sines, size):  # (n, size, L) columns a(sin) / sqrt(N)
            phase = 2j * np.pi * cfg.spacing * np.arange(size)[None, :, None] * sines[:, None, :]
            return np.exp(phase) / np.sqrt(size)

        a_t = steer(_draw_sines(crng, n, cfg.L, cfg.n_t, cfg.angle_mode, cfg.spacing), cfg.n_t)
        a_r = steer(_draw_sines(crng, n, cfg.L, cfg.n_r, cfg.angle_mode, cfg.spacing), cfg.n_r)
        channel = np.einsum("nil,nl,njl->nij", a_r, gains, a_t.conj())  # sum_l g a_r a_t^H
        tx = np.einsum("njl,nl->nj", a_t, profile[labels])
        y = np.sqrt(rho) * np.einsum("nij,nj->ni", channel, tx)
        # projected element noise a_r^H n is CN(0, G_r): a Cholesky factor of the
        # dense Gram colours L white normals
        g_r = np.einsum("nil,nim->nlm", a_r.conj(), a_r)
        white = _complex_normals(noise_rng, (n, cfg.L))
        z = np.einsum("nil,ni->nl", a_r.conj(), y) + np.einsum(
            "nlm,nm->nl", np.linalg.cholesky(g_r), white
        )
        model = np.sqrt(rho) * gains[:, None, :] * profile[None, :, :]
        metrics = np.sum(np.abs(z[:, None, :] - model) ** 2, axis=2)
    label_hat = np.argmin(metrics, axis=1)
    return sum(bin(int(t) ^ int(h)).count("1") for t, h in zip(labels, label_hat))


@pytest.mark.parametrize(
    "scheme,L,M,kind,mode",
    [
        ("qssm", 4, 4, "qam", None),
        ("qssm", 8, 16, "qam", None),
        ("qssm", 4, 8, "psk", None),
        ("qssm", 4, 16, "psk", None),
        ("ssm", 4, 16, "qam", None),
        ("ssm", 16, 4, "psk", None),
        # BPSK has no imaginary part, so a QSSM column drops its k2 and merges
        ("qssm", 2, 2, "psk", None),
        ("ssm", 4, 2, "psk", None),
        ("qssm", 4, 4, "qam", "dft_grid"),
        ("qssm", 4, 4, "qam", "min_sep"),
    ],
)
def test_block_kernel_equals_brute_force_ml(scheme, L, M, kind, mode):
    """The real-GEMM detector decides as the exhaustive complex search does."""
    physical = {} if mode is None else dict(channel_mode="physical", angle_mode=mode)
    cfg = SimConfig(scheme=scheme, L=L, M=M, kind=kind, trials=1, seed=17, **physical)
    n = 512 if mode else 2048
    for snr_db in (0.0, 20.0, 40.0):
        for block in range(3):
            expected = _brute_force_block_errors(cfg, snr_db, block, n)
            assert _block_bit_errors(cfg, snr_db, block, n) == expected, (snr_db, block)


def _unmerged_coefficients(scheme: str, L: int, constellation) -> np.ndarray:
    """W with one column per label, from the README column formula: u^2 at row k1,
    v^2 added at row k2, -2u at Re row k1, +2v at Im row k2 and, for QSSM,
    +-2uv at the row of pair {k1, k2} (+ when k1 < k2); -0.0 written as 0.0."""
    M = constellation.order
    pairs = list(itertools.combinations(range(L), 2)) if scheme == "qssm" else []
    spatial = L * L if scheme == "qssm" else L
    W = np.zeros((3 * L + len(pairs), spatial * M))
    for label in range(spatial * M):
        k, x = label // M, constellation.points[label % M]
        k1, k2 = (k // L, k % L) if scheme == "qssm" else (k, k)
        u, v = x.real, x.imag
        W[k1, label] += u * u
        W[k2, label] += v * v
        W[L + k1, label] = -2.0 * u
        W[2 * L + k2, label] = 2.0 * v
        if k1 != k2:
            pair_row = 3 * L + pairs.index((min(k1, k2), max(k1, k2)))
            W[pair_row, label] = 2.0 * u * v * np.sign(k2 - k1)
    return W + 0.0


def test_psk_duplicate_hypotheses_merge_to_lowest_label():
    # a zero signal component leaves one scatterer index unused; hypotheses whose
    # unmerged columns are byte-equal share one column, which carries the lowest
    # label of its class, and columns follow those labels
    cases = itertools.product(("qssm", "ssm"), ("psk", "qam"), (1, 2, 4, 8), (2, 4, 8, 16, 64))
    for scheme, kind, L, M in cases:
        if kind == "qam" and M == 2:
            continue  # 2QAM is not a constellation
        W = _unmerged_coefficients(scheme, L, build_constellation(kind, M))
        first = {}
        for label, column in enumerate(W.T):
            first.setdefault(column.tobytes(), label)
        expected = np.array(sorted(first.values()))
        *_, coefficients, column_labels = _scheme_tables(scheme, kind, M, L)
        case = f"{scheme} L={L} {M}{kind}"
        np.testing.assert_array_equal(column_labels, expected, err_msg=case)
        np.testing.assert_array_equal(coefficients, W[:, expected], err_msg=case)
        if scheme == "qssm" and kind == "psk" and M <= 4 and L > 1:
            assert len(column_labels) < W.shape[1], case  # BPSK and QPSK points merge
    # at zero power every metric ties, so every trial decides label 0
    cfg = SimConfig(scheme="qssm", L=2, M=4, kind="psk", trials=1, seed=1)
    labels = _substream(1, float("-inf"), _PURPOSE_LABELS, 0).integers(0, 16, 1000)
    expected = sum(bin(int(t)).count("1") for t in labels)
    assert _block_bit_errors(cfg, float("-inf"), 0, 1000) == expected


def test_table_build_peak_near_coefficients():
    # W is built at the kept columns only: no per-column keys and no copy of W
    _scheme_tables.cache_clear()
    tracemalloc.start()
    try:
        coefficients = _scheme_tables("qssm", "qam", 64, 16)[4]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        _scheme_tables.cache_clear()
    assert peak < 1.5 * coefficients.nbytes


def test_detector_block_memory_within_budget():
    # one full L=8 16QAM block: the metric tiles stay below a single complex
    # temporary of the chunk budget (the B x S complex search needed several)
    cfg = SimConfig(scheme="qssm", L=8, M=16, trials=TRIALS_PER_BLOCK, seed=2)
    _scheme_tables(cfg.scheme, cfg.kind, cfg.M, cfg.L)
    tracemalloc.start()
    try:
        _block_bit_errors(cfg, 20.0, 0, TRIALS_PER_BLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * _COMPLEX_BUDGET


@pytest.mark.parametrize(
    "L,mode,n",
    [
        pytest.param(4, "dft_grid", 32, id="4-dft_grid"),
        pytest.param(4, "min_sep", 32, id="4-min_sep"),
        pytest.param(32, "dft_grid", 32, id="32-dft_grid"),
        # element noise of (B, N_r) took a block to 131 MiB here; the kernel draws
        # (B, L) normals, and the DFT-grid picks are drawn in row tiles
        pytest.param(4, "min_sep", 256, id="4-min_sep-256"),
        pytest.param(4, "dft_grid", 256, id="4-dft_grid-256"),
    ],
)
def test_physical_block_memory_within_budget(L, mode, n):
    # one full physical block: the Gram, factor and detector tiles, plus the
    # block's own arrays, stay below a single complex temporary of the budget
    cfg = SimConfig(
        scheme="qssm", L=L, M=4, channel_mode="physical", angle_mode=mode,
        n_t=n, n_r=n, trials=TRIALS_PER_BLOCK, seed=2,
    )
    _scheme_tables(cfg.scheme, cfg.kind, cfg.M, cfg.L)
    tracemalloc.start()
    try:
        _block_bit_errors(cfg, 20.0, 0, TRIALS_PER_BLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * _COMPLEX_BUDGET


def _dense_factor(gram):
    """np.linalg.cholesky of (B, L, L) dense Grams.  A beam that aliases an earlier
    one (|g| = 1 up to rounding) is that beam: it takes the beam's row and adds no
    column, so the factor of the Gram of distinct beams serves."""
    L = gram.shape[-1]
    alias = np.tril(np.abs(gram) > 1.0 - 1e-9, -1)
    first = np.where(alias.any(axis=2), alias.argmax(axis=2), np.arange(L))
    repeat = first != np.arange(L)
    distinct = np.where(repeat[:, :, None] | repeat[:, None, :], np.eye(L), gram)
    return np.take_along_axis(np.linalg.cholesky(distinct), first[:, :, None], axis=1)


def _dense_observe_physical(tx, rx, sin_aod, sin_aoa, gains, symbols, root_rho, white):
    """Beam outputs from (B, L, N) steering tensors and einsum Grams, in row chunks;
    the projected noise is the Cholesky factor of the dense Gram times ``white``."""
    k1, k2, x_re, x_im = symbols
    z = np.empty(gains.shape, dtype=complex)
    for a in range(0, len(gains), 1024):
        sl = slice(a, a + 1024)
        a_t, a_r = (
            np.exp(2j * np.pi * g.spacing_over_lambda * s[sl, :, None] * np.arange(g.n_elements))
            / np.sqrt(g.n_elements)
            for g, s in ((tx, sin_aod), (rx, sin_aoa))
        )
        g_t = np.einsum("bln,bmn->blm", a_t.conj(), a_t)
        g_r = np.einsum("bln,bmn->blm", a_r.conj(), a_r)
        r = np.arange(len(g_t))
        beams = x_re[sl][:, None] * g_t[r, :, k1[sl]] + 1j * x_im[sl][:, None] * g_t[r, :, k2[sl]]
        z[sl] = root_rho * np.einsum("blm,bm->bl", g_r, gains[sl] * beams) + np.einsum(
            "blm,bm->bl", _dense_factor(g_r), white[sl]
        )
    return z


def _physical_draws(rng, n, L, mode, spacing, n_t, n_r, beams):
    """(gains, aod, aoa, picks) of n trials.  With ``beams`` "sines" the sines come
    from _draw_sines and picks is None; with a redraw mode they are the DFT-grid
    points of the picks _block_channel draws for a block in that mode."""
    if beams == "sines":
        sin_aod = _draw_sines(rng, n, L, n_t, mode, spacing)
        sin_aoa = _draw_sines(rng, n, L, n_r, mode, spacing)
        return _complex_normals(rng, (n, L)), sin_aod, sin_aoa, None
    cfg = SimConfig(
        scheme="qssm", L=L, M=4, channel_mode="physical", angle_mode=mode, n_t=n_t, n_r=n_r,
        spacing=spacing, trials=n, seed=int(rng.integers(1 << 30)), redraw=beams,
    )
    gains, pick_aod, pick_aoa = _block_channel(cfg, 20.0, 0, n)
    assert pick_aod.dtype.kind == pick_aoa.dtype.kind == "i"
    sines = (dft_grid_sines(n_t)[pick_aod], dft_grid_sines(n_r)[pick_aoa])
    return gains, *sines, (pick_aod, pick_aoa)


def _beam_cases(*rows):
    """Params (L, mode, spacing, n_t, n_r, beams): a "sines" case is named by its
    first five values, a grid-pick case also by its redraw mode."""
    return [pytest.param(*row, id="-".join(map(str, row[:-1] if row[-1] == "sines" else row)))
            for row in rows]


@pytest.mark.parametrize(
    "L,mode,spacing,n_t,n_r,beams",
    _beam_cases(
        (4, "dft_grid", 0.5, 32, 32, "sines"),
        (4, "dft_grid", 0.25, 16, 12, "sines"),
        (4, "dft_grid", 1.0, 32, 32, "sines"),  # grid sines one apart steer the same beam
        (4, "min_sep", 0.5, 32, 32, "sines"),
        (1, "dft_grid", 0.5, 32, 32, "sines"),
        (8, "dft_grid", 0.5, 8, 8, "sines"),  # L = N: every grid beam is used
        # grid picks: the Gram entries come from the cached (N, N) tables
        (4, "dft_grid", 0.5, 32, 32, "per_trial"),
        (4, "dft_grid", 0.25, 16, 12, "per_block"),
        (4, "dft_grid", 1.0, 32, 32, "per_trial"),
        (1, "dft_grid", 0.5, 32, 32, "per_block"),
        (8, "dft_grid", 0.5, 8, 8, "per_trial"),
        (32, "dft_grid", 0.5, 32, 32, "per_block"),
    ),
)
def test_observe_physical_matches_dense_steering(L, mode, spacing, n_t, n_r, beams):
    """The closed-form chain equals the dense steering chain to 1e-12 of the signal
    scale; on grid picks, its table path gives the kernel's z byte for byte."""
    tx, rx = ArrayGeometry(n_t, spacing), ArrayGeometry(n_r, spacing)
    root_rho = 10.0
    for n in (1, TRIALS_PER_BLOCK):
        rng = np.random.default_rng(n + L)
        gains, sin_aod, sin_aoa, picks = _physical_draws(rng, n, L, mode, spacing, n_t, n_r, beams)
        symbols = (
            rng.integers(0, L, n), rng.integers(0, L, n),
            rng.choice([-3.0, -1.0, 1.0, 3.0], n), rng.choice([-3.0, -1.0, 1.0, 3.0], n),
        )
        scale = root_rho * 3.0 * np.abs(gains).max()
        for white in (_complex_normals(rng, (n, L)), np.zeros((n, L))):
            args = (tx, rx, sin_aod, sin_aoa, gains, symbols, root_rho, white)
            z = _observe_physical(*args)
            assert np.abs(z - _dense_observe_physical(*args)).max() <= 1e-12 * scale
            if picks is not None:
                table_args = (tx, rx, *picks, gains, symbols, root_rho, white)
                assert _observe_physical(*table_args).tobytes() == z.tobytes()
    if spacing == 1.0:  # an aliased pair: its closed-form Gram entry is 1 exactly
        assert _dirichlet_gram(np.array(-0.5), np.array(0.5), n_r, spacing) == 1.0
        assert (np.abs(sin_aoa[:, :, None] - sin_aoa[:, None, :]) == 1.0).any()


@pytest.mark.parametrize(
    "L,mode,spacing,n_t,n_r,beams",
    _beam_cases(
        (4, "dft_grid", 0.5, 32, 32, "sines"),
        (4, "min_sep", 0.5, 32, 32, "sines"),
        (4, "dft_grid", 0.25, 16, 12, "sines"),
        (4, "dft_grid", 1.0, 32, 32, "sines"),  # aliased pairs: entries of exactly 1 off the diagonal
        (1, "dft_grid", 0.5, 32, 32, "sines"),
        (32, "dft_grid", 0.5, 32, 32, "sines"),
        # grid picks: the pairs l < m come from the cached (N, N) table
        (4, "dft_grid", 0.5, 32, 32, "per_block"),
        (4, "dft_grid", 0.25, 16, 12, "per_trial"),
        (4, "dft_grid", 1.0, 32, 32, "per_block"),
        (1, "dft_grid", 0.5, 32, 32, "per_trial"),
        (8, "dft_grid", 0.5, 8, 8, "per_block"),
        (32, "dft_grid", 0.5, 32, 32, "per_trial"),
    ),
)
def test_receive_gram_upper_triangle_equals_full_evaluation(
    monkeypatch, L, mode, spacing, n_t, n_r, beams
):
    """Mirroring the pairs l < m changes no entry of g_r and no byte of z, and
    neither does reading the pairs of grid picks from the table."""

    def full_gram(sines, n_elements, spacing):
        return _dirichlet_gram(sines[:, :, None], sines[:, None, :], n_elements, spacing)

    n = 1500  # several tiles of the kernel, the last one partial
    tx, rx = ArrayGeometry(n_t, spacing), ArrayGeometry(n_r, spacing)
    rng = np.random.default_rng(L)
    gains, sin_aod, sin_aoa, picks = _physical_draws(rng, n, L, mode, spacing, n_t, n_r, beams)
    white = _complex_normals(rng, (n, L))
    symbols = (
        rng.integers(0, L, n), rng.integers(0, L, n),
        rng.choice([-3.0, -1.0, 1.0, 3.0], n), rng.choice([-3.0, -1.0, 1.0, 3.0], n),
    )
    expected = full_gram(sin_aoa, n_r, spacing)
    assert np.array_equal(_receive_gram(sin_aoa, n_r, spacing), expected)
    if spacing == 1.0:
        assert (expected[:, ~np.eye(L, dtype=bool)] == 1.0).any()
    args = (tx, rx, sin_aod, sin_aoa, gains, symbols, 10.0, white)
    z = _observe_physical(*args)
    if picks is not None:
        table_gram = _receive_gram(picks[1], n_r, spacing)
        assert table_gram.tobytes() == _receive_gram(sin_aoa, n_r, spacing).tobytes()
        table_args = (tx, rx, *picks, gains, symbols, 10.0, white)
        assert _observe_physical(*table_args).tobytes() == z.tobytes()
    monkeypatch.setattr(montecarlo, "_receive_gram", full_gram)
    assert z.tobytes() == _observe_physical(*args).tobytes()


@pytest.mark.parametrize(
    "n_t,n_r,tables",
    [
        (32, 16, [(32, 32), (16, 16)]),
        # 363^2 complex values exceed a tile's Gram budget: the receive side
        # evaluates the kernel per trial, the transmit side still reads its table
        (362, 363, [(362, 362)]),
    ],
)
def test_grid_blocks_evaluate_the_kernel_only_to_build_tables(monkeypatch, n_t, n_r, tables):
    """A DFT-grid block calls _dirichlet_gram once per (N, spacing) table, built on
    first use and cached read-only, unless N^2 exceeds _COMPLEX_BUDGET // 32."""
    shapes = []

    def counted(sines_l, sines_m, n_elements, spacing):
        shapes.append(np.broadcast_shapes(np.shape(sines_l), np.shape(sines_m)))
        return _dirichlet_gram(sines_l, sines_m, n_elements, spacing)

    monkeypatch.setattr(montecarlo, "_dirichlet_gram", counted)
    montecarlo._grid_gram.cache_clear()
    n = 1000
    for redraw in ("per_trial", "per_block"):
        cfg = SimConfig(
            scheme="qssm", L=4, M=4, channel_mode="physical", n_t=n_t, n_r=n_r,
            trials=n, seed=3, redraw=redraw,
        )
        _block_bit_errors(cfg, 20.0, 0, n)
    table_shapes = [shape for shape in shapes if shape in ((n_t, n_t), (n_r, n_r))]
    assert table_shapes == tables
    kernel_calls = len(shapes) - len(tables)
    assert (kernel_calls > 0) == (n_r * n_r > _COMPLEX_BUDGET // 32)
    assert not montecarlo._grid_gram(n_t, 0.5).flags.writeable


@pytest.mark.parametrize(
    "L,mode,spacing,n_r",
    [
        (4, "dft_grid", 0.5, 32),
        (4, "min_sep", 0.5, 32),
        (4, "dft_grid", 0.25, 12),  # the receive side of the 16/12-element arrays
        (4, "dft_grid", 1.0, 32),  # aliased pairs: the Gram is rank-deficient
        (1, "dft_grid", 0.5, 32),
        (32, "dft_grid", 0.5, 32),
    ],
)
def test_gram_factor_reproduces_receive_gram(L, mode, spacing, n_r):
    """F is lower-triangular and F F^H = G_r to 1e-12, rank-deficient Grams included."""
    rng = np.random.default_rng(L + n_r)
    gram = _receive_gram(_draw_sines(rng, 4096, L, n_r, mode, spacing), n_r, spacing)
    factor = _gram_factor(gram)
    assert not np.triu(factor, 1).any()
    assert np.abs(factor @ factor.conj().transpose(0, 2, 1) - gram).max() <= 1e-12
    if spacing == 1.0:
        # np.linalg.cholesky rejects these Grams; a beam that repeats an earlier
        # one exactly has a zero pivot, and its column of F stays zero
        trial, m, _ = np.nonzero(np.tril(gram == 1.0, -1))
        assert trial.size
        assert not factor[trial, :, m].any()
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(gram)


@pytest.mark.parametrize("mode,spacing", [("min_sep", 0.5), ("dft_grid", 1.0)])
def test_projected_noise_covariance_matches_element_noise(mode, spacing):
    """At rho = 0 the kernel's z has the covariance of A_r^H n, n unit element noise.

    One fixed realization, 2^16 draws of each.  An entry of a sample covariance
    of n unit-variance complex normals has standard deviation at most
    1/sqrt(n), its pseudo-covariance sqrt(2/n); the test allows 6 of them
    against G_r, and 6 * sqrt(2/n) between the two sample covariances.
    """
    n, L, N = 1 << 16, 4, 32
    geometry = ArrayGeometry(N, spacing)
    rng = np.random.default_rng(23)
    if mode == "min_sep":
        sines = _draw_sines(rng, 1, L, N, mode, spacing)[0]
    else:  # sines -0.5 and 0.5 one alias period apart: the same beam
        sines = np.array([-0.5, 0.5, 0.125, -0.25])
    a_r = steering_bank(geometry, np.arcsin(sines))  # (N, L)
    gram = a_r.conj().T @ a_r
    rows = np.repeat(sines[None], n, axis=0)
    symbols = (np.zeros(n, dtype=int), np.zeros(n, dtype=int), np.ones(n), np.ones(n))
    white = _complex_normals(rng, (n, L))
    z = _observe_physical(geometry, geometry, rows, rows, np.ones((n, L)), symbols, 0.0, white)
    z_dense = _complex_normals(rng, (n, N)) @ a_r.conj()
    one, two = 6.0 / np.sqrt(n), 6.0 * np.sqrt(2.0 / n)
    covariances = [draws.T @ draws.conj() / n for draws in (z, z_dense)]
    for covariance, draws in zip(covariances, (z, z_dense)):
        assert np.abs(covariance - gram).max() <= one
        assert np.abs(draws.T @ draws / n).max() <= two
    assert np.abs(covariances[0] - covariances[1]).max() <= two
    if spacing == 1.0:
        assert gram[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_stream_version_pins_counts():
    """Bit errors of one seeded block per model under stream version 2.  Ideal QSSM
    and SSM draw no physical noise, so theirs are the counts of version 1."""
    cases = [
        (dict(scheme="qssm", L=4, M=4), 10.0),
        (dict(scheme="qssm", L=8, M=16), 16.0),
        (dict(scheme="ssm", L=4, M=16), 16.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="dft_grid"), 10.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="min_sep"), 10.0),
    ]
    counts = [
        _block_bit_errors(SimConfig(trials=1, seed=9, **kw), snr_db, 1, TRIALS_PER_BLOCK)
        for kw, snr_db in cases
    ]
    assert STREAM_VERSION == 2
    assert counts[:3] == [31454, 63870, 18758]  # as in stream version 1
    assert counts[3:] == [10321, 10561]  # version 1 drew 10323 and 10567


def test_ideal_block_matches_one_shot_chain():
    """The vectorised block equals the single-shot transceiver chain draw for draw."""
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(10.0,), trials=300, seed=11)
    block_errors = _block_bit_errors(cfg, 10.0, 0, 300)
    book = build_symbol_book(4, build_constellation(QAM, 4))
    labels = _substream(11, 10.0, _PURPOSE_LABELS, 0).integers(0, 64, 300)
    noise = _complex_normals(_substream(11, 10.0, _PURPOSE_NOISE, 0), 300)
    gains = _complex_normals(_substream(11, 10.0, _PURPOSE_CHANNEL, 0), (300, 4))
    rho = snr_db_to_rho(10.0)
    errors = 0
    for t in range(300):
        s = book.symbols[labels[t]]
        y = np.sqrt(rho) * (
            gains[t, s.k1 - 1] * s.x_re + 1j * gains[t, s.k2 - 1] * s.x_im
        ) + noise[t]
        det = ml_detect_ideal(IdealObservation(y_r=complex(y), snr=rho), gains[t], book, rho)
        errors += bin(labels[t] ^ int(det.label_hat, 2)).count("1")
    assert block_errors == errors


def test_physical_block_matches_one_shot_chain():
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, channel_mode="physical", snr_db=(10.0,),
        trials=200, seed=13,
    )
    block_errors = _block_bit_errors(cfg, 10.0, 0, 200)
    book = build_symbol_book(4, build_constellation(QAM, 4))
    geom = ArrayGeometry(32)
    labels = _substream(13, 10.0, _PURPOSE_LABELS, 0).integers(0, 64, 200)
    white = _complex_normals(_substream(13, 10.0, _PURPOSE_NOISE, 0), (200, 4))
    crng = _substream(13, 10.0, _PURPOSE_CHANNEL, 0)
    gains = _complex_normals(crng, (200, 4))
    sin_aod = _draw_sines(crng, 200, 4, 32, "dft_grid", 0.5)
    sin_aoa = _draw_sines(crng, 200, 4, 32, "dft_grid", 0.5)
    rho = snr_db_to_rho(10.0)
    errors = 0
    for t in range(200):
        real = ChannelRealization(
            gains=gains[t],
            aod=np.mod(np.arcsin(sin_aod[t]), 2 * np.pi),
            aoa=np.mod(np.arcsin(sin_aoa[t]), 2 * np.pi),
            tx_geometry=geom,
            rx_geometry=geom,
        )
        s = book.symbols[labels[t]]
        a_t = steering_bank(geom, real.aod)
        a_r = steering_bank(geom, real.aoa)
        tx = a_t[:, s.k1 - 1] * s.x_re + 1j * a_t[:, s.k2 - 1] * s.x_im
        y = np.sqrt(rho) * (a_r * gains[t][None, :]) @ (a_t.conj().T @ tx)
        # the projected element noise a_r^H n, drawn as CN(0, a_r^H a_r)
        z = a_r.conj().T @ y + np.linalg.cholesky(a_r.conj().T @ a_r) @ white[t]
        det = ml_detect_physical(PhysicalObservation(z=z), real, book, rho)
        errors += bin(labels[t] ^ int(det.label_hat, 2)).count("1")
    assert block_errors == errors


def test_sweep_curve_against_bounds():
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, snr_db=(24.0, 28.0, 32.0, 36.0), trials=100_000, seed=4
    )
    curve = sweep(cfg)
    assert curve.config_hash == cfg.config_hash()
    sim = curve.values("sim")
    analytic = curve.values("analytic")
    # monotone up to Monte Carlo noise: allow CI overlap
    for i in range(len(sim) - 1):
        assert curve.points[i + 1].estimate.ci_low <= curve.points[i].estimate.ci_high
    # union bound dominates the simulation wherever it is meaningful
    for p, bound in zip(curve.points, analytic):
        if bound < 0.1:
            half = (p.estimate.ci_high - p.estimate.ci_low) / 2
            assert p.estimate.abep <= bound + 3 * half
    book = build_symbol_book(4, build_constellation(QAM, 4))
    assert analytic[0] == pytest.approx(abep_union_bound(book, snr_db_to_rho(24.0)))


def test_more_spatial_bits_cost_reliability():
    # L=8 sits above L=4 at the same modulation order and SNR
    est = {}
    bound = {}
    for L in (4, 8):
        cfg = SimConfig(scheme="qssm", L=L, M=4, snr_db=(20.0,), trials=50_000, seed=22)
        est[L] = run_point(cfg, 20.0).abep
        book = build_symbol_book(L, build_constellation(QAM, 4))
        bound[L] = abep_union_bound(book, snr_db_to_rho(20.0))
    assert est[8] > est[4]
    assert bound[8] > bound[4]


def test_ssm_sweep_tracks_its_bound():
    cfg = SimConfig(scheme="ssm", L=2, M=4, snr_db=(20.0,), trials=100_000, seed=9)
    curve = sweep(cfg)
    p = curve.points[0]
    assert p.estimate.abep <= p.abep_analytic
    assert p.abep_analytic < 1.4 * p.estimate.abep


def test_gain_at_level_constructed_curves():
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0, 20.0), trials=10, seed=0)

    def curve(snrs, values):
        points = tuple(
            CurvePoint(
                estimate=BerEstimate(
                    snr_db=s, trials=10, bit_errors=0, bits_per_trial=4,
                    abep=v, ci_low=v, ci_high=v,
                ),
                abep_analytic=v,
                abep_asymptotic=v,
            )
            for s, v in zip(snrs, values)
        )
        return AbepCurve(config=cfg, config_hash="x", points=points)

    snrs = [0.0, 10.0, 20.0]
    values = [1e-1, 1e-2, 1e-3]
    a = curve(snrs, values)
    assert gain_at_level(a, a, 3e-2) == pytest.approx(0.0)
    shifted = curve([s + 3.0 for s in snrs], values)
    assert gain_at_level(a, shifted, 3e-2) == pytest.approx(3.0)
    assert gain_at_level(a, shifted, 1e-3 * 1.01, values="analytic") == pytest.approx(3.0)
    with pytest.raises(ValueError):
        gain_at_level(a, shifted, 1e-9)
    with pytest.raises(ValueError):
        crossing_snr_db(np.array(snrs), np.array(values), -1.0)


def test_substreams_are_purpose_disjoint():
    a = _substream(1, 10.0, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    b = _substream(1, 10.0, _PURPOSE_NOISE, 0).integers(0, 2**63, 8)
    c = _substream(1, 10.2, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    d = _substream(2, 10.0, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    streams = [tuple(v) for v in (a, b, c, d)]
    assert len(set(streams)) == 4
