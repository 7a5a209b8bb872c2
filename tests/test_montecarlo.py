"""Monte Carlo engine: determinism, statistics, curves."""

import concurrent.futures
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from qssm.analysis import abep_union_bound, snr_db_to_rho
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
    _block_channel,
    _gram_factor,
    _observe_physical,
    _receive_gram,
    binomial_ci,
    check_bound,
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
    # a point of 2^40 trials runs for days even at the fastest config
    for trials in (2**40 + 1, 10**400):
        with pytest.raises(ValueError, match=r"trials must be in \[1, 2\^40\]"):
            SimConfig(scheme="qssm", L=4, M=4, trials=trials)
    assert SimConfig(scheme="qssm", L=4, M=4, trials=2**40).trials == 2**40
    # the substreams key a seed as 64 bits: seeds outside [0, 2^64) would alias
    for seed in (-1, 1 << 64):
        with pytest.raises(ValueError, match="seed must be in"):
            SimConfig(scheme="qssm", L=4, M=4, seed=seed)
    assert SimConfig(scheme="qssm", L=4, M=4, seed=(1 << 64) - 1).seed == (1 << 64) - 1
    # grid points lie at or below the 3000 dB ceiling (rho = 1e300), past which the
    # detector's metrics and the bounds overflow
    with pytest.raises(ValueError, match="above the 3000 dB ceiling"):
        SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0, 3083.0))
    with pytest.raises(ValueError, match="above the 3000 dB ceiling"):
        SimConfig(scheme="qssm", L=4, M=4, snr_db=(float(np.nextafter(3000.0, 4000.0)),))
    SimConfig(scheme="qssm", L=4, M=4, snr_db=(3000.0,))
    # array sides are bounded, in either channel mode
    for mode in ("ideal", "physical"):
        with pytest.raises(ValueError, match="n_t and n_r must be <= 4096"):
            SimConfig(scheme="qssm", L=4, M=4, channel_mode=mode, n_t=4097)
        with pytest.raises(ValueError, match="n_t and n_r must be <= 4096"):
            SimConfig(scheme="qssm", L=4, M=4, channel_mode=mode, n_r=10**20)
        SimConfig(scheme="qssm", L=4, M=4, channel_mode=mode, n_t=4096, n_r=4096)
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
    # spacing is a finite real number up to 2^20 wavelengths, past which the Gram
    # kernel's reduced angle loses its fraction bits (1e308 overflows to NaN)
    for spacing in (float("inf"), float("nan"), 1e308, True, "0.5", np.nextafter(2.0**20, 3e6)):
        with pytest.raises(ValueError, match="spacing must be a real number"):
            SimConfig(**physical, L=4, spacing=spacing)
    assert SimConfig(**physical, L=4, spacing=2.0**20).spacing == 2**20
    # SNR points are numbers, not bools
    for grid in ((True,), (0.0, np.True_)):
        with pytest.raises(ValueError, match="not bools"):
            SimConfig(scheme="qssm", L=4, M=4, snr_db=grid)
    feasible = SimConfig(
        **physical, L=4, n_t=32, n_r=32, spacing=0.25, angle_mode="min_sep", trials=64
    )
    assert run_point(feasible, 10.0).trials == 64
    # a result file carries the exact_model bound only: convention is no field
    with pytest.raises(TypeError, match="convention"):
        SimConfig(scheme="qssm", L=4, M=4, convention="paper_eq21")
    assert len(fields(SimConfig)) == 12
    cfg = SimConfig(scheme="qssm", L=4, M=4)
    assert cfg.spectral_efficiency() == 6
    assert SimConfig(scheme="ssm", L=4, M=4).spectral_efficiency() == 4


@pytest.mark.parametrize(
    "config",
    [
        dict(scheme="qssm", L=16, M=64),
        dict(scheme="ssm", L=16, M=64),
        dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="dft_grid"),
        dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="min_sep"),
    ],
    ids=["qssm-L16-64qam", "ssm-L16-64qam", "physical-L4-dft_grid", "physical-L4-min_sep"],
)
def test_snr_ceiling_runs_without_overflow(config):
    """A point at the 3000 dB ceiling runs without a RuntimeWarning (the suite
    makes them errors) and with finite bounds; 3060 dB overflowed the detector's
    metrics of the 64QAM books in 4096 trials."""
    curve = sweep(SimConfig(**config, snr_db=(3000.0,), trials=4096, seed=1))
    point = curve.points[0]
    assert point.estimate.trials == 4096
    assert np.isfinite(point.abep_analytic) and np.isfinite(point.abep_asymptotic)


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
    # one queue for five points: 0 dB stops in block 0, 6 and 10 dB in block 1,
    # 14 dB in its last block, and 20 dB runs to the cap without crossing
    cfg = SimConfig(
        scheme="qssm", L=2, M=4, snr_db=(0.0, 6.0, 10.0, 14.0, 20.0),
        trials=4 * TRIALS_PER_BLOCK, seed=5,
    )
    serial = sweep(cfg, workers=1, max_errors=20_000)
    assert sweep(cfg, workers=2, max_errors=20_000) == serial
    assert [p.estimate.trials // TRIALS_PER_BLOCK for p in serial.points] == [1, 2, 2, 4, 4]
    assert serial.points[-1].estimate.bit_errors < 20_000
    # shaped like the physical_sweep benchmark: 10 dB stops in block 0, 25 dB runs to the cap
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, channel_mode=PHYSICAL, angle_mode=MIN_SEP,
        snr_db=(10.0, 25.0), trials=2 * TRIALS_PER_BLOCK, seed=1,
    )
    serial = sweep(cfg, workers=1, max_errors=2000)
    assert sweep(cfg, workers=2, max_errors=2000) == serial
    assert [p.estimate.trials // TRIALS_PER_BLOCK for p in serial.points] == [1, 2]


# ---------------------------------------------------------------------------
# the process pool: one per process, kept across calls
# ---------------------------------------------------------------------------

two_cpus = pytest.mark.skipif(
    montecarlo._pool_size(2) < 2, reason="workers=2 runs serially on one CPU"
)
_POOL_CFG = SimConfig(
    scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0), trials=2 * TRIALS_PER_BLOCK, seed=5
)
_TEST_PID = os.getpid()


def _worker_pids() -> list[int]:
    return sorted(p.pid for p in multiprocessing.active_children())


def _kill_worker(*args):
    """Stands in for a block: the worker process running it dies."""
    assert os.getpid() != _TEST_PID, "a block meant for a pool ran in the test process"
    os.kill(os.getpid(), signal.SIGKILL)


@two_cpus
def test_one_pool_serves_every_sweep():
    serial = sweep(_POOL_CFG, workers=1)
    assert sweep(_POOL_CFG, workers=2) == serial
    pids = _worker_pids()
    assert len(pids) == 2
    assert sweep(_POOL_CFG, workers=2) == serial
    assert _worker_pids() == pids


def test_another_pool_size_gives_a_new_pool():
    first = montecarlo._process_pool(2)
    assert montecarlo._process_pool(2) is first
    other = montecarlo._process_pool(1)
    assert other is not first
    with pytest.raises(RuntimeError, match="shutdown"):  # the old pool was shut down
        first.submit(int, "7")
    assert other.submit(int, "7").result() == 7


def _blas_threads() -> int:
    """Run in a pool worker: the thread count of NumPy's OpenBLAS there."""
    return montecarlo._bundled_openblas().scipy_openblas_get_num_threads64_()


def test_pool_workers_run_one_blas_thread():
    if montecarlo._bundled_openblas() is None:
        pytest.skip("NumPy links a BLAS other than the wheel's scipy-openblas")
    assert montecarlo._process_pool(2).submit(_blas_threads).result() == 1


class _InlineExecutor:
    """Stands in for ProcessPoolExecutor: records its size, starts no process
    and runs each block at submit."""

    _broken = False

    def __init__(self, max_workers: int, sizes: list) -> None:
        sizes.append(max_workers)

    def submit(self, fn, *args):
        future = Future()
        try:
            future.set_result(fn(*args))
        except Exception as exc:  # a pool hands a block's error to its future
            future.set_exception(exc)
        return future

    def shutdown(self, wait=True, *, cancel_futures=False) -> None:
        pass


def test_pool_size_is_capped_at_usable_cpus(monkeypatch):
    sizes: list = []
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers, initializer: _InlineExecutor(max_workers, sizes),
    )
    monkeypatch.setattr(montecarlo, "_pool", None)  # a kept real pool comes back untouched
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(10.0,), trials=3 * TRIALS_PER_BLOCK, seed=5)
    assert run_point(cfg, 10.0, workers=100_000) == run_point(cfg, 10.0)
    assert sweep(cfg, workers=3) == sweep(cfg)
    assert sizes == [3]  # one pool of 3 served both calls


def test_workers_below_one_are_rejected_before_any_pool(monkeypatch):
    def no_pool(size):
        raise AssertionError("a pool was requested")

    monkeypatch.setattr(montecarlo, "_process_pool", no_pool)
    for workers in (0, -1):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_point(_POOL_CFG, 0.0, workers=workers)
        with pytest.raises(ValueError, match="workers must be >= 1"):
            sweep(_POOL_CFG, workers=workers)


@two_cpus
def test_pool_broken_while_idle_is_replaced():
    serial = sweep(_POOL_CFG, workers=1)
    assert sweep(_POOL_CFG, workers=2) == serial
    pids = _worker_pids()
    os.kill(pids[0], signal.SIGKILL)
    # the pool notices, marks itself broken and ends its other worker
    deadline = time.monotonic() + 30.0
    while _worker_pids() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert _worker_pids() == []
    assert sweep(_POOL_CFG, workers=2) == serial
    assert len(_worker_pids()) == 2 and not set(_worker_pids()) & set(pids)


class _RecordingExecutor(_InlineExecutor):
    """_InlineExecutor that logs the (SNR, block index) of each submitted block.
    A block listed in ``stalled`` never runs: its future stays pending."""

    def __init__(self, max_workers: int, log: list, stalled=()) -> None:
        super().__init__(max_workers, [])
        self.log, self.stalled, self.pending = log, stalled, []

    def submit(self, fn, config, snr_db, block, trials):
        self.log.append((snr_db, block))
        if (snr_db, block) in self.stalled:
            self.pending.append(Future())
            return self.pending[-1]
        return super().submit(fn, config, snr_db, block, trials)


def _recording_pool(monkeypatch, stalled=()):
    """Install a _RecordingExecutor as the pool of 2 that workers=2 gets, with no
    second CPU needed.  Returns the submission log, the number of futures
    each wait of the block queue was given, and the executors made."""
    log, waits, executors = [], [], []
    real_wait = concurrent.futures.wait

    def recording_wait(fs, **kwargs):
        waits.append(len(fs))
        return real_wait(fs, **kwargs)

    def make(max_workers, initializer):
        executors.append(_RecordingExecutor(max_workers, log, stalled))
        return executors[-1]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
    monkeypatch.setattr(concurrent.futures, "wait", recording_wait)
    monkeypatch.setattr(montecarlo, "_pool", None)  # a kept real pool comes back untouched
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return log, waits, executors


def test_sweep_queues_needed_blocks_before_speculative_ones(monkeypatch):
    """One block queue per sweep on a stand-in pool of 2 that runs each block
    as it is submitted, so every block in flight finishes by the next wait."""
    log, waits, _ = _recording_pool(monkeypatch)
    # shaped like physical_sweep: 10 dB stops in block 0 through max_errors,
    # 25 dB runs to its 2-block cap; a queue per point would submit 4 blocks
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, channel_mode=PHYSICAL, snr_db=(10.0, 25.0),
        trials=2 * TRIALS_PER_BLOCK, seed=1,
    )
    assert sweep(cfg, workers=2, max_errors=2000) == sweep(cfg, max_errors=2000)
    assert log == [(10.0, 0), (25.0, 0), (25.0, 1)]
    # every point stops in block 0: one block per point
    log.clear()
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, snr_db=tuple(range(0, 20, 2)),
        trials=4 * TRIALS_PER_BLOCK, seed=5,
    )
    assert sweep(cfg, workers=2, max_errors=1000) == sweep(cfg, max_errors=1000)
    assert log == [(snr_db, 0) for snr_db in cfg.snr_db]
    # with no max_errors every block is needed: each once, in (point, block) order
    log.clear()
    cfg = SimConfig(
        scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0, 20.0),
        trials=2 * TRIALS_PER_BLOCK + 100, seed=5,
    )
    assert sweep(cfg, workers=2) == sweep(cfg)
    assert log == [(snr_db, b) for snr_db in cfg.snr_db for b in range(3)]
    assert max(waits) == 2  # the pool is kept full, never over-full


def _fail_at_10_db(config, snr_db, block, trials):
    """Stands in for a block: the blocks of the 10 dB point raise."""
    if snr_db == 10.0:
        raise ValueError(f"block {block} at {snr_db:g} dB failed")
    return _block_bit_errors(config, snr_db, block, trials)


def test_block_error_cancels_queued_blocks(monkeypatch):
    log, _, executors = _recording_pool(monkeypatch, stalled={(10.0, 1)})
    monkeypatch.setattr(montecarlo, "_block_bit_errors", _fail_at_10_db)
    with pytest.raises(ValueError, match="block 0 at 10 dB failed"):
        sweep(_POOL_CFG, workers=2)
    assert log == [(0.0, 0), (0.0, 1), (10.0, 0), (10.0, 1)]
    (stalled,) = executors[0].pending
    assert stalled.cancelled()


@two_cpus
def test_block_error_at_a_later_point_propagates_and_keeps_the_pool(monkeypatch):
    monkeypatch.setattr(montecarlo, "_block_bit_errors", _fail_at_10_db)
    with pytest.raises(ValueError) as serial:
        sweep(_POOL_CFG, workers=1)
    with pytest.raises(ValueError) as pooled:
        sweep(_POOL_CFG, workers=2)
    assert str(pooled.value) == str(serial.value) == "block 0 at 10 dB failed"
    kept = montecarlo._pool
    monkeypatch.undo()
    assert sweep(_POOL_CFG, workers=2) == sweep(_POOL_CFG, workers=1)
    assert montecarlo._pool is kept


@two_cpus
def test_pool_broken_during_a_call_raises_and_is_dropped(monkeypatch):
    monkeypatch.setattr(montecarlo, "_block_bit_errors", _kill_worker)
    with pytest.raises(BrokenProcessPool):
        run_point(_POOL_CFG, 0.0, workers=2)
    assert montecarlo._pool is None
    with pytest.raises(BrokenProcessPool):
        sweep(_POOL_CFG, workers=2)
    assert montecarlo._pool is None
    monkeypatch.undo()
    assert run_point(_POOL_CFG, 0.0, workers=2) == run_point(_POOL_CFG, 0.0)
    assert sweep(_POOL_CFG, workers=2) == sweep(_POOL_CFG, workers=1)


_POOL_AT_EXIT = """
import json, multiprocessing
from qssm.montecarlo import SimConfig, sweep
sweep(SimConfig(scheme="qssm", L=2, M=4, snr_db=(10.0,), trials=2 << 14), workers=2)
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


@two_cpus
def test_pool_workers_end_with_the_interpreter():
    src = str(Path(montecarlo.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _POOL_AT_EXIT],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    pids = json.loads(proc.stdout.splitlines()[-1])
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


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


def test_config_rejects_grid_points_sharing_a_substream():
    # substreams key an SNR by its rounded milli-dB value: 0.0004 dB would
    # replay every draw of 0 dB, so the grid is refused
    with pytest.raises(ValueError, match="share one substream"):
        SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0, 0.0004, 0.0008), trials=2000, seed=1)
    with pytest.raises(ValueError, match="share one substream"):
        SimConfig(scheme="ssm", L=4, M=4, snr_db=(10.0, 10.0005))
    SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0, 0.0006))


def test_run_point_off_grid_snr_allowed():
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0, 10.0), trials=5_000, seed=7)
    est = run_point(cfg, 7.5)
    assert est.snr_db == 7.5
    assert est.trials == 5_000


def test_run_point_takes_points_of_the_snr_rule():
    """A point run is a finite point in [-3000, 3000] dB, as a grid point is, or
    -inf (rho = 0): inf ran on NaN metrics, 3001 dB and 1e308 dB overflowed,
    and NaN failed in the substream key."""
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0,), trials=64, seed=1)
    for snr_db, match in (
        (float("inf"), "must be finite"),
        (float("nan"), "must be finite"),
        (3001.0, "above the 3000 dB ceiling"),
        (1e308, "above the 3000 dB ceiling"),
        (-3001.0, "below the -3000 dB floor"),
    ):
        for workers in (1, 2):
            with pytest.raises(ValueError, match=match):
                run_point(cfg, snr_db, workers=workers)
    assert run_point(cfg, -3000.0).trials == run_point(cfg, 3000.0).trials == 64


def test_max_errors_early_stop():
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=10 * TRIALS_PER_BLOCK, seed=2)
    est = run_point(cfg, 0.0, max_errors=1000)
    assert est.trials == TRIALS_PER_BLOCK  # first block already crosses 1000
    assert est.bit_errors >= 1000
    again = run_point(cfg, 0.0, max_errors=1000)
    assert est == again


@pytest.mark.parametrize("workers", [1, 2])
def test_run_point_lays_out_blocks_as_it_runs_them(workers):
    """A point at the 2^40-trial ceiling has 2^26 blocks; with an early stop it
    returns after its first one, without listing the others up front."""
    cfg = SimConfig(scheme="qssm", L=4, M=4, snr_db=(0.0,), trials=2**40, seed=2)
    tracemalloc.start()
    try:
        est = run_point(cfg, 0.0, workers=workers, max_errors=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.trials == TRIALS_PER_BLOCK and est.bit_errors >= 1
    assert peak < 64 << 20


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


@pytest.mark.parametrize(
    "scheme,L,M,kind,beams",
    [
        ("qssm", 4, 4, "qam", False),
        ("qssm", 4, 8, "psk", False),
        ("qssm", 2, 2, "psk", False),
        ("ssm", 4, 16, "qam", False),
        ("ssm", 8, 4, "psk", False),
        ("qssm", 4, 4, "qam", True),
        ("qssm", 4, 8, "psk", True),
    ],
)
def test_detector_tiles_do_not_change_decisions(monkeypatch, scheme, L, M, kind, beams):
    """Tiles of _METRIC_ROWS trials split a block unevenly (one trial, fewer trials
    than a tile, k tiles plus one); each decision equals the first argmin of
    features @ W over the whole block at once, and at rho = 0 every trial
    decides label 0."""
    _, _, table, _, W, column_labels = _scheme_tables(scheme, kind, M, L)
    monkeypatch.setattr(montecarlo, "_METRIC_TILE", 1)
    rows = montecarlo._METRIC_ROWS
    rng = np.random.default_rng(23)
    for n in (1, rows // 3, 3 * rows + 1):
        labels = rng.integers(0, len(table[0]), n)
        k1, k2, x_re, x_im = (array[labels] for array in table)
        gains = _complex_normals(rng, (n, L))
        for snr_db in (float("-inf"), 0.0, 20.0):
            root_rho = np.sqrt(snr_db_to_rho(snr_db))
            a = root_rho * gains
            trials = np.arange(n)
            if beams:  # beam outputs of the orthogonal-beam model
                y = _complex_normals(rng, (n, L))
                y[trials, k1] += a[trials, k1] * x_re
                y[trials, k2] += 1j * a[trials, k2] * x_im
            else:
                noise = _complex_normals(rng, n)
                y = montecarlo._observe_scalar(
                    gains[trials, k1], gains[trials, k2], x_re, x_im, root_rho, noise
                )[:, None]
            decided = montecarlo._decide(y, gains, root_rho, W, column_labels)

            ya = y.conj() * a
            parts = [a.real**2 + a.imag**2, ya.real, ya.imag]
            if not beams and len(W) > 3 * L:
                lo, hi = np.triu_indices(L, 1)
                parts.append((a[:, lo] * a[:, hi].conj()).imag)
            features = np.concatenate(parts, axis=1)
            expected = column_labels[np.argmin(features @ W[: features.shape[1]], axis=1)]
            np.testing.assert_array_equal(decided, expected, err_msg=f"n={n} {snr_db} dB")
            if snr_db == float("-inf"):
                assert not decided.any()


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


def test_detector_builds_features_per_tile():
    # a full ideal QSSM L=4 4QAM block: the (B, 3L + L(L-1)/2) feature matrix of
    # the whole block, 2.36 MB, is never built; each tile builds its own
    *_, W, column_labels = _scheme_tables("qssm", "qam", 4, 4)
    n = TRIALS_PER_BLOCK
    rng = np.random.default_rng(5)
    gains = _complex_normals(rng, (n, 4))
    y = _complex_normals(rng, (n, 1))
    whole_block_features = n * len(W) * 8
    tracemalloc.start()
    try:
        montecarlo._decide(y, gains, np.sqrt(100.0), W, column_labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < whole_block_features


def test_detector_block_memory_within_budget():
    # one full L=8 16QAM block: the metric tiles stay below 64 MiB (the B x S
    # complex search needed several complex temporaries of that size)
    cfg = SimConfig(scheme="qssm", L=8, M=16, trials=TRIALS_PER_BLOCK, seed=2)
    _scheme_tables(cfg.scheme, cfg.kind, cfg.M, cfg.L)
    tracemalloc.start()
    try:
        _block_bit_errors(cfg, 20.0, 0, TRIALS_PER_BLOCK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


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
    # block's own arrays, stay below 64 MiB
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
    assert peak < 64 << 20


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
    from _draw_sines and picks is None; with "picks" they are the DFT-grid points
    of the picks _block_channel draws for a block."""
    if beams == "sines":
        sin_aod = _draw_sines(rng, n, L, n_t, mode, spacing)
        sin_aoa = _draw_sines(rng, n, L, n_r, mode, spacing)
        return _complex_normals(rng, (n, L)), sin_aod, sin_aoa, None
    cfg = SimConfig(
        scheme="qssm", L=L, M=4, channel_mode="physical", angle_mode=mode, n_t=n_t, n_r=n_r,
        spacing=spacing, trials=n, seed=int(rng.integers(1 << 30)),
    )
    gains, pick_aod, pick_aoa = _block_channel(cfg, 20.0, 0, n)
    assert pick_aod.dtype.kind == pick_aoa.dtype.kind == "i"
    sines = (dft_grid_sines(n_t)[pick_aod], dft_grid_sines(n_r)[pick_aoa])
    return gains, *sines, (pick_aod, pick_aoa)


def _assert_table_matches(from_table, from_kernel, sides, scale):
    """Grid picks read _grid_gram, grid sines the kernel.  At power-of-two N the
    sines and their steps are exact, so both give the same bytes; elsewhere the
    table rounds each step 2k/N once, the kernel path a difference of two
    rounded sines, and they agree within 4*N*2^-52 of ``scale``, the kernel's
    own bound (test_dirichlet_gram_equals_masked_divide)."""
    if all(_is_pow2(n) for n in sides):
        assert from_table.tobytes() == from_kernel.tobytes()
    else:
        assert np.abs(from_table - from_kernel).max() <= 4 * max(sides) * 2.0**-52 * scale


def _beam_cases(*rows):
    """Params (L, mode, spacing, n_t, n_r, beams): a "sines" case is named by its
    first five values, a "picks" case by all six."""
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
        # grid picks: the Gram entries come from the cached step tables
        (4, "dft_grid", 0.5, 32, 32, "picks"),
        (4, "dft_grid", 0.25, 16, 12, "picks"),
        (4, "dft_grid", 1.0, 32, 32, "picks"),
        (1, "dft_grid", 0.5, 32, 32, "picks"),
        (8, "dft_grid", 0.5, 8, 8, "picks"),
        (32, "dft_grid", 0.5, 32, 32, "picks"),
    ),
)
def test_observe_physical_matches_dense_steering(L, mode, spacing, n_t, n_r, beams):
    """The closed-form chain equals the dense steering chain to 1e-12 of the signal
    scale; on grid picks, its table path gives the kernel's z (_assert_table_matches)."""
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
                _assert_table_matches(_observe_physical(*table_args), z, (n_t, n_r), scale)
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
        # grid picks: the pairs l < m come from the cached step table
        (4, "dft_grid", 0.5, 32, 32, "picks"),
        (4, "dft_grid", 0.25, 16, 12, "picks"),
        (4, "dft_grid", 1.0, 32, 32, "picks"),
        (1, "dft_grid", 0.5, 32, 32, "picks"),
        (8, "dft_grid", 0.5, 8, 8, "picks"),
        (32, "dft_grid", 0.5, 32, 32, "picks"),
    ),
)
def test_receive_gram_upper_triangle_equals_full_evaluation(
    monkeypatch, L, mode, spacing, n_t, n_r, beams
):
    """Mirroring the pairs l < m changes no entry of g_r and no byte of z; reading
    the pairs of grid picks from the table gives the kernel's (_assert_table_matches)."""

    def full_gram(sines, n_elements, spacing):  # (L, T) sines -> (L, L, T) columns
        return _dirichlet_gram(sines[None], sines[:, None], n_elements, spacing)

    n = 1500  # several tiles of the kernel, the last one partial
    tx, rx = ArrayGeometry(n_t, spacing), ArrayGeometry(n_r, spacing)
    rng = np.random.default_rng(L)
    gains, sin_aod, sin_aoa, picks = _physical_draws(rng, n, L, mode, spacing, n_t, n_r, beams)
    white = _complex_normals(rng, (n, L))
    symbols = (
        rng.integers(0, L, n), rng.integers(0, L, n),
        rng.choice([-3.0, -1.0, 1.0, 3.0], n), rng.choice([-3.0, -1.0, 1.0, 3.0], n),
    )
    expected = full_gram(sin_aoa.T, n_r, spacing)
    assert np.array_equal(_receive_gram(sin_aoa.T, n_r, spacing), expected)
    if spacing == 1.0:
        assert (expected[~np.eye(L, dtype=bool)] == 1.0).any()
    args = (tx, rx, sin_aod, sin_aoa, gains, symbols, 10.0, white)
    z = _observe_physical(*args)
    if picks is not None:
        table_gram = _receive_gram(picks[1].T, n_r, spacing)
        _assert_table_matches(table_gram, _receive_gram(sin_aoa.T, n_r, spacing), (n_r,), 1.0)
        table_args = (tx, rx, *picks, gains, symbols, 10.0, white)
        scale = 10.0 * 3.0 * np.abs(gains).max()
        _assert_table_matches(_observe_physical(*table_args), z, (n_t, n_r), scale)
    monkeypatch.setattr(montecarlo, "_receive_gram", full_gram)
    assert z.tobytes() == _observe_physical(*args).tobytes()


@pytest.mark.parametrize(
    "L,mode,spacing,n_t,n_r,beams",
    _beam_cases(
        (4, "dft_grid", 0.5, 32, 32, "picks"),
        (4, "min_sep", 0.5, 32, 32, "sines"),
        (4, "dft_grid", 0.25, 16, 12, "sines"),
        (4, "dft_grid", 1.0, 32, 32, "picks"),  # zero pivots in the factor
        (1, "dft_grid", 0.5, 32, 32, "picks"),
        (8, "min_sep", 0.5, 32, 32, "sines"),  # eight terms per beam sum
        (32, "dft_grid", 0.5, 32, 32, "picks"),
    ),
)
def test_observe_physical_rows_do_not_depend_on_tiles(L, mode, spacing, n_t, n_r, beams):
    """A row's z is the same bytes as a batch of one, inside a partial tile and in
    a full block: each beam sum adds its terms in beam order whatever the tile."""
    n = TRIALS_PER_BLOCK
    tx, rx = ArrayGeometry(n_t, spacing), ArrayGeometry(n_r, spacing)
    rng = np.random.default_rng(29 + L)
    gains, sin_aod, sin_aoa, picks = _physical_draws(rng, n, L, mode, spacing, n_t, n_r, beams)
    aod, aoa = (sin_aod, sin_aoa) if picks is None else picks
    symbols = (
        rng.integers(0, L, n), rng.integers(0, L, n),
        rng.choice([-3.0, -1.0, 1.0, 3.0], n), rng.choice([-3.0, -1.0, 1.0, 3.0], n),
    )
    white = _complex_normals(rng, (n, L))

    def z_of(rows):
        arrays = (aod[rows], aoa[rows], gains[rows], tuple(s[rows] for s in symbols))
        return _observe_physical(tx, rx, *arrays, np.sqrt(300.0), white[rows])

    block = z_of(slice(None))
    tile = max(1, montecarlo._METRIC_TILE // (2 * L * L))
    partial = slice(7, min(n, 7 + tile + tile // 3))  # a full tile, then a partial one
    assert z_of(partial).tobytes() == block[partial].tobytes()
    for row in {0, 1, min(tile, n) - 1, tile % n, (7 + tile + 1) % n, n // 2, n - 1}:
        assert z_of(slice(row, row + 1)).tobytes() == block[row].tobytes(), row


@pytest.mark.parametrize(
    "n_t,n_r,tables",
    [
        (32, 16, [32, 16]),
        # either side of the N = 362 cut-over of the former (N, N) tables
        (362, 363, [362, 363]),
        (4096, 4096, [4096]),  # both sides share one table
    ],
)
def test_grid_blocks_evaluate_the_kernel_only_to_build_tables(monkeypatch, n_t, n_r, tables):
    """A DFT-grid block calls _dirichlet_gram once per (N, spacing) step table of
    2N - 1 entries, built on first use and cached read-only, and never per trial."""
    shapes = []

    def counted(sines_l, sines_m, n_elements, spacing):
        shapes.append(np.broadcast_shapes(np.shape(sines_l), np.shape(sines_m)))
        return _dirichlet_gram(sines_l, sines_m, n_elements, spacing)

    monkeypatch.setattr(montecarlo, "_dirichlet_gram", counted)
    montecarlo._grid_gram.cache_clear()
    n = 1000
    cfg = SimConfig(
        scheme="qssm", L=4, M=4, channel_mode="physical", n_t=n_t, n_r=n_r, trials=n, seed=3
    )
    for block in range(2):
        _block_bit_errors(cfg, 20.0, block, n)
    assert shapes == [(2 * n_elements - 1,) for n_elements in tables]
    assert not montecarlo._grid_gram(n_t, 0.5).flags.writeable


@pytest.mark.parametrize("n_elements", [1, 4, 12, 363, 4096])
def test_grid_gram_holds_one_entry_per_step(n_elements):
    """The table holds the 2N - 1 steps m - l of two picks, read-only, with the
    unit diagonal at step 0."""
    table = montecarlo._grid_gram(n_elements, 0.5)
    assert table.shape == (2 * n_elements - 1,)
    assert not table.flags.writeable
    assert table[n_elements - 1] == 1.0


@pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n_elements", [4, 32, 512])
def test_grid_gram_equals_the_full_kernel_table(n_elements, spacing):
    """At power-of-two N the grid sines and their steps are exact, so the step
    table gathered at m - l + N - 1 is the (N, N) kernel table byte for byte."""
    grid = dft_grid_sines(n_elements)
    full = _dirichlet_gram(grid[:, None], grid[None, :], n_elements, spacing)
    picks = np.arange(n_elements)
    steps = picks[None, :] - picks[:, None] + n_elements - 1
    assert montecarlo._grid_gram(n_elements, spacing)[steps].tobytes() == full.tobytes()


def test_grid_block_counts_off_power_of_two_arrays():
    """Bit errors of seeded DFT-grid blocks where the grid sines are not exact.
    The counts are those of the retired (N, N) tables, which took the kernel at
    differences of two rounded sines, and of the per-trial kernel at N = 363:
    the step table moves entries by at most 0.5*N*2^-52 and no count."""
    counts = [
        [
            _block_bit_errors(
                SimConfig(scheme="qssm", L=4, M=4, channel_mode="physical", n_t=n, n_r=n,
                          spacing=spacing, trials=1, seed=9),
                10.0, 1, TRIALS_PER_BLOCK,
            )
            for spacing in (0.25, 0.5, 1.0)
        ]
        for n in (12, 100, 363)
    ]
    # at 0.5, and at 1.0 on odd N, both Grams are the identity to about 1e-16
    assert counts == [[18327, 10321, 17345], [11331, 10321, 11115], [10671, 10321, 10321]]


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
    """F is lower-triangular and F F^H = G_r to 1e-12, rank-deficient Grams included.
    Both come by columns, (L, L, T); the checks read them as (T, L, L) matrices."""
    rng = np.random.default_rng(L + n_r)
    columns = _receive_gram(_draw_sines(rng, 4096, L, n_r, mode, spacing).T, n_r, spacing)
    gram, factor = (a.transpose(2, 1, 0) for a in (columns, _gram_factor(columns)))
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
    """Bit errors of one seeded block per model under stream version 3.  Ideal QSSM
    and SSM draw no physical noise and no beams, so theirs are the counts of
    version 1.  Version 3 moved the DFT-grid picks; at half-wavelength spacing
    both Grams are the identity to about 1e-16, so those counts are version 2's."""
    cases = [
        (dict(scheme="qssm", L=4, M=4), 10.0),
        (dict(scheme="qssm", L=8, M=16), 16.0),
        (dict(scheme="ssm", L=4, M=16), 16.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="dft_grid"), 10.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", angle_mode="min_sep"), 10.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", spacing=0.25, n_t=16, n_r=12),
         10.0),
        (dict(scheme="qssm", L=4, M=4, channel_mode="physical", spacing=1.0), 10.0),
    ]
    counts = [
        _block_bit_errors(SimConfig(trials=1, seed=9, **kw), snr_db, 1, TRIALS_PER_BLOCK)
        for kw, snr_db in cases
    ]
    assert STREAM_VERSION == 3
    assert counts[:3] == [31454, 63870, 18758]  # as in stream version 1
    assert counts[3:5] == [10321, 10561]  # version 1 drew 10323 and 10567
    # DFT-grid blocks off half-wavelength spacing: coupled beams at 0.25, and
    # beams one alias period apart at 1.0, whose Grams have zero pivots
    assert counts[5:] == [17106, 12952]  # version 2 drew 17151 and 12872
    aoa = _block_channel(SimConfig(trials=1, seed=9, **cases[6][0]), 10.0, 1, TRIALS_PER_BLOCK)[2]
    assert (np.abs(aoa[:, :, None] - aoa[:, None, :]) == 16).any()  # picks N/2 apart alias


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


def _bound_curve(simulated, bounds):
    """A hand-built curve, one point per dB: simulated ABEP and abep_analytic."""
    cfg = SimConfig(scheme="qssm", L=2, M=4, snr_db=(0.0,), trials=10, seed=0)
    points = tuple(
        CurvePoint(
            estimate=BerEstimate(
                snr_db=float(snr), trials=10**6, bit_errors=round(4e6 * sim),
                bits_per_trial=4, abep=sim, ci_low=sim, ci_high=sim,
            ),
            abep_analytic=bound,
            abep_asymptotic=bound,
        )
        for snr, (sim, bound) in enumerate(zip(simulated, bounds, strict=True))
    )
    return AbepCurve(config=cfg, config_hash="x", points=points)


def test_check_bound_judged_points():
    sims = [5e-3, 1e-3, 1e-4]
    check = check_bound(_bound_curve(sims, [6e-3, 1.2e-3, 1.5e-4]))
    assert check.above and check.tracks
    assert check.ratio == pytest.approx((1.2, 1.2, 1.5))
    # a point whose bound is above 1e-2 is not judged, however far below it lies
    check = check_bound(_bound_curve([0.3, *sims[1:]], [0.011, 1.2e-3, 1.5e-4]))
    assert check.above and check.tracks
    assert check.ratio[0] == pytest.approx(0.011 / 0.3)
    # one judged point below the simulation
    check = check_bound(_bound_curve(sims, [4e-3, 1.2e-3, 1.5e-4]))
    assert not check.above and check.tracks
    # a point of the top two outside a factor of two, above or below
    for top in (2.5e-4, 4e-5):
        check = check_bound(_bound_curve(sims, [6e-3, 1.2e-3, top]))
        assert not check.tracks and check.above == (top >= 1e-4)
    # below the top two a bound may be loose and still track
    check = check_bound(_bound_curve([2e-3, *sims[1:]], [9e-3, 1.2e-3, 1.5e-4]))
    assert check.above and check.tracks
    assert check.ratio[0] == pytest.approx(4.5)
    # a point without errors: any bound lies above it, none tracks it
    check = check_bound(_bound_curve([5e-3, 1e-3, 0.0], [6e-3, 1.2e-3, 1e-5]))
    assert check.above and not check.tracks
    assert check.ratio[-1] == np.inf


def test_check_bound_needs_two_judged_points():
    # one or no point with a bound at most 1e-2: a check that judged nothing fails
    for bounds in ([0.2, 6e-3], [0.2, 0.02]):
        check = check_bound(_bound_curve([0.1, 5e-3], bounds))
        assert not check.above and not check.tracks
    check = check_bound(_bound_curve([0.1, 5e-3, 1e-3], [0.2, 6e-3, 1.2e-3]))
    assert check.above and check.tracks


def test_check_bound_takes_another_bound():
    curve = _bound_curve([5e-3, 1e-3, 1e-4], [6e-3, 1.2e-3, 1.5e-4])
    assert check_bound(curve, curve.values("analytic")) == check_bound(curve)
    # the bound at half the curve's: judged at every point, above at none
    check = check_bound(curve, [3e-3, 6e-4, 7.5e-5])
    assert not check.above and check.tracks
    assert check.ratio == pytest.approx((0.6, 0.6, 0.75))
    with pytest.raises(ValueError, match="2 values for 3 curve points"):
        check_bound(curve, [3e-3, 6e-4])


def test_substreams_are_purpose_disjoint():
    a = _substream(1, 10.0, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    b = _substream(1, 10.0, _PURPOSE_NOISE, 0).integers(0, 2**63, 8)
    c = _substream(1, 10.2, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    d = _substream(2, 10.0, _PURPOSE_LABELS, 0).integers(0, 2**63, 8)
    streams = [tuple(v) for v in (a, b, c, d)]
    assert len(set(streams)) == 4
