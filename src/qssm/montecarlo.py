"""Reproducible Monte Carlo bit-error-rate estimation over SNR sweeps.

Randomness discipline: every SNR point owns a family of counter-based
Philox substreams keyed by (master seed, SNR value in milli-dB, purpose,
block index), where trials are laid out in fixed blocks of
``TRIALS_PER_BLOCK``.  Each drawn channel, label, and noise sample is
therefore a pure function of (seed, config) - independent of worker count
and of which SNR points are run together.  Aggregation sums integer error
counts in block order, so scheduling cannot change results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from math import ceil, isinf

import numpy as np

from . import analysis
from .analysis import PepConvention, snr_db_to_rho
from .channel import DFT_GRID, MIN_SEP, dft_grid_sines
from .modem import (
    PSK,
    QAM,
    build_constellation,
    build_symbol_book,
    spectral_efficiency,
    ssm_spectral_efficiency,
)
from .transceiver import qssm_beam_profile, ssm_hypotheses

QSSM = "qssm"
SSM = "ssm"
IDEAL = "ideal"
PHYSICAL = "physical"

#: Trials per RNG block.  Fixed: changing it changes the sample stream.
TRIALS_PER_BLOCK = 1 << 14

_PURPOSE_CHANNEL = 0        # per-trial channel draws, keyed by trial block
_PURPOSE_LABELS = 1
_PURPOSE_NOISE = 2
_PURPOSE_CHANNEL_BLOCK = 3  # per-block channel redraw, keyed by channel block

_WILSON_Z = 1.959963984540054  # two-sided 95%

_COMPLEX_BUDGET = 1 << 22  # complex temporaries per detection chunk

#: Default SNR grid (dB) of the standard error-rate sweeps.
DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(0, 41, 2))


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SimConfig:
    """Everything that pins one simulation: scheme, geometry, grid, seed."""

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
    convention: PepConvention = analysis.DEFAULT_CONVENTION

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
        if self.channel_mode == PHYSICAL and self.L > min(self.n_t, self.n_r):
            raise ValueError(
                f"L={self.L} scatterers do not fit the {min(self.n_t, self.n_r)}-point "
                "sine grid of the smaller array"
            )
        if (
            self.channel_mode == PHYSICAL
            and self.angle_mode == MIN_SEP
            and 2 <= self.L == min(self.n_t, self.n_r)
        ):
            # L gaps of at least period/N each would have to fill the period exactly
            raise ValueError(
                f"min_sep angle sampling needs more than L={self.L} elements on "
                f"each array; use angle_mode='{DFT_GRID}' or larger arrays"
            )
        if self.n_t < 1 or self.n_r < 1:
            raise ValueError("n_t and n_r must be >= 1")
        if not self.spacing > 0:
            raise ValueError(f"spacing must be > 0, got {self.spacing}")
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

    def spectral_efficiency(self) -> int:
        if self.scheme == QSSM:
            return spectral_efficiency(self.M, self.L)
        return ssm_spectral_efficiency(self.M, self.L)

    @property
    def bits_per_trial(self) -> int:
        return self.spectral_efficiency()

    def to_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "L": self.L,
            "M": self.M,
            "kind": self.kind,
            "channel_mode": self.channel_mode,
            "n_t": self.n_t,
            "n_r": self.n_r,
            "spacing": self.spacing,
            "angle_mode": self.angle_mode,
            "snr_db": list(self.snr_db),
            "trials": self.trials,
            "seed": self.seed,
            "redraw": self.redraw,
            "redraw_block": self.redraw_block,
            "convention": self.convention.value,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class BerEstimate:
    """Error counts and Wilson 95% interval for one SNR point."""

    snr_db: float
    trials: int
    bit_errors: int
    bits_per_trial: int
    abep: float
    ci_low: float
    ci_high: float


@dataclass(frozen=True)
class CurvePoint:
    estimate: BerEstimate
    abep_analytic: float
    abep_asymptotic: float


@dataclass(frozen=True)
class AbepCurve:
    """Simulated estimates plus analytical/asymptotic bounds per SNR point."""

    config: SimConfig
    config_hash: str
    points: tuple[CurvePoint, ...]

    @property
    def snr_db(self) -> np.ndarray:
        return np.array([p.estimate.snr_db for p in self.points])

    def values(self, which: str = "sim") -> np.ndarray:
        if which == "sim":
            return np.array([p.estimate.abep for p in self.points])
        if which == "ci_low":
            return np.array([p.estimate.ci_low for p in self.points])
        if which == "ci_high":
            return np.array([p.estimate.ci_high for p in self.points])
        if which == "analytic":
            return np.array([p.abep_analytic for p in self.points])
        if which == "asymptotic":
            return np.array([p.abep_asymptotic for p in self.points])
        raise ValueError(f"unknown curve values {which!r}")


def binomial_ci(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if n <= 0:
        raise ValueError(f"n must be > 0, got {n}")
    if not 0 <= errors <= n:
        raise ValueError(f"errors must be in [0, {n}], got {errors}")
    z2 = _WILSON_Z**2
    phat = errors / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _WILSON_Z * np.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    low = 0.0 if errors == 0 else max(0.0, float(center - half))
    high = 1.0 if errors == n else min(1.0, float(center + half))
    return low, high


# ---------------------------------------------------------------------------
# substreams
# ---------------------------------------------------------------------------

def _snr_token(snr_db: float) -> int:
    if isinf(snr_db):
        return -(1 << 40) if snr_db < 0 else (1 << 40)
    return int(round(float(snr_db) * 1000.0))


def _substream(seed: int, snr_db: float, purpose: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (purpose, block) slot of one SNR point."""
    entropy = (
        seed & 0xFFFFFFFFFFFFFFFF,
        _snr_token(snr_db) & 0xFFFFFFFFFFFFFFFF,
        purpose,
        index,
    )
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _draw_sines(
    rng: np.random.Generator,
    n_rows: int,
    L: int,
    n_elements: int,
    angle_mode: str,
    spacing: float = 0.5,
) -> np.ndarray:
    """(n_rows, L) sine-domain angles for one array side.

    Min-separation gaps are measured on the sine circle of period
    1/spacing (the alias period), matching channel.sine_separation_ok.
    """
    if angle_mode == DFT_GRID:
        grid = dft_grid_sines(n_elements)
        picks = np.argsort(rng.random((n_rows, n_elements)), axis=1)[:, :L]
        return grid[picks]
    sines = np.sin(rng.uniform(0.0, 2.0 * np.pi, (n_rows, L)))
    if L == 1:
        return sines
    period = 1.0 / spacing
    min_gap = period / n_elements
    for _ in range(100_000):
        folded = np.sort(np.mod(sines, period), axis=1)
        gaps = np.diff(
            folded, axis=1, append=folded[:, :1] + period
        ).min(axis=1)
        bad = gaps < min_gap
        if not bad.any():
            return sines
        sines[bad] = np.sin(rng.uniform(0.0, 2.0 * np.pi, (int(bad.sum()), L)))
    raise RuntimeError("min-separation angle sampling did not converge")


# ---------------------------------------------------------------------------
# per-block simulation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _scheme_tables(scheme: str, kind: str, M: int, L: int):
    """(constellation, hypotheses, label popcounts), built once per process.

    The hypotheses are the symbol book for QSSM and the (k index, point)
    arrays for SSM.  Every block shares them, so their arrays are read-only.
    """
    constellation = build_constellation(kind, M)
    if scheme == QSSM:
        hypotheses = build_symbol_book(L, constellation)
        arrays = (hypotheses.k1_idx, hypotheses.k2_idx, hypotheses.x_re, hypotheses.x_im)
    else:
        hypotheses = arrays = ssm_hypotheses(L, constellation)
    size = len(arrays[0])
    popcounts = np.bitwise_count(np.arange(size, dtype=np.uint64)).astype(np.int64)
    for array in (constellation.points, popcounts, *arrays):
        array.flags.writeable = False
    return constellation, hypotheses, popcounts


def _steering_batch(sines: np.ndarray, n_elements: int, spacing: float) -> np.ndarray:
    """(..., L) sines -> (..., L, N) unit-norm steering vectors."""
    n = np.arange(n_elements)
    phase = 2j * np.pi * spacing * sines[..., None] * n
    return np.exp(phase) / np.sqrt(n_elements)


def _block_channel(config: SimConfig, snr_db: float, block_index: int, n_trials: int):
    """Gains (and sines in physical mode) for each trial of one block."""
    need_angles = config.channel_mode == PHYSICAL
    if config.redraw == "per_trial":
        rng = _substream(config.seed, snr_db, _PURPOSE_CHANNEL, block_index)
        gains = _complex_normals(rng, (n_trials, config.L))
        if not need_angles:
            return gains, None, None
        sin_aod = _draw_sines(
            rng, n_trials, config.L, config.n_t, config.angle_mode, config.spacing
        )
        sin_aoa = _draw_sines(
            rng, n_trials, config.L, config.n_r, config.angle_mode, config.spacing
        )
        return gains, sin_aod, sin_aoa

    t0 = block_index * TRIALS_PER_BLOCK
    channel_ids = (t0 + np.arange(n_trials)) // config.redraw_block
    gains = np.empty((n_trials, config.L), dtype=complex)
    sin_aod = np.empty((n_trials, config.L)) if need_angles else None
    sin_aoa = np.empty((n_trials, config.L)) if need_angles else None
    for cb in np.unique(channel_ids):
        rng = _substream(config.seed, snr_db, _PURPOSE_CHANNEL_BLOCK, int(cb))
        rows = channel_ids == cb
        gains[rows] = _complex_normals(rng, (1, config.L))
        if need_angles:
            sin_aod[rows] = _draw_sines(
                rng, 1, config.L, config.n_t, config.angle_mode, config.spacing
            )
            sin_aoa[rows] = _draw_sines(
                rng, 1, config.L, config.n_r, config.angle_mode, config.spacing
            )
    return gains, sin_aod, sin_aoa


def _detect_errors_scalar(
    y: np.ndarray, hyp_of, labels: np.ndarray, popcounts: np.ndarray, n_hyp: int
) -> int:
    """argmin_v |y - hyp(v)|^2 per trial; returns summed label-bit errors."""
    errors = 0
    chunk = max(256, _COMPLEX_BUDGET // n_hyp)
    for a in range(0, len(y), chunk):
        sl = slice(a, min(a + chunk, len(y)))
        metrics = np.abs(y[sl, None] - hyp_of(sl)) ** 2
        label_hat = np.argmin(metrics, axis=1)  # first minimum = lowest label
        errors += int(popcounts[labels[sl] ^ label_hat].sum())
    return errors


def _block_bit_errors(
    config: SimConfig, snr_db: float, block_index: int, n_trials: int
) -> int:
    """Bit errors over one block of trials; pure function of (config, snr, block)."""
    rho = snr_db_to_rho(snr_db)
    _, hypotheses, popcounts = _scheme_tables(config.scheme, config.kind, config.M, config.L)
    size = len(popcounts)
    if config.scheme == QSSM:
        book = hypotheses
    else:
        k_idx, x_points = hypotheses

    labels = _substream(config.seed, snr_db, _PURPOSE_LABELS, block_index).integers(
        0, size, n_trials
    )
    noise_rng = _substream(config.seed, snr_db, _PURPOSE_NOISE, block_index)
    gains, sin_aod, sin_aoa = _block_channel(config, snr_db, block_index, n_trials)
    rows = np.arange(n_trials)
    root_rho = np.sqrt(rho)

    if config.scheme == SSM:
        noise = _complex_normals(noise_rng, n_trials)
        y = root_rho * gains[rows, k_idx[labels]] * x_points[labels] + noise

        def hyp(sl):
            return root_rho * gains[sl][:, k_idx] * x_points[None, :]

        return _detect_errors_scalar(y, hyp, labels, popcounts, size)

    if config.channel_mode == IDEAL:
        noise = _complex_normals(noise_rng, n_trials)
        y = (
            root_rho
            * (
                gains[rows, book.k1_idx[labels]] * book.x_re[labels]
                + 1j * gains[rows, book.k2_idx[labels]] * book.x_im[labels]
            )
            + noise
        )

        def hyp(sl):
            return root_rho * (
                gains[sl][:, book.k1_idx] * book.x_re[None, :]
                + 1j * gains[sl][:, book.k2_idx] * book.x_im[None, :]
            )

        return _detect_errors_scalar(y, hyp, labels, popcounts, size)

    # physical mode: full array pipeline, joint detection on L beam outputs
    noise = _complex_normals(noise_rng, (n_trials, config.n_r))
    profile = qssm_beam_profile(book, config.L)
    errors = 0
    chunk = max(64, _COMPLEX_BUDGET // (size * config.L))
    for a in range(0, n_trials, chunk):
        sl = slice(a, min(a + chunk, n_trials))
        lab = labels[sl]
        a_t = _steering_batch(sin_aod[sl], config.n_t, config.spacing)
        a_r = _steering_batch(sin_aoa[sl], config.n_r, config.spacing)
        g_t = np.einsum("bln,bmn->blm", a_t.conj(), a_t)
        g_r = np.einsum("bln,bmn->blm", a_r.conj(), a_r)
        k1 = book.k1_idx[lab]
        k2 = book.k2_idx[lab]
        tx = (
            book.x_re[lab][:, None]
            * np.take_along_axis(g_t, k1[:, None, None], axis=2)[..., 0]
            + 1j
            * book.x_im[lab][:, None]
            * np.take_along_axis(g_t, k2[:, None, None], axis=2)[..., 0]
        )
        z = root_rho * np.einsum("blm,bm->bl", g_r, gains[sl] * tx) + np.einsum(
            "bln,bn->bl", a_r.conj(), noise[sl]
        )
        model = root_rho * gains[sl][:, None, :] * profile[None, :, :]
        metrics = np.sum(np.abs(z[:, None, :] - model) ** 2, axis=2)
        label_hat = np.argmin(metrics, axis=1)
        errors += int(popcounts[lab ^ label_hat].sum())
    return errors


def _block_layout(trials: int) -> list[tuple[int, int]]:
    blocks = []
    for b in range(ceil(trials / TRIALS_PER_BLOCK)):
        count = min(TRIALS_PER_BLOCK, trials - b * TRIALS_PER_BLOCK)
        blocks.append((b, count))
    return blocks


def run_point(
    config: SimConfig,
    snr_db: float,
    workers: int = 1,
    max_errors: int | None = None,
) -> BerEstimate:
    """Estimate the ABEP at one SNR point.

    Results are identical for any ``workers`` value.  ``max_errors``
    optionally stops after the block in which the cumulative bit-error
    count crosses the threshold (no bias correction; not used by the
    acceptance runs).
    """
    blocks = _block_layout(config.trials)
    bits = config.bits_per_trial
    errors = 0
    trials_done = 0
    if workers <= 1:
        for b, count in blocks:
            errors += _block_bit_errors(config, snr_db, b, count)
            trials_done += count
            if max_errors is not None and errors >= max_errors:
                break
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                _block_bit_errors,
                (config for _, _ in blocks),
                (snr_db for _, _ in blocks),
                (b for b, _ in blocks),
                (count for _, count in blocks),
            )
            for (_, count), block_errors in zip(blocks, results):
                errors += block_errors
                trials_done += count
                if max_errors is not None and errors >= max_errors:
                    break
    abep = errors / (trials_done * bits)
    ci_low, ci_high = binomial_ci(errors, trials_done * bits)
    return BerEstimate(
        snr_db=float(snr_db),
        trials=trials_done,
        bit_errors=errors,
        bits_per_trial=bits,
        abep=abep,
        ci_low=ci_low,
        ci_high=ci_high,
    )


def sweep(
    config: SimConfig, workers: int = 1, max_errors: int | None = None
) -> AbepCurve:
    """Run every grid point and attach the analytical and asymptotic bounds."""
    constellation, hypotheses, _ = _scheme_tables(
        config.scheme, config.kind, config.M, config.L
    )
    points = []
    for snr_db in config.snr_db:
        estimate = run_point(config, snr_db, workers=workers, max_errors=max_errors)
        if config.scheme == QSSM:
            bound = analysis.abep_point(hypotheses, snr_db, config.convention)
        else:
            bound = analysis.abep_point_ssm(
                config.L, constellation, snr_db, config.convention
            )
        points.append(
            CurvePoint(
                estimate=estimate,
                abep_analytic=bound.abep_analytical,
                abep_asymptotic=bound.abep_asymptotic,
            )
        )
    return AbepCurve(
        config=config, config_hash=config.config_hash(), points=tuple(points)
    )


# ---------------------------------------------------------------------------
# curve utilities
# ---------------------------------------------------------------------------

def crossing_snr_db(snr_db: np.ndarray, values: np.ndarray, target: float) -> float:
    """SNR where a decreasing curve crosses ``target`` (log-linear interpolation).

    Zero values (no observed errors) are floored at 1e-300 before taking
    logs.  Raises if the curve never brackets the target.
    """
    if target <= 0:
        raise ValueError(f"target must be > 0, got {target}")
    snr_db = np.asarray(snr_db, dtype=float)
    logs = np.log10(np.maximum(np.asarray(values, dtype=float), 1e-300))
    log_target = np.log10(target)
    for i in range(len(snr_db) - 1):
        if logs[i] >= log_target > logs[i + 1]:
            t = (logs[i] - log_target) / (logs[i] - logs[i + 1])
            return float(snr_db[i] + t * (snr_db[i + 1] - snr_db[i]))
    raise ValueError(f"curve does not cross {target:g} within the SNR range")


def gain_at_level(
    curve_a: AbepCurve, curve_b: AbepCurve, target_abep: float, values: str = "sim"
) -> float:
    """SNR advantage of curve a over curve b at one ABEP level (positive =
    a reaches the level at lower SNR)."""
    cross_a = crossing_snr_db(curve_a.snr_db, curve_a.values(values), target_abep)
    cross_b = crossing_snr_db(curve_b.snr_db, curve_b.values(values), target_abep)
    return cross_b - cross_a


# ---------------------------------------------------------------------------
# convention arbiter
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArbiterPoint:
    snr_db: float
    simulated: float
    bound_paper: float
    bound_exact: float


@dataclass(frozen=True)
class ArbiterReport:
    """Which closed-form convention upper-bounds and tracks the simulation."""

    points: tuple[ArbiterPoint, ...]
    above_paper: bool
    above_exact: bool
    tracks_paper: bool
    tracks_exact: bool
    verdict: PepConvention | None = field(default=None)


def arbitrate_convention(
    trials: int = 1_000_000,
    seed: int = 0,
    bound_threshold: float = 1e-2,
    snr_grid_db: tuple[float, ...] = DEFAULT_SNR_GRID_DB,
    workers: int = 1,
) -> ArbiterReport:
    """Decide the closed-form convention empirically on the L=4, 4QAM chain.

    Simulates the ideal-mode chain at every grid SNR whose default-convention
    union bound is at most ``bound_threshold``, then checks per convention
    whether its bound (a) lies above the simulated ABEP at every such point
    and (b) stays within a factor of two at the two highest SNRs.  The
    verdict is the unique convention satisfying both, or None.
    """
    constellation = build_constellation(QAM, 4)
    book = build_symbol_book(4, constellation)
    candidates = []
    for snr_db in snr_grid_db:
        rho = snr_db_to_rho(snr_db)
        exact = analysis.abep_union_bound(
            book, rho, "closed_form", PepConvention.EXACT_MODEL
        )
        if exact <= bound_threshold:
            paper = analysis.abep_union_bound(
                book, rho, "closed_form", PepConvention.PAPER_EQ21
            )
            candidates.append((snr_db, paper, exact))
    if len(candidates) < 2:
        raise ValueError(
            "SNR grid has fewer than two points below the bound threshold"
        )
    config = SimConfig(
        scheme=QSSM,
        L=4,
        M=4,
        kind=QAM,
        channel_mode=IDEAL,
        snr_db=tuple(s for s, _, _ in candidates),
        trials=trials,
        seed=seed,
    )
    points = []
    for snr_db, paper, exact in candidates:
        estimate = run_point(config, snr_db, workers=workers)
        points.append(
            ArbiterPoint(
                snr_db=snr_db,
                simulated=estimate.abep,
                bound_paper=paper,
                bound_exact=exact,
            )
        )

    def _within_factor_two(bound: float, simulated: float) -> bool:
        return simulated / 2.0 <= bound <= simulated * 2.0

    above_paper = all(p.bound_paper >= p.simulated for p in points)
    above_exact = all(p.bound_exact >= p.simulated for p in points)
    top_two = sorted(points, key=lambda p: p.snr_db)[-2:]
    tracks_paper = all(_within_factor_two(p.bound_paper, p.simulated) for p in top_two)
    tracks_exact = all(_within_factor_two(p.bound_exact, p.simulated) for p in top_two)
    qualifies = {
        PepConvention.PAPER_EQ21: above_paper and tracks_paper,
        PepConvention.EXACT_MODEL: above_exact and tracks_exact,
    }
    winners = [c for c, ok in qualifies.items() if ok]
    verdict = winners[0] if len(winners) == 1 else None
    return ArbiterReport(
        points=tuple(points),
        above_paper=above_paper,
        above_exact=above_exact,
        tracks_paper=tracks_paper,
        tracks_exact=tracks_exact,
        verdict=verdict,
    )
