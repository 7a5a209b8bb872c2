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
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from functools import lru_cache
from math import isinf

import numpy as np

from . import analysis
from .analysis import PepConvention, snr_db_to_rho
from .channel import (
    DFT_GRID,
    ArrayGeometry,
    _check_angle_sampling,
    _complex_normals,
    _dirichlet_gram,
    _draw_grid_picks,
    _draw_sines,
    dft_grid_sines,
)
from .modem import (
    QAM,
    _check_constellation,
    _is_pow2,
    build_constellation,
    build_symbol_book,
    spectral_efficiency,
    ssm_hypotheses,
    ssm_spectral_efficiency,
)

QSSM = "qssm"
SSM = "ssm"
IDEAL = "ideal"
PHYSICAL = "physical"

#: Trials per RNG block.  Fixed: changing it changes the sample stream.
TRIALS_PER_BLOCK = 1 << 14

#: Version of the sample stream, recorded in every manifest.  A change that
#: moves seeded error counts bumps it.  Version 2: physical mode draws its
#: projected noise as CN(0, G_r) from L normals per trial, not from N_r
#: element normals; ideal QSSM and SSM draw as in version 1.
STREAM_VERSION = 2

_PURPOSE_CHANNEL = 0        # per-trial channel draws, keyed by trial block
_PURPOSE_LABELS = 1
_PURPOSE_NOISE = 2
_PURPOSE_CHANNEL_BLOCK = 3  # per-block channel redraw, keyed by channel block

_WILSON_Z = 1.959963984540054  # two-sided 95%

#: Complex values that bound the physical kernel's tiles: each (tile, L, L)
#: Gram and factor holds at most 1/32 of them.  A whole block then peaks
#: below 16 * _COMPLEX_BUDGET bytes, the size of one complex array of the
#: budget (the tests pin it at N = 32 and N = 256).
_COMPLEX_BUDGET = 1 << 22
_METRIC_TILE = 1 << 18     # float64 metrics per detection tile
_METRIC_ROWS = 256         # fewest trials per detection tile

#: Default SNR grid (dB) of the standard error-rate sweeps.
DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(0, 41, 2))


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
        if not _is_pow2(self.L):
            raise ValueError(f"L must be a power of two >= 1, got {self.L}")
        _check_constellation(self.kind, self.M)
        if self.channel_mode not in (IDEAL, PHYSICAL):
            raise ValueError(
                f"channel_mode must be '{IDEAL}' or '{PHYSICAL}', got {self.channel_mode!r}"
            )
        if self.scheme == SSM and self.channel_mode == PHYSICAL:
            raise ValueError("the SSM baseline chain is defined for ideal mode only")
        sides = [ArrayGeometry(n, self.spacing) for n in (self.n_t, self.n_r)]
        if self.channel_mode == IDEAL:
            sides = []  # ideal mode draws no angles: only angle_mode is checked
        _check_angle_sampling(self.L, self.angle_mode, *sides)
        _check_table_size(self.scheme, self.L, self.M)
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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(snr_db=list(self.snr_db), convention=self.convention.value)
        return out

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
    """Simulated estimates plus analytical/asymptotic bounds per SNR point, and
    the version of the sample stream the estimates were drawn from."""

    config: SimConfig
    config_hash: str
    points: tuple[CurvePoint, ...]
    stream_version: int = STREAM_VERSION

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


# ---------------------------------------------------------------------------
# per-block simulation
# ---------------------------------------------------------------------------

def _metric_coefficients(L: int, symbols):
    """(W, column labels): features @ W is the ML metric less |y|^2 (README).

    ``symbols`` is the label-indexed table (k1, k2, x_re, x_im); SSM is its
    k1 = k2 case.  Rows |a_l|^2, Re(conj(y) a_l), Im(conj(y) a_l), then, when
    some hypothesis has k1 != k2, one row Im(a_l conj(a_m)) per pair l < m.
    Hypotheses with equal (x_re, x_im), equal k1 where x_re != 0 and equal k2
    where x_im != 0 have equal models, since a zero part leaves its beam's
    index unused.  Each such class gets one column, which keeps its lowest
    label, and columns follow those labels, so the first argmin breaks ties
    toward the lowest label.
    """
    k1, k2, u, v = symbols
    model = np.stack((np.where(u != 0, k1, -1), np.where(v != 0, k2, -1), u, v))
    column_labels = np.sort(np.unique(model, axis=1, return_index=True)[1])
    k1, k2, u, v = (array[column_labels] for array in symbols)
    cols = np.arange(len(column_labels))
    split = k1 != k2
    W = np.zeros((3 * L + (L * (L - 1) // 2 if split.any() else 0), len(cols)))
    W[k1, cols] = u * u
    W[k2, cols] += v * v
    W[L + k1, cols] = -2.0 * u
    W[2 * L + k2, cols] = 2.0 * v
    # pair lo < hi has the row of its place in np.triu_indices(L, 1)
    lo, hi = np.minimum(k1, k2)[split], np.maximum(k1, k2)[split]
    row = 3 * L + lo * (2 * L - lo - 1) // 2 + hi - lo - 1
    W[row, cols[split]] = (np.where(k1 < k2, 2.0, -2.0) * u * v)[split]
    return W, column_labels


#: Bytes that W of _metric_coefficients and one _decide metric tile may take
#: together; SimConfig rejects a (scheme, L, M) whose tables need more.
_TABLE_BUDGET = 1 << 26


def _check_table_size(scheme: str, L: int, M: int) -> None:
    """Raise unless W, (3L + L(L-1)/2) x S for QSSM and 3L x S for SSM over the
    S hypotheses, plus a metric tile of at most max(_METRIC_ROWS * S,
    _METRIC_TILE) float64, fit _TABLE_BUDGET."""
    S = L * L * M if scheme == QSSM else L * M
    rows = 3 * L + (L * (L - 1) // 2 if scheme == QSSM else 0)
    need = 8 * (rows * S + max(_METRIC_ROWS * S, _METRIC_TILE))
    if need > _TABLE_BUDGET:
        raise ValueError(
            f"{scheme} L={L} M={M}: the detector tables need {need / 2**20:.0f} MiB, "
            f"over the {_TABLE_BUDGET >> 20} MiB budget"
        )


@lru_cache(maxsize=8)
def _scheme_tables(scheme: str, kind: str, M: int, L: int):
    """(constellation, book, table, label popcounts, W, column labels), built once.

    The table is the label-indexed (k1, k2, x_re, x_im) of every hypothesis:
    the symbol book's arrays for QSSM (book None for SSM) and its k1 = k2
    rows for SSM.  W and its column labels come from _metric_coefficients.
    Every block shares them, so their arrays are read-only.
    """
    constellation = build_constellation(kind, M)
    if scheme == QSSM:
        book = build_symbol_book(L, constellation)
        table = (book.k1_idx, book.k2_idx, book.x_re, book.x_im)
    else:
        book, table = None, ssm_hypotheses(L, constellation)
    coefficients, column_labels = _metric_coefficients(L, table)
    popcounts = np.bitwise_count(np.arange(len(table[0]), dtype=np.uint64)).astype(np.int64)
    for array in (constellation.points, popcounts, coefficients, column_labels, *table):
        array.flags.writeable = False
    return constellation, book, table, popcounts, coefficients, column_labels


def _block_channel(config: SimConfig, snr_db: float, block_index: int, n_trials: int):
    """Gains, and in physical mode each side's beams (_draw_beams), for each
    trial of one block; ideal mode draws no beams and returns None for them."""

    def draw(rng, n_rows):  # gains, then departure and arrival beams: stream order
        gains = _complex_normals(rng, (n_rows, config.L))
        if config.channel_mode == IDEAL:
            return (gains,)
        return gains, *(_draw_beams(rng, n_rows, config, n) for n in (config.n_t, config.n_r))

    if config.redraw == "per_trial":
        drawn = draw(_substream(config.seed, snr_db, _PURPOSE_CHANNEL, block_index), n_trials)
    else:  # one draw per channel block, repeated over its trials
        t0 = block_index * TRIALS_PER_BLOCK
        channel_ids = (t0 + np.arange(n_trials)) // config.redraw_block
        blocks, rows = np.unique(channel_ids, return_inverse=True)
        draws = [
            draw(_substream(config.seed, snr_db, _PURPOSE_CHANNEL_BLOCK, int(cb)), 1)
            for cb in blocks
        ]
        drawn = tuple(np.concatenate(parts)[rows] for parts in zip(*draws))
    return (drawn + (None, None))[:3]


def _draw_beams(rng, n_rows: int, config: SimConfig, n_elements: int) -> np.ndarray:
    """(n_rows, L) beams of one array side: integer grid picks on the DFT grid when
    the side's (N, N) Gram table fits one tile's Gram budget of _COMPLEX_BUDGET // 32
    complex values (N <= 362), else sines."""
    if config.angle_mode == DFT_GRID and n_elements * n_elements <= _COMPLEX_BUDGET // 32:
        return _draw_grid_picks(rng, n_rows, config.L, n_elements)
    return _draw_sines(rng, n_rows, config.L, n_elements, config.angle_mode, config.spacing)


def _observe_scalar(beta_k1, beta_k2, x_re, x_im, root_rho, noise):
    """sqrt(rho) * (beta_k1 * x_re + j * beta_k2 * x_im) + n, SSM being k1 = k2;
    per trial for arrays, one trial for scalars."""
    return root_rho * (beta_k1 * x_re + 1j * beta_k2 * x_im) + noise


def _observe_physical(tx, rx, aod, aoa, gains, symbols, root_rho, white):
    """(B, L) beam outputs z of the array chain for QSSM ``symbols`` (k1, k2, x_re, x_im),
    with (B, L) unit-variance complex ``white`` normals.

    z = sqrt(rho) * G_r (gains * beams) + A_r^H n.  The beams are x_re and
    j*x_im times columns k1 and k2 of the transmit Gram; both Grams are
    closed-form Dirichlet kernels.  ``aod`` and ``aoa`` are each side's (B, L)
    beams: sines, or integer DFT-grid picks whose entries come from the
    side's cached table (_pair_gram).  The projected noise A_r^H n of unit
    element noise is CN(0, G_r), so it is drawn as F @ white with F F^H = G_r
    (_gram_factor).  Trials run in tiles that bound the temporaries.
    """
    k1, k2, x_re, x_im = symbols
    n_trials, L = gains.shape
    rows = np.arange(n_trials)[:, None]
    aimed = aod[rows, np.array((k1, k2)).T, None]  # (B, 2, 1) beams k1, k2
    weights = np.zeros((n_trials, 1, 2), dtype=complex)  # x_re and j*x_im on beams k1, k2
    weights.real[:, 0, 0] = x_re
    weights.imag[:, 0, 1] = x_im
    z = np.empty((n_trials, L), dtype=complex)
    tile = max(1, _COMPLEX_BUDGET // (32 * L * L))
    for a0 in range(0, n_trials, tile):
        sl = slice(a0, a0 + tile)
        g_t = _pair_gram(aod[sl, None, :], aimed[sl], tx.n_elements, tx.spacing_over_lambda)
        g_r = _receive_gram(aoa[sl], rx.n_elements, rx.spacing_over_lambda)
        beams = (weights[sl] @ g_t)[:, 0]
        signal = g_r @ (gains[sl] * beams)[..., None]
        z[sl] = (root_rho * signal + _gram_factor(g_r) @ white[sl, :, None])[..., 0]
    return z


@lru_cache(maxsize=8)
def _grid_gram(n_elements: int, spacing: float) -> np.ndarray:
    """Read-only (N, N) Gram a^H(s_i) a(s_j) of the N DFT-grid sines, built once."""
    grid = dft_grid_sines(n_elements)
    table = _dirichlet_gram(grid[:, None], grid[None, :], n_elements, spacing)
    table.flags.writeable = False
    return table


def _pair_gram(beams_l, beams_m, n_elements: int, spacing: float) -> np.ndarray:
    """a^H(s_l) a(s_m), broadcast over two arrays of one side's beams: the Dirichlet
    kernel of sines, or the entries of _grid_gram at integer grid picks.  The
    table holds the kernel's own values, so both give the same bytes."""
    if beams_l.dtype.kind == "f":
        return _dirichlet_gram(beams_l, beams_m, n_elements, spacing)
    return _grid_gram(n_elements, spacing)[beams_l, beams_m]


#: (lo, hi) arrays of the pairs l < m, per L; the cross rows of W follow this order
_pairs = lru_cache(maxsize=16)(np.triu_indices)


def _receive_gram(beams: np.ndarray, n_elements: int, spacing: float) -> np.ndarray:
    """(B, L, L) Gram a^H(s_l) a(s_m) of (B, L) ``beams`` (sines or grid picks),
    Hermitian with a unit diagonal.

    Only the pairs l < m go through _pair_gram; the mirror is their
    conjugate and the diagonal is exactly 1, as the kernel gives at f = 0.
    (The lower triangle of _grid_gram holds the same values, but at spacing
    1 its aliased entries carry zero imaginary parts of the other sign.)
    """
    n_trials, L = beams.shape
    lo, hi = _pairs(L, 1)
    upper = _pair_gram(beams[:, lo], beams[:, hi], n_elements, spacing)
    gram = np.empty((n_trials, L, L), dtype=complex)
    gram[:, lo, hi] = upper
    gram[:, hi, lo] = upper.conj()
    diagonal = np.arange(L)
    gram[:, diagonal, diagonal] = 1.0
    return gram


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """(B, L, L) lower-triangular F with F F^H = ``gram``, per Hermitian PSD Gram of unit diagonal.

    Outer-product LDL^H: column 0 is column 0 of the Gram (pivot 1); each
    later pivot is the corner of the Schur complement the earlier columns
    leave, and F = L sqrt(D).  A beam that is an exact alias of an earlier
    one repeats that beam's row and column, so its pivot rounds to 0 or
    below; such a pivot leaves its column zero, with no threshold.
    """
    unit = np.zeros(gram.shape, dtype=complex)
    unit[:, :, 0] = gram[:, :, 0]
    pivots = [gram[:, :1, 0].real]  # the unit diagonal: pivot 1 for column 0
    rest = gram
    for j in range(1, gram.shape[1]):
        rest = rest[:, 1:, 1:] - unit[:, j:, j - 1, None] * rest[:, None, 1:, 0].conj()
        pivot = rest[:, :1, 0].real
        pivots.append(pivot)
        np.divide(rest[:, :, 0], pivot, out=unit[:, j:, j], where=pivot > 0.0)
    unit *= np.sqrt(np.maximum(np.concatenate(pivots, axis=1), 0.0))[:, None, :]
    return unit


def _features(y: np.ndarray, a: np.ndarray, cross: bool = False) -> np.ndarray:
    """Features |a_l|^2, Re(conj(y_l) a_l), Im(conj(y_l) a_l) of (B, 1) or (B, L) y,
    a = sqrt(rho)*beta, then with ``cross`` (W has pair rows) Im(a_l conj(a_m)), l < m."""
    ya = y.conj() * a
    parts = [a.real**2 + a.imag**2, ya.real, ya.imag]
    if cross:
        lo, hi = _pairs(a.shape[1], 1)
        parts.append((a[:, lo] * a[:, hi].conj()).imag)
    return np.concatenate(parts, axis=1)


def _decide(features, W, column_labels) -> np.ndarray:
    """Per-trial label of the first argmin over the columns of features @ W.

    ``features`` pairs with the leading rows of W.  The first minimum wins,
    which is the lowest label among tied hypotheses.
    """
    W = W[: features.shape[1]]
    chunk = max(_METRIC_ROWS, _METRIC_TILE // W.shape[1])
    decided = np.empty(len(features), dtype=column_labels.dtype)
    for a in range(0, len(features), chunk):
        decided[a : a + chunk] = column_labels[np.argmin(features[a : a + chunk] @ W, axis=1)]
    return decided


def _detect_errors(features, W, column_labels, labels, popcounts) -> int:
    """Summed label-bit errors of the decisions of _decide."""
    return int(popcounts[labels ^ _decide(features, W, column_labels)].sum())


def _block_bit_errors(
    config: SimConfig, snr_db: float, block_index: int, n_trials: int
) -> int:
    """Bit errors over one block of trials; pure function of (config, snr, block)."""
    rho = snr_db_to_rho(snr_db)
    _, _, table, popcounts, W, column_labels = _scheme_tables(
        config.scheme, config.kind, config.M, config.L
    )
    labels = _substream(config.seed, snr_db, _PURPOSE_LABELS, block_index).integers(
        0, len(popcounts), n_trials
    )
    noise_rng = _substream(config.seed, snr_db, _PURPOSE_NOISE, block_index)
    gains, aod, aoa = _block_channel(config, snr_db, block_index, n_trials)
    root_rho = np.sqrt(rho)
    symbols = tuple(array[labels] for array in table)
    if config.channel_mode == IDEAL:
        noise = _complex_normals(noise_rng, n_trials)
        k1, k2, x_re, x_im = symbols
        rows = np.arange(n_trials)
        y = _observe_scalar(gains[rows, k1], gains[rows, k2], x_re, x_im, root_rho, noise)
        features = _features(y[:, None], root_rho * gains, cross=len(W) > 3 * config.L)
    else:  # joint detection on the L beam outputs of the array chain
        white = _complex_normals(noise_rng, (n_trials, config.L))
        tx, rx = (ArrayGeometry(n, config.spacing) for n in (config.n_t, config.n_r))
        z = _observe_physical(tx, rx, aod, aoa, gains, symbols, root_rho, white)
        del white, aod, aoa  # detection needs only z and the gains
        features = _features(z, root_rho * gains)
    return _detect_errors(features, W, column_labels, labels, popcounts)


def _block_layout(trials: int) -> list[tuple[int, int]]:
    starts = range(0, trials, TRIALS_PER_BLOCK)
    return [(b, min(TRIALS_PER_BLOCK, trials - t0)) for b, t0 in enumerate(starts)]


def _process_pool(workers: int):
    """A process pool for workers > 1, else a context that yields None."""
    if workers <= 1:
        return nullcontext()
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_point(
    config: SimConfig,
    snr_db: float,
    workers: int = 1,
    max_errors: int | None = None,
    *,
    pool=None,
) -> BerEstimate:
    """Estimate the ABEP at one SNR point.

    Results are identical for any ``workers`` value.  ``max_errors``
    optionally stops after the block in which the cumulative bit-error
    count crosses the threshold (no bias correction; not used by the
    acceptance runs).  With ``workers > 1`` at most ``workers`` blocks are
    in flight, on ``pool`` when given (``sweep`` shares one across its
    points) or else on a pool of this call's own.
    """
    blocks = _block_layout(config.trials)
    bits = config.bits_per_trial
    errors = trials_done = 0
    in_flight: deque = deque()
    with _process_pool(workers if pool is None else 1) as own_pool:
        pool = own_pool if pool is None else pool
        queued = iter(blocks)
        for b, count in blocks:
            if pool is None:
                block_errors = _block_bit_errors(config, snr_db, b, count)
            else:
                for nb, ncount in queued:
                    in_flight.append(pool.submit(_block_bit_errors, config, snr_db, nb, ncount))
                    if len(in_flight) >= workers:
                        break
                block_errors = in_flight.popleft().result()
            errors += block_errors
            trials_done += count
            if max_errors is not None and errors >= max_errors:
                break
        for future in in_flight:
            future.cancel()
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
    """Run every grid point and attach the analytical and asymptotic bounds.

    With ``workers > 1`` one process pool serves every point and is closed
    before the curve is returned.
    """
    constellation, book, *_ = _scheme_tables(
        config.scheme, config.kind, config.M, config.L
    )
    points = []
    with _process_pool(workers) as pool:
        for snr_db in config.snr_db:
            estimate = run_point(
                config, snr_db, workers=workers, max_errors=max_errors, pool=pool
            )
            if config.scheme == QSSM:
                bound = analysis.abep_point(book, snr_db, config.convention)
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
    book = _scheme_tables(QSSM, QAM, 4, 4)[1]
    candidates = []  # (snr_db, paper bound) where the exact bound is at most the threshold
    for snr_db in snr_grid_db:
        rho = snr_db_to_rho(snr_db)
        exact = analysis.abep_union_bound(
            book, rho, "closed_form", PepConvention.EXACT_MODEL
        )
        if exact <= bound_threshold:
            paper = analysis.abep_union_bound(
                book, rho, "closed_form", PepConvention.PAPER_EQ21
            )
            candidates.append((snr_db, paper))
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
        snr_db=tuple(s for s, _ in candidates),
        trials=trials,
        seed=seed,
        convention=PepConvention.EXACT_MODEL,
    )
    points = [  # the curve's analytic bound is the exact_model one
        ArbiterPoint(snr_db, p.estimate.abep, paper, p.abep_analytic)
        for (snr_db, paper), p in zip(candidates, sweep(config, workers).points)
    ]

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
