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

import atexit
import hashlib
import json
import operator
import os
from dataclasses import dataclass, fields, replace
from functools import lru_cache, partial
from math import inf, isfinite, isinf

import numpy as np

from . import analysis
from .analysis import snr_db_to_rho
from .channel import (
    DFT_GRID,
    _MAX_SPACING,  # SimConfig's spacing bound, checked by ArrayGeometry
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
#: element normals; ideal QSSM and SSM draw as in version 1.  Version 3:
#: DFT-grid picks come from L uniform ranks per trial where L*L <= 4*N
#: (channel._draws_ranks), not from an argsort of N uniforms.
STREAM_VERSION = 3

_PURPOSE_CHANNEL = 0
_PURPOSE_LABELS = 1
_PURPOSE_NOISE = 2

_WILSON_Z = 1.959963984540054  # two-sided 95%

#: Complex values that bound a physical block: a side's DFT-grid Gram table
#: holds at most 1/32 of them, and a whole block peaks below
#: 16 * _COMPLEX_BUDGET bytes, the size of one complex array of the budget
#: (the tests pin it at N = 32 and N = 256).
_COMPLEX_BUDGET = 1 << 22
#: Float64 values of one tile (512 KiB, cache-sized): a detection tile's
#: metrics, and a physical tile's (tile, L, L) complex Gram or factor.
_METRIC_TILE = 1 << 16
_METRIC_ROWS = 256         # fewest trials per detection tile

#: Default SNR grid (dB) of the standard error-rate sweeps.
DEFAULT_SNR_GRID_DB = tuple(float(s) for s in range(0, 41, 2))

#: SimConfig fields that hold counts, sizes or seeds: integers, never bool
_INTEGER_FIELDS = ("L", "M", "n_t", "n_r", "trials", "seed")

#: Most elements per array side.  The limit keeps the Gram kernel's
#: resolution, stated at channel._MAX_SPACING: 2^19 steps across the
#: narrowest main lobe, 1/N wide, at N = 4096.  It does not bound the draw:
#: a DFT-grid trial draws L ranks wherever L*L <= 4*N (channel._draws_ranks),
#: so an argsort of N uniforms runs only below N = 256 at L = 32, the
#: largest L the detector tables admit.  One 16384-trial L=4 DFT-grid block
#: at N = 4096 takes 0.03-0.06 s (x86-64, one core).
_MAX_ELEMENTS = 1 << 12

#: Highest SNR grid point (dB), rho = 1e300: the detector's features
#: rho * |beta|^2 * x^2 and the union bounds overflow from about 3060 dB
_MAX_SNR_DB = 3000.0

#: Lowest SNR grid point (dB), rho = 1e-300: rho rounds to 0 from about
#: -3237 dB, where the asymptotic bound is undefined
_MIN_SNR_DB = -3000.0

#: Most trials per SNR point: 2^26 blocks, about 2.5 days on one core at the
#: fastest config (QSSM L=1 BPSK, 3.2 ms per 16384-trial block, x86-64)
_MAX_TRIALS = 1 << 40


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

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not hasattr(type(value), "__index__"):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, operator.index(value))
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
        if max(self.n_t, self.n_r) > _MAX_ELEMENTS:
            raise ValueError(
                f"n_t and n_r must be <= {_MAX_ELEMENTS}, got {self.n_t} and {self.n_r}"
            )
        sides = [ArrayGeometry(n, self.spacing) for n in (self.n_t, self.n_r)]
        if self.channel_mode == IDEAL:
            sides = []  # ideal mode draws no angles: only angle_mode is checked
        _check_angle_sampling(self.L, self.angle_mode, *sides)
        _check_table_size(self.scheme, self.L, self.M)
        if any(isinstance(s, (bool, np.bool_)) for s in self.snr_db):
            raise ValueError(f"snr_db grid values must be numbers, not bools: {self.snr_db!r}")
        object.__setattr__(self, "snr_db", tuple(float(s) for s in self.snr_db))
        if len(self.snr_db) == 0:
            raise ValueError("snr_db grid must not be empty")
        for snr_db in self.snr_db:
            _check_snr_db(snr_db)
        if any(b <= a for a, b in zip(self.snr_db, self.snr_db[1:])):
            raise ValueError("snr_db grid must be strictly increasing")
        _check_snr_tokens(self.snr_db)
        if not 1 <= self.trials <= _MAX_TRIALS:
            raise ValueError(f"trials must be in [1, 2^40], got {self.trials}")
        _check_seed(self.seed)

    def spectral_efficiency(self) -> int:
        if self.scheme == QSSM:
            return spectral_efficiency(self.M, self.L)
        return ssm_spectral_efficiency(self.M, self.L)

    @property
    def bits_per_trial(self) -> int:
        return self.spectral_efficiency()

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["snr_db"] = list(self.snr_db)
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

def _check_snr_db(snr_db: float) -> None:
    """Raise unless ``snr_db`` is a finite point in [-3000, 3000] dB, rho in
    [1e-300, 1e300]: the rule of every grid point and of every point run."""
    if not isfinite(snr_db):
        raise ValueError(f"snr_db values must be finite, got {snr_db}")
    if snr_db > _MAX_SNR_DB:
        raise ValueError(
            f"snr_db {snr_db:g} is above the {_MAX_SNR_DB:g} dB ceiling "
            "(rho = 1e300), past which the detector's metrics and the bounds overflow"
        )
    if snr_db < _MIN_SNR_DB:
        raise ValueError(
            f"snr_db {snr_db:g} is below the {_MIN_SNR_DB:g} dB floor "
            "(rho = 1e-300); from about -3237 dB rho rounds to 0"
        )


def _snr_token(snr_db: float) -> int:
    """The SNR point's key in its substreams: the SNR in milli-dB, rounded."""
    if isinf(snr_db):
        return -(1 << 40) if snr_db < 0 else (1 << 40)
    return int(round(float(snr_db) * 1000.0))


def _check_snr_tokens(snr_db: tuple) -> None:
    """Raise if two points of an increasing grid round to one _snr_token: they
    would draw the same labels, channels and noise."""
    for a, b in zip(snr_db, snr_db[1:]):
        if _snr_token(a) == _snr_token(b):
            raise ValueError(
                f"snr_db points {a:g} and {b:g} share one substream: the stream keys "
                "SNRs in milli-dB, so grid points must round to distinct milli-dB values"
            )


def _check_seed(seed: int) -> None:
    """Raise unless 0 <= seed < 2^64, the seeds _substream keys apart."""
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")


def _substream(seed: int, snr_db: float, purpose: int, index: int) -> np.random.Generator:
    """Independent Philox stream for one (purpose, block) slot of one SNR point."""
    entropy = (seed, _snr_token(snr_db) & 0xFFFFFFFFFFFFFFFF, purpose, index)
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


#: Bytes that W of _metric_coefficients and one _decide feature and metric
#: tile may take together; SimConfig rejects a (scheme, L, M) whose tables
#: need more.
_TABLE_BUDGET = 1 << 26


def _check_table_size(scheme: str, L: int, M: int) -> None:
    """Raise unless W, (3L + L(L-1)/2) x S for QSSM and 3L x S for SSM over the
    S hypotheses, plus one feature tile and one metric tile fit _TABLE_BUDGET:
    a tile of max(_METRIC_ROWS, _METRIC_TILE // S) trials holds at most as
    many float64 features per trial as W has rows, and S metrics."""
    S = L * L * M if scheme == QSSM else L * M
    rows = 3 * L + (L * (L - 1) // 2 if scheme == QSSM else 0)
    tile = max(_METRIC_ROWS, _METRIC_TILE // S)
    need = 8 * (rows * S + tile * (rows + S))
    if need > _TABLE_BUDGET:
        raise ValueError(
            f"{scheme} L={L} M={M}: the detector tables need {need / 2**20:.0f} MiB, "
            f"over the {_TABLE_BUDGET >> 20} MiB budget"
        )


@lru_cache(maxsize=8)
def _scheme_tables(scheme: str, kind: str, M: int, L: int, data: bytes | None = None):
    """(constellation, book, table, label popcounts, W, column labels), built once,
    for a (scheme, L, M) within _TABLE_BUDGET (checked first: the per-symbol
    detectors reach this without a SimConfig).

    The constellation is build_constellation's (kind, M), or, given ``data``,
    the one whose complex points are its bytes: a given book's own points,
    keyed on their bytes as analysis._class_table keys them.  The table is
    the label-indexed (k1, k2, x_re, x_im) of every hypothesis: the symbol
    book's arrays for QSSM (book None for SSM) and its k1 = k2 rows for SSM.
    W and its column labels come from _metric_coefficients.  Every block
    shares them, so their arrays are read-only.
    """
    _check_table_size(scheme, L, M)
    constellation = build_constellation(kind, M)
    if data is not None:
        constellation = replace(constellation, points=np.frombuffer(data, dtype=complex))
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
    """Gains, then in physical mode each side's beams (_draw_beams), for each
    trial of one block, from the block's channel substream; ideal mode draws
    no beams and returns None for them."""
    rng = _substream(config.seed, snr_db, _PURPOSE_CHANNEL, block_index)
    gains = _complex_normals(rng, (n_trials, config.L))
    if config.channel_mode == IDEAL:
        return gains, None, None
    return gains, *(_draw_beams(rng, n_trials, config, n) for n in (config.n_t, config.n_r))


def _draw_beams(rng, n_rows: int, config: SimConfig, n_elements: int) -> np.ndarray:
    """(n_rows, L) beams of one array side.  On the DFT grid they are the picks of
    channel._draw_grid_picks: the integer picks when the side's (N, N) Gram
    table holds at most _COMPLEX_BUDGET // 32 complex values (N <= 362), else
    their grid sines, so the table rule moves no draw.  min_sep beams are sines."""
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
    (_gram_factor).

    Trials run in tiles, trial-contiguous: a side's beams are (L, T) and a
    Gram or factor is (L, L, T) by columns, so each step is one vector op
    over the T trials of the tile.  A product G v is the sum over axis 0 of
    the columns times the entries of v; NumPy adds those slabs in column
    order for any T, so a row's z does not depend on its tile, a batch of
    one included.  A tile's Gram and factor each take _METRIC_TILE float64,
    so the temporaries stay cache-sized.
    """
    k1, k2, x_re, x_im = symbols
    n_trials, L = gains.shape
    aimed = aod[np.arange(n_trials), np.array((k1, k2))][:, None]  # (2, 1, B) beams k1, k2
    weights = np.zeros((2, 1, n_trials), dtype=complex)  # x_re and j*x_im on beams k1, k2
    weights.real[0, 0] = x_re
    weights.imag[1, 0] = x_im
    aod, aoa, gains, white = aod.T, aoa.T, gains.T, white.T  # (L, B) views: trials last
    z = np.empty((n_trials, L), dtype=complex)
    tile = max(1, _METRIC_TILE // (2 * L * L))
    for a0 in range(0, n_trials, tile):
        sl = slice(a0, a0 + tile)
        g_t = _pair_gram(aod[None, :, sl], aimed[..., sl], tx.n_elements, tx.spacing_over_lambda)
        g_t *= weights[..., sl]
        beams = g_t.sum(axis=0)  # x_re and j*x_im times columns k1 and k2 of G_t
        g_r = _receive_gram(aoa[:, sl], rx.n_elements, rx.spacing_over_lambda)
        factor = _gram_factor(g_r)
        g_r *= (gains[:, sl] * beams)[:, None]
        factor *= white[:, None, sl]
        z[sl] = (root_rho * g_r.sum(axis=0) + factor.sum(axis=0)).T
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
    """(L, L, T) Gram of (L, T) ``beams`` (sines or grid picks) by columns: entry
    [m, l] is a^H(s_l) a(s_m), so slab m is column m.  Hermitian with a unit
    diagonal.

    Only the pairs l < m go through _pair_gram; the mirror is their
    conjugate and the diagonal is exactly 1, as the kernel gives at f = 0.
    (The lower triangle of _grid_gram holds the same values, but at spacing
    1 its aliased entries carry zero imaginary parts of the other sign.)
    """
    L = len(beams)
    lo, hi = _pairs(L, 1)
    upper = _pair_gram(beams[lo], beams[hi], n_elements, spacing)
    gram = np.empty((L, *beams.shape), dtype=complex)
    gram[hi, lo] = upper
    gram[lo, hi] = upper.conj()
    diagonal = np.arange(L)
    gram[diagonal, diagonal] = 1.0
    return gram


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """(L, L, T) lower-triangular F with F F^H = ``gram`` for each trial's Hermitian
    PSD Gram of unit diagonal; both are held by columns (slab j is column j).

    Outer-product LDL^H: column 0 is column 0 of the Gram (pivot 1); each
    later pivot is the corner of the Schur complement the earlier columns
    leave, also held by columns, and F = L sqrt(D).  A beam that is an exact
    alias of an earlier one repeats that beam's row and column, so its pivot
    rounds to 0 or below; such a pivot leaves its column zero, with no
    threshold.
    """
    factor = np.zeros(gram.shape, dtype=complex)
    factor[0] = gram[0]
    pivots = [gram[0, :1].real]  # the unit diagonal: pivot 1 for column 0
    rest = gram
    for j in range(1, len(gram)):
        rest = rest[1:, 1:] - factor[None, j - 1, j:] * rest[0, 1:, None].conj()
        pivot = rest[0, :1].real
        pivots.append(pivot)
        np.divide(rest[0], pivot, out=factor[j, j:], where=pivot > 0.0)
    factor *= np.sqrt(np.maximum(np.concatenate(pivots), 0.0))[:, None]
    return factor


def _decide(y: np.ndarray, gains: np.ndarray, root_rho, W, column_labels) -> np.ndarray:
    """Per-trial label of the ML decision on (B, 1) scalar observations or
    (B, L) beam outputs ``y``, with a = root_rho * (B, L) ``gains``.

    The features |a_l|^2, Re(conj(y_l) a_l), Im(conj(y_l) a_l) and, for a
    scalar y whose W has pair rows, Im(a_l conj(a_m)) for l < m pair with the
    leading rows of W; features @ W is the metric less |y|^2.  The first
    argmin wins, which is the lowest label among tied hypotheses.  Each tile
    of trials builds its own a, features and metrics, about _METRIC_TILE
    float64 (at least _METRIC_ROWS trials), so they stay cache-sized and no
    (B, L) temporary is built; a batch of one is one tile.
    """
    L = gains.shape[1]
    pairs = y.shape[1] == 1 and len(W) > 3 * L
    if pairs:
        lo, hi = _pairs(L, 1)
    else:
        W = W[: 3 * L]
    rows = max(_METRIC_ROWS, _METRIC_TILE // W.shape[1])
    decided = np.empty(len(y), dtype=column_labels.dtype)
    for t in range(0, len(y), rows):
        a_t = root_rho * gains[t : t + rows]
        ya = y[t : t + rows].conj() * a_t
        parts = [a_t.real**2 + a_t.imag**2, ya.real, ya.imag]
        if pairs:
            parts.append((a_t[:, lo] * a_t[:, hi].conj()).imag)
        decided[t : t + rows] = column_labels[np.argmin(np.concatenate(parts, axis=1) @ W, axis=1)]
    return decided


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
        y = _observe_scalar(gains[rows, k1], gains[rows, k2], x_re, x_im, root_rho, noise)[:, None]
    else:  # joint detection on the L beam outputs of the array chain
        white = _complex_normals(noise_rng, (n_trials, config.L))
        tx, rx = (ArrayGeometry(n, config.spacing) for n in (config.n_t, config.n_r))
        y = _observe_physical(tx, rx, aod, aoa, gains, symbols, root_rho, white)
        del white, aod, aoa  # detection needs only y and the gains
    decided = _decide(y, gains, root_rho, W, column_labels)
    return int(popcounts[labels ^ decided].sum())


def _block_layout(trials: int):
    """(index, trials) of each block in order, made as they are asked for:
    block b covers trials [TRIALS_PER_BLOCK * b, min(TRIALS_PER_BLOCK * (b + 1), trials))."""
    for b, t0 in enumerate(range(0, trials, TRIALS_PER_BLOCK)):
        yield b, min(TRIALS_PER_BLOCK, trials - t0)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _pool_size(workers: int) -> int:
    """Worker processes for ``workers``: at most the CPUs this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(workers, cpus)


#: This process's shared pool as ((pid, size), executor), or None.
_pool = None


def _bundled_openblas():
    """The scipy-openblas library a NumPy wheel bundles (in numpy.libs, or
    numpy/.dylibs on macOS) as a ctypes library, or None for another BLAS."""
    import ctypes
    import glob

    root = np.__path__[0]
    for path in glob.glob(f"{root}.libs/*scipy_openblas*") + glob.glob(
        f"{root}/.dylibs/*scipy_openblas*"
    ):
        try:
            library = ctypes.CDLL(path)  # the loaded copy: dlopen matches the file
        except OSError:
            continue
        if hasattr(library, "scipy_openblas_set_num_threads64_"):
            return library
    return None


def _one_blas_thread() -> None:
    """Pool worker initializer: NumPy's OpenBLAS runs one thread.  A forked
    worker would otherwise keep its default of one per core, and the workers
    would oversubscribe the cores: on two cores, two workers with the default
    ran ideal L=8 16QAM in 6.2-17.0 s, against 1.8-2.0 s with one thread
    each.  Another BLAS keeps its own setting."""
    library = _bundled_openblas()
    if library is not None:
        library.scipy_openblas_set_num_threads64_(1)


def _process_pool(size: int):
    """The process pool of ``size`` workers that every call of this process shares.

    Created on first need and kept: under fork every worker starts at the
    first submit, so a pool per call would pay that start and a join each
    time.  Each worker starts with one BLAS thread (_one_blas_thread).  The
    key holds the pid, so a forked child never uses its parent's pool.  A
    pool of another size, or one that broke while idle (a worker was
    killed), is shut down and replaced.  Nothing guards the pool against
    callers in several threads at once.
    """
    global _pool
    key = (os.getpid(), size)
    if _pool is not None:
        if _pool[0] == key and not _pool[1]._broken:  # the executor's own flag
            return _pool[1]
        _close_pool()
    from concurrent.futures import ProcessPoolExecutor

    _pool = (key, ProcessPoolExecutor(max_workers=size, initializer=_one_blas_thread))
    return _pool[1]


def _close_pool() -> None:
    """Shut the shared pool down and forget it (a forked child only forgets its
    parent's)."""
    global _pool
    if _pool is not None and _pool[0][0] == os.getpid():
        _pool[1].shutdown(wait=True, cancel_futures=True)
    _pool = None


atexit.register(_close_pool)  # no worker outlives the interpreter


def _estimate(config: SimConfig, snr_db: float, errors: int, trials: int) -> BerEstimate:
    bits = config.bits_per_trial
    ci_low, ci_high = binomial_ci(errors, trials * bits)
    return BerEstimate(
        snr_db=float(snr_db),
        trials=trials,
        bit_errors=errors,
        bits_per_trial=bits,
        abep=errors / (trials * bits),
        ci_low=ci_low,
        ci_high=ci_high,
    )


class _PointRun:
    """One SNR point of a run: its blocks not yet taken, its blocks running,
    and the fold of its results in block order."""

    def __init__(self, snr_db: float, trials: int) -> None:
        self.snr_db = snr_db
        self._layout = _block_layout(trials)
        self.upcoming = next(self._layout, None)  # (index, trials) of the next block
        self.running = 0  # its blocks taken and not finished, discarded ones included
        self.stopped = False  # stopped early, or every block folded
        self._finished: dict = {}  # block index -> (result, trials), waiting for a lower block
        self._folded = 0
        self.errors = self.trials = 0

    def take(self) -> tuple[int, int]:
        block, self.upcoming = self.upcoming, next(self._layout, None)
        self.running += 1
        return block

    def finish(self, block: int, result, count: int, max_errors: int | None) -> None:
        """Fold a finished block, whose zero-argument ``result`` gives its bit
        errors, and every later one waiting for it, in block order: a block's
        error is raised here, and the point stops after the block in which its
        error count reaches ``max_errors``.  A stopped point discards what
        finishes later."""
        self.running -= 1
        if self.stopped:
            return
        self._finished[block] = (result, count)
        while self._folded in self._finished:
            result, count = self._finished.pop(self._folded)
            self.errors += result()
            self.trials += count
            self._folded += 1
            if max_errors is not None and self.errors >= max_errors:
                self.stopped = True
                return
        self.stopped = self.upcoming is None and self.running == 0


def _next_point(points: list[_PointRun], max_errors: int | None) -> _PointRun | None:
    """The point whose next block a free pool slot takes: the lowest point that
    needs one (none of its blocks in flight; with no ``max_errors``, every
    open point), else the lowest open point, whose block may turn out unneeded."""
    open_points = [p for p in points if not p.stopped and p.upcoming is not None]
    for point in open_points:
        if max_errors is None or point.running == 0:
            return point
    return open_points[0] if open_points else None


def _run_blocks(
    config: SimConfig, snrs, workers: int, max_errors: int | None
) -> list[BerEstimate]:
    """Estimates at ``snrs``: finite points in [-3000, 3000] dB, or -inf (rho = 0).

    Each block is a pure function of (config, SNR, block), and each point
    folds its blocks in block order through its _PointRun, which alone adds
    a block's errors and stops the point after the block in which its error
    count reaches ``max_errors``.  The schedule therefore cannot change the
    estimates.  With one usable worker the blocks run here, point by point
    and in block order.  With more, every block of every point goes through
    one queue on the pool this process keeps (_process_pool), of ``workers``
    processes but no more than the CPUs it may use, with at most one block
    per process in flight.  A freed slot takes the next block of the lowest
    point that needs one, that is, has no block in flight and has not
    stopped (with no ``max_errors``, every block is needed); only when no
    point needs one does it take the next block of the lowest unfinished
    point, which a stop may discard.  A block's error is raised when its
    point folds it.  The call returns once every point has stopped: blocks
    still queued then are cancelled, and those still running finish in the
    pool unread.  A pool that breaks during the call raises
    ``BrokenProcessPool`` and is dropped.
    """
    _check_workers(workers)
    for snr_db in snrs:
        if snr_db != -inf:
            _check_snr_db(snr_db)
    size = _pool_size(workers)
    points = [_PointRun(snr_db, config.trials) for snr_db in snrs]
    if size == 1:
        for point in points:
            while not point.stopped:
                b, count = point.take()
                block = partial(_block_bit_errors, config, point.snr_db, b, count)
                point.finish(b, block, count, max_errors)
    else:
        from concurrent.futures import FIRST_COMPLETED, wait

        pool = _process_pool(size)
        in_flight: dict = {}  # future -> (point, block index, trials)
        try:
            while not all(p.stopped for p in points):
                while len(in_flight) < size and (point := _next_point(points, max_errors)):
                    b, count = point.take()
                    future = pool.submit(_block_bit_errors, config, point.snr_db, b, count)
                    in_flight[future] = (point, b, count)
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    point, b, count = in_flight.pop(future)
                    point.finish(b, future.result, count, max_errors)
        finally:
            for future in in_flight:
                future.cancel()
            if pool._broken:  # it raised BrokenProcessPool above
                _close_pool()
    return [_estimate(config, p.snr_db, p.errors, p.trials) for p in points]


def run_point(
    config: SimConfig,
    snr_db: float,
    workers: int = 1,
    max_errors: int | None = None,
) -> BerEstimate:
    """Estimate the ABEP at one SNR point, on the config's grid or not.

    ``snr_db`` is a finite point in [-3000, 3000] dB, or -inf (rho = 0).
    ``max_errors`` optionally stops after the block in which the cumulative
    bit-error count reaches it (no bias correction; not used by the
    acceptance runs).  The estimate does not depend on ``workers`` (>= 1),
    the most worker processes that run its blocks (_run_blocks).
    """
    return _run_blocks(config, (snr_db,), workers, max_errors)[0]


def sweep(
    config: SimConfig, workers: int = 1, max_errors: int | None = None
) -> AbepCurve:
    """Run every grid point and attach the analytical and asymptotic bounds.

    Each point stops as ``run_point`` does, and the curve does not depend on
    ``workers`` (>= 1), the most worker processes that run the blocks of all
    the points (_run_blocks).  A pool stays open after the curve is returned
    and is shut down at interpreter exit.
    """
    constellation, book, *_ = _scheme_tables(
        config.scheme, config.kind, config.M, config.L
    )
    estimates = _run_blocks(config, config.snr_db, workers, max_errors)
    points = []
    for snr_db, estimate in zip(config.snr_db, estimates):
        if config.scheme == QSSM:
            bound = analysis.abep_point(book, snr_db)
        else:
            bound = analysis.abep_point_ssm(config.L, constellation, snr_db)
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


#: check_bound judges the points whose bound is at most this ABEP
_JUDGED_BOUND = 1e-2


@dataclass(frozen=True)
class BoundCheck:
    """How a bound sits on a simulated curve: bound / simulated ABEP per point
    (inf where the simulation saw no error), whether the bound lies above the
    simulation at every judged point, and whether it is within a factor of two
    of it at the two highest judged points."""

    ratio: tuple[float, ...]
    above: bool
    tracks: bool


def check_bound(curve: AbepCurve, bound=None) -> BoundCheck:
    """Check ``bound`` (default: the curve's ``abep_analytic`` column), one value
    per point, against the curve's simulated ABEP.

    The judged points are those whose bound is at most 1e-2, where a union
    bound is tight.  With fewer than two judged points both verdicts are
    False: a check that judged nothing has not passed.
    """
    simulated = curve.values("sim")
    bound = curve.values("analytic") if bound is None else np.asarray(bound, dtype=float)
    if bound.shape != simulated.shape:
        raise ValueError(f"bound has {bound.size} values for {simulated.size} curve points")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bound / simulated
    judged = np.flatnonzero(bound <= _JUDGED_BOUND)
    enough = judged.size >= 2
    last = judged[-2:]  # the grid increases: its last points are its highest
    sim, top = simulated[last], bound[last]
    return BoundCheck(
        tuple(ratio.tolist()),
        above=enough and bool(np.all(bound[judged] >= simulated[judged])),
        tracks=enough and bool(np.all((sim / 2.0 <= top) & (top <= sim * 2.0))),
    )
