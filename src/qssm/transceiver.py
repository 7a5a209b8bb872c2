"""Transmit/receive chains and exhaustive ML detection, one symbol at a time.

Two observation models are provided.  The ideal model works on the scalar
that remains after perfectly orthogonal beams collapse the array
processing: y = sqrt(rho) * (beta_k1 * x_re + j * beta_k2 * x_im) + n with
unit-variance complex noise, rho being the SNR.  The physical model runs
the full array pipeline (transmit superposition, channel matrix,
phase-shift combining toward all L monitored directions) and detects
jointly on the L beam outputs.  Unit-variance noise on each receive
element reaches those outputs as CN(0, G_r), G_r the receive Gram, so
the projected noise is drawn from that distribution directly: L normals
per symbol, not one per element.

A single-beam baseline chain (SSM) with the same scalar idealisation ships
for rate-matched comparisons.  All detectors break metric ties toward the
lowest label so that runs are reproducible.

Each function is a batch of one over the Monte Carlo kernels of
:mod:`qssm.montecarlo`, so the per-symbol chains and the simulated error
rates share one statement of every model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import montecarlo as mc
from .channel import ChannelRealization, _complex_normals
from .modem import Constellation, QssmSymbol, SymbolBook, ssm_spectral_efficiency


@dataclass(frozen=True)
class IdealObservation:
    """One scalar receive sample plus the linear SNR it was produced at."""

    y_r: complex
    snr: float


@dataclass(frozen=True)
class PhysicalObservation:
    """Phase-shift-network outputs, one complex sample per monitored beam."""

    z: np.ndarray


@dataclass(frozen=True)
class DetectionResult:
    """Winning QSSM hypothesis: scatterer indices, signal point, metric, label."""

    k1_hat: int
    k2_hat: int
    x_hat: complex
    metric: float
    label_hat: str


@dataclass(frozen=True)
class SsmDetectionResult:
    """Winning single-beam hypothesis."""

    k_hat: int
    x_hat: complex
    metric: float
    label_hat: str


#: Highest linear SNR of a chain or detector: the Monte Carlo ceiling, 1e300
_MAX_RHO = 10 ** (mc._MAX_SNR_DB / 10)


def _check_rho(rho: float) -> None:
    """Every chain and detector needs a linear SNR rho in [0, 1e300]: from
    about 1e306 the detector's features overflow, and inf and NaN fail."""
    if not 0 <= rho <= _MAX_RHO:
        raise ValueError(f"rho must be >= 0 and at most {_MAX_RHO:g}, got {rho}")


def _symbol_row(rho: float, L: int, k1: int, k2: int, x_re: float, x_im: float) -> tuple:
    """Validated (k1, k2, x_re, x_im) row of one symbol, with 0-based scatterer indices."""
    _check_rho(rho)
    if not (1 <= k1 <= L and 1 <= k2 <= L):
        raise ValueError(f"scatterer indices out of range 1..{L}")
    return k1 - 1, k2 - 1, x_re, x_im


def _scalar_trial(gains: np.ndarray, symbol: tuple, rho: float, rng) -> complex:
    """One trial of the scalar observation kernel for a (k1, k2, x_re, x_im) row."""
    noise = 0.0 if rng is None else _complex_normals(rng, None)
    k1, k2, x_re, x_im = symbol
    return mc._observe_scalar(gains[k1], gains[k2], x_re, x_im, np.sqrt(rho), noise)


def _detect_one(scheme: str, constellation: Constellation, L: int, y, gains, rho: float):
    """(label, hypothesis row, metric |y - h|^2) of the first-argmin decision on one
    row y: a scalar y (1, 1) takes h from the observation kernel, so a noiseless
    winner scores 0.0 exactly, and beam outputs (1, L) the orthogonal-beam model.
    The hypotheses are built on ``constellation``'s own points, whatever its
    (kind, order) would build.  The row is the winner's (k1, k2, x_re, x_im),
    indices 0-based."""
    _check_rho(rho)
    if len(gains) != L:
        raise ValueError(f"{len(gains)} gains for L={L} scatterers")
    points = np.asarray(constellation.points, dtype=complex)  # the book's own points
    _, _, table, _, W, column_labels = mc._scheme_tables(
        scheme, constellation.kind, constellation.order, L, points.tobytes()
    )
    gains = np.asarray(gains)
    root_rho = np.sqrt(rho)
    v = int(mc._decide(y, gains[None], root_rho, W, column_labels)[0])
    winner = [array[v] for array in table]
    if y.shape[1] == 1:
        return v, winner, float(abs(y[0, 0] - _scalar_trial(gains, winner, rho, None)) ** 2)
    k1, k2, x_re, x_im = winner
    h = np.zeros(L, dtype=complex)
    h[k1] += root_rho * gains[k1] * x_re
    h[k2] += 1j * (root_rho * gains[k2]) * x_im
    return v, winner, float(np.sum(np.abs(y[0] - h) ** 2))


def _detection(book: SymbolBook, y, gains, rho: float) -> DetectionResult:
    """The _detect_one decision on row y among the book's hypotheses."""
    v, (k1, k2, x_re, x_im), metric = _detect_one(mc.QSSM, book.constellation, book.L, y, gains, rho)
    label = format(v, f"0{book.bits_per_symbol}b")
    return DetectionResult(int(k1) + 1, int(k2) + 1, complex(x_re, x_im), metric, label)


def qssm_observe_ideal(
    symbol: QssmSymbol,
    gains: np.ndarray,
    rho: float,
    rng: np.random.Generator | None,
) -> IdealObservation:
    """Scalar observation y = sqrt(rho)*(beta_k1*x_re + j*beta_k2*x_im) + n."""
    row = _symbol_row(rho, len(gains), symbol.k1, symbol.k2, symbol.x_re, symbol.x_im)
    y = _scalar_trial(gains, row, rho, rng)
    return IdealObservation(y_r=complex(y), snr=float(rho))


def qssm_observe_physical(
    symbol: QssmSymbol,
    realization: ChannelRealization,
    rho: float,
    rng: np.random.Generator | None,
) -> PhysicalObservation:
    """Full array chain: superposed beams through H, combining, and projected
    noise drawn as CN(0, G_r), the distribution per-element noise gives."""
    row = _symbol_row(rho, realization.n_paths, symbol.k1, symbol.k2, symbol.x_re, symbol.x_im)
    row = tuple(np.array([f]) for f in row)
    shape = (1, realization.n_paths)
    white = np.zeros(shape) if rng is None else _complex_normals(rng, shape)
    sides = (realization.tx_geometry, realization.rx_geometry)
    sines = (np.sin(realization.aod)[None], np.sin(realization.aoa)[None])
    z = mc._observe_physical(*sides, *sines, realization.gains[None], row, np.sqrt(rho), white)
    return PhysicalObservation(z=z[0])


def ml_detect_ideal(
    observation: IdealObservation,
    gains: np.ndarray,
    book: SymbolBook,
    rho: float,
) -> DetectionResult:
    """Exhaustive minimum-distance search over all L^2 * M scalar hypotheses."""
    return _detection(book, np.array([[observation.y_r]]), gains, rho)


def ml_detect_physical(
    observation: PhysicalObservation,
    realization: ChannelRealization,
    book: SymbolBook,
    rho: float,
) -> DetectionResult:
    """Joint search on the L beam outputs under the orthogonal-beam signal model."""
    z = np.asarray(observation.z)
    if len(z) != realization.n_paths:
        raise ValueError(
            f"observation has {len(z)} beams, realization has {realization.n_paths}"
        )
    return _detection(book, z[None], realization.gains, rho)


# ---------------------------------------------------------------------------
# single-beam baseline (SSM)
# ---------------------------------------------------------------------------

def ssm_observe_ideal(
    k: int,
    x: complex,
    gains: np.ndarray,
    rho: float,
    rng: np.random.Generator | None,
) -> IdealObservation:
    """Single-beam scalar observation y = sqrt(rho) * beta_k * x + n, the QSSM
    observation of row (k, k, Re x, Im x)."""
    y = _scalar_trial(gains, _symbol_row(rho, len(gains), k, k, x.real, x.imag), rho, rng)
    return IdealObservation(y_r=complex(y), snr=float(rho))


def ssm_detect_ideal(
    observation: IdealObservation,
    gains: np.ndarray,
    constellation: Constellation,
    n_scatterers: int,
    rho: float,
) -> SsmDetectionResult:
    """Exhaustive search over the L * M single-beam hypotheses."""
    y = np.array([[observation.y_r]])
    v, (k, _, x_re, x_im), metric = _detect_one(mc.SSM, constellation, n_scatterers, y, gains, rho)
    bits = ssm_spectral_efficiency(constellation.order, n_scatterers)
    return SsmDetectionResult(
        k_hat=int(k) + 1, x_hat=complex(x_re, x_im), metric=metric,
        label_hat=format(v, f"0{bits}b"),
    )
