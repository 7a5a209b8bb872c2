"""Geometric scattering channel: array responses, sampling, diagnostics.

The channel is a sum of L rank-one scatterer contributions with i.i.d.
circularly symmetric unit-variance complex gains.  Angles can be drawn on
the DFT sine grid, which makes the steering vectors of distinct scatterers
exactly orthogonal, or uniformly with a minimum sine separation of 2/N,
which only approximates that orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DFT_GRID = "dft_grid"
MIN_SEP = "min_sep"

_ANGLE_MODES = (DFT_GRID, MIN_SEP)
_MAX_REJECTION_ROUNDS = 100_000
_GRID_DRAW_TILE = 1 << 20  # uniforms per argsort of DFT-grid picks


class SamplingError(ValueError):
    """min_sep sampling found no separated sines within its round cap: the
    config is feasible but (almost) never sampled."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self) -> None:
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        if not self.spacing_over_lambda > 0:
            raise ValueError(
                f"spacing_over_lambda must be > 0, got {self.spacing_over_lambda}"
            )


@dataclass(frozen=True)
class ChannelRealization:
    """One draw of L scatterers: complex gains plus departure/arrival angles."""

    gains: np.ndarray
    aod: np.ndarray
    aoa: np.ndarray
    tx_geometry: ArrayGeometry
    rx_geometry: ArrayGeometry

    def __post_init__(self) -> None:
        if not (len(self.gains) == len(self.aod) == len(self.aoa)):
            raise ValueError("gains, aod and aoa must have equal length")

    @property
    def n_paths(self) -> int:
        return len(self.gains)


def _steering(sines: np.ndarray, n_elements: int, spacing: float) -> np.ndarray:
    """(...) sines -> (..., N) unit-norm steering vectors exp(j*2*pi*d*s*n)/sqrt(N)."""
    n = np.arange(n_elements)
    phase = 2j * np.pi * spacing * sines[..., None] * n
    return np.exp(phase) / np.sqrt(n_elements)


def _dirichlet_gram(
    sines_l: np.ndarray, sines_m: np.ndarray, n_elements: int, spacing: float
) -> np.ndarray:
    """a^H(s_l) a(s_m) of unit-norm steering vectors, broadcast over the two sine arrays.

    With x = d*(s_m - s_l) reduced to f = x - rint(x), the entry is the
    Dirichlet kernel exp(j*pi*(N-1)*f) * sin(pi*N*f) / (N*sin(pi*f)), taken
    as exactly 1 where f = 0: a beam with itself, or an alias of it.
    """
    angle = spacing * (sines_m - sines_l)
    angle -= np.rint(angle)
    angle *= np.pi
    den = n_elements * np.sin(angle)
    ratio = np.divide(np.sin(n_elements * angle), den, out=np.ones(angle.shape), where=den != 0)
    return ratio * np.exp((1j * (n_elements - 1)) * angle)


def array_response(geometry: ArrayGeometry, theta: float) -> np.ndarray:
    """Unit-norm steering vector: entry n is exp(j*2*pi*(d/lambda)*sin(theta)*n)/sqrt(N)."""
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    return _steering(np.sin(theta), geometry.n_elements, geometry.spacing_over_lambda)


def dft_grid_sines(n_elements: int) -> np.ndarray:
    """The N sine-domain grid points (2i - N)/N whose beams are mutually orthogonal."""
    return (2.0 * np.arange(n_elements) - n_elements) / n_elements


_grid_sines = lru_cache(maxsize=8)(dft_grid_sines)  # shared: only ever indexed


def _angles_from_sines(sines: np.ndarray) -> np.ndarray:
    return np.mod(np.arcsin(sines), 2.0 * np.pi)


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian draws."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _sines_separated(sines: np.ndarray, n_elements: int, spacing: float) -> np.ndarray:
    """Per row of (..., L) sines: every gap on the alias circle is >= period/N."""
    period = 1.0 / spacing
    folded = np.sort(np.mod(sines, period), axis=-1)
    gaps = np.diff(folded, axis=-1, append=folded[..., :1] + period)
    return gaps.min(axis=-1) >= period / n_elements


def sine_separation_ok(sines: np.ndarray, geometry: ArrayGeometry) -> bool:
    """True when all pairwise sine gaps are at least one DFT null spacing.

    Gaps are measured on the circle of period 1/(d/lambda), the array's
    alias period: at half-wavelength spacing sin(theta) = -1 and +1 steer
    the same beam, so plain sine differences alone would admit duplicate beams.
    """
    if len(sines) < 2:
        return True
    one_row = np.asarray(sines)[None]
    return bool(_sines_separated(one_row, geometry.n_elements, geometry.spacing_over_lambda)[0])


def _check_angle_sampling(L: int, angle_mode: str, *geometries: ArrayGeometry) -> None:
    """Raise unless _draw_sines can place L sines under ``angle_mode`` on each array.

    L must fit the N-point sine grid.  min_sep needs L >= 2 gaps of at least
    period/N on the alias circle of period 1/spacing, so L = N cannot be
    sampled; below half-wavelength spacing the sines cover only an arc of 2
    of the period, so the L - 1 inner gaps must also fit that arc.
    """
    if L < 1:
        raise ValueError(f"L must be >= 1, got {L}")
    if angle_mode not in _ANGLE_MODES:
        raise ValueError(f"angle_mode must be one of {_ANGLE_MODES}, got {angle_mode!r}")
    for g in geometries:
        n, spacing = g.n_elements, g.spacing_over_lambda
        if L > n:
            raise ValueError(f"cannot place {L} scatterers on a {n}-point sine grid")
        if angle_mode == MIN_SEP and L >= 2:
            gap = 1.0 / (spacing * n)
            if L == n or (spacing < 0.5 and (L - 1) * gap >= 2.0):
                raise ValueError(
                    f"min_sep angle sampling cannot place L={L} sines at gaps of {gap:g} "
                    f"on an array of {n} elements with spacing {spacing:g}; "
                    f"use angle_mode='{DFT_GRID}' or larger arrays"
                )


def _draw_grid_picks(rng: np.random.Generator, n_rows: int, L: int, n_elements: int) -> np.ndarray:
    """(n_rows, L) distinct DFT-grid indices: the first L of an argsort of N
    uniforms per row, drawn in row tiles of at most _GRID_DRAW_TILE uniforms."""
    step = max(1, _GRID_DRAW_TILE // n_elements)
    if n_rows > step:  # row tiles draw the same uniforms with bounded temporaries
        return np.concatenate([
            _draw_grid_picks(rng, min(step, n_rows - a), L, n_elements)
            for a in range(0, n_rows, step)
        ])
    return np.argsort(rng.random((n_rows, n_elements)), axis=1)[:, :L]


def _draw_sines(
    rng: np.random.Generator,
    n_rows: int,
    L: int,
    n_elements: int,
    angle_mode: str,
    spacing: float = 0.5,
) -> np.ndarray:
    """(n_rows, L) sine-domain angles for one array side.

    DFT-grid rows are the grid points of _draw_grid_picks; min-separation
    rows are redrawn until sine_separation_ok holds, for at most
    _MAX_REJECTION_ROUNDS rounds.  Each round re-checks only the rows it
    redrew, in row order, so the draws are those of a full re-check.
    """
    if angle_mode == DFT_GRID:
        return _grid_sines(n_elements)[_draw_grid_picks(rng, n_rows, L, n_elements)]
    sines = np.sin(rng.uniform(0.0, 2.0 * np.pi, (n_rows, L)))
    bad = np.flatnonzero(~_sines_separated(sines, n_elements, spacing))
    for _ in range(_MAX_REJECTION_ROUNDS):
        if bad.size == 0:
            return sines
        sines[bad] = np.sin(rng.uniform(0.0, 2.0 * np.pi, (bad.size, L)))
        bad = bad[~_sines_separated(sines[bad], n_elements, spacing)]
    raise SamplingError(
        f"min_sep angle sampling placed no L={L} sines at gaps of "
        f"{1.0 / (spacing * n_elements):g} on N={n_elements} elements in "
        f"{_MAX_REJECTION_ROUNDS} rounds; use angle_mode='{DFT_GRID}' or larger arrays"
    )


def sample_channel(
    L: int,
    tx_geometry: ArrayGeometry,
    rx_geometry: ArrayGeometry,
    rng: np.random.Generator,
    angle_mode: str = DFT_GRID,
) -> ChannelRealization:
    """Draw per-side angles under the given mode, then L i.i.d. CN(0,1) gains."""
    _check_angle_sampling(L, angle_mode, tx_geometry, rx_geometry)
    aod, aoa = (
        _angles_from_sines(
            _draw_sines(rng, 1, L, g.n_elements, angle_mode, g.spacing_over_lambda)[0]
        )
        for g in (tx_geometry, rx_geometry)
    )
    gains = _complex_normals(rng, L)
    return ChannelRealization(
        gains=gains, aod=aod, aoa=aoa, tx_geometry=tx_geometry, rx_geometry=rx_geometry
    )


def steering_bank(geometry: ArrayGeometry, angles: np.ndarray) -> np.ndarray:
    """Stack of steering vectors, one column per angle (N x L)."""
    return _steering(np.sin(angles), geometry.n_elements, geometry.spacing_over_lambda).T


def orthogonality_defect(realization: ChannelRealization) -> float:
    """Largest cross-correlation |a^H(theta_l) a(theta_l')| over l != l', both arrays.

    Zero means the beams are exactly orthogonal (the regime the error-rate
    analysis assumes); one means two scatterers share a beam.
    """
    if realization.n_paths < 2:
        raise ValueError("orthogonality defect needs at least two paths")
    worst = 0.0
    for geometry, angles in (
        (realization.tx_geometry, realization.aod),
        (realization.rx_geometry, realization.aoa),
    ):
        sines = np.sin(angles)
        gram = np.abs(
            _dirichlet_gram(
                sines[:, None], sines[None, :], geometry.n_elements, geometry.spacing_over_lambda
            )
        )
        np.fill_diagonal(gram, 0.0)
        worst = max(worst, float(gram.max()))
    return worst


def channel_matrix(realization: ChannelRealization) -> np.ndarray:
    """H = sum_l beta_l a_r(theta_l^r) a_t^H(theta_l^t), shape (N_r, N_t)."""
    a_t = steering_bank(realization.tx_geometry, realization.aod)
    a_r = steering_bank(realization.rx_geometry, realization.aoa)
    return (a_r * realization.gains[None, :]) @ a_t.conj().T


def realization_to_json(realization: ChannelRealization) -> dict:
    """JSON-serialisable record (gains as re/im pairs, angles in radians)."""
    return {
        "gains": [[float(g.real), float(g.imag)] for g in realization.gains],
        "aod": [float(a) for a in realization.aod],
        "aoa": [float(a) for a in realization.aoa],
        "tx_geometry": {
            "n_elements": realization.tx_geometry.n_elements,
            "spacing_over_lambda": realization.tx_geometry.spacing_over_lambda,
        },
        "rx_geometry": {
            "n_elements": realization.rx_geometry.n_elements,
            "spacing_over_lambda": realization.rx_geometry.spacing_over_lambda,
        },
    }


def realization_from_json(record: dict) -> ChannelRealization:
    """Rebuild a realization previously serialised by :func:`realization_to_json`."""
    gains = np.array([complex(re, im) for re, im in record["gains"]])
    return ChannelRealization(
        gains=gains,
        aod=np.asarray(record["aod"], dtype=float),
        aoa=np.asarray(record["aoa"], dtype=float),
        tx_geometry=ArrayGeometry(**record["tx_geometry"]),
        rx_geometry=ArrayGeometry(**record["rx_geometry"]),
    )
