"""Geometric scattering channel: array responses, sampling, diagnostics.

The channel is a sum of L rank-one scatterer contributions with i.i.d.
circularly symmetric unit-variance complex gains.  Angles can be drawn on
the DFT sine grid, which makes the steering vectors of distinct scatterers
exactly orthogonal, or uniformly with a minimum sine separation of 2/N,
which only approximates that orthogonality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DFT_GRID = "dft_grid"
MIN_SEP = "min_sep"

_ANGLE_MODES = (DFT_GRID, MIN_SEP)
_MAX_REJECTION_ROUNDS = 100_000
_GRID_DRAW_TILE = 1 << 20  # uniforms per argsort of DFT-grid picks (L*L > 4*N)
_SEPARATION_TILE = 1 << 16  # sines per min_sep separation check

#: Widest element spacing (wavelengths).  The Gram kernel keeps only the
#: fraction of d * (s_m - s_l), |s_m - s_l| <= 2: up to 2^20 wavelengths it has
#: at least 31 bits, 2^19 steps across the narrowest main lobe (1/N at
#: N = 4096); from 2^51 the widest pairs keep none, and 1e308 overflows to NaN.
_MAX_SPACING = float(1 << 20)


class SamplingError(ValueError):
    """min_sep sampling found no separated sines within its round cap: the
    config is feasible but (almost) never sampled."""


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    n_elements: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self) -> None:
        spacing, n = self.spacing_over_lambda, self.n_elements
        if isinstance(spacing, bool) or not isinstance(spacing, numbers.Real) or not (
            0 < spacing <= _MAX_SPACING  # NaN and inf fail too
        ):
            raise ValueError(
                f"spacing must be a real number in (0, 2^20] wavelengths, got {spacing!r}"
            )
        if isinstance(n, bool) or not hasattr(type(n), "__index__") or n < 1:
            raise ValueError(f"n_elements must be an integer >= 1, got {n!r}")


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


# 0-d operands: NumPy converts a Python scalar operand on every call, which
# costs a batch of one trial more than its arithmetic does
_PI = np.array(np.pi)
_TWO_PI = np.array(2.0 * np.pi)
_INV_SQRT2 = np.array(1.0 / np.sqrt(2.0))
_SUBNORMAL = np.array(np.finfo(float).smallest_subnormal)  # 2**-1074


@lru_cache(maxsize=16)
def _kernel_operands(n_elements: int, spacing: float) -> tuple:
    """0-d spacing and N of _dirichlet_gram, and the bits of N after its leading one."""
    return np.array(spacing), np.array(float(n_elements)), bin(n_elements)[3:]


def _dirichlet_gram(
    sines_l: np.ndarray, sines_m: np.ndarray, n_elements: int, spacing: float
) -> np.ndarray:
    """a^H(s_l) a(s_m) of unit-norm steering vectors, broadcast over the two sine arrays.

    With x = d*(s_m - s_l) reduced to f = x - rint(x) and theta = pi*f, the
    entry is the Dirichlet kernel exp(j*(N-1)*theta) * sin(N*theta) / (N*sin(theta)).
    It takes one cos and one sin: w = exp(j*theta), p = w**N by binary
    powering, and the entry is p * conj(w) * Im(p) / (N*Im(w)).

    Numerator and denominator of that quotient both get the smallest
    subnormal float 2**-1074.  Where f = 0 (a beam with itself, or an alias
    of it) p = w = 1, so the quotient reads 2**-1074 / 2**-1074 and the
    entry is exactly 1.  A nonzero f gives |theta| >= 3 * 2**-1074, so the
    denominator never reaches 0.  The shift leaves every part of magnitude
    2**-1020 or more as it is; below that the true entry is 1 to double
    precision, and both parts are N*theta to a few ulps (the powers of
    w = (1, theta) only add), so the quotient stays 1 to a few ulps.
    """
    d, n, bits = _kernel_operands(n_elements, spacing)
    angle = sines_m - sines_l
    angle *= d
    angle -= np.rint(angle)
    angle *= _PI
    w = np.empty(angle.shape, dtype=complex)
    w.real = np.cos(angle)
    den = np.sin(angle)
    w.imag = den
    p = w.copy()
    for bit in bits:  # from the leading bit of N down: square, and multiply by w at a 1
        p *= p
        if bit == "1":
            p *= w
    den *= n
    den += _SUBNORMAL
    ratio = p.imag + _SUBNORMAL
    ratio /= den
    p *= w.conj()
    p *= ratio
    return p


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
    return np.mod(np.arcsin(sines), _TWO_PI)


def _complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circularly symmetric complex Gaussian draws; one Python
    complex for ``shape=None``.

    Arrays take the real draws, then the imaginary ones, each times
    1/sqrt(2): NumPy divides a complex array by a real scalar with Smith's
    algorithm, which multiplies by that reciprocal, so the bytes equal
    ``(re + 1j * im) / np.sqrt(2.0)`` without its complex temporaries.
    Python's complex division divides instead, so a scalar keeps that form.
    """
    if shape is None:
        return (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
    z = np.empty(shape, dtype=complex)
    np.multiply(rng.standard_normal(shape), _INV_SQRT2, out=z.real)
    np.multiply(rng.standard_normal(shape), _INV_SQRT2, out=z.imag)
    return z


def _sines_separated(sines: np.ndarray, n_elements: int, spacing: float) -> np.ndarray:
    """Per row of (rows, L) sines: every gap on the alias circle is >= period/N.

    Each row is folded onto [0, period) and sorted, then copied by columns
    into an (L + 1, rows) circle whose last row is the first plus one
    period.  The L gaps and their least are then whole-row operations, not
    reductions over rows of L values; a row's verdict does not depend on the
    others, so batches of more than _SEPARATION_TILE sines run in row tiles
    that keep the circle cache-sized.
    """
    step = max(1, _SEPARATION_TILE // sines.shape[1])
    if len(sines) > step:
        return np.concatenate([
            _sines_separated(sines[a : a + step], n_elements, spacing)
            for a in range(0, len(sines), step)
        ])
    period = 1.0 / spacing
    folded = np.fmod(sines, period)
    folded += (folded < 0) * period  # np.mod's values: fmod is exact, then one period below 0
    folded.sort(axis=-1)
    circle = np.empty((sines.shape[1] + 1, len(sines)))
    circle[:-1] = folded.T
    np.add(circle[0], period, out=circle[-1])
    gaps = circle[1:] - circle[:-1]
    return np.minimum.reduce(gaps, axis=0) >= period / n_elements


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


def _draws_ranks(L: int, n_elements: int) -> bool:
    """The DFT-grid draw rule, part of the sample stream: rank draw where
    L*L <= 4*N, argsort of N uniforms per row elsewhere.

    The rank decode costs O(L^2) per row and the argsort O(N); over 16384
    rows the decode measured at least 1.7x faster at every L*L <= 4*N
    (N = 4 to 4096) and slower from about L*L = 16*N.
    """
    return L * L <= 4 * n_elements


@lru_cache(maxsize=16)
def _rank_bounds(L: int, n_elements: int) -> tuple:
    """The float rank bounds N - i, i < L: a read-only array, and a tuple for one row."""
    bounds = np.arange(n_elements, n_elements - L, -1, dtype=float)
    bounds.flags.writeable = False
    return bounds, tuple(bounds.tolist())


def _draw_grid_picks(rng: np.random.Generator, n_rows: int, L: int, n_elements: int) -> np.ndarray:
    """(n_rows, L) distinct DFT-grid indices, each row uniform over the ordered L-tuples.

    Under the rank draw (_draws_ranks) a row takes L uniforms u_i; pick i is
    the free index of rank floor(u_i * (N - i)), free meaning not taken by
    picks 0..i-1.  The ranks decode backward: for j = L-2 .. 0, every later
    pick at or above pick j moves up by one, 2(L - 1) whole-row operations
    on the (L, rows) ranks.  One row decodes in Python ints, which costs
    less than those operations on arrays of one.  Elsewhere a row takes N
    uniforms and keeps the first L of their argsort, drawn in row tiles of
    at most _GRID_DRAW_TILE uniforms.
    """
    if not _draws_ranks(L, n_elements):
        step = max(1, _GRID_DRAW_TILE // n_elements)
        if n_rows > step:  # row tiles draw the same uniforms with bounded temporaries
            return np.concatenate([
                _draw_grid_picks(rng, min(step, n_rows - a), L, n_elements)
                for a in range(0, n_rows, step)
            ])
        return np.argsort(rng.random((n_rows, n_elements)), axis=1)[:, :L]
    bounds, bound_list = _rank_bounds(L, n_elements)
    if n_rows == 1:
        picks = [int(u * b) for u, b in zip(rng.random(L).tolist(), bound_list)]
        for j in range(L - 2, -1, -1):
            pick = picks[j]
            for k in range(j + 1, L):
                if picks[k] >= pick:
                    picks[k] += 1
        return np.array([picks])
    picks = (rng.random((n_rows, L)) * bounds).T.astype(np.intp, order="C")
    for j in range(L - 2, -1, -1):
        later = picks[j + 1 :]
        later += later >= picks[j]
    return picks.T


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
