"""Constellations, bit mapping, and symbol bookkeeping for QSSM links.

A QSSM symbol joins two scatterer choices (one per orthogonal transmit
beam) with the real and imaginary parts of one PSK/QAM point.  Labels are
bit strings ordered [quadrature-beam bits | in-phase-beam bits | signal
bits].  Scatterer bits use natural binary (00 -> scatterer 1), QAM signal
bits are Gray coded per dimension, PSK bits are Gray coded around the
circle, and the first PSK point sits at angle 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

PSK = "psk"
QAM = "qam"

_SUPPORTED_ORDERS = (2, 4, 8, 16, 32, 64)


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _gray(i: int) -> int:
    return i ^ (i >> 1)


def _pam_levels(n: int) -> np.ndarray:
    """Amplitude levels -(n-1), ..., n-1 in steps of 2 (unnormalised)."""
    return np.arange(-(n - 1), n, 2, dtype=float)


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy signal set; ``points[v]`` carries label value ``v``."""

    kind: str
    order: int
    points: np.ndarray
    labels: tuple[str, ...]

    @property
    def bits(self) -> int:
        return int(log2(self.order))

    def index_of(self, point: complex, tol: float = 1e-9) -> int:
        """Label value of the constellation point matching ``point``."""
        idx = int(np.argmin(np.abs(self.points - point)))
        if abs(self.points[idx] - point) > tol:
            raise ValueError(f"{point!r} is not a point of this constellation")
        return idx


@dataclass(frozen=True)
class QssmSymbol:
    """One transmit decision: two scatterer indices (1-based) plus a signal point."""

    k1: int
    k2: int
    x_re: float
    x_im: float
    label: str

    @property
    def x(self) -> complex:
        return complex(self.x_re, self.x_im)


@dataclass(frozen=True)
class SymbolBook:
    """All L^2 * M QSSM symbols in label order, with flat arrays for fast lookups.

    ``k1_idx``/``k2_idx`` are 0-based scatterer indices and ``x_re``/``x_im``
    the signal components, all indexed by integer label value.
    """

    L: int
    constellation: Constellation
    symbols: tuple[QssmSymbol, ...]
    k1_idx: np.ndarray
    k2_idx: np.ndarray
    x_re: np.ndarray
    x_im: np.ndarray

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def bits_per_symbol(self) -> int:
        return int(log2(len(self.symbols)))

    @property
    def spatial_bits(self) -> int:
        return int(log2(self.L))


def _check_constellation(kind: str, order: int) -> None:
    """Raise unless :func:`build_constellation` can build (kind, order); builds nothing."""
    if kind not in (PSK, QAM):
        raise ValueError(f"kind must be {PSK!r} or {QAM!r}, got {kind!r}")
    if order not in _SUPPORTED_ORDERS:
        raise ValueError(f"order must be one of {_SUPPORTED_ORDERS}, got {order}")
    if kind == QAM and order == 2:
        raise ValueError("2QAM degenerates to BPSK; use kind='psk' with order 2")


def build_constellation(kind: str, order: int) -> Constellation:
    """Construct a unit-average-energy PSK or QAM constellation.

    QAM uses per-dimension Gray labels with the real dimension taking the
    high bits (and the extra bit when log2(order) is odd, giving the
    rectangular 8QAM geometry {+-1, +-3} x {+-1} scaled by 1/sqrt(6)).
    PSK places point ``i`` at angle 2*pi*i/order under Gray label gray(i).
    """
    kind = kind.lower()
    _check_constellation(kind, order)
    k = int(log2(order))
    points = np.zeros(order, dtype=complex)
    if kind == PSK:
        angles = 2.0 * np.pi * np.arange(order) / order
        for i in range(order):
            points[_gray(i)] = complex(np.cos(angles[i]), np.sin(angles[i]))
        # snap values that are zero up to rounding so BPSK/QPSK components are exact
        points.real[np.abs(points.real) < 1e-12] = 0.0
        points.imag[np.abs(points.imag) < 1e-12] = 0.0
    else:
        k_re = (k + 1) // 2
        k_im = k - k_re
        lev_re = _pam_levels(1 << k_re)
        lev_im = _pam_levels(1 << k_im)
        scale = 1.0 / np.sqrt(np.mean(lev_re**2) + np.mean(lev_im**2))
        for i, a in enumerate(lev_re):
            for j, b in enumerate(lev_im):
                label = (_gray(i) << k_im) | _gray(j)
                points[label] = scale * complex(a, b)

    energy = float(np.mean(np.abs(points) ** 2))
    if abs(energy - 1.0) > 1e-12:
        points = points / np.sqrt(energy)
    labels = tuple(format(v, f"0{k}b") for v in range(order))
    return Constellation(kind=kind, order=order, points=points, labels=labels)


def spectral_efficiency(order: int, n_scatterers: int) -> int:
    """Bits per channel use: log2(M) plus log2(L) for each of the two beams."""
    if not _is_pow2(order) or order < 2:
        raise ValueError(f"order must be a power of two >= 2, got {order}")
    if not _is_pow2(n_scatterers):
        raise ValueError(f"n_scatterers must be a power of two >= 1, got {n_scatterers}")
    return int(log2(order)) + 2 * int(log2(n_scatterers))


def ssm_spectral_efficiency(order: int, n_scatterers: int) -> int:
    """Bits per channel use of the single-beam baseline: log2(M) + log2(L),
    the QSSM rate less the second beam's scatterer bits."""
    return spectral_efficiency(order, n_scatterers) - int(log2(n_scatterers))


def _label_table(n_scatterers: int, constellation: Constellation, beams: int) -> tuple:
    """Label-indexed (k1, k2, x_re, x_im) of the L^beams * M labels [spatial bits | signal bits].

    The spatial field is k1 then k2 for two beams (QSSM) and the one index
    k = k1 = k2 for one beam (SSM); indices are 0-based.
    """
    values = np.arange(n_scatterers**beams * constellation.order)
    spatial = values >> constellation.bits
    x = constellation.points[values & (constellation.order - 1)]
    k1, k2 = spatial // n_scatterers ** (beams - 1), spatial % n_scatterers
    return k1, k2, x.real.copy(), x.imag.copy()


def build_symbol_book(n_scatterers: int, constellation: Constellation) -> SymbolBook:
    """Enumerate all L^2 * M symbols in label order."""
    total_bits = spectral_efficiency(constellation.order, n_scatterers)
    table = _label_table(n_scatterers, constellation, 2)
    symbols = tuple(
        QssmSymbol(k1=i1 + 1, k2=i2 + 1, x_re=u, x_im=v, label=format(value, f"0{total_bits}b"))
        for value, (i1, i2, u, v) in enumerate(zip(*(array.tolist() for array in table)))
    )
    return SymbolBook(n_scatterers, constellation, symbols, *table)


def ssm_hypotheses(n_scatterers: int, constellation: Constellation) -> tuple:
    """Label-ordered (k, k, x_re, x_im) arrays of the L * M single-beam hypotheses:
    QSSM's table restricted to k1 = k2 = k."""
    return _label_table(n_scatterers, constellation, 1)


def map_bits(bits, book: SymbolBook) -> QssmSymbol:
    """Map one bit block to its QSSM symbol.

    The first log2(L) bits pick the quadrature-beam scatterer, the next
    log2(L) bits the in-phase-beam scatterer, the rest the signal point.
    """
    bits = list(bits)
    if len(bits) != book.bits_per_symbol:
        raise ValueError(
            f"expected {book.bits_per_symbol} bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    value = 0
    for b in bits:
        value = (value << 1) | b
    return book.symbols[value]


def demap_symbol(symbol: QssmSymbol, book: SymbolBook) -> list[int]:
    """Exact inverse of :func:`map_bits`; raises if the symbol is not in the book."""
    if not (1 <= symbol.k1 <= book.L and 1 <= symbol.k2 <= book.L):
        raise ValueError(f"scatterer indices out of range 1..{book.L}")
    sig = book.constellation.index_of(symbol.x)
    l_bits = book.spatial_bits
    m_bits = book.constellation.bits
    value = ((symbol.k1 - 1) << (l_bits + m_bits)) | ((symbol.k2 - 1) << m_bits) | sig
    label = format(value, f"0{book.bits_per_symbol}b")
    if symbol.label != label:
        raise ValueError(
            f"label {symbol.label!r} inconsistent with fields (expected {label!r})"
        )
    return [int(c) for c in label]


def hamming_distance(label_a: str, label_b: str) -> int:
    """Number of differing bit positions between two equal-length labels."""
    if len(label_a) != len(label_b):
        raise ValueError(
            f"label lengths differ: {len(label_a)} vs {len(label_b)}"
        )
    return sum(ca != cb for ca, cb in zip(label_a, label_b))
