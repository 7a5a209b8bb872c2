"""Independent references the benchmark checks the program's outputs against.

Nothing here calls the code paths being checked: the union bounds use the
O(M^2) scatterer-multiplicity reduction instead of the program's dense
S x S pair tables, the Wilson interval takes its quantile from the
standard library, and the detectors are brute-force searches written from
the model equations.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_WILSON_Z = NormalDist().inv_cdf(0.975)


def wilson(errors: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval, clamped to [0, 1] and exact at 0 and n."""
    z2 = _WILSON_Z * _WILSON_Z
    phat = errors / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _WILSON_Z * math.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)
    high = 1.0 if errors == n else min(1.0, center + half)
    return low, high


def trial_interval(abep: float, trials: int, z: float = 5.0) -> tuple[float, float]:
    """Score interval for the ABEP that stays valid when bit errors cluster.

    Each trial's bit-error fraction lies in [0, 1] and has variance at most
    p(1-p), so an interval over ``trials`` samples (not trials*bits, which
    assumes independent bits) with a wide z = 5 holds for any clustering.
    """
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (abep + z2 / (2 * trials)) / denom
    half = z * math.sqrt(abep * (1 - abep) / trials + z2 / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def pep_closed(product: np.ndarray) -> np.ndarray:
    """Exact-model averaged PEP 0.5*(1 - (1 + 4/(rho*eta))^-1/2); 0.5 at rho*eta = 0."""
    product = np.asarray(product, dtype=float)
    with np.errstate(divide="ignore"):
        eps = 4.0 / product
    return np.where(product > 0, -0.5 * np.expm1(-0.5 * np.log1p(eps)), 0.5)


def pep_asymptotic(product: np.ndarray) -> np.ndarray:
    """High-SNR PEP 13/(24*rho*eta) under the 0.5 probability cap."""
    product = np.asarray(product, dtype=float)
    with np.errstate(divide="ignore"):
        return np.minimum(0.5, 13.0 / (24.0 * product))


KERNELS = {"closed_form": pep_closed, "asymptotic": pep_asymptotic}


def _popcounts(m: int) -> np.ndarray:
    s = np.arange(m)
    return np.array([[bin(a ^ b).count("1") for b in s] for a in s], dtype=float)


def _index_classes(L: int) -> dict[bool, tuple[int, float]]:
    """same -> (ordered index pairs, their label Hamming mass); same for diff.

    Equal indices: L pairs, no differing bits.  Distinct indices: L(L-1)
    pairs whose natural-binary labels differ in L^2*log2(L)/2 bits in total.
    """
    return {True: (L, 0.0), False: (L * (L - 1), L * L * math.log2(L) / 2.0)}


def qssm_union_bound(L: int, points: np.ndarray, rho: float, kernel: str) -> float:
    """QSSM union bound from four M x M sums over which scatterer indices coincide."""
    m = len(points)
    ham = _popcounts(m)
    pep = KERNELS[kernel]
    xr, xi = points.real, points.imag
    classes = _index_classes(L)
    total = 0.0
    for same1 in (True, False):
        n1, mass1 = classes[same1]
        re = (xr[:, None] - xr[None, :]) ** 2 if same1 else xr[:, None] ** 2 + xr[None, :] ** 2
        for same2 in (True, False):
            n2, mass2 = classes[same2]
            im = (xi[:, None] - xi[None, :]) ** 2 if same2 else xi[:, None] ** 2 + xi[None, :] ** 2
            weight = n1 * n2 * ham + mass1 * n2 + n1 * mass2
            if same1 and same2:
                np.fill_diagonal(weight, 0.0)  # the true hypothesis itself
            total += float(np.sum(weight * pep(rho * (re + im))))
    bits = 2 * math.log2(L) + math.log2(m)
    return total / (L * L * m * bits)


def ssm_union_bound(L: int, points: np.ndarray, rho: float, kernel: str) -> float:
    """Single-beam union bound from two M x M sums (same / distinct scatterer)."""
    m = len(points)
    ham = _popcounts(m)
    pep = KERNELS[kernel]
    classes = _index_classes(L)
    n_same, _ = classes[True]
    n_diff, mass_diff = classes[False]
    d = points[:, None] - points[None, :]
    weight_same = n_same * ham
    np.fill_diagonal(weight_same, 0.0)
    eta_same = d.real**2 + d.imag**2
    e = points.real**2 + points.imag**2
    eta_diff = e[:, None] + e[None, :]
    total = float(np.sum(weight_same * pep(rho * eta_same)))
    total += float(np.sum((n_diff * ham + mass_diff) * pep(rho * eta_diff)))
    bits = math.log2(L) + math.log2(m)
    return total / (L * m * bits)


def bruteforce_union_bounds(pairs, n_symbols: int, bits: int, rho: float, analysis):
    """(closed-form, asymptotic) bounds from an explicit loop over ordered pairs.

    ``pairs`` yields (eta_bar, hamming distance) of every ordered pair of
    distinct symbols.  The closed-form term comes from the program's
    adaptive-quadrature oracle, memoised per distinct eta_bar value.
    """
    quadrature: dict[float, float] = {}
    closed = asym = 0.0
    for eta, ham in pairs:
        if eta not in quadrature:
            quadrature[eta] = analysis.pep_quadrature(rho, eta)
        closed += ham * quadrature[eta]
        asym += ham * (analysis.pep_asymptotic(rho, eta) if eta > 0 else 0.5)
    scale = n_symbols * bits
    return closed / scale, asym / scale


def crossing_db(snr_db, values, target: float) -> float | None:
    """SNR where a decreasing curve first crosses ``target``, log-linear in value."""
    logs = [math.log10(max(v, 1e-300)) for v in values]
    lt = math.log10(target)
    for i in range(len(snr_db) - 1):
        if logs[i] >= lt > logs[i + 1]:
            t = (logs[i] - lt) / (logs[i] - logs[i + 1])
            return snr_db[i] + t * (snr_db[i + 1] - snr_db[i])
    return None


def argmin_with_ties(metrics: np.ndarray, chosen: int, rel: float = 1e-9) -> bool:
    """True when ``chosen`` is the brute-force minimiser, up to rounding-level ties."""
    best = float(np.min(metrics))
    if int(np.argmin(metrics)) == chosen:
        return True
    return float(metrics[chosen]) <= best + rel * max(1.0, best)
