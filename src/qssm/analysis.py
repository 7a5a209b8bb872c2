"""Pairwise error probabilities and union-bound average bit error rates.

For a wrong hypothesis at SNR rho, the conditional pairwise error
probability is Q(sqrt(rho*eta/2)) where sqrt(eta) is the complex
hypothesis-difference term.  Its expected squared modulus eta_bar depends
only on which scatterer indices coincide and on the signal points (see
:func:`eta_bar`).  sqrt(eta) is circularly symmetric complex Gaussian with
total variance eta_bar, so eta/eta_bar is a unit-mean exponential and the
fading average has the closed form 0.5*(1 - sqrt(1/(1 + 4/(rho*eta_bar)))),
which Monte Carlo runs of the scalar chain match.

The paper's eq. 21 takes eta/eta_bar as chi-square with two degrees of
freedom (mean 2), which gives 0.5*(1 - sqrt(1/(1 + 2/(rho*eta_bar)))): the
same function at 2*rho, bit for bit.  So every paper value is this module's
value at twice the SNR (3.01 dB to the left), and no function here takes a
normalisation switch.

:func:`pep_quadrature` integrates the fading average numerically and acts
as the independent oracle for the closed form.  It and :func:`q_function`
(behind :func:`pep_conditional`) import SciPy on their first call; nothing
else here needs it, so importing the package loads NumPy only.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import inf, log2, prod
from typing import NamedTuple

import numpy as np

from .modem import Constellation, SymbolBook


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


#: Relative accuracy that pep_quadrature asks of the adaptive quadrature.
_QUADRATURE_REL_TOL = 1e-10

#: Highest SNR (dB) of the bounds, the simulator and the per-symbol chains,
#: rho = 1e300: the detector's features rho * |beta|^2 * x^2 and the union
#: bounds overflow from about 3060 dB
_MAX_SNR_DB = 3000.0

#: Highest linear SNR, 10^(_MAX_SNR_DB / 10) = 1e300 exactly
_MAX_RHO = 10.0 ** (_MAX_SNR_DB / 10.0)


class EtaCase(enum.Enum):
    """Which scatterer indices coincide between the true and wrong hypothesis."""

    SAME_SAME = "same_same"
    DIFF_SAME = "diff_same"
    SAME_DIFF = "same_diff"
    DIFF_DIFF = "diff_diff"


@dataclass(frozen=True)
class EtaBar:
    """Effective squared distance of a hypothesis pair."""

    value: float
    case: EtaCase


@dataclass(frozen=True)
class AbepPoint:
    """Union-bound values at one SNR point."""

    snr_db: float
    abep_analytical: float
    abep_asymptotic: float


def q_function(x):
    """Gaussian tail probability via the complementary error function."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def _beam_eta(c, c_hat, same: bool):
    """One beam's eta_bar term for values c, c_hat (scalars or arrays) it carries."""
    return abs(c - c_hat) ** 2 if same else abs(c) ** 2 + abs(c_hat) ** 2


def eta_bar(x: complex, x_hat: complex, same_k1: bool, same_k2: bool) -> EtaBar:
    """Expected squared modulus of the hypothesis-difference term.

    The quadrature beam contributes |x_re - x_hat_re|^2 when the first
    indices coincide and |x_re|^2 + |x_hat_re|^2 otherwise; the in-phase
    beam contributes the analogous imaginary-part term.
    """
    x = complex(x)
    x_hat = complex(x_hat)
    re_part = _beam_eta(x.real, x_hat.real, same_k1)
    im_part = _beam_eta(x.imag, x_hat.imag, same_k2)
    case = {
        (True, True): EtaCase.SAME_SAME,
        (False, True): EtaCase.DIFF_SAME,
        (True, False): EtaCase.SAME_DIFF,
        (False, False): EtaCase.DIFF_DIFF,
    }[(same_k1, same_k2)]
    return EtaBar(value=float(re_part + im_part), case=case)


def pep_conditional(rho: float, eta: float) -> float:
    """PEP conditioned on the fading: Q(sqrt(rho*eta/2))."""
    if not rho >= 0:  # NaN fails too
        raise ValueError(f"rho must be >= 0, got {rho}")
    if not eta >= 0:
        raise ValueError(f"eta must be >= 0, got {eta}")
    return float(q_function(np.sqrt(rho * eta / 2.0)))


def _checked_rho(rho) -> float:
    """rho as a float in [0, 1e300], -0.0 read as 0.0 (4/-0.0 is -inf): the
    rule of every bound, chain and detector."""
    rho = float(rho)
    if not 0.0 <= rho <= _MAX_RHO:  # NaN fails too
        raise ValueError(f"rho must be >= 0 and at most {_MAX_RHO:g}, got {rho}")
    return rho + 0.0


def _closed_form_pass(product: np.ndarray) -> np.ndarray:
    """0.5*(1 - sqrt(1/(1 + 4/product))) in place over product = rho*eta_bar >= +0,
    as 0.5*(-expm1(-0.5*log1p(4/product))) so that the small-PEP regime keeps
    full relative precision; product 0 gives 0.5.  The caller's np.errstate
    ignores divide and overflow."""
    np.divide(4.0, product, out=product)
    np.log1p(product, out=product)
    np.multiply(-0.5, product, out=product)
    np.expm1(product, out=product)
    np.negative(product, out=product)
    return np.multiply(0.5, product, out=product)


def pep_closed_form(rho, eta_bar_value):
    """Fading-averaged PEP, 0.5*(1 - sqrt(1/(1 + 4/(rho*eta_bar)))).

    Accepts scalars or arrays; rho*eta_bar = 0 gives 0.5, and -0.0 reads as
    0.  Raises ValueError unless every rho lies in [0, 1e300] and every
    rho*eta_bar is >= 0 (NaN fails).
    """
    scalar = np.isscalar(rho) and np.isscalar(eta_bar_value)
    rho = np.asarray(rho, dtype=float)
    if not np.all((rho >= 0.0) & (rho <= _MAX_RHO)):  # NaN fails too
        raise ValueError(f"rho must be >= 0 and at most {_MAX_RHO:g}, got {rho}")
    product = np.asarray(rho * np.asarray(eta_bar_value, dtype=float))
    if not np.all(product >= 0):
        raise ValueError("rho and eta_bar must be >= 0")
    product += 0.0  # -0.0 -> 0.0
    with np.errstate(divide="ignore", over="ignore"):
        _closed_form_pass(product)
    return float(product) if scalar else product[()]


def pep_quadrature(rho: float, eta_bar_value: float) -> float:
    """Numerical fading average of Q(sqrt(rho*eta_bar*g/2)); oracle for the closed form.

    The integral runs over u = max(rho*eta_bar, 1)*g, where the faster-decaying
    factor has unit scale, mapped onto (0, 1) through t = u/(1+u) and evaluated
    by adaptive quadrature to ``_QUADRATURE_REL_TOL`` relative accuracy.
    """
    if not (rho >= 0 and eta_bar_value >= 0):  # NaN fails too
        raise ValueError("rho and eta_bar must be >= 0")
    from scipy.integrate import quad
    from scipy.special import erfc

    product = rho * eta_bar_value
    if product == 0.0:
        return 0.5
    scale = max(product, 1.0)

    def integrand(t):
        u = t / (1.0 - t)
        density = np.exp(-u / scale) / scale  # unit-mean exponential fading g
        q = 0.5 * erfc(np.sqrt(product / scale * u / 2.0) / np.sqrt(2.0))  # q_function
        return density * q / (1.0 - t) ** 2

    value, abserr, info, *message = quad(
        integrand, 0.0, 1.0, epsabs=0.0, epsrel=_QUADRATURE_REL_TOL, limit=200, full_output=True
    )
    if message:
        raise NumericalError(
            f"PEP quadrature did not converge for rho*eta_bar={product:g}: {message[0]}"
        )
    if value > 0 and abserr / value > 10 * _QUADRATURE_REL_TOL:
        raise NumericalError(
            f"PEP quadrature met only {abserr / value:.2e} relative accuracy "
            f"for rho*eta_bar={product:g}"
        )
    return float(value)


def _check_asymptotic_rho(rho: float) -> None:
    """The high-SNR form 13/(24*rho*eta_bar) is defined only for rho > 0."""
    if not rho > 0:
        raise ValueError(f"asymptotic PEP needs rho > 0, got {rho}")


def _asymptotic_pass(scaled: np.ndarray) -> np.ndarray:
    """min(0.5, 13/scaled) in place over scaled = (24*rho)*eta_bar: the high-SNR
    PEP capped at 0.5, so that eta_bar = 0 gives 0.5.  The caller's
    np.errstate ignores divide and overflow."""
    np.divide(13.0, scaled, out=scaled)
    return np.minimum(0.5, scaled, out=scaled)


def _clamped_asymptotic(rho: float, eta_bar_value):
    """13/(24*rho*eta_bar) capped at 0.5, so that eta_bar = 0 gives 0.5."""
    with np.errstate(divide="ignore", over="ignore"):
        return _asymptotic_pass(np.array(24.0 * rho * eta_bar_value, dtype=float))


def pep_asymptotic(rho: float, eta_bar_value: float) -> float:
    """High-SNR PEP 13/(24*rho*eta_bar), clamped to the 0.5 probability cap.

    This is the paper's asymptote: 13/12 of :func:`pep_closed_form` at
    2*rho, hence 13/24 of it at rho once rho*eta_bar is large.
    """
    rho = _checked_rho(rho)
    _check_asymptotic_rho(rho)
    if eta_bar_value <= 0:
        raise ValueError(
            f"asymptotic PEP undefined for eta_bar = {eta_bar_value} (needs > 0)"
        )
    return float(_clamped_asymptotic(rho, eta_bar_value))


# ---------------------------------------------------------------------------
# union bounds
# ---------------------------------------------------------------------------

def _popcount_matrix(size: int) -> np.ndarray:
    values = np.arange(size, dtype=np.uint64)
    return np.bitwise_count(values[:, None] ^ values[None, :]).astype(float)


class _ClassTable(NamedTuple):
    """The SNR-free part of a union bound: each index-coincidence class's
    M x M weights and eta_bar, flattened into one row of a (classes, M^2)
    array, rows in class order; the sorted distinct eta_bar values, and the
    index of every eta entry into them, in eta's shape."""

    weight: np.ndarray
    eta: np.ndarray
    distinct: np.ndarray
    index: np.ndarray
    scale: float  # symbols * bits


@lru_cache(maxsize=16)  # books; the largest table, M = 64, takes 385 KiB
def _class_table(L: int, n_beams: int, dtype: str, data: bytes) -> _ClassTable:
    """Read-only class table over the L^B * M symbols (k_1, ..., k_B, s),
    B = n_beams, built once per book.  ``data`` holds the beams' values back
    to back: a Constellation holds an array and is not hashable.

    Beam b carries ``beams[b][s]`` from scatterer k_b.  eta_bar adds one term
    per beam that depends only on whether its indices coincide and on (s, t),
    and the Hamming distance splits into index bits plus signal bits, so each
    index-coincidence class is one M x M table weighted n*ham_M + mass: equal
    indices give n = L pairs and mass 0, distinct ones n = L(L-1) and mass
    L^2*log2(L)/2.  The true symbol gets weight 0 on the all-equal diagonal.

    A book holds few distinct eta_bar values (149 of 16384 entries for
    64QAM, 5 of 64 for 4QAM), so ``distinct`` and ``index`` let a bound
    evaluate each PEP once per value and gather it back into the table's
    layout.  The index is reshaped here: the shape np.unique's inverse takes
    has changed across NumPy releases.
    """
    beams = np.frombuffer(data, dtype=dtype).reshape(n_beams, -1)
    order = beams.shape[1]
    ham = _popcount_matrix(order)
    same, diff = (L, 0.0), (L * (L - 1), L * L * log2(L) / 2.0)
    weights, etas = [], []
    for classes in itertools.product((same, diff), repeat=n_beams):
        n = prod(count for count, _ in classes)
        if n == 0:
            continue
        eta = sum(
            _beam_eta(c[:, None], c[None, :], cls is same) for c, cls in zip(beams, classes)
        )
        mass = sum(index_mass * (n // count) for count, index_mass in classes)
        weights.append((n * ham + mass).ravel())
        etas.append(eta.ravel())
    weight, eta = np.stack(weights), np.stack(etas)
    distinct, index = np.unique(eta, return_inverse=True)
    index = index.reshape(eta.shape)
    for array in (weight, eta, distinct, index):
        array.flags.writeable = False
    scale = L**n_beams * order * (n_beams * log2(L) + log2(order))  # symbols * bits
    return _ClassTable(weight, eta, distinct, index, scale)


def _union_bound(L: int, beams: tuple, rho: float) -> tuple:
    """(closed form, asymptotic) union bounds at rho over the L^B * M symbols
    whose B = len(beams) beams carry ``beams[b][s]``, from the book's cached
    :func:`_class_table`.

    Both PEPs are evaluated once per distinct eta_bar, in place, and gathered
    back into the table's layout, so each entry holds the value a pass over
    the whole table gives it.  Each class's row is then summed on its own,
    pairwise as np.sum sums a contiguous array, and the class sums are added
    in class order (np.add.accumulate; np.add.reduce would pair them
    differently), so the values equal those of a per-call loop over the
    classes bit for bit.  Weights are not pooled per distinct value: that
    would reorder the sums.  rho must lie in [0, 1e300]; the asymptotic value
    is meaningful only for rho > 0, which :func:`_abep_point` checks.
    """
    rho = _checked_rho(rho)
    data = b"".join(beam.tobytes() for beam in beams)
    table = _class_table(L, len(beams), beams[0].dtype.str, data)
    pep = np.multiply.outer((rho, 24.0 * rho), table.distinct)  # rho*eta, (24*rho)*eta
    with np.errstate(divide="ignore", over="ignore"):
        _closed_form_pass(pep[0])
        _asymptotic_pass(pep[1])
    terms = pep.take(table.index, axis=1)  # (2, classes, M^2)
    np.multiply(terms, table.weight, out=terms)
    sums = np.add.accumulate(np.add.reduce(terms, axis=2), axis=1)[:, -1]
    return float(sums[0]) / table.scale, float(sums[1]) / table.scale


def _abep_point(L: int, beams: tuple, snr_db: float) -> AbepPoint:
    """Both union bounds at one SNR point, from one _union_bound pass."""
    rho = snr_db_to_rho(snr_db)
    _check_asymptotic_rho(rho)
    return AbepPoint(float(snr_db), *_union_bound(L, beams, rho))


def abep_union_bound(book: SymbolBook, rho: float) -> float:
    """Hamming-weighted PEP sum over ordered pairs, / (L^2*M * log2(L^2*M)), in O(M^2).

    The book's class table is built on its first call and kept, so each
    further rho costs one vectorized pass over it.
    """
    x = book.constellation.points
    return _union_bound(book.L, (x.real, x.imag), rho)[0]


def abep_union_bound_ssm(n_scatterers: int, constellation: Constellation, rho: float) -> float:
    """Union bound of the single-beam baseline over its L * M symbols."""
    return _union_bound(n_scatterers, (constellation.points,), rho)[0]


def snr_db_to_rho(snr_db: float) -> float:
    """dB to linear SNR; -inf maps to 0.  Raises ValueError above 3000 dB
    (rho = 1e300, the bounds' ceiling) and for NaN."""
    if snr_db == -inf:
        return 0.0
    if not snr_db <= _MAX_SNR_DB:  # NaN fails too
        raise ValueError(
            f"snr_db must be at most {_MAX_SNR_DB:g} dB (rho = {_MAX_RHO:g}), got {snr_db}"
        )
    return float(10.0 ** (snr_db / 10.0))


def abep_point(book: SymbolBook, snr_db: float) -> AbepPoint:
    """Closed-form and asymptotic union bounds at one SNR point."""
    x = book.constellation.points
    return _abep_point(book.L, (x.real, x.imag), snr_db)


def abep_point_ssm(n_scatterers: int, constellation: Constellation, snr_db: float) -> AbepPoint:
    """Baseline analogue of :func:`abep_point`."""
    return _abep_point(n_scatterers, (constellation.points,), snr_db)
