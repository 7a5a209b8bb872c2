"""PEP formulas, quadrature oracle, and union-bound tests."""

import itertools
import json
import os
import subprocess
import sys
import tracemalloc
from math import log2, prod
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import qssm
from qssm import analysis
from qssm.analysis import (
    EtaCase,
    _union_bound,
    abep_union_bound,
    abep_union_bound_ssm,
    abep_point,
    abep_point_ssm,
    eta_bar,
    pep_asymptotic,
    pep_closed_form,
    pep_conditional,
    pep_quadrature,
    _popcount_matrix,
    q_function,
    snr_db_to_rho,
)
from qssm.modem import (
    _SUPPORTED_ORDERS,
    PSK,
    QAM,
    SymbolBook,
    build_constellation,
    build_symbol_book,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def eq21(product):
    """The paper's eq. 21, 0.5*(1 - sqrt(1/(1 + 2/(rho*eta_bar)))), through
    log1p/expm1 so that the small-PEP regime keeps full relative precision."""
    with np.errstate(divide="ignore"):
        return 0.5 * -np.expm1(-0.5 * np.log1p(2.0 / np.asarray(product, dtype=float)))


def eq21_quadrature(product):
    """Fading average of Q(sqrt(rho*eta_bar*g/2)) with the paper's fading: g
    chi-square with two degrees of freedom, density 0.5*exp(-g/2) (mean 2).

    Integrates over u = max(product, 1)*g mapped onto (0, 1) by t = u/(1+u)."""
    scale = max(product, 1.0)

    def integrand(t):
        g = t / (1.0 - t) / scale
        density = 0.5 * np.exp(-g / 2.0) / scale
        return density * float(q_function(np.sqrt(product * g / 2.0))) / (1.0 - t) ** 2

    value, _ = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=1e-11, limit=200)
    return value


def eq21_union_bound(L, beams, rho):
    """Union bound with eq. 21 PEPs over the L^B * M symbols (k_1, ..., k_B, s).

    Beam b carries ``beams[b][s]`` from scatterer k_b.  Sums every ordered
    pair of index tuples and signal points, grouped by which indices
    coincide; the index pairs and their Hamming distances are enumerated,
    not counted by formula.  The true symbol has Hamming weight 0."""
    index_ham = _popcount_matrix(L)
    equal = np.eye(L, dtype=bool)
    order = len(beams[0])
    signal_ham = _popcount_matrix(order)
    total = 0.0
    for classes in itertools.product((True, False), repeat=len(beams)):
        pairs = [equal == same for same in classes]
        counts = [int(np.sum(mask)) for mask in pairs]
        if 0 in counts:
            continue
        index_bits = [float(np.sum(index_ham[mask])) for mask in pairs]
        eta = sum(
            np.abs(c[:, None] - c[None, :]) ** 2 if same
            else np.abs(c[:, None]) ** 2 + np.abs(c[None, :]) ** 2
            for c, same in zip(beams, classes)
        )
        weight = np.prod(counts) * signal_ham + sum(
            bits * np.prod(counts) / count for bits, count in zip(index_bits, counts)
        )
        total += float(np.sum(weight * eq21(rho * eta)))
    return total / (L ** len(beams) * order * (len(beams) * log2(L) + log2(order)))


def qssm_pair_tables(book: SymbolBook) -> tuple[np.ndarray, np.ndarray]:
    """Dense (eta_bar, hamming-distance) S x S reference tables over all ordered pairs."""
    same1 = book.k1_idx[:, None] == book.k1_idx[None, :]
    same2 = book.k2_idx[:, None] == book.k2_idx[None, :]
    re_part = np.where(
        same1,
        (book.x_re[:, None] - book.x_re[None, :]) ** 2,
        book.x_re[:, None] ** 2 + book.x_re[None, :] ** 2,
    )
    im_part = np.where(
        same2,
        (book.x_im[:, None] - book.x_im[None, :]) ** 2,
        book.x_im[:, None] ** 2 + book.x_im[None, :] ** 2,
    )
    return re_part + im_part, _popcount_matrix(len(book))


def test_q_function_basics():
    assert q_function(0.0) == pytest.approx(0.5, abs=1e-15)
    for x in (0.5, 1.0, 2.0, 5.0):
        assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)


def test_q_function_against_quadrature_oracle():
    # adaptive integration of the standard normal tail
    def tail(x):
        val, _ = quad(
            lambda t: np.exp(-t * t / 2.0) / np.sqrt(2 * np.pi), x, np.inf
        )
        return val

    for x in (0.1, 1.0, 3.0, 5.0):
        assert q_function(x) == pytest.approx(tail(x), rel=1e-12)
    assert q_function(3.0) == pytest.approx(1.349898e-3, rel=1e-6)


def test_eta_bar_case_table():
    x = complex(INV_SQRT2, INV_SQRT2)
    same = eta_bar(x, x, True, True)
    assert same.value == 0.0
    assert same.case is EtaCase.SAME_SAME

    both_diff = eta_bar(x, x, False, False)
    assert both_diff.value == pytest.approx(2.0, abs=1e-12)
    assert both_diff.case is EtaCase.DIFF_DIFF

    a = complex(-INV_SQRT2, -INV_SQRT2)
    b = complex(INV_SQRT2, -INV_SQRT2)
    first_diff = eta_bar(a, b, False, True)
    assert first_diff.value == pytest.approx(1.0, abs=1e-12)
    assert first_diff.case is EtaCase.DIFF_SAME

    second_diff = eta_bar(a, b, True, False)
    assert second_diff.case is EtaCase.SAME_DIFF


def test_eta_bar_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        for f1 in (True, False):
            for f2 in (True, False):
                assert eta_bar(x, y, f1, f2).value == pytest.approx(
                    eta_bar(y, x, f1, f2).value, rel=1e-12
                )


def test_pep_conditional():
    assert pep_conditional(1.0, 0.0) == 0.5
    assert pep_conditional(2.0, 1.0) == pytest.approx(q_function(1.0), abs=1e-15)
    assert pep_conditional(2.0, 1.0) == pytest.approx(0.158655, abs=1e-6)
    values = [pep_conditional(rho, 1.0) for rho in (0.5, 1.0, 2.0, 5.0, 10.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_pep_closed_form_values():
    assert pep_closed_form(4.0, 1.0) == pytest.approx(0.5 * (1 - np.sqrt(0.5)), rel=1e-12)
    assert eq21(2.0) == pytest.approx(0.5 * (1 - np.sqrt(0.5)), rel=1e-12)
    # the stable eq21 is the textbook expression where the latter does not cancel
    for product in np.logspace(-3, 4, 50):
        textbook = 0.5 * (1 - np.sqrt(1 / (1 + 2 / product)))
        assert eq21(product) == pytest.approx(textbook, rel=1e-9)
    assert pep_closed_form(1.0, 0.0) == 0.5
    assert pep_closed_form(0.0, 1.0) == 0.5
    assert eq21(0.0) == 0.5


def test_paper_eq21_is_the_closed_form_at_twice_the_product():
    """eq. 21 at rho*eta_bar equals the package's PEP at 2*rho*eta_bar bit for
    bit: 2/p and 4/(2p) are the same double."""
    for product in np.logspace(-6, 12, 2001):
        assert eq21(product) == pep_closed_form(2.0 * product, 1.0), product


def test_pep_closed_form_monte_carlo_oracle():
    # sqrt(eta) complex Gaussian with total variance eta_bar -> EXACT_MODEL
    rng = np.random.default_rng(7)
    eta_bar_value = 1.7
    rho = 3.0
    n = 1_000_000
    root_eta = np.sqrt(eta_bar_value / 2) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    eta = np.abs(root_eta) ** 2
    samples = q_function(np.sqrt(rho * eta / 2.0))
    estimate = samples.mean()
    se = samples.std() / np.sqrt(n)
    closed = pep_closed_form(rho, eta_bar_value)
    assert abs(estimate - closed) < 3 * se


def test_pep_quadrature_is_the_oracle():
    for product in (1e-3, 1.0, 10.0, 1e4):
        closed = pep_closed_form(product, 1.0)
        assert abs(pep_quadrature(product, 1.0) - closed) / closed < 1e-8
        # the paper's mean-2 fading at rho*eta_bar is the package's PEP at twice it
        closed = pep_closed_form(2.0 * product, 1.0)
        assert abs(eq21_quadrature(product) - closed) / closed < 1e-8


def test_pep_quadrature_scans_large_products():
    # the Q-function scale shrinks as 1/(rho*eta_bar); the quadrature must follow it
    for product in np.logspace(-2, 7, 500):
        closed = pep_closed_form(product, 1.0)
        assert abs(pep_quadrature(product, 1.0) - closed) <= 1e-8 * closed
        closed = pep_closed_form(2.0 * product, 1.0)
        assert abs(eq21_quadrature(product) - closed) <= 1e-8 * closed


def test_pep_quadrature_edges():
    assert pep_quadrature(0.0, 1.0) == 0.5
    for product in (1e-6, 1e-2, 1.0, 1e3):
        value = pep_quadrature(product, 1.0)
        assert 0.0 < value <= 0.5


def test_pep_asymptotic():
    assert pep_asymptotic(100.0, 1.0) == pytest.approx(13.0 / 2400.0, rel=1e-12)
    assert pep_asymptotic(1e-3, 1.0) == 0.5  # clamped
    assert pep_asymptotic(1e-300, 1e-30) == 0.5  # 24*rho*eta_bar underflows to 0
    with pytest.raises(ValueError):
        pep_asymptotic(1.0, 0.0)
    with pytest.raises(ValueError):
        pep_asymptotic(0.0, 1.0)


def test_asymptotic_over_closed_form_ratio():
    # the asymptote is the paper's: 13/12 of eq. 21, the closed form at 2 rho
    ratio = pep_asymptotic(1e6, 1.0) / pep_closed_form(2e6, 1.0)
    assert ratio == pytest.approx(13.0 / 12.0, abs=1e-3)


def test_paper_eq21_bound_is_the_exact_bound_at_twice_the_snr():
    """The union bound with the paper's eq. 21 PEPs at rho is the package's bound
    at 2 rho, for QSSM and SSM alike: the paper's curve is the package's moved by
    10 log10 2 dB.  The two sums add their terms in different orders, hence
    the 1e-12 tolerance."""
    for kind, order in ((QAM, 4), (QAM, 16), (QAM, 64), (PSK, 2), (PSK, 8)):
        constellation = build_constellation(kind, order)
        x = constellation.points
        for L in (1, 2, 4, 8, 16):
            book = build_symbol_book(L, constellation)
            for rho in (1e-2, 0.37, 1.0, 10.0, 1e3, 1e6, 1e9):
                case = (kind, order, L, rho)
                assert eq21_union_bound(L, (x.real, x.imag), rho) == pytest.approx(
                    abep_union_bound(book, 2 * rho), rel=1e-12, abs=0
                ), case
                assert eq21_union_bound(L, (x,), rho) == pytest.approx(
                    abep_union_bound_ssm(L, constellation, 2 * rho), rel=1e-12, abs=0
                ), case


def test_union_bound_vanishes_at_extreme_snr():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    assert abep_union_bound(book, 1e12) < 1e-9


def test_union_bound_two_symbol_hand_enumeration():
    # L=1, BPSK: single ordered pair each way, eta_bar = 4, one bit
    book = build_symbol_book(1, build_constellation(PSK, 2))
    for rho in (0.5, 2.0, 20.0):
        expected = 0.5 * (1 - np.sqrt(1.0 / (1.0 + 2.0 / (4.0 * rho))))  # eq. 21
        got = abep_union_bound(book, 2 * rho)
        assert got == pytest.approx(expected, rel=1e-12)


def test_union_bound_monotone_in_snr():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    values = [
        abep_union_bound(book, snr_db_to_rho(s))
        for s in range(0, 31, 2)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_union_bound_invariant_under_scatterer_relabeling():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    eta, _ = qssm_pair_tables(book)
    perm = np.array([2, 0, 3, 1])  # scatterer index permutation
    m_bits = 2
    values = np.arange(len(book))
    k1 = values >> 4
    k2 = (values >> m_bits) & 3
    sig = values & 3
    mapped = (perm[k1] << 4) | (perm[k2] << m_bits) | sig
    assert np.allclose(eta[np.ix_(mapped, mapped)], eta)


def test_union_bound_asymptotic_clamp_at_low_snr():
    book = build_symbol_book(2, build_constellation(QAM, 4))
    eta, hamming = qssm_pair_tables(book)
    off = ~np.eye(len(book), dtype=bool)
    expected = 0.5 * hamming[off].sum() / (len(book) * book.bits_per_symbol)
    tiny_rho = 1e-12  # every per-pair term hits the 0.5 cap
    x = book.constellation.points
    assert _union_bound(2, (x.real, x.imag), tiny_rho)[1] == pytest.approx(expected)


_NAN = float("nan")


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: pep_conditional(_NAN, 1.0), id="pep_conditional"),
        pytest.param(lambda: pep_conditional(1.0, _NAN), id="pep_conditional-eta"),
        pytest.param(lambda: pep_closed_form(_NAN, 1.0), id="pep_closed_form"),
        pytest.param(lambda: pep_closed_form(_NAN, np.ones(3)), id="pep_closed_form-array"),
        pytest.param(lambda: pep_quadrature(_NAN, 1.0), id="pep_quadrature"),
        pytest.param(lambda: pep_quadrature(1.0, _NAN), id="pep_quadrature-eta_bar"),
        pytest.param(
            lambda: abep_union_bound(build_symbol_book(2, build_constellation(QAM, 4)), _NAN),
            id="abep_union_bound",
        ),
        pytest.param(
            lambda: abep_union_bound_ssm(4, build_constellation(QAM, 4), _NAN),
            id="abep_union_bound_ssm",
        ),
    ],
)
def test_pep_and_closed_form_bounds_reject_nan(call):
    # the guards read "not rho >= 0", so NaN fails as a negative value does
    with pytest.raises(ValueError):
        call()


def test_union_bound_takes_no_kernel_or_convention():
    # one normalisation: the asymptotic value comes from abep_point, the
    # paper's values from the same functions at 2 rho
    constellation = build_constellation(PSK, 2)
    book = build_symbol_book(1, constellation)
    calls = (
        lambda *extra, **kw: abep_union_bound(book, 1.0, *extra, **kw),
        lambda *extra, **kw: abep_union_bound_ssm(1, constellation, 1.0, *extra, **kw),
        lambda *extra, **kw: abep_point(book, 10.0, *extra, **kw),
        lambda *extra, **kw: abep_point_ssm(1, constellation, 10.0, *extra, **kw),
        lambda *extra, **kw: pep_closed_form(1.0, 1.0, *extra, **kw),
        lambda *extra, **kw: pep_quadrature(1.0, 1.0, *extra, **kw),
    )
    for call in calls:
        with pytest.raises(TypeError):
            call("asymptotic")
        with pytest.raises(TypeError):
            call(kernel="asymptotic")
        with pytest.raises(TypeError):
            call(convention="paper_eq21")
    assert not hasattr(qssm, "PepConvention") and not hasattr(analysis, "PepConvention")


def test_ssm_bound_coincides_with_qssm_for_single_path_bpsk():
    constellation = build_constellation(PSK, 2)
    book = build_symbol_book(1, constellation)
    for rho in (0.1, 1.0, 10.0):
        assert abep_union_bound_ssm(1, constellation, rho) == pytest.approx(
            abep_union_bound(book, rho), rel=1e-12
        )


def test_ssm_bound_decreasing():
    constellation = build_constellation(QAM, 16)
    values = [
        abep_union_bound_ssm(4, constellation, snr_db_to_rho(s))
        for s in range(0, 31, 3)
    ]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_ssm_16qam_bound_above_matched_rate_qssm_bound():
    # both carry 6 b/s/Hz: baseline with 16QAM vs QSSM with 4QAM, four paths
    rho = snr_db_to_rho(25.0)
    ssm_bound = abep_union_bound_ssm(4, build_constellation(QAM, 16), rho)
    qssm_bound = abep_union_bound(build_symbol_book(4, build_constellation(QAM, 4)), rho)
    assert ssm_bound > qssm_bound


def test_abep_point_fields():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    point = abep_point(book, 30.0)
    assert point.snr_db == 30.0
    assert point.abep_analytical > 0
    assert point.abep_asymptotic > 0
    rho = snr_db_to_rho(30.0)
    assert point.abep_analytical == pytest.approx(abep_union_bound(book, rho))
    # both fields come from one pass and equal the class sums bit for bit
    for constellation, L in ((build_constellation(QAM, 16), 4), (build_constellation(PSK, 8), 2)):
        book = build_symbol_book(L, constellation)
        x = constellation.points
        for snr_db in (0.0, 17.5, 40.0):
            rho = snr_db_to_rho(snr_db)
            point = abep_point(book, snr_db)
            assert point.abep_analytical == abep_union_bound(book, rho)
            assert point.abep_asymptotic == _union_bound(L, (x.real, x.imag), rho)[1]
            point = abep_point_ssm(L, constellation, snr_db)
            assert point.abep_analytical == abep_union_bound_ssm(L, constellation, rho)
            assert point.abep_asymptotic == _union_bound(L, (x,), rho)[1]
    # the asymptotic form needs rho > 0: SNR -inf (rho = 0) still raises
    constellation = build_constellation(QAM, 4)
    book = build_symbol_book(4, constellation)
    with pytest.raises(ValueError):
        abep_point(book, float("-inf"))
    with pytest.raises(ValueError):
        abep_point_ssm(4, constellation, float("-inf"))
    assert abep_union_bound(book, 0.0) > 0


def test_abep_point_runs_one_class_loop(monkeypatch):
    """A book builds its class table once, whatever its SNR points and kernels."""
    calls = []

    def counted(size):
        calls.append(size)
        return _popcount_matrix(size)

    monkeypatch.setattr(analysis, "_popcount_matrix", counted)
    analysis._class_table.cache_clear()
    constellation = build_constellation(QAM, 4)
    book = build_symbol_book(4, constellation)
    for snr_db in (0.0, 10.0, 20.0):
        abep_point(book, snr_db)
    abep_union_bound(book, snr_db_to_rho(30.0))
    assert calls == [4]
    abep_point_ssm(4, constellation, 20.0)
    assert calls == [4, 4]


def _per_call_union_bound(L, beams, rho):
    """Both union bounds from a loop that builds every class's M x M tables
    on each call: the bit-identity oracle for the cached class table."""
    order = len(beams[0])
    ham = _popcount_matrix(order)
    same, diff = (L, 0.0), (L * (L - 1), L * L * log2(L) / 2.0)
    closed = asymptotic = 0.0
    for classes in itertools.product((same, diff), repeat=len(beams)):
        n = prod(count for count, _ in classes)
        if n == 0:
            continue
        eta = sum(
            analysis._beam_eta(c[:, None], c[None, :], cls is same)
            for c, cls in zip(beams, classes)
        )
        mass = sum(index_mass * (n // count) for count, index_mass in classes)
        weight = n * ham + mass
        closed += float(np.sum(weight * pep_closed_form(rho, eta)))
        asymptotic += float(np.sum(weight * analysis._clamped_asymptotic(rho, eta)))
    scale = L ** len(beams) * order * (len(beams) * log2(L) + log2(order))  # symbols * bits
    return closed / scale, asymptotic / scale


def _buildable_constellations():
    for kind, order in itertools.product((PSK, QAM), _SUPPORTED_ORDERS):
        try:
            yield build_constellation(kind, order)
        except ValueError:  # 2QAM
            continue


@pytest.mark.parametrize(
    "constellation", list(_buildable_constellations()), ids=lambda c: f"{c.kind}{c.order}"
)
def test_class_table_bounds_equal_per_call_loop(constellation):
    """The cached table gives both bounds bit for bit as the per-call loop
    did, from a cold cache and from a warm one."""
    x = constellation.points
    for L in (1, 2, 4, 8, 16):
        book = build_symbol_book(L, constellation)
        for beams in ((x.real, x.imag), (x,)):
            for rho in (0.0, *np.logspace(-3, 9, 13)):
                expected = _per_call_union_bound(L, beams, rho)
                analysis._class_table.cache_clear()
                for _ in ("cold", "warm"):
                    got = _union_bound(L, beams, rho)
                    if rho == 0.0:  # the asymptotic form needs rho > 0
                        assert got[0] == expected[0]
                    else:
                        assert got == expected
                    if len(beams) == 2:
                        assert abep_union_bound(book, rho) == expected[0]
                    else:
                        assert abep_union_bound_ssm(L, constellation, rho) == expected[0]


def test_class_table_cache_is_safe():
    analysis._class_table.cache_clear()
    tables = []
    for kind in (QAM, PSK):  # same M, different points
        x = build_constellation(kind, 4).points
        abep_union_bound(build_symbol_book(2, build_constellation(kind, 4)), 1.0)
        table = analysis._class_table(2, 2, "<f8", np.stack((x.real, x.imag)).tobytes())
        for array in (table.weight, table.eta):
            with pytest.raises(ValueError):
                array[0] = 1.0
        tables.append(table)
    info = analysis._class_table.cache_info()
    assert (info.hits, info.misses) == (2, 2)  # the key the bound used
    assert not np.array_equal(tables[0].eta, tables[1].eta)
    # the cache is bounded: more books than it holds evict the oldest
    maxsize = info.maxsize
    assert maxsize is not None and maxsize > 0
    for L in 2 ** np.arange(maxsize + 2):
        abep_union_bound_ssm(int(L), build_constellation(QAM, 4), 1.0)
    assert analysis._class_table.cache_info().currsize == maxsize


def _book_table(L, constellation, beams):
    x = constellation.points
    values = (x.real, x.imag) if beams == 2 else (x,)
    return analysis._class_table(L, beams, "<f8", b"".join(v.tobytes() for v in values))


@pytest.mark.parametrize(
    "constellation", list(_buildable_constellations()), ids=lambda c: f"{c.kind}{c.order}"
)
def test_class_table_distinct_eta_bar(constellation):
    """The table's sorted distinct eta_bar values and the index of every entry
    into them rebuild eta bit for bit, in eta's shape, read-only."""
    for L, beams in ((1, 1), (4, 1), (1, 2), (4, 2)):
        table = _book_table(L, constellation, beams)
        assert np.all(np.diff(table.distinct) > 0)
        assert table.index.shape == table.eta.shape
        rebuilt = table.distinct[table.index]
        assert rebuilt.tobytes() == table.eta.tobytes()
        for array, value in ((table.distinct, 1.0), (table.index, 0)):
            with pytest.raises(ValueError):
                array[0] = value


def test_abep_point_evaluates_each_distinct_eta_bar_once(monkeypatch):
    """One abep_point runs each PEP kernel once, on the book's distinct eta_bar
    values: 149 of 16384 table entries for QSSM L=8 64QAM, 5 of 64 for L=4 4QAM."""
    sizes = []
    for name in ("_closed_form_pass", "_asymptotic_pass"):
        kernel = getattr(analysis, name)

        def counted(values, kernel=kernel, name=name):
            sizes.append((name, values.size))
            return kernel(values)

        monkeypatch.setattr(analysis, name, counted)
    for L, order, n_distinct in ((8, 64, 149), (4, 4, 5)):
        constellation = build_constellation(QAM, order)
        book = build_symbol_book(L, constellation)
        table = _book_table(L, constellation, 2)
        assert (len(table.distinct), table.eta.size) == (n_distinct, 4 * order * order)
        sizes.clear()
        abep_point(book, 20.0)
        assert sizes == [("_closed_form_pass", n_distinct), ("_asymptotic_pass", n_distinct)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bounds_take_rho_from_zero_to_the_ceiling():
    """rho -0.0 reads as 0, and rho outside [0, 1e300], NaN or an SNR above
    3000 dB raises ValueError naming the range, with no RuntimeWarning first."""
    constellation = build_constellation(QAM, 4)
    book = build_symbol_book(4, constellation)
    assert pep_closed_form(-0.0, 1.0) == pep_closed_form(1.0, -0.0) == 0.5
    assert pep_closed_form(-0.0, np.ones(3)).tolist() == [0.5] * 3
    assert abep_union_bound(book, -0.0) == abep_union_bound(book, 0.0)
    assert abep_union_bound_ssm(4, constellation, -0.0) == abep_union_bound_ssm(4, constellation, 0.0)
    top = analysis._MAX_RHO
    assert top == 1e300 == snr_db_to_rho(3000.0)
    for point in (abep_point(book, 3000.0), abep_point_ssm(4, constellation, 3000.0)):
        assert 0 < point.abep_asymptotic < point.abep_analytical < 1e-298
    assert 0 < pep_asymptotic(top, 1.0) < pep_closed_form(top, 1.0)
    rho_calls = (
        lambda rho: pep_closed_form(rho, 1.0),
        lambda rho: pep_closed_form(rho, np.ones(3)),
        lambda rho: pep_asymptotic(rho, 1.0),
        lambda rho: abep_union_bound(book, rho),
        lambda rho: abep_union_bound_ssm(4, constellation, rho),
    )
    for rho in (np.nextafter(top, np.inf), 1e308, np.inf, -1e-300, np.nan):
        for call in rho_calls:
            with pytest.raises(ValueError, match=r"rho must be >= 0 and at most 1e\+300"):
                call(rho)
    snr_calls = (
        snr_db_to_rho,
        lambda snr_db: abep_point(book, snr_db),
        lambda snr_db: abep_point_ssm(4, constellation, snr_db),
    )
    for snr_db in (3000.001, 1e5, np.inf, np.nan):
        for call in snr_calls:
            with pytest.raises(ValueError, match="snr_db must be at most 3000 dB"):
                call(snr_db)


def _dense_union_bound(eta, hamming, bits, rho, kernel):
    """Explicit S x S sum over ordered pairs of distinct symbols."""
    off = ~np.eye(len(eta), dtype=bool)
    if kernel == "closed_form":
        pep = pep_closed_form(rho, np.where(off, eta, 1.0))
    else:
        with np.errstate(divide="ignore"):
            pep = np.minimum(0.5, 13.0 / (24.0 * rho * eta))
    return float(np.sum(np.where(off, hamming * pep, 0.0))) / (len(eta) * bits)


def _ssm_pair_tables(L, constellation):
    values = np.arange(L * constellation.order)
    k = values >> constellation.bits
    x = constellation.points[values & (constellation.order - 1)]
    eta = np.where(
        k[:, None] == k[None, :],
        np.abs(x[:, None] - x[None, :]) ** 2,
        np.abs(x[:, None]) ** 2 + np.abs(x[None, :]) ** 2,
    )
    return eta, _popcount_matrix(len(values))


@pytest.mark.parametrize(
    "kind, order, L",
    [(PSK, 2, 1), (QAM, 4, 4), (PSK, 8, 2), (PSK, 16, 4), (QAM, 16, 8)],
)
def test_union_bounds_equal_dense_pair_sums(kind, order, L):
    constellation = build_constellation(kind, order)
    book = build_symbol_book(L, constellation)
    qssm_tables = qssm_pair_tables(book)
    ssm_tables = _ssm_pair_tables(L, constellation)
    ssm_bits = int(log2(L * order))
    x = constellation.points
    for rho in (1e-2, 1.0, 1e2, 1e4):
        qssm_bounds = _union_bound(L, (x.real, x.imag), rho)
        ssm_bounds = _union_bound(L, (x,), rho)
        assert qssm_bounds[0] == abep_union_bound(book, rho)
        assert ssm_bounds[0] == abep_union_bound_ssm(L, constellation, rho)
        for got, kernel in zip(qssm_bounds, ("closed_form", "asymptotic")):
            expected = _dense_union_bound(*qssm_tables, book.bits_per_symbol, rho, kernel)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)
        for got, kernel in zip(ssm_bounds, ("closed_form", "asymptotic")):
            expected = _dense_union_bound(*ssm_tables, ssm_bits, rho, kernel)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_union_bound_memory_independent_of_book_size():
    # S = 16384: one dense S x S float64 table alone would take 2.1 GB
    book = build_symbol_book(16, build_constellation(QAM, 64))
    tracemalloc.start()
    try:
        point = abep_point(book, 20.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(point.abep_analytical) and np.isfinite(point.abep_asymptotic)
    assert peak < 50e6


def test_union_bound_psk_floor():
    # PSK points on an axis leave one beam's scatterer undetectable (eta_bar = 0):
    # each such symbol has L-1 partners at PEP 0.5, one index bit away
    snr_db = 80.0  # rho = 1e8
    for order, floor in ((8, 0.05), (4, 0.125)):
        point = abep_point(build_symbol_book(2, build_constellation(PSK, order)), snr_db)
        assert point.abep_analytical == pytest.approx(floor, abs=1e-6)
        assert point.abep_asymptotic == pytest.approx(floor, abs=1e-6)
    point = abep_point(build_symbol_book(4, build_constellation(QAM, 16)), snr_db)
    assert point.abep_analytical < 1e-5 and point.abep_asymptotic < 1e-5


_IMPORT_CONTRACT = """
import json, sys
import qssm, qssm.cli
from qssm import analysis, cli, montecarlo
from qssm.modem import build_constellation, build_symbol_book

config = montecarlo.SimConfig(scheme="qssm", L=4, M=4, snr_db=(10.0,), trials=64, seed=1)
montecarlo.sweep(config)
constellation = build_constellation("qam", 4)
analysis.abep_point(build_symbol_book(4, constellation), 10.0)
analysis.abep_point_ssm(4, constellation, 10.0)
assert cli.main(["table", "--L", "2", "--M", "4", "--out", sys.argv[1]]) == 0
before = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
values = [analysis.pep_quadrature(1.0, 1.0), float(analysis.q_function(3.0))]
print(json.dumps({"before": before, "values": [v.hex() for v in values],
                  "after": "scipy" in sys.modules}))
"""


def test_package_loads_scipy_only_for_the_quadrature_oracle(tmp_path):
    """Importing qssm, simulating and bounding load no SciPy; the oracle loads it."""
    src = str(Path(qssm.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_CONTRACT, str(tmp_path / "table.csv")],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    record = json.loads(proc.stdout.splitlines()[-1])
    assert record["before"] == []
    assert record["values"] == [pep_quadrature(1.0, 1.0).hex(), float(q_function(3.0)).hex()]
    assert record["after"]
