"""Constellation, bit-mapping, and label tests."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from qssm import analysis, cli, montecarlo, transceiver
from qssm.channel import ArrayGeometry, sample_channel
from qssm.modem import (
    PSK,
    QAM,
    SymbolBook,
    build_constellation,
    build_symbol_book,
    demap_symbol,
    hamming_distance,
    map_bits,
    spectral_efficiency,
    ssm_hypotheses,
    ssm_spectral_efficiency,
    QssmSymbol,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def test_4qam_matches_bit_table():
    c = build_constellation(QAM, 4)
    expected = {
        "00": complex(-INV_SQRT2, -INV_SQRT2),
        "01": complex(-INV_SQRT2, +INV_SQRT2),
        "11": complex(+INV_SQRT2, +INV_SQRT2),
        "10": complex(+INV_SQRT2, -INV_SQRT2),
    }
    for label, point in expected.items():
        assert c.points[int(label, 2)] == pytest.approx(point, abs=1e-15)


def test_bpsk_identity():
    c = build_constellation(PSK, 2)
    assert c.points[0] == pytest.approx(1.0 + 0.0j, abs=1e-15)
    assert c.points[1] == pytest.approx(-1.0 + 0.0j, abs=1e-15)


def test_16qam_grid_energy_by_enumeration():
    c = build_constellation(QAM, 16)
    scale = 1.0 / np.sqrt(10.0)
    levels = {-3.0, -1.0, 1.0, 3.0}
    for p in c.points:
        assert round(p.real / scale) in levels
        assert round(p.imag / scale) in levels
        assert p.real == pytest.approx(round(p.real / scale) * scale, abs=1e-15)
    # independent oracle: enumerate and sum
    energy = sum(abs(p) ** 2 for p in c.points) / 16
    assert energy == pytest.approx(1.0, abs=1e-12)


def test_8qam_rectangular_geometry():
    c = build_constellation(QAM, 8)
    a = 1.0 / np.sqrt(6.0)
    re_levels = sorted({round(p.real / a) for p in c.points})
    im_levels = sorted({round(p.imag / a) for p in c.points})
    assert re_levels == [-3, -1, 1, 3]
    assert im_levels == [-1, 1]
    assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_unit_energy_and_distinct_points_all_supported():
    cases = [(PSK, m) for m in (2, 4, 8, 16, 32, 64)]
    cases += [(QAM, m) for m in (4, 8, 16, 32, 64)]
    for kind, order in cases:
        c = build_constellation(kind, order)
        assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, abs=1e-12)
        assert len({(round(p.real, 12), round(p.imag, 12)) for p in c.points}) == order
        assert sorted(c.labels) == sorted(format(v, f"0{c.bits}b") for v in range(order))


def test_constellation_validation_errors():
    with pytest.raises(ValueError):
        build_constellation(QAM, 2)
    with pytest.raises(ValueError):
        build_constellation(QAM, 3)
    with pytest.raises(ValueError):
        build_constellation(PSK, 128)
    with pytest.raises(ValueError):
        build_constellation("apsk", 4)


def test_gray_adjacency_square_qam():
    # neighbours along either axis differ in exactly one label bit
    for order in (4, 16, 64):
        c = build_constellation(QAM, order)
        n = int(np.sqrt(order))
        step = 2.0 / np.sqrt((2 / 3) * (order - 1))  # grid step after normalisation
        for v in range(order):
            for w in range(v + 1, order):
                d = c.points[v] - c.points[w]
                if abs(d) == pytest.approx(step, rel=1e-9):
                    assert hamming_distance(c.labels[v], c.labels[w]) == 1


def test_spectral_efficiency_values():
    assert spectral_efficiency(4, 4) == 6
    assert spectral_efficiency(4, 2) == 4
    assert spectral_efficiency(2, 1) == 1
    assert ssm_spectral_efficiency(4, 4) == 4
    assert ssm_spectral_efficiency(8, 2) == 4
    with pytest.raises(ValueError):
        spectral_efficiency(3, 4)
    with pytest.raises(ValueError):
        spectral_efficiency(4, 3)


def test_map_bits_worked_example():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    s = map_bits([0, 1, 1, 0, 1, 1], book)
    assert (s.k1, s.k2) == (2, 3)
    assert s.x_re == pytest.approx(INV_SQRT2)
    assert s.x_im == pytest.approx(INV_SQRT2)
    s0 = map_bits([0, 0, 0, 0, 0, 0], book)
    assert (s0.k1, s0.k2) == (1, 1)
    assert s0.x_re == pytest.approx(-INV_SQRT2)
    assert s0.x_im == pytest.approx(-INV_SQRT2)


def test_map_bits_rejects_bad_input():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    with pytest.raises(ValueError):
        map_bits([0, 1, 1], book)
    with pytest.raises(ValueError):
        map_bits([0, 1, 2, 0, 1, 1], book)


def test_demap_handbuilt_symbols():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    low = QssmSymbol(k1=1, k2=1, x_re=-INV_SQRT2, x_im=-INV_SQRT2, label="000000")
    high = QssmSymbol(k1=4, k2=4, x_re=INV_SQRT2, x_im=INV_SQRT2, label="111111")
    assert demap_symbol(low, book) == [0, 0, 0, 0, 0, 0]
    assert demap_symbol(high, book) == [1, 1, 1, 1, 1, 1]


def test_demap_rejects_foreign_symbol():
    book = build_symbol_book(4, build_constellation(QAM, 4))
    not_a_point = QssmSymbol(k1=1, k2=1, x_re=0.3, x_im=0.3, label="000000")
    with pytest.raises(ValueError):
        demap_symbol(not_a_point, book)
    wrong_label = QssmSymbol(
        k1=1, k2=1, x_re=-INV_SQRT2, x_im=-INV_SQRT2, label="000001"
    )
    with pytest.raises(ValueError):
        demap_symbol(wrong_label, book)
    out_of_range = QssmSymbol(
        k1=5, k2=1, x_re=-INV_SQRT2, x_im=-INV_SQRT2, label="000000"
    )
    with pytest.raises(ValueError):
        demap_symbol(out_of_range, book)


def test_roundtrip_bijection_over_all_labels():
    for L in (1, 2, 4, 8):
        for kind, M in [(PSK, 2), (QAM, 4), (QAM, 8), (QAM, 16)]:
            constellation = build_constellation(kind, M)
            book = build_symbol_book(L, constellation)
            assert len(book) == L * L * M
            seen = set()
            for v in range(len(book)):
                bits = [int(c) for c in format(v, f"0{book.bits_per_symbol}b")]
                symbol = map_bits(bits, book)
                assert demap_symbol(symbol, book) == bits
                assert [type(f) for f in (symbol.k1, symbol.k2, symbol.x_re, symbol.x_im)] == [
                    int, int, float, float
                ]
                row = (book.k1_idx[v] + 1, book.k2_idx[v] + 1, book.x_re[v], book.x_im[v])
                assert row == (symbol.k1, symbol.k2, symbol.x_re, symbol.x_im)
                seen.add(symbol.label)
            assert len(seen) == len(book)
            # SSM's hypotheses are the book's k1 = k2 rows, in label order
            same = book.k1_idx == book.k2_idx
            table = (book.k1_idx, book.k2_idx, book.x_re, book.x_im)
            for ssm, qssm in zip(ssm_hypotheses(L, constellation), table):
                np.testing.assert_array_equal(ssm, qssm[same])


def test_hamming_examples():
    assert hamming_distance("000000", "011011") == 4
    assert hamming_distance("010101", "010101") == 0
    assert hamming_distance("000000", "111111") == 6
    with pytest.raises(ValueError):
        hamming_distance("000", "0000")


def test_hamming_is_a_metric():
    labels4 = [format(v, "04b") for v in range(16)]
    for a, b in itertools.product(labels4, labels4):
        assert hamming_distance(a, b) == hamming_distance(b, a)
        assert (hamming_distance(a, b) == 0) == (a == b)
    for a, b, c in itertools.product(labels4, labels4, labels4):
        assert hamming_distance(a, c) <= hamming_distance(a, b) + hamming_distance(b, c)
    labels8 = [format(v, "08b") for v in range(256)]
    for a in labels8[::17]:
        for b in labels8[::13]:
            assert hamming_distance(a, b) == hamming_distance(b, a)


def test_built_book_holds_its_label_table_only():
    """An L=16 64QAM book (16384 labels) retains its four label-indexed arrays,
    512 KiB; a tuple of 16384 QssmSymbol objects would retain about 4 MiB."""
    constellation = build_constellation(QAM, 64)
    tracemalloc.start()
    try:
        book = build_symbol_book(16, constellation)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(book) == 16384 and book.bits_per_symbol == 14
    assert "symbols" not in vars(book)
    assert retained < 1 << 20


def test_simulation_and_bound_paths_never_render_symbols(monkeypatch):
    """Tables, bounds, sweeps, the validate report and the ML detectors read the label
    arrays; only map_bits and callers of ``book.symbols`` render the objects."""

    def refuse(book):
        raise AssertionError("book.symbols was rendered")

    monkeypatch.setattr(SymbolBook, "symbols", property(refuse))
    montecarlo._scheme_tables.cache_clear()
    try:
        book = montecarlo._scheme_tables(montecarlo.QSSM, QAM, 16, 4)[1]
        analysis.abep_point(book, 10.0)
        config = montecarlo.SimConfig("qssm", 2, 4, snr_db=(0.0, 10.0), trials=64, seed=3)
        montecarlo.sweep(config)
        physical = dataclasses.replace(config, channel_mode="physical")
        montecarlo.sweep(physical)
        cli.validate_analysis(trials=64)
        rng = np.random.default_rng(5)
        geometry = ArrayGeometry(16)
        realization = sample_channel(4, geometry, geometry, rng)
        symbol = QssmSymbol(k1=2, k2=3, x_re=book.x_re[7], x_im=book.x_im[7], label="0110" + "0111")
        ideal = transceiver.qssm_observe_ideal(symbol, realization.gains, 10.0, rng)
        transceiver.ml_detect_ideal(ideal, realization.gains, book, 10.0)
        observed = transceiver.qssm_observe_physical(symbol, realization, 10.0, rng)
        transceiver.ml_detect_physical(observed, realization, book, 10.0)
    finally:
        montecarlo._scheme_tables.cache_clear()


def test_symbols_is_one_cached_tuple():
    """The objects are built on first read, and every later read, map_bits
    included, returns the same tuple and the same objects."""
    book = build_symbol_book(4, build_constellation(PSK, 8))
    assert "symbols" not in vars(book)
    symbols = book.symbols
    assert isinstance(symbols, tuple) and len(symbols) == len(book) == 128
    assert book.symbols is symbols
    assert map_bits([1, 0, 0, 1, 0, 1, 1], book) is symbols[0b1001011]


def _eager_symbols(L: int, constellation) -> tuple:
    """Every label rendered from its definition: [k1 bits | k2 bits | signal bits],
    natural binary scatterer fields (1-based) and the constellation's point."""
    lb, width = int(np.log2(L)), 2 * int(np.log2(L)) + constellation.bits
    symbols = []
    for v in range(L * L * constellation.order):
        label = format(v, f"0{width}b")
        k1 = int(label[:lb] or "0", 2) + 1
        k2 = int(label[lb:2 * lb] or "0", 2) + 1
        x = complex(constellation.points[int(label[2 * lb:], 2)])
        symbols.append(QssmSymbol(k1=k1, k2=k2, x_re=x.real, x_im=x.imag, label=label))
    return tuple(symbols)


@pytest.mark.parametrize("L", [1, 4, 16])
@pytest.mark.parametrize("kind,M", [(QAM, 16), (PSK, 8)])
def test_symbols_equal_eager_rendering(L, kind, M):
    """The lazily rendered tuple equals the eager one field for field and
    type for type (int indices, float components, str labels)."""
    constellation = build_constellation(kind, M)
    got = build_symbol_book(L, constellation).symbols
    expected = _eager_symbols(L, constellation)
    assert got == expected
    for s, e in zip(got, expected):
        for f in dataclasses.fields(QssmSymbol):
            assert type(getattr(s, f.name)) is type(getattr(e, f.name))
