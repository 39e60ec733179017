import pytest

from chordenum.labelled import (
    double_factorial,
    loop_parallel_triangle,
    loop_triangle,
    loopless_chord,
    loopless_linear,
    loopless_linear_binomial,
    parallel_triangle,
    simple_chain,
    simple_linear,
)
from chordenum.series import integer_coeffs, marker_triangle, named_series


def test_double_factorial_convention():
    assert double_factorial(-1) == 1
    assert double_factorial(1) == 1
    assert double_factorial(9) == 945
    with pytest.raises(ValueError):
        double_factorial(4)
    with pytest.raises(ValueError):
        double_factorial(-3)


def test_loopless_linear_values():
    a = loopless_linear(20)
    assert (a[0], a[1]) == (1, 0)
    assert a[6] == 3655
    assert a[20] == 116160936719430292078411


def test_three_term_agrees_with_binomial_sum():
    assert loopless_linear(20).values == loopless_linear_binomial(20).values


def test_loopless_chord_values():
    b = loopless_chord(20)
    assert b[1] == 0
    assert b[2] == 1
    assert b[6] == 3326
    assert b[20] == 113184512236563589997407
    assert all(v >= 0 for v in b.values)


def test_loop_triangle():
    tri = loop_triangle(10)
    assert tri.value(2, 0) == 1
    assert tri.value(5, 0) == 329
    a = loopless_linear(10)
    for n in range(11):
        assert tri.row_total(n) == double_factorial(2 * n - 1)
        assert tri.value(n, 0) == a[n]
    # out-of-range loop counts are absent
    assert tri.value(3, 4) == 0
    assert tri.value(3, -1) == 0


def test_loop_parallel_triangle():
    tri = loop_parallel_triangle(8)
    assert tri.value(1, 1, 1) == 1
    assert tri.value(4, 0, 0) == 211
    for n in range(9):
        assert tri.row_total(n) == double_factorial(2 * n + 1)
    # parallel count never exceeds the row index
    assert all(l <= n for (n, _, l) in tri.entries)


def test_parallel_triangle_marginalizes_the_full_one():
    full = loop_parallel_triangle(9)
    marginal = parallel_triangle(9)
    assert marginal.row(1) == {(0,): 2, (1,): 1}
    for n in range(10):
        assert marginal.row_total(n) == double_factorial(2 * n + 1)
        for l in range(n + 1):
            assert marginal.value(n, l) == sum(full.value(n, k, l) for k in range(n + 2))


def test_triangles_match_the_classifier_series():
    full = loop_parallel_triangle(12)
    series_cells = marker_triangle(named_series("wzx", 12))
    for (n, k, l), value in series_cells.items():
        assert full.value(n, k, l) == value
    for (n, k, l), value in full.entries.items():
        assert series_cells.get((n, k, l), 0) == value

    marginal = parallel_triangle(12)
    wx_cells = marker_triangle(named_series("wx", 12))
    for (n, _, l), value in wx_cells.items():
        assert marginal.value(n, l) == value

    loops = loop_triangle(12)
    wz_cells = marker_triangle(named_series("wz", 12))
    for (n, k, _), value in wz_cells.items():
        assert loops.value(n, k) == value


def test_simple_linear_and_chain():
    chain = simple_chain(8)
    assert chain.linear[3] == 24
    assert chain.linear.values == simple_linear(8).values
    assert (chain.chord[2], chain.chord[3]) == (1, 1)
    assert chain.chord[8] == 398653
    # simple linear counts agree with the bottom row of the full triangle
    tri = loop_parallel_triangle(8)
    for n in range(9):
        assert chain.linear[n] == tri.value(n, 0, 0)


def test_egf_agreement_to_order_25():
    a = loopless_linear(25)
    b = loopless_chord(25)
    chain = simple_chain(25)
    assert integer_coeffs(named_series("phi", 25)) == list(a.values)
    assert integer_coeffs(named_series("psi", 25)) == list(b.values)
    assert integer_coeffs(named_series("W", 25)) == list(chain.linear.values)
    assert integer_coeffs(named_series("U", 25)) == list(chain.chord.values)
    assert integer_coeffs(named_series("b", 25)) == [
        double_factorial(2 * n - 1) for n in range(26)
    ]


def test_oracle_equivalence(sweeps):
    a = loopless_linear(6)
    b = loopless_chord(6)
    chain = simple_chain(6)
    triangle = loop_parallel_triangle(5)
    loops_triangle = loop_triangle(6)
    for n, sweep in sweeps.items():
        assert sweep.count("linear", "loopless") == a[n]
        assert sweep.count("circular", "loopless") == b[n]
        assert sweep.count("linear", "simple") == chain.linear[n - 1]
        assert sweep.count("circular", "simple") == chain.chord[n]
        assert sweep.count("circular", "all") == double_factorial(2 * n - 1)
        # classified cells: oracle table at n chords is triangle row n-1
        expected = {
            (k, l): v for (k, l), v in triangle.row(n - 1).items()
        }
        assert sweep.tables["linear"] == expected
        loop_marginal = {}
        for (k, _), v in sweep.tables["linear"].items():
            loop_marginal[k] = loop_marginal.get(k, 0) + v
        assert loop_marginal == {
            k: v for (k,), v in loops_triangle.row(n).items()
        }
