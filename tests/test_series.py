import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordenum.series import (
    MARKERS,
    MARKERS_OF,
    RATIONAL,
    SERIES_NAMES,
    MarkerPoly,
    SeriesError,
    TruncatedSeries,
    _Egf,
    full_pde_residual,
    integer_coeffs,
    loop_pde_residual,
    marker_triangle,
    named_series,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def rational_series(draw_coeffs):
    return TruncatedSeries(RATIONAL, tuple(Fraction(c) for c in draw_coeffs))


series_strategy = st.lists(rationals, min_size=4, max_size=9).map(rational_series)


# ---------------------------------------------------------------------------
# The reference: the closed forms in ordinary coefficients and Fraction
# arithmetic, with the Cauchy product and the ordinary-coefficient reciprocal
# and exponential.  It shares no product, exp or reciprocal code with the
# library's EGF kernel, which must reproduce it exactly.


def times(a, b):
    """Cauchy product; a b that is not a series multiplies each coefficient."""
    if not isinstance(b, TruncatedSeries):
        return TruncatedSeries(a.ring, tuple(c * b for c in a.coeffs))
    out = []
    for n in range(min(a.order, b.order) + 1):
        acc = a.ring.zero
        for i in range(n + 1):
            acc = acc + a.coeffs[i] * b.coeffs[n - i]
        out.append(acc)
    return TruncatedSeries(a.ring, tuple(out))


def reference_reciprocal(f):
    inv0 = f.ring.invert(f.coeffs[0])
    out = [inv0]
    for n in range(1, f.order + 1):
        acc = f.ring.zero
        for k in range(1, n + 1):
            acc = acc + f.coeffs[k] * out[n - k]
        out.append(-(inv0 * acc))
    return TruncatedSeries(f.ring, tuple(out))


def reference_exp(g):
    if g.coeffs[0] != g.ring.zero:
        raise SeriesError("exponential requires constant term 0")
    # f' = g' f, solved coefficientwise with exact division by n
    out = [g.ring.one]
    for n in range(1, g.order + 1):
        acc = g.ring.zero
        for k in range(1, n + 1):
            acc = acc + g.coeffs[k] * Fraction(k) * out[n - k]
        out.append(acc * Fraction(1, n))
    return TruncatedSeries(g.ring, tuple(out))


def reference_series(name, order, z=None, x=None):
    """A named closed form; a marker given a value is substituted into the formula."""
    mul, exp, recip = times, reference_exp, reference_reciprocal
    t = TruncatedSeries.identity(order)
    s = (TruncatedSeries.constant(1, order) - 2 * t).sqrt()
    one = TruncatedSeries.constant(1, order)

    if name == "b":
        return recip(s)
    if name == "phi":
        return mul(exp(s - 1), recip(s))
    if name == "chi":
        return one - t - exp(s - 1)
    if name == "psi":
        return mul(exp(s - 1), recip(s)) - 2 + t + exp(s - 1)
    if name == "W":
        return mul(mul(one - s, recip(mul(mul(s, s), s))), exp(s - 1 - t))
    if name == "U":
        return mul(mul(exp(s - 1 - t), recip(s)), one + s) - mul(2 - t, exp(-t))

    carried = MARKERS_OF[name]
    if (z is None and "z" in carried) or (x is None and "x" in carried):
        t, s, one = (
            TruncatedSeries(MARKERS, tuple(MarkerPoly.constant(c) for c in series.coeffs))
            for series in (t, s, one)
        )
    z = MarkerPoly.marker("z") if z is None else z
    x = MarkerPoly.marker("x") if x is None else x
    if name == "wz":
        return mul(exp(mul(s - 1, 1 - z)), recip(s))
    if name == "wx":
        return mul(recip(mul(mul(s, s), s)), exp(mul(t, x - 1)))
    prefactor = mul(mul(s, z - 1) + 1, recip(mul(mul(s, s), s)))
    return mul(prefactor, exp(mul(one - s, z - 1) + mul(t, x - 1)))


def reference_loop_pde_residual(order):
    w = reference_series("wz", order + 1)
    z = MarkerPoly.marker("z")
    t = TruncatedSeries.identity(order, MARKERS)
    wt = w.derivative()
    w = w.truncate(order)
    wz = w.marker_derivative("z")
    return wt - times(w, z) - 2 * times(t, wt) - times(wz, 1 - z)


def reference_full_pde_residual(order):
    w = reference_series("wzx", order + 1)
    z = MarkerPoly.marker("z")
    x = MarkerPoly.marker("x")
    t = TruncatedSeries.identity(order, MARKERS)
    wt = w.derivative()
    w = w.truncate(order)
    wz = w.marker_derivative("z")
    wx = w.marker_derivative("x")
    return wt - times(w, z + x + 1) - 2 * times(t, wt) + times(wz, z - 1) + times(wx, 2 * (x - 1))


def marker_choices(name):
    """Every 0/1 assignment of the markers a series carries."""
    carried = MARKERS_OF.get(name, "")
    return [dict(zip(carried, values)) for values in product((0, 1), repeat=len(carried))]


# ---------------------------------------------------------------------------
# ring operations


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_reciprocal_is_inverse(s):
    if s[0] == 0:
        with pytest.raises(SeriesError):
            s.reciprocal()
        return
    product = s * s.reciprocal()
    assert product[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_sqrt_squares_back(s):
    forced = TruncatedSeries(RATIONAL, (Fraction(1),) + s.coeffs[1:])
    root = forced.sqrt()
    assert (root * root).coeffs == forced.coeffs


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_exp_of_negation_inverts(s):
    forced = TruncatedSeries(RATIONAL, (Fraction(0),) + s.coeffs[1:])
    product = forced.exp() * (-forced).exp()
    assert product[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


@settings(max_examples=30, deadline=None)
@given(series_strategy, series_strategy)
def test_ring_operations_match_the_reference(s, u):
    assert (s * u).coeffs == times(s, u).coeffs
    if s[0] != 0:
        assert s.reciprocal().coeffs == reference_reciprocal(s).coeffs
    forced = TruncatedSeries(RATIONAL, (Fraction(0),) + s.coeffs[1:])
    assert forced.exp().coeffs == reference_exp(forced).coeffs


def test_kernel_preconditions_raise_series_error():
    with pytest.raises(SeriesError, match="constant term 1"):
        _Egf((2, 1, 0)).reciprocal()
    with pytest.raises(SeriesError, match="constant term 1"):
        _Egf((0, 1, 0)).reciprocal()
    with pytest.raises(SeriesError, match="constant term 0"):
        _Egf((1, 1, 0)).exp()


def test_precondition_failures_are_loud():
    t = TruncatedSeries.identity(5)
    with pytest.raises(SeriesError):
        t.sqrt()  # constant term 0, not 1
    with pytest.raises(SeriesError):
        t.reciprocal()
    with pytest.raises(SeriesError):
        (1 + t).exp()  # constant term 1, not 0


def test_sqrt_example():
    t = TruncatedSeries.identity(3)
    s = (1 - 2 * t).sqrt()
    assert s.coeffs == (1, -1, Fraction(-1, 2), Fraction(-1, 2))


def test_exp_of_zero_is_one():
    zero = TruncatedSeries.constant(0, 6)
    assert zero.exp().coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_mixed_ring_arithmetic_is_rejected():
    t = TruncatedSeries.identity(4)
    tm = TruncatedSeries.identity(4, MARKERS)
    with pytest.raises(SeriesError):
        t + tm


# ---------------------------------------------------------------------------
# marker polynomials


def test_marker_poly_arithmetic():
    z = MarkerPoly.marker("z")
    x = MarkerPoly.marker("x")
    p = (z + x) * (z - x)
    assert p == z * z - x * x
    assert (z * x).differentiate("z") == x
    assert (z * z).differentiate("z") == 2 * z


def test_marker_inversion_requires_constant():
    z = MarkerPoly.marker("z")
    series = TruncatedSeries(MARKERS, (z, MARKERS.zero, MARKERS.zero))
    with pytest.raises(SeriesError):
        series.reciprocal()


def test_a_marker_poly_factor_scales_each_coefficient(monkeypatch):
    z = MarkerPoly.marker("z")
    two = MarkerPoly.constant(Fraction(2))
    series = TruncatedSeries(MARKERS, (two, z, z * z + 1))
    assert series.reciprocal().coeffs == reference_reciprocal(series).coeffs
    monkeypatch.setattr(_Egf, "__mul__", lambda *args: pytest.fail("labelled product for a scalar"))
    assert (series * z).coeffs == (two * z, z * z, z * z * z + z)
    assert (z * series).coeffs == (series * z).coeffs


# ---------------------------------------------------------------------------
# named series


def test_named_series_printed_expansions():
    assert integer_coeffs(named_series("phi", 5)) == [1, 0, 1, 5, 36, 329]
    assert integer_coeffs(named_series("U", 6)) == [0, 0, 1, 1, 21, 168, 1968]
    assert integer_coeffs(named_series("W", 4)) == [0, 1, 3, 24, 211]
    assert integer_coeffs(named_series("psi", 6)) == [0, 0, 1, 4, 31, 293, 3326]
    assert integer_coeffs(named_series("b", 4)) == [1, 1, 3, 15, 105]


def test_unknown_series_name():
    with pytest.raises(SeriesError):
        named_series("zeta", 5)


def test_reciprocal_sqrt_gives_double_factorials():
    values = integer_coeffs(named_series("b", 8))
    assert values == [math.prod(range(2 * n - 1, 0, -2)) for n in range(9)]


def test_marker_substitutions():
    assert integer_coeffs(named_series("wzx", 5, z=0, x=0)) == [0, 1, 3, 24, 211, 2325]
    assert integer_coeffs(named_series("wzx", 5, z=1, x=1)) == [
        math.prod(range(2 * n + 1, 0, -2)) for n in range(6)
    ]
    for z, x in product((0, 1), repeat=2):
        expected = integer_coeffs(reference_series("wzx", 5, z=z, x=x))
        assert integer_coeffs(named_series("wzx", 5, z=z, x=x)) == expected
    phi = named_series("phi", 6)
    assert named_series("wz", 6, z=0).coeffs == phi.coeffs
    b = named_series("b", 6)
    assert named_series("wz", 6, z=1).coeffs == b.coeffs


def test_classifier_starts_from_the_single_loop():
    wzx = named_series("wzx", 3)
    assert wzx[0] == MarkerPoly.marker("z")


def test_integer_coeffs_rejects_leftover_markers_and_nonintegers():
    with pytest.raises(SeriesError):
        integer_coeffs(named_series("wzx", 3, z=0))  # x left free
    with pytest.raises(SeriesError):
        integer_coeffs(named_series("phi", 3, z=0))
    half_t = TruncatedSeries(RATIONAL, (Fraction(0), Fraction(1, 2)))
    with pytest.raises(SeriesError):
        integer_coeffs(half_t)


def test_all_named_series_extract_nonnegative_integers():
    for name in ("b", "phi", "chi", "psi", "W", "U"):
        assert all(v >= 0 for v in integer_coeffs(named_series(name, 12)))
    for z in (0, 1):
        assert all(v >= 0 for v in integer_coeffs(named_series("wz", 9, z=z)))
        for x in (0, 1):
            assert all(v >= 0 for v in integer_coeffs(named_series("wzx", 9, z=z, x=x)))
    for x in (0, 1):
        assert all(v >= 0 for v in integer_coeffs(named_series("wx", 9, x=x)))


# ---------------------------------------------------------------------------
# identities among the closed forms


def test_chord_series_identity_to_order_25():
    t = TruncatedSeries.identity(25)
    s = (1 - 2 * t).sqrt()
    expected = named_series("phi", 25) - 2 + t + (s - 1).exp()
    assert named_series("psi", 25).coeffs == expected.coeffs


def test_shifted_series_antiderivative_relation():
    # the derivative of the shifted series recovers the linear one
    chi = named_series("chi", 26)
    phi = named_series("phi", 25)
    assert chi.derivative().coeffs == (phi - 1).coeffs


def test_pde_residuals_vanish():
    assert loop_pde_residual(12).is_zero()
    assert full_pde_residual(10).is_zero()


def test_pde_residuals_vanish_to_order_15():
    assert loop_pde_residual(15).is_zero()
    assert full_pde_residual(15).is_zero()


def test_reference_satisfies_the_pdes():
    assert reference_loop_pde_residual(8).is_zero()
    assert reference_full_pde_residual(6).is_zero()


def test_marker_triangle_round_trip():
    wx = named_series("wx", 4)
    triangle = marker_triangle(wx)
    assert triangle[(1, 0, 0)] == 2
    assert triangle[(1, 0, 1)] == 1
    assert triangle[(2, 0, 0)] == 10


# ---------------------------------------------------------------------------
# the integer kernel against the reference


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_integer_coeffs_match_the_reference_to_order_40(name):
    # each order is compared with the reference at order 40, truncated:
    # every construction is exact modulo t^(order+1)
    for markers in marker_choices(name):
        reference = reference_series(name, 40, **markers)
        expected = integer_coeffs(reference)
        for order in range(1, 41):
            series = named_series(name, order, **markers)
            assert series.ring is RATIONAL
            assert series.coeffs == reference.coeffs[: order + 1], (order, markers)
            assert integer_coeffs(series) == expected[: order + 1], (order, markers)


def test_marker_triangle_matches_the_reference_to_order_20():
    reference = reference_series("wzx", 20)
    expected = marker_triangle(reference)
    for order in range(1, 21):
        series = named_series("wzx", order)
        assert series.coeffs == reference.coeffs[: order + 1], order
        assert marker_triangle(series) == {k: v for k, v in expected.items() if k[0] <= order}, order


def test_free_and_partly_assigned_markers_match_the_reference():
    for name in ("wz", "wx"):
        assert named_series(name, 15).coeffs == reference_series(name, 15).coeffs
    for marker in ("z", "x"):
        for value in (0, 1):
            series = named_series("wzx", 10, **{marker: value})
            assert series.ring is MARKERS
            assert series.coeffs == reference_series("wzx", 10, **{marker: value}).coeffs


def test_a_marker_the_series_does_not_carry_is_refused():
    with pytest.raises(SeriesError, match="carries no marker x"):
        named_series("wz", 3, z=1, x=1)
    with pytest.raises(SeriesError, match="carries no marker z"):
        named_series("wx", 3, z=1, x=1)
    with pytest.raises(SeriesError, match="carries no marker z"):
        named_series("phi", 3, z=0)
