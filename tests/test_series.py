import ast
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordenum import series as series_module
from chordenum.series import (
    MARKERS_OF,
    SERIES_NAMES,
    MarkerTriangle,
    SeriesError,
    TruncatedSeries,
    _closed_form,
    _Egf,
    _sqrt_power,
    _unpacked_form,
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
    return TruncatedSeries(tuple(Fraction(c) for c in draw_coeffs))


series_strategy = st.lists(rationals, min_size=4, max_size=9).map(rational_series)


# ---------------------------------------------------------------------------
# The reference: the closed forms in ordinary coefficients, as plain tuples
# of Fractions or marker polynomials, with the Cauchy product and the
# ordinary-coefficient reciprocal, exponential and square root.  It shares no
# code with the library; the EGF kernel must reproduce it.


class Poly:
    """Polynomial in the markers z and x: (z degree, x degree) -> nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def constant(cls, value):
        return cls({(0, 0): value})

    @classmethod
    def marker(cls, name):
        return cls({{"z": (1, 0), "x": (0, 1)}[name]: 1})

    @staticmethod
    def of(value):
        return value if isinstance(value, Poly) else Poly.constant(value)

    def __eq__(self, other):
        return self.terms == Poly.of(other).terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        out = dict(self.terms)
        for k, v in Poly.of(other).terms.items():
            out[k] = out.get(k, 0) + v
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in Poly.of(other).terms.items():
                out[a + c, b + d] = out.get((a + c, b + d), 0) + u * v
        return Poly(out)

    __rmul__ = __mul__

    def differentiate(self, marker):
        pos = "zx".index(marker)
        out = {}
        for degrees, v in self.terms.items():
            if degrees[pos]:
                lower = (degrees[0] - 1, degrees[1]) if pos == 0 else (degrees[0], degrees[1] - 1)
                out[lower] = out.get(lower, 0) + v * degrees[pos]
        return Poly(out)


def scaled_of(reference):
    """n! [t^n] of a reference series, as ints: the scale the library returns."""
    out = []
    for n, coefficient in enumerate(reference):
        scaled_value = coefficient * math.factorial(n)
        assert scaled_value.denominator == 1, n
        out.append(int(scaled_value))
    return tuple(out)


def triangle_of(reference):
    """n! [t^n z^k x^l] of a reference series, as ints keyed (n, k, l)."""
    cells = {}
    for n, coefficient in enumerate(reference):
        for (k, l), v in Poly.of(coefficient).terms.items():
            scaled_value = v * math.factorial(n)
            assert scaled_value.denominator == 1, (n, k, l)
            cells[n, k, l] = int(scaled_value)
    return cells


def plus(a, b):
    """a + b up to the shorter order; a scalar adds to the constant term."""
    if not isinstance(a, tuple):
        a, b = b, a
    if not isinstance(b, tuple):
        return (a[0] + b,) + a[1:]
    return tuple(u + v for u, v in zip(a, b))


def scaled(a, c):
    return tuple(u * c for u in a)


def minus(a, b):
    return plus(a, scaled(b, -1) if isinstance(b, tuple) else -b)


def times(a, b):
    """Cauchy product up to the shorter order."""
    return tuple(sum((a[i] * b[n - i] for i in range(n + 1)), 0) for n in range(min(len(a), len(b))))


def reference_reciprocal(f):
    if f[0] != 1:
        raise ValueError("reciprocal requires constant term 1")
    out = [f[0]]
    for n in range(1, len(f)):
        out.append(-sum((f[k] * out[n - k] for k in range(1, n + 1)), 0))
    return tuple(out)


def reference_exp(g):
    if g[0] != 0:
        raise ValueError("exponential requires constant term 0")
    # f' = g' f, solved coefficientwise with exact division by n
    out = [g[0] + 1]
    for n in range(1, len(g)):
        out.append(sum((g[k] * k * out[n - k] for k in range(1, n + 1)), 0) * Fraction(1, n))
    return tuple(out)


def reference_sqrt(f):
    if f[0] != 1:
        raise ValueError("square root requires constant term 1")
    out = [f[0]]
    for n in range(1, len(f)):
        out.append((f[n] - sum((out[k] * out[n - k] for k in range(1, n)), 0)) * Fraction(1, 2))
    return tuple(out)


def derivative(a):
    """d/dt; the result is exact only to one order less."""
    return tuple(a[n + 1] * (n + 1) for n in range(len(a) - 1))


def marker_derivative(a, marker):
    return tuple(c.differentiate(marker) for c in a)


def identity(order):
    """The series t."""
    return (Fraction(0), Fraction(1)) + (Fraction(0),) * (order - 1)


def lifted(a):
    return tuple(Poly.constant(c) for c in a)


def reference_series(name, order, z=None, x=None):
    """A named closed form; a marker given a value is substituted into the formula."""
    mul, exp, recip = times, reference_exp, reference_reciprocal
    t = identity(order)
    one = (Fraction(1),) + (Fraction(0),) * order
    s = reference_sqrt(minus(one, scaled(t, 2)))
    cube = mul(mul(s, s), s)

    if name == "b":
        return recip(s)
    if name == "phi":
        return mul(exp(minus(s, 1)), recip(s))
    if name == "chi":
        return minus(minus(one, t), exp(minus(s, 1)))
    if name == "psi":
        return plus(plus(minus(mul(exp(minus(s, 1)), recip(s)), 2), t), exp(minus(s, 1)))
    if name == "W":
        return mul(mul(minus(one, s), recip(cube)), exp(minus(minus(s, 1), t)))
    if name == "U":
        u = mul(mul(exp(minus(minus(s, 1), t)), recip(s)), plus(one, s))
        return minus(u, mul(minus(2, t), exp(scaled(t, -1))))

    carried = MARKERS_OF[name]
    if (z is None and "z" in carried) or (x is None and "x" in carried):
        t, s, one, cube = (lifted(series) for series in (t, s, one, cube))
    z = Poly.marker("z") if z is None else z
    x = Poly.marker("x") if x is None else x
    if name == "wz":
        return mul(exp(scaled(minus(s, 1), 1 - z)), recip(s))
    if name == "wx":
        return mul(recip(cube), exp(scaled(t, x - 1)))
    prefactor = mul(plus(scaled(s, z - 1), 1), recip(cube))
    return mul(prefactor, exp(plus(scaled(minus(one, s), z - 1), scaled(t, x - 1))))


def reference_loop_pde_residual(order):
    w = reference_series("wz", order + 1)
    z = Poly.marker("z")
    t = lifted(identity(order))
    wt = derivative(w)
    w = w[: order + 1]
    wz = marker_derivative(w, "z")
    return minus(minus(minus(wt, scaled(w, z)), scaled(times(t, wt), 2)), scaled(wz, 1 - z))


def reference_full_pde_residual(order):
    w = reference_series("wzx", order + 1)
    z = Poly.marker("z")
    x = Poly.marker("x")
    t = lifted(identity(order))
    wt = derivative(w)
    w = w[: order + 1]
    wz = marker_derivative(w, "z")
    wx = marker_derivative(w, "x")
    residual = minus(minus(wt, scaled(w, z + x + 1)), scaled(times(t, wt), 2))
    return plus(plus(residual, scaled(wz, z - 1)), scaled(wx, 2 * (x - 1)))


def marker_choices(name):
    """Every 0/1 assignment of the markers a series carries."""
    carried = MARKERS_OF.get(name, "")
    return [dict(zip(carried, values)) for values in product((0, 1), repeat=len(carried))]


def test_the_reference_runs_without_the_kernel(monkeypatch):
    for method in ("__mul__", "exp", "series"):
        monkeypatch.setattr(_Egf, method, lambda *args: pytest.fail("the reference used the EGF kernel"))
    for name in SERIES_NAMES:
        carried = MARKERS_OF.get(name, "")
        for values in product((None, 0, 1), repeat=len(carried)):
            assert len(reference_series(name, 8, **dict(zip(carried, values)))) == 9
    assert not any(reference_loop_pde_residual(8))
    assert not any(reference_full_pde_residual(6))


# ---------------------------------------------------------------------------
# the kernel's operations and the reference's


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_sqrt_squares_back(s):
    forced = (Fraction(1),) + s.coeffs[1:]
    root = reference_sqrt(forced)
    assert times(root, root) == forced


@settings(max_examples=80, deadline=None)
@given(series_strategy)
def test_exp_of_negation_inverts(s):
    forced = TruncatedSeries((Fraction(0),) + s.coeffs[1:])
    product = forced.exp() * (forced * -1).exp()
    assert product.coeffs[0] == 1
    assert all(c == 0 for c in product.coeffs[1:])


@settings(max_examples=30, deadline=None)
@given(series_strategy, series_strategy)
def test_ring_operations_match_the_reference(s, u):
    assert (s * u).coeffs == times(s.coeffs, u.coeffs)
    forced = TruncatedSeries((Fraction(0),) + s.coeffs[1:])
    assert forced.exp().coeffs == reference_exp(forced.coeffs)


def test_kernel_preconditions_raise_series_error():
    with pytest.raises(SeriesError, match="constant term 0"):
        _Egf((1, 1, 0)).exp()


def test_precondition_failures_are_loud():
    t = identity(5)
    with pytest.raises(ValueError):
        reference_sqrt(t)  # constant term 0, not 1
    with pytest.raises(SeriesError):
        TruncatedSeries(plus(t, 1)).exp()  # constant term 1, not 0


def test_sqrt_powers_match_the_reference():
    order = 30
    t = identity(order)
    base = plus(scaled(t, -2), 1)  # 1 - 2t
    s = reference_sqrt(base)
    expected = {
        1: s,
        -1: reference_reciprocal(s),
        -2: reference_reciprocal(base),
        -3: reference_reciprocal(times(times(s, s), s)),
    }
    for k, reference in expected.items():
        assert _sqrt_power(k, order) == tuple(c * math.factorial(n) for n, c in enumerate(reference)), k


def test_sqrt_example():
    s = reference_sqrt((Fraction(1), Fraction(-2), Fraction(0), Fraction(0)))
    assert s == (1, -1, Fraction(-1, 2), Fraction(-1, 2))


def test_exp_of_zero_is_one():
    zero = TruncatedSeries((Fraction(0),) * 7)
    assert zero.exp().coeffs == (1, 0, 0, 0, 0, 0, 0)


def test_a_scalar_factor_scales_each_coefficient(monkeypatch):
    series = TruncatedSeries((Fraction(2), Fraction(1, 3), Fraction(0)))
    monkeypatch.setattr(_Egf, "__mul__", lambda *args: pytest.fail("labelled product for a scalar"))
    assert (series * Fraction(3, 2)).coeffs == (3, Fraction(1, 2), 0)
    assert (3 * series).coeffs == (series * 3).coeffs == (6, 1, 0)


# ---------------------------------------------------------------------------
# the reference's marker polynomials


def test_marker_poly_arithmetic():
    z = Poly.marker("z")
    x = Poly.marker("x")
    p = (z + x) * (z - x)
    assert p == z * z - x * x
    assert (z * x).differentiate("z") == x
    assert (z * z).differentiate("z") == 2 * z
    assert 1 - z == -(z - 1) and not z - z
    assert triangle_of((z + 1, 0, Fraction(1, 2) * x * z)) == {(0, 1, 0): 1, (0, 0, 0): 1, (2, 1, 1): 1}


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
        expected = list(scaled_of(reference_series("wzx", 5, z=z, x=x)))
        assert integer_coeffs(named_series("wzx", 5, z=z, x=x)) == expected
    phi = named_series("phi", 6)
    assert named_series("wz", 6, z=0).coeffs == phi.coeffs
    b = named_series("b", 6)
    assert named_series("wz", 6, z=1).coeffs == b.coeffs


def test_classifier_starts_from_the_single_loop():
    wzx = named_series("wzx", 3)
    assert {key: v for key, v in wzx.cells.items() if key[0] == 0} == {(0, 1, 0): 1}


def test_integer_coeffs_rejects_leftover_markers_and_nonintegers():
    with pytest.raises(SeriesError):
        integer_coeffs(named_series("wzx", 3, z=0))  # x left free
    with pytest.raises(SeriesError):
        integer_coeffs(named_series("phi", 3, z=0))
    half_t = TruncatedSeries((Fraction(0), Fraction(1, 2)))
    with pytest.raises(SeriesError):
        integer_coeffs(half_t)  # rationals, not the scaled ints of a named series


def test_all_named_series_extract_nonnegative_integers():
    for name in ("b", "phi", "chi", "psi", "W", "U"):
        assert all(v >= 0 for v in integer_coeffs(named_series(name, 12)))
    for z in (0, 1):
        assert all(v >= 0 for v in integer_coeffs(named_series("wz", 9, z=z)))
        for x in (0, 1):
            assert all(v >= 0 for v in integer_coeffs(named_series("wzx", 9, z=z, x=x)))
    for x in (0, 1):
        assert all(v >= 0 for v in integer_coeffs(named_series("wx", 9, x=x)))


def test_loopless_and_simple_series_take_one_exponential_and_no_product(monkeypatch):
    calls = {}
    for method in ("exp", "__mul__", "__rmul__"):

        def counted(*args, method=method, original=getattr(_Egf, method)):
            calls[method] += 1
            return original(*args)

        monkeypatch.setattr(_Egf, method, counted)
    for name in ("phi", "psi", "W", "U"):
        calls.update(exp=0, __mul__=0, __rmul__=0)
        named_series(name, 30)
        assert calls == {"exp": 1, "__mul__": 0, "__rmul__": 0}, name


# ---------------------------------------------------------------------------
# identities among the closed forms


def test_chord_series_identity_to_order_25():
    # psi = phi - 2 + t + exp(s - 1), on the scaled coefficients, where a constant stays at a_0
    t = identity(25)
    s = reference_sqrt(plus(scaled(t, -2), 1))
    e = scaled_of(reference_exp(minus(s, 1)))
    expected = plus(plus(minus(named_series("phi", 25).coeffs, 2), scaled_of(t)), e)
    assert named_series("psi", 25).coeffs == expected


def test_shifted_series_antiderivative_relation():
    # the derivative of the shifted series recovers the linear one; on the scaled coefficients d/dt is a left shift
    chi = named_series("chi", 26)
    phi = named_series("phi", 25)
    assert chi.coeffs[1:] == minus(phi.coeffs, 1)


def test_pde_residuals_vanish():
    assert loop_pde_residual(12).is_zero()
    assert full_pde_residual(10).is_zero()


def test_pde_residuals_vanish_to_order_15():
    assert loop_pde_residual(15).is_zero()
    assert full_pde_residual(15).is_zero()


def test_reference_satisfies_the_pdes():
    assert not any(reference_loop_pde_residual(8))
    assert not any(reference_full_pde_residual(6))


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
        expected = scaled_of(reference_series(name, 40, **markers))
        for order in range(1, 41):
            series = named_series(name, order, **markers)
            assert series.order == order
            assert series.coeffs == expected[: order + 1], (order, markers)
            assert integer_coeffs(series) == list(expected[: order + 1]), (order, markers)


def test_marker_triangle_matches_the_reference_to_order_20():
    expected = triangle_of(reference_series("wzx", 20))
    for order in range(1, 21):
        series = named_series("wzx", order)
        assert series.order == order
        assert marker_triangle(series) == {k: v for k, v in expected.items() if k[0] <= order}, order


def test_free_and_partly_assigned_markers_match_the_reference():
    for name in ("wz", "wx"):
        assert marker_triangle(named_series(name, 15)) == triangle_of(reference_series(name, 15))
    for marker in ("z", "x"):
        for value in (0, 1):
            series = named_series("wzx", 10, **{marker: value})
            assert isinstance(series, MarkerTriangle)
            assert series.cells == triangle_of(reference_series("wzx", 10, **{marker: value}))


def test_a_marker_the_series_does_not_carry_is_refused():
    with pytest.raises(SeriesError, match="carries no marker x"):
        named_series("wz", 3, z=1, x=1)
    with pytest.raises(SeriesError, match="carries no marker z"):
        named_series("wx", 3, z=1, x=1)
    with pytest.raises(SeriesError, match="carries no marker z"):
        named_series("phi", 3, z=0)


# ---------------------------------------------------------------------------
# free markers: built in ints at a packed point and decoded


def test_free_markers_build_without_fractions():
    # the packed ints are decoded straight into the triangle, and the PDE residuals shift its cells;
    # built in a fresh interpreter, since this module loads fractions itself
    cases = [("wzx", 12, {}), ("wz", 12, {}), ("wx", 12, {}), ("wzx", 10, {"z": 0})]
    probe = (
        "import sys\n"
        "from chordenum.series import full_pde_residual, loop_pde_residual, marker_triangle, named_series\n"
        f"cells = [marker_triangle(named_series(name, order, **markers)) for name, order, markers in {cases!r}]\n"
        "zero = loop_pde_residual(10).is_zero() and full_pde_residual(10).is_zero()\n"
        "print(repr((sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)), zero, cells)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(series_module.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded, zero, cells = ast.literal_eval(proc.stdout)
    assert loaded == []
    assert zero
    for (name, order, markers), built in zip(cases, cells):
        assert built == triangle_of(reference_series(name, order, **markers)), (name, markers)


def test_a_slot_too_narrow_for_a_coefficient_is_refused():
    at_one = _closed_form("wzx", 10, 1, 1)
    with pytest.raises(SeriesError, match="does not fit"):
        _unpacked_form("wzx", 10, None, None, 8, 12, at_one)


def test_a_marker_degree_past_its_slots_is_refused():
    # a_10 holds z^11 in wzx (eleven loops) and z^10 in wz (ten): one z-slot short of each
    at_one = _closed_form("wzx", 10, 1, 1)
    with pytest.raises(SeriesError, match="degree past its slots"):
        _unpacked_form("wzx", 10, None, None, 64, 11, at_one)  # z^11 lands on x
    at_one = _closed_form("wz", 10, 1, 0)
    with pytest.raises(SeriesError, match="runs past its slots"):
        _unpacked_form("wz", 10, None, 0, 64, 10, at_one)  # z^10 lands past the top
