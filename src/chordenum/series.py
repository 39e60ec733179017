"""Exact truncated formal power series in t: the paper's generating functions.

Every named closed form is an exponential generating function, so its scaled
coefficients a_n = n! [t^n] f are integers, and the series are built and
returned in ints.  A series with every marker assigned is a ``ScaledSeries``
of its a_n, exact modulo t^(order+1); a series with a free marker z or x is a
``MarkerTriangle``: n! [t^n z^k x^l] as ints keyed (n, k, l).  Precondition
violations raise ``SeriesError`` rather than truncating silently.

Products and exponentials run in the ``_Egf`` kernel, on the same scale; the
powers of s = sqrt(1-2t) are written down in closed form.  Since s' = -1/s,
phi, psi, W and U are each one exponential and its derivatives, and a
derivative is a left shift of the a_n: none takes a product.  A free marker
is built in ints too, by Kronecker substitution: it takes a power of two,
and each a_n is decoded from the packed int straight into the triangle's
cells, on which the PDE residuals are index shifts.

A ``TruncatedSeries`` holds rational coefficients (``Fraction``s) and runs
its product and exp on the kernel.  No named series or residual makes one,
so ``fractions`` is imported only when the kernel returns one.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import add, mul

from ._record import Record


class SeriesError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The EGF kernel: labelled-product arithmetic on scaled coefficients
# (Flajolet & Sedgewick, Analytic Combinatorics, ch. II)


def _pascal_rows(count: int):
    """Rows 0..count-1 of Pascal's triangle, row n holding C(n, 0..n), each by addition from the last."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


def _factorials(count: int):
    """0!, 1!, ..., (count-1)!, each from the last."""
    return accumulate(range(1, count), mul, initial=1)


class _Egf(tuple):
    """Scaled coefficients a_n = n! [t^n] f of a truncated series.

    Two series combine up to the shorter one's order; anything else is a
    constant, which adds to a_0 and multiplies every a_n.
    """

    def __add__(self, other):
        if isinstance(other, _Egf):
            return _Egf(a + b for a, b in zip(self, other))
        return _Egf((self[0] + other, *self[1:]))

    def __neg__(self):
        return _Egf(-a for a in self)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """The labelled product c_n = sum_i C(n, i) a_i b_(n-i)."""
        if not isinstance(other, _Egf):
            return _Egf(other * a for a in self)
        return _Egf(
            sum((c * self[i] * other[n - i] for i, c in enumerate(row) if self[i] and other[n - i]), 0)
            for n, row in enumerate(_pascal_rows(min(len(self), len(other))))
        )

    __rmul__ = __mul__

    def exp(self) -> "_Egf":
        """e_n = sum_k C(n-1, k-1) g_k e_(n-k), from e' = g' e."""
        if self[0]:
            raise SeriesError("exponential requires constant term 0")
        e = [1]
        for n, row in enumerate(_pascal_rows(len(self) - 1), start=1):  # row n - 1 holds C(n-1, k-1) at k - 1
            e.append(sum((c * self[k] * e[n - k] for k, c in enumerate(row, start=1) if self[k]), 0))
        return _Egf(e)

    def series(self) -> "TruncatedSeries":
        """The ordinary coefficients a_n / n!."""
        from fractions import Fraction  # imported here: no named series needs one

        return TruncatedSeries(tuple(Fraction(a, fact) for a, fact in zip(self, _factorials(len(self)))))


class TruncatedSeries(Record):
    """Rational coefficients of a formal power series in t, exact modulo t^(len(coeffs))."""

    coeffs: tuple

    def _scaled(self) -> _Egf:
        return _Egf(c * fact for c, fact in zip(self.coeffs, _factorials(len(self.coeffs))))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(tuple(c * other for c in self.coeffs))
        return (self._scaled() * other._scaled()).series()

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        return self._scaled().exp().series()


class ScaledSeries(Record):
    """A series with every marker assigned, as its scaled coefficients a_n = n! [t^n], exact modulo t^(order+1).

    ``coeffs`` holds ints: every named series is an exponential generating function.
    """

    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


class MarkerTriangle(Record):
    """A series with a free marker, as n! [t^n z^k x^l] keyed (n, k, l), exact modulo t^(order+1).

    ``cells`` holds ints and leaves out every zero cell.
    """

    order: int
    cells: dict

    def is_zero(self) -> bool:
        return not any(self.cells.values())


# ---------------------------------------------------------------------------
# Named closed forms

SERIES_NAMES = ("b", "phi", "chi", "psi", "W", "U", "wz", "wx", "wzx")
MARKERS_OF = {"wz": "z", "wx": "x", "wzx": "zx"}  # the markers each series carries
MARKER_SERIES = tuple(MARKERS_OF)


def _sqrt_power(k: int, order: int) -> _Egf:
    """Scaled coefficients of (1-2t)^(k/2), by the binomial theorem: a_n = a_(n-1) (2(n-1) - k).

    k = 1 gives -(2n-3)!!, k = -1 (2n-1)!!, k = -2 2^n n! and k = -3 (2n+1)!!.
    """
    return _Egf(accumulate(range(order), lambda a, m: a * (2 * m - k), initial=1))


def _identity(order: int) -> _Egf:
    """Scaled coefficients of t."""
    return _Egf((0, 1) + (0,) * (order - 1))


def _closed_form(name: str, order: int, z: int, x: int) -> _Egf:
    """Scaled coefficients of a named series, in ints, at the given marker values.

    phi, psi, U and W divide by powers of s = sqrt(1-2t).  Since s' = -1/s,
    e = exp(s-1) has e/s = -e' and E = exp(s-1-t) has E/s = -E' - E, so each
    is one exponential and its derivatives.  On scaled coefficients d/dt is a
    left shift, so the exponential is built one order longer per derivative.
    """
    t = _identity(order)
    one = _Egf((1,) + (0,) * order)
    s = _sqrt_power(1, order)

    if name == "b":
        return _sqrt_power(-1, order)
    if name in ("phi", "psi"):
        e = (_sqrt_power(1, order + 1) - 1).exp()
        phi = -_Egf(e[1:])  # e/s
        return phi if name == "phi" else phi - 2 + t + e
    if name == "chi":
        return one - t - (s - 1).exp()
    if name == "U":
        E = (_sqrt_power(1, order + 1) - 1 - _identity(order + 1)).exp()
        tail = _Egf((-1) ** (n + 1) * (n + 2) for n in range(order + 1))  # (t - 2) e^(-t)
        return tail - _Egf(E[1:])  # E/s (1 + s) = -E'
    if name == "W":
        E = (_sqrt_power(1, order + 2) - 1 - _identity(order + 2)).exp()
        return _Egf(-a - 2 * b - c for a, b, c in zip(E[2:], E[1:], E))  # (s^-3 - s^-2) E = -E'' - 2E' - E
    if name == "wz":
        return ((s - 1) * (1 - z)).exp() * _sqrt_power(-1, order)
    if name == "wx":
        return _sqrt_power(-3, order) * (t * (x - 1)).exp()
    prefactor = _sqrt_power(-2, order) * (z - 1) + _sqrt_power(-3, order)
    series = prefactor * ((one - s) * (z - 1) + t * (x - 1)).exp()
    if series[0] != z:
        raise SeriesError("classifier does not start from a single loop chord")
    return series


def _marker_form(name: str, order: int, z, x) -> dict:
    """n! [t^n z^k x^l] of a marker series whose free markers are None, as ints keyed (n, k, l).

    The classifiers count diagrams, so no coefficient of a_n exceeds a_n at
    z = x = 1; a slot holds that many bits, a sign bit and a bit of margin,
    in whole bytes.
    """
    at_one = _closed_form(name, order, 1 if z is None else z, 1 if x is None else x)
    width = 8 * ((max(map(abs, at_one)).bit_length() + 9) // 8)
    return _unpacked_form(name, order, z, x, width, order + 2 if z is None else 1, at_one)


def _unpacked_form(name: str, order: int, z, x, width: int, z_slots: int, at_one: _Egf) -> dict:
    """Build at the packed point z = 2^width, x = 2^(width z_slots) and decode each a_n into its cells.

    Evaluation is a ring homomorphism from Z[z, x], so the int kernel runs
    unchanged.  The t^n coefficient has z-degree at most n+1 and x-degree at
    most n: z_slots = order + 2 and order + 1 x-slots hold any a_n, and a
    coefficient in [-2^(width-1), 2^(width-1)) fits its slot.  Each decoded
    a_n must agree with the plain-int builds at z = x = 1 (``at_one``; a slot
    overflow fails it) and at z = 2, x = 3 (a degree past its slots fails it).
    An assigned marker keeps its value and gets one slot.
    """
    x_slots = order + 1 if x is None else 1
    size, row = width // 8, width // 8 * z_slots  # bytes per slot and per x-degree
    half = 1 << (width - 1)
    halves = half * ((1 << width * z_slots * x_slots) - 1) // ((1 << width) - 1)  # half in every slot
    threes = [3**l for l in range(x_slots)]
    packed = _closed_form(
        name, order, 1 << width if z is None else z, 1 << width * z_slots if x is None else x
    )
    at_two = _closed_form(name, order, 2 if z is None else z, 3 if x is None else x)
    cells = {}
    for n, a in enumerate(packed):
        # shifted by half, each slot holds c + half >= 0; the xor turns it into c in two's complement
        try:
            raw = ((a + halves) ^ halves).to_bytes(row * x_slots, "little")
        except OverflowError:
            raise SeriesError(f"a_{n} runs past its slots") from None
        terms = {}
        for l, start in enumerate(range(0, len(raw.rstrip(b"\0")), row)):  # zero slots are zero bytes
            for k, i in enumerate(range(start, start + len(raw[start : start + row].rstrip(b"\0")), size)):
                if v := int.from_bytes(raw[i : i + size], "little", signed=True):
                    terms[n, k, l] = v
        if sum(terms.values()) != at_one[n]:
            raise SeriesError(f"a coefficient of a_{n} does not fit {width} bits")
        if sum((v << k) * threes[l] for (_, k, l), v in terms.items()) != at_two[n]:
            raise SeriesError(f"a_{n} has a marker degree past its slots")
        cells.update(terms)
    return cells


def named_series(name: str, order: int, z=None, x=None) -> ScaledSeries | MarkerTriangle:
    """Construct one of the closed-form generating functions exactly.

    Univariate names (a ``ScaledSeries`` of the ints n! [t^n]):

    * ``b``   -- EGF of all matchings, 1/sqrt(1-2t);
    * ``phi`` -- loopless linear diagrams;
    * ``chi`` -- the shifted loopless linear EGF (integral of phi minus t);
    * ``psi`` -- loopless chord diagrams;
    * ``W``   -- simple linear diagrams, coefficient n holding n+1 chords;
    * ``U``   -- simple chord diagrams.

    Marker names (a ``MarkerTriangle`` of ints while a marker is free):

    * ``wz``  -- loopless-side classifier, z marking loops;
    * ``wzx`` -- full classifier, z marking loops, x marking parallel pairs,
      coefficient n holding n+1 chords;
    * ``wx``  -- classifier by parallel pairs only.

    ``z`` and ``x`` give a marker its value (0 or 1) during the
    construction; once every marker of the series has one, the result is a
    ``ScaledSeries``.  A value for a marker the series does not carry raises.
    """
    if order < 1:
        raise SeriesError("order must be at least 1")
    if name not in SERIES_NAMES:
        raise SeriesError(f"unknown series name {name!r}")
    carried = MARKERS_OF.get(name, "")
    values = {"z": z, "x": x}
    for marker, value in values.items():
        if value is not None and marker not in carried:
            raise SeriesError(f"series {name} carries no marker {marker} to assign")
    z, x = (values[m] if m in carried else 0 for m in "zx")  # a marker not carried takes no slot
    if None in (z, x):
        return MarkerTriangle(order, _marker_form(name, order, z, x))
    return ScaledSeries(tuple(_closed_form(name, order, z, x)))


def integer_coeffs(series: ScaledSeries) -> list[int]:
    """n! times each coefficient, as ints.

    A marker series needs every marker assigned first (``named_series`` with
    ``z=``/``x=``).  The kernel builds the scaled coefficients in ints, so
    they are integral by construction.
    """
    if not isinstance(series, ScaledSeries):
        raise SeriesError("integer coefficients need every marker assigned")
    return list(series.coeffs)


def marker_triangle(series: MarkerTriangle) -> dict:
    """n! times each coefficient of t^n z^k x^l, as integers keyed (n, k, l)."""
    if not isinstance(series, MarkerTriangle):
        raise SeriesError("marker triangle requires marker coefficients")
    return series.cells


# ---------------------------------------------------------------------------
# Defining-equation residuals (sanity checks for the closed forms), on the
# triangle w(n, k, l) = n! [t^n z^k x^l] w: d/dt reads w(n+1, k, l), t d/dt
# n w(n, k, l), d/dz (k+1) w(n, k+1, l) and d/dx (l+1) w(n, k, l+1).  Each
# cell of w is added, with its weight, into every residual cell that reads it.


def _residual(order: int, cells: Counter) -> MarkerTriangle:
    """The nonzero residual cells up to t^order; a cell n = order + 1 lacks its d/dt term."""
    return MarkerTriangle(order, {key: v for key, v in cells.items() if v and 0 <= key[0] <= order})


def loop_pde_residual(order: int) -> MarkerTriangle:
    """Residual of the defining PDE of ``wz``, exact to the given order.

    The classifier satisfies w_t = z w + 2t w_t + (1-z) w_z with w(z,0)=1;
    the returned triangle is the left side minus the right side.
    """
    r = Counter()
    for (n, k, l), v in _marker_form("wz", order + 1, None, 0).items():
        r[n - 1, k, l] += v  # w_t
        r[n, k + 1, l] -= v  # z w
        r[n, k, l] += (k - 2 * n) * v  # 2t w_t and z w_z
        r[n, k - 1, l] -= k * v  # w_z
    return _residual(order, r)


def full_pde_residual(order: int) -> MarkerTriangle:
    """Residual of the defining PDE of ``wzx``, exact to the given order.

    The classifier satisfies
    w_t = (z+x+1) w + 2t w_t - (z-1) w_z - 2(x-1) w_x with w(0,z,x) = z.
    """
    r = Counter()
    for (n, k, l), v in _marker_form("wzx", order + 1, None, None).items():
        r[n - 1, k, l] += v  # w_t
        r[n, k + 1, l] -= v  # z w
        r[n, k, l + 1] -= v  # x w
        r[n, k, l] += (k + 2 * l - 2 * n - 1) * v  # w, 2t w_t, z w_z and 2x w_x
        r[n, k - 1, l] -= k * v  # w_z
        r[n, k, l - 1] -= 2 * l * v  # 2 w_x
    return _residual(order, r)
