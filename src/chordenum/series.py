"""Exact truncated formal power series in t over rationals or marker polynomials.

Coefficients live in one of two rings: plain ``Fraction``s, or bivariate
polynomials in the formal markers z and x with rational coefficients
(``MarkerPoly``).  A ``TruncatedSeries`` holds the coefficients, exact modulo
t^(order+1); precondition violations raise ``SeriesError`` rather than
truncating silently.

Products and exponentials run in the ``_Egf`` kernel, on the EGF scale
a_n = n! [t^n] f; the powers of sqrt(1-2t) are written down in closed form.
Every named closed form is an exponential generating function, so there its
a_n are integers: the named series and the PDE residuals are built in ints,
and ``Fraction``s are made once, when the result becomes a ``TruncatedSeries``.
A free marker is built in ints too, by Kronecker substitution: it takes a
power of two, and each a_n is decoded from the packed int into a ``MarkerPoly``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial
from operator import add

from ._record import Record


class SeriesError(ValueError):
    pass


class MarkerPoly:
    """Polynomial in the markers z and x.

    Stored as a map (z degree, x degree) -> nonzero coefficient: a Fraction
    in every public series, an int when decoded from the packed ints.
    Degrees stay naturally bounded in every construction here (the t^n
    coefficient of a generating function never exceeds z-degree n+1 and
    x-degree n), so no truncation in the markers is applied.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def constant(cls, value) -> "MarkerPoly":
        return cls({(0, 0): value})

    @classmethod
    def marker(cls, name: str) -> "MarkerPoly":
        if name == "z":
            return cls({(1, 0): 1})
        if name == "x":
            return cls({(0, 1): 1})
        raise SeriesError(f"unknown marker {name!r}")

    def _coerce(self, other):
        if isinstance(other, MarkerPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MarkerPoly.constant(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return MarkerPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return MarkerPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MarkerPoly({k: v * other for k, v in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = {}
        for (a, b), u in self.terms.items():
            for (c, d), v in other.terms.items():
                k = (a + c, b + d)
                out[k] = out.get(k, 0) + u * v
        return MarkerPoly(out)

    __rmul__ = __mul__

    def differentiate(self, marker: str) -> "MarkerPoly":
        pos = 0 if marker == "z" else 1
        out = {}
        for (a, b), v in self.terms.items():
            deg = (a, b)[pos]
            if deg == 0:
                continue
            k = (a - 1, b) if pos == 0 else (a, b - 1)
            out[k] = out.get(k, 0) + v * deg
        return MarkerPoly(out)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for (a, b), v in sorted(self.terms.items()):
            part = str(v)
            if a:
                part += f"*z^{a}" if a > 1 else "*z"
            if b:
                part += f"*x^{b}" if b > 1 else "*x"
            bits.append(part)
        return " + ".join(bits)


class _RationalRing:
    @staticmethod
    def embed(value, divisor: int) -> Fraction:
        return Fraction(value, divisor)


class _MarkerRing:
    @staticmethod
    def embed(value, divisor: int) -> MarkerPoly:
        if isinstance(value, MarkerPoly):
            return MarkerPoly({k: Fraction(v, divisor) for k, v in value.terms.items()})
        return MarkerPoly.constant(Fraction(value, divisor))


RATIONAL = _RationalRing()
MARKERS = _MarkerRing()


# ---------------------------------------------------------------------------
# The EGF kernel: labelled-product arithmetic on scaled coefficients
# (Flajolet & Sedgewick, Analytic Combinatorics, ch. II)


def _pascal_rows(count: int):
    """Rows 0..count-1 of Pascal's triangle, row n holding C(n, 0..n), each by addition from the last."""
    row = [1]
    for _ in range(count):
        yield row
        row = [1, *map(add, row, row[1:]), 1]


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

    def marker_derivative(self, marker: str) -> "_Egf":
        return _Egf(a.differentiate(marker) if isinstance(a, MarkerPoly) else 0 for a in self)

    def series(self, ring) -> "TruncatedSeries":
        """The ordinary coefficients a_n / n!."""
        coeffs = (ring.embed(a, factorial(n)) for n, a in enumerate(self))
        return TruncatedSeries(ring, tuple(coeffs))


class TruncatedSeries(Record):
    """Coefficients of a formal power series in t, exact modulo t^(order+1)."""

    ring: object
    coeffs: tuple

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n: int):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _scaled(self) -> _Egf:
        return _Egf(c * factorial(n) for n, c in enumerate(self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return TruncatedSeries(self.ring, tuple(c * other for c in self.coeffs))
        if other.ring is not self.ring:
            raise SeriesError("mixed coefficient rings; lift explicitly")
        return (self._scaled() * other._scaled()).series(self.ring)

    __rmul__ = __mul__

    def exp(self) -> "TruncatedSeries":
        return self._scaled().exp().series(self.ring)


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


def _closed_form(name: str, order: int, z: int, x: int) -> _Egf:
    """Scaled coefficients of a named series, in ints, at the given marker values."""
    t = _Egf((0, 1) + (0,) * (order - 1))
    one = _Egf((1,) + (0,) * order)
    s = _sqrt_power(1, order)

    if name == "b":
        return _sqrt_power(-1, order)
    if name == "phi":
        return (s - 1).exp() * _sqrt_power(-1, order)
    if name == "chi":
        return one - t - (s - 1).exp()
    if name == "psi":
        e = (s - 1).exp()
        return e * _sqrt_power(-1, order) - 2 + t + e
    if name == "W":
        return (_sqrt_power(-3, order) - _sqrt_power(-2, order)) * (s - 1 - t).exp()
    if name == "U":
        tail = _Egf((-1) ** (n + 1) * (n + 2) for n in range(order + 1))  # (t - 2) e^(-t)
        return (s - 1 - t).exp() * (_sqrt_power(-1, order) + 1) + tail
    if name == "wz":
        return ((s - 1) * (1 - z)).exp() * _sqrt_power(-1, order)
    if name == "wx":
        return _sqrt_power(-3, order) * (t * (x - 1)).exp()
    prefactor = _sqrt_power(-2, order) * (z - 1) + _sqrt_power(-3, order)
    series = prefactor * ((one - s) * (z - 1) + t * (x - 1)).exp()
    if series[0] != z:
        raise SeriesError("classifier does not start from a single loop chord")
    return series


def _marker_form(name: str, order: int, z, x) -> _Egf:
    """Scaled coefficients of a marker series whose free markers are None, as MarkerPolys of ints.

    The classifiers count diagrams, so no coefficient of a_n exceeds a_n at
    z = x = 1; a slot holds that many bits, a sign bit and a bit of margin,
    in whole bytes.
    """
    at_one = _closed_form(name, order, 1 if z is None else z, 1 if x is None else x)
    width = 8 * ((max(map(abs, at_one)).bit_length() + 9) // 8)
    return _unpacked_form(name, order, z, x, width, order + 2 if z is None else 1, at_one)


def _unpacked_form(name: str, order: int, z, x, width: int, z_slots: int, at_one: _Egf) -> _Egf:
    """Build at the packed point z = 2^width, x = 2^(width z_slots) and decode each a_n.

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
    coeffs = []
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
                    terms[k, l] = v
        if sum(terms.values()) != at_one[n]:
            raise SeriesError(f"a coefficient of a_{n} does not fit {width} bits")
        if sum((v << k) * threes[l] for (k, l), v in terms.items()) != at_two[n]:
            raise SeriesError(f"a_{n} has a marker degree past its slots")
        coeffs.append(MarkerPoly(terms))
    return _Egf(coeffs)


def named_series(name: str, order: int, z=None, x=None) -> TruncatedSeries:
    """Construct one of the closed-form generating functions exactly.

    Univariate names (rational coefficients):

    * ``b``   -- EGF of all matchings, 1/sqrt(1-2t);
    * ``phi`` -- loopless linear diagrams;
    * ``chi`` -- the shifted loopless linear EGF (integral of phi minus t);
    * ``psi`` -- loopless chord diagrams;
    * ``W``   -- simple linear diagrams, coefficient n holding n+1 chords;
    * ``U``   -- simple chord diagrams.

    Marker names (MarkerPoly coefficients):

    * ``wz``  -- loopless-side classifier, z marking loops;
    * ``wzx`` -- full classifier, z marking loops, x marking parallel pairs,
      coefficient n holding n+1 chords;
    * ``wx``  -- classifier by parallel pairs only.

    ``z`` and ``x`` give a marker its value (0 or 1) during the
    construction; once every marker of the series has one, the coefficients
    are rational.  A value for a marker the series does not carry raises.
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
        return _marker_form(name, order, z, x).series(MARKERS)
    return _closed_form(name, order, z, x).series(RATIONAL)


def _times_factorial(c, n: int, where) -> int:
    """c * n!, read off c's lowest terms; it must be an integer."""
    fact = factorial(n)
    if fact % c.denominator:
        raise SeriesError(f"coefficient {where} times {n}! is not an integer: {c * fact}")
    return c.numerator * (fact // c.denominator)


def integer_coeffs(series: TruncatedSeries) -> list[int]:
    """n! times each coefficient, which must come out integral.

    A marker series needs every marker assigned first (``named_series`` with
    ``z=``/``x=``).  A non-integer value signals a construction bug and raises.
    """
    if series.ring is not RATIONAL:
        raise SeriesError("integer coefficients need every marker assigned")
    return [_times_factorial(c, n, n) for n, c in enumerate(series.coeffs)]


def marker_triangle(series: TruncatedSeries) -> dict:
    """n! times each coefficient of t^n z^k x^l, as integers keyed (n, k, l)."""
    if series.ring is not MARKERS:
        raise SeriesError("marker triangle requires marker coefficients")
    out = {}
    for n, poly in enumerate(series.coeffs):
        for (k, l), v in poly.terms.items():
            out[(n, k, l)] = _times_factorial(v, n, f"({n},{k},{l})")
    return out


# ---------------------------------------------------------------------------
# Defining-equation residuals (sanity checks for the closed forms), built in
# the kernel: d/dt is a left shift of the scaled coefficients, t d/dt is n a_n


def loop_pde_residual(order: int) -> TruncatedSeries:
    """Residual of the defining PDE of ``wz``, exact to the given order.

    The classifier satisfies w_t = z w + 2t w_t + (1-z) w_z with w(z,0)=1;
    the returned series is the left side minus the right side.
    """
    z = MarkerPoly.marker("z")
    w = _marker_form("wz", order + 1, None, 0)
    wt, w, t_wt = _Egf(w[1:]), _Egf(w[:-1]), _Egf(n * a for n, a in enumerate(w[:-1]))
    residual = wt - w * z - 2 * t_wt - w.marker_derivative("z") * (1 - z)
    return residual.series(MARKERS)


def full_pde_residual(order: int) -> TruncatedSeries:
    """Residual of the defining PDE of ``wzx``, exact to the given order.

    The classifier satisfies
    w_t = (z+x+1) w + 2t w_t - (z-1) w_z - 2(x-1) w_x with w(0,z,x) = z.
    """
    z, x = MarkerPoly.marker("z"), MarkerPoly.marker("x")
    w = _marker_form("wzx", order + 1, None, None)
    wt, w, t_wt = _Egf(w[1:]), _Egf(w[:-1]), _Egf(n * a for n, a in enumerate(w[:-1]))
    wz, wx = w.marker_derivative("z"), w.marker_derivative("x")
    residual = wt - w * (z + x + 1) - 2 * t_wt + wz * (z - 1) + wx * (2 * (x - 1))
    return residual.series(MARKERS)
