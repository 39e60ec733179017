"""Brute-force ground truth: one sweep, returned as (loops, parallels) tables only.

``full_sweep`` places the chords of all (2n-1)!! matchings in one
recursive pass, ``_place_chords``, which counts loops and parallel pairs on
the circle and on the line as each chord is placed, and keeps each cyclic
orbit's least offset code (as bytes) with its circular class.  The pass
gives the tables ``classify_pairing`` and the codes
``canonical_pairing_code`` would give, and those two stay the definitions.
Each cyclic code gives its orbit's dihedral code without rebuilding a
matching: the lesser of the code and the least rotation of its mirror
image, ``diagram._mirrored``.  The fixed counts come from a second
enumeration: the invariant matchings of one representative per conjugacy
class (one rotation per order d | 2n, one axis through opposite points,
one through opposite gaps), classified on the circle; the identity reads
the full table.  Every count is one lookup, ``SweepResult.count(view, family)``, a
family sum over one table.  Burnside's identity compares the two
enumerations before the sweep is returned.  Class sizes come from
counting element orders here, not from the recurrence modules, which are
validated against these counts before their tables are trusted.
"""

from __future__ import annotations

import math
from collections import Counter

from ._record import Record
from .diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    _min_cyclic_shift,
    _mirrored,
    classify_pairing,
    edge_reflection,
    enumerate_invariant_pairings,
    gap_flags,
    rotation,
    vertex_reflection,
)

DEFAULT_CAP = 9

FAMILIES = ("all", "loopless", "simple")


class OracleCapError(ValueError):
    """Raised when a request would enumerate more matchings than the cap allows."""


def check_cap(n: int, cap: int):
    """Refuse a chord count that is negative or above the enumeration cap."""
    if n < 0:
        raise ValueError(f"chord count must be nonnegative, got {n}")
    if n > cap:
        raise OracleCapError(f"n={n} exceeds the enumeration cap {cap}")


def in_family(family: str, loops: int, parallels: int) -> bool:
    if family == "all":
        return True
    if family == "loopless":
        return loops == 0
    if family == "simple":
        return loops == 0 and parallels == 0
    raise ValueError(f"unknown family {family!r}")


def _classes(n: int) -> dict:
    """Class label -> (representative element, class size) on 2n points.

    ("rotation", d) holds the rotations of order d, counted over all 2n
    shifts; ("reflection", "vertex") and ("reflection", "edge") hold the n
    axes through opposite points and the n through opposite gap midpoints.
    The edge representative runs through gaps (2n, 1) and (n, n+1).
    """
    if n == 0:
        return {}
    m = 2 * n
    orders = Counter(m // math.gcd(s, m) for s in range(m))
    classes = {("rotation", d): (rotation(m, m // d), size) for d, size in sorted(orders.items())}
    classes[("reflection", "vertex")] = (vertex_reflection(m, 0), n)
    classes[("reflection", "edge")] = (edge_reflection(m, m - 1), n)
    return classes


class SweepResult(Record):
    """Every view of one sweep as a {(loops, parallels): count} table.

    The views are CIRCULAR and LINEAR (the labelled matchings), each class
    label of ``_classes`` (the matchings its representative fixes; the
    identity ("rotation", 1) is the circular table), and CYCLIC and
    DIHEDRAL (one entry per orbit).
    """

    n: int
    tables: dict  # view -> {(loops, parallels): count}

    def count(self, view, family: str) -> int:
        """Entries of a family in one view's table."""
        return sum(count for key, count in self.tables[view].items() if in_family(family, *key))


def _place_chords(m: int):
    """Circular and linear tables of every matching on m points, and its cyclic orbits.

    Chords are placed in ``enumerate_pairings`` order (the least free point
    a, then each free partner b > a ascending), and the loops and parallel
    pairs are counted as each chord is placed, so that every leaf reads
    both (loops, parallels) keys off the counters; the tables equal the
    ``classify_pairing`` tallies.  Chord (a, b) is a loop on both views
    when b = a + 1, and on the circle only when it is (0, m - 1), which on
    2 points is the same chord.  A parallel pair is counted when its second
    chord is placed: the chord at a - 1 (point m - 1 when a = 0) with
    partner (b + 1) mod m, or the chord at a + 1 with partner b - 1.  The
    line drops the first kind when one of its gaps is the wrap gap, that
    is when b = m - 1 (at a = 0 no other chord is placed yet).

    ``o`` is the offset code, ``o[i] = (partner of i - i) mod m``.  Every
    rotation of a matching is a matching too, so each orbit's least
    rotation is the code of some leaf: a leaf stores its code, with its
    circular key, only when the code is its own least rotation, which
    needs ``o[0]`` to be its least entry.
    """
    if m == 0:
        return {(0, 0): 1}, {(0, 0): 1}, {b"": (0, 0)}
    circular, linear, cyclic = {}, {}, {}  # cyclic: least rotation -> circular key
    last = m - 1
    p = [-1] * m
    o = bytearray(m)

    def place(a, left, loops, wrap_loops, pairs, wrap_pairs):
        # a is the least free point; loops and pairs count on both views,
        # the wrap_ counters on the circle only
        before, after = p[a - 1], p[a + 1]
        for b in range(a + 1, m):
            if p[b] != -1:
                continue
            lo, wl, pa, wp = loops, wrap_loops, pairs, wrap_pairs
            if b == a + 1:
                lo += 1
            elif b == last and a == 0:
                wl += 1
            if before == b + 1:
                pa += 1
            elif before == 0 and b == last:
                wp += 1
            if after == b - 1:
                pa += 1
            o[a], o[b] = b - a, m - (b - a)
            if left == 1:
                key = (lo + wl, pa + wp)
                circular[key] = circular.get(key, 0) + 1
                linear[lo, pa] = linear.get((lo, pa), 0) + 1
                if o[0] == min(o):
                    code = bytes(o)
                    if code == _min_cyclic_shift(code):
                        cyclic[code] = key
                return
            p[a], p[b] = b, a
            nxt = a + 1
            while p[nxt] != -1:
                nxt += 1
            place(nxt, left - 1, lo, wl, pa, wp)
            p[b] = -1
        p[a] = -1

    place(0, m // 2, 0, 0, 0, 0)
    return circular, linear, cyclic


def full_sweep(n: int, cap: int = DEFAULT_CAP) -> SweepResult:
    """Every table the verify command compares; Burnside's identity checked for n >= 1.

    For each group and family, the orbit count times the group order must
    equal the fixed counts summed over the classes, each class counted as
    its size times its representative's count.
    """
    check_cap(n, cap)
    m = 2 * n
    circ_flags = gap_flags(m, CIRCULAR)
    classes = _classes(n)

    circular, linear, cyclic = _place_chords(m)
    tables = {CIRCULAR: circular, LINEAR: linear}
    dihedral = {min(c, _min_cyclic_shift(_mirrored(c))): key for c, key in cyclic.items()}
    tables[CYCLIC] = Counter(cyclic.values())
    tables[DIHEDRAL] = Counter(dihedral.values())
    for label, (element, _) in classes.items():
        tables[label] = tables[CIRCULAR] if label == ("rotation", 1) else Counter(
            classify_pairing(p, circ_flags) for p in enumerate_invariant_pairings(m, element)
        )
    sweep = SweepResult(n, tables)

    for g in (CYCLIC, DIHEDRAL) if n else ():
        in_group = {
            label: size for label, (_, size) in classes.items()
            if g == DIHEDRAL or label[0] == "rotation"
        }
        order = sum(in_group.values())
        for f in FAMILIES:
            orbits = sweep.count(g, f)
            fixed = sum(size * sweep.count(label, f) for label, size in in_group.items())
            if orbits * order != fixed:
                raise AssertionError(
                    f"Burnside identity fails for n={n} {g} {f}: {orbits} * {order} != {fixed}"
                )
    return sweep
