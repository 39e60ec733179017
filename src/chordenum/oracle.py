"""Brute-force ground truth: one sweep, returned as (loops, parallels) tables only.

``full_sweep`` covers all (2n-1)!! matchings in one recursive pass,
``_place_chords``, which places the chords of one matching per rotation
orbit, its least rotation, and weights it by its period, the orbit size.
A leaf's least-rotation test, period and mirror test are ``diagram``'s
``_is_least_rotation`` and ``_stabiliser``.  The pass counts loops and
parallel pairs on the circle as each chord is placed and keeps only
tallies keyed by that circular class: the matchings, the cyclic orbits
and the achiral ones.  No orbit is held after its leaf.  The line's
table comes afterwards from the circular keys, by which share of each
key's matchings a cut at one gap passes through a loop or a parallel pair.
It gives the tables ``classify_pairing`` and the orbits
``canonical_pairing_code`` would give over every matching, and those two
stay the definitions.
The dihedral table comes from the two orbit tallies without rebuilding a
matching: per circular class the dihedral orbits are
(cyclic + achiral) / 2.  The fixed counts come from a second
enumeration, ``_fixed_tally``: one recursive pass per conjugacy class (one
rotation per order d | 2n, one axis through opposite points, one through
opposite gaps) places the chords of its representative's invariant
matchings a whole orbit at a time and keys each on the circle by reading
one gap per orbit of the element on the gaps, weighted by the orbit size;
the identity reads the full table.  Each class's first fixed matching is
classified by ``classify_pairing`` as well.  Every count is one lookup,
``SweepResult.count(view, family)``: each table is summed into the three
families once.  Burnside's identity compares the two
enumerations before the sweep is returned; its identity term is the sum
of the pass's orbit weights, so it checks them too.  Class sizes come from
counting element orders here, not from the recurrence modules, which are
validated against these counts before their tables are trusted.
"""

from __future__ import annotations

import math
from collections import Counter
from functools import cached_property

from ._record import Record
from .diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    _is_least_rotation,
    _stabiliser,
    classify_pairing,
    edge_reflection,
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

    @cached_property
    def _family_sums(self) -> dict:
        """view -> {family: entries}, each table summed into every family in one pass."""
        sums = {}
        for view, table in self.tables.items():
            every = loopless = simple = 0
            for (loops, parallels), count in table.items():
                every += count
                if not loops:
                    loopless += count
                    if not parallels:
                        simple += count
            sums[view] = {"all": every, "loopless": loopless, "simple": simple}
        return sums

    def count(self, view, family: str) -> int:
        """Entries of a family (``in_family``) in one view's table."""
        return self._family_sums[view][family]


def _place_chords(m: int):
    """Circular, linear, cyclic and achiral tables of the matchings on m points.

    ``o`` is the offset code, ``o[i] = (partner of i - i) mod m``, and
    ``d = o[0]``.  A least rotation starts at its least entry, so the pass
    places only chords (a, b) that keep both ``o[a] = b - a`` and
    ``o[b] = m - (b - a)`` at least d: the root chord is (0, d) with
    d = 1..m/2, and every later chord has b in a + d .. min(a + m - d,
    m - 1).  Chords are otherwise placed in ``enumerate_pairings`` order
    (the least free point a, then each free partner b ascending), and the
    pass reaches only the matchings whose code starts at its least entry
    (1,456 of 10,395 at m = 12).

    A leaf whose code ``_is_least_rotation`` stands for its orbit, and every
    matching is a rotation of exactly one such leaf: under its circular key
    it adds one cyclic orbit, one achiral orbit when ``_stabiliser`` finds
    the code achiral, and the orbit's q matchings, q the code's period.

    Loops and parallel pairs are counted on the circle as each chord is
    placed.  Chord (a, b) is a loop when b = a + 1; the loop (0, m - 1)
    across the wrap gap is never placed, as o[0] = m - 1 is not least.  A
    parallel pair is counted when its second chord is placed: the chord
    at a - 1 (placed earlier, since a is the least free point) with
    partner b + 1, or partner 0 when b = m - 1.  The line's table is
    ``_line_table`` of the circular one; on 2 points the single chord is a
    loop on both views.
    """
    if m <= 2:
        key = (m // 2, 0)
        return {key: 1}, {key: 1}, {key: 1}, {key: 1}
    circular, cyclic, achiral = {}, {}, {}
    last = m - 1
    p = [-1] * m
    o = bytearray(m)

    def place(a, left, loops, pairs):
        # a > 0 is the least free point; loops and pairs count on the circle
        before = p[a - 1]
        for b in range(a + d, min(a + m - d, last) + 1):
            if p[b] != -1:
                continue
            lo = loops + 1 if b == a + 1 else loops
            pa = pairs + 1 if before == b + 1 or (before == 0 and b == last) else pairs
            span = b - a
            o[a], o[b] = span, m - span
            if left == 1:
                code = bytes(o)
                if not _is_least_rotation(code):
                    return
                period, mirror = _stabiliser(code)
                key = (lo, pa)
                cyclic[key] = cyclic.get(key, 0) + 1
                if mirror:
                    achiral[key] = achiral.get(key, 0) + 1
                circular[key] = circular.get(key, 0) + period  # the orbit size
                return
            p[a], p[b] = b, a
            nxt = a + 1
            while p[nxt] != -1:
                nxt += 1
            place(nxt, left - 1, lo, pa)
            p[b] = -1
        p[a] = -1

    for d in range(1, m // 2 + 1):
        p[0], p[d] = d, 0
        o[0], o[d] = d, m - d
        place(2 if d == 1 else 1, m // 2 - 1, int(d == 1), 0)
        p[d] = -1
    return circular, _line_table(circular, m), cyclic, achiral


def _line_table(circular: dict, m: int) -> dict:
    """The linear table of the matchings on m >= 4 points from their circular table.

    The line is the circle cut at one gap.  The C matchings of a circular
    key (L, P) are closed under rotation, so each gap holds a loop in L*C/m
    of them and ends a parallel pair in 2P*C/m; for m >= 4 no gap is both.
    Cutting them all at the wrap gap gives L*C/m keys (L - 1, P), 2P*C/m
    keys (L, P - 1) and (L, P) for the rest; a share that is not whole
    raises ``AssertionError``.
    """
    linear = {}
    for key, count in circular.items():
        loops, pairs = key
        through_loop, loop_rest = divmod(loops * count, m)
        through_pair, pair_rest = divmod(2 * pairs * count, m)
        if loop_rest or pair_rest:
            raise AssertionError(f"the {count} matchings of key {key} on {m} points do not cut evenly")
        rest = count - through_loop - through_pair
        for cut, share in ((loops - 1, pairs), through_loop), ((loops, pairs - 1), through_pair), (key, rest):
            if share:
                linear[cut] = linear.get(cut, 0) + share
    return linear


def _gap_orbits(element) -> tuple:
    """(i, i + 1 mod m, orbit size) for one gap i of each orbit of a dihedral element on the m gaps.

    Gap i joins points i and i + 1.  The element maps it to the gap between
    its images, which starts at the image of i under a rotation and at the
    image of i + 1 under a reflection.
    """
    m = len(element)
    seen = [False] * m
    orbits = []
    for start in range(m):
        size, i = 0, start
        while not seen[i]:
            seen[i] = True
            size += 1
            x, y = element[i], element[(i + 1) % m]
            i = x if y == (x + 1) % m else y
        if size:
            orbits.append((start, (start + 1) % m, size))
    return tuple(orbits)


def _fixed_tally(m: int, element) -> tuple[dict, tuple]:
    """Circular {(loops, parallels): count} of the matchings on m points that ``element`` fixes,
    with the first of them as (partner tuple, key).

    Chords are placed a whole orbit at a time, in ``enumerate_pairings``
    order: the least free point a is joined to each free partner b > a in
    ascending order, and the chord's images are placed until the orbit
    comes back to (a, b); an orbit that runs into any other placed point
    is rejected.

    A dihedral element keeps neighbouring gaps neighbouring and keeps the
    reversed order of a parallel pair's partners, so a fixed matching looks
    the same at every gap of one orbit of the element on the gaps.  Each
    leaf reads ``classify_pairing``'s test at one gap per orbit
    (``_gap_orbits``), weighted by the orbit size; loops are capped at m/2
    and pair ends halved, as there.
    """
    gaps = _gap_orbits(element)
    half, last = m // 2, m - 1
    tally, first = {}, []
    p = [-1] * m

    def place(a):
        while a < m and p[a] != -1:
            a += 1
        if a == m:
            loops = ends = 0
            for i, j, size in gaps:
                partner = p[i]
                if partner == j:
                    loops += size
                elif p[j] + 1 == partner or (partner == 0 and p[j] == last):
                    ends += size
            key = (min(loops, half), ends // 2)
            if not first:
                first.append((tuple(p), key))
            tally[key] = tally.get(key, 0) + 1
            return
        for b in range(a + 1, m):
            if p[b] != -1:
                continue
            added = []
            x, y = a, b
            while p[x] == -1 and p[y] == -1:
                p[x], p[y] = y, x
                added.append(x)
                x, y = element[x], element[y]
            # the first placed chord the orbit reaches is (a, b) itself when it closes:
            # an earlier orbit is closed and holds no image of the free point a
            if p[x] == y:
                place(a + 1)
            for u in added:
                p[p[u]] = -1
                p[u] = -1

    place(0)
    return tally, first[0]


def full_sweep(n: int, cap: int = DEFAULT_CAP) -> SweepResult:
    """Every table the verify command compares; Burnside's identity checked for n >= 1.

    For each group and family, the orbit count times the group order must
    equal the fixed counts summed over the classes, each class counted as
    its size times its representative's count.  A circular key whose
    cyclic and achiral orbit counts do not sum to an even number is refused
    first; given the cyclic identity, the dihedral one compares twice the
    achiral orbits with the vertex and edge axes' fixed counts.  Before
    that, each class's first fixed matching is classified by
    ``classify_pairing`` too, and a gap-orbit key that differs is refused.
    """
    check_cap(n, cap)
    m = 2 * n
    circ_flags = gap_flags(m, CIRCULAR)
    classes = _classes(n)

    circular, linear, cyclic, achiral = _place_chords(m)
    tables = {CIRCULAR: circular, LINEAR: linear, CYCLIC: cyclic}
    # a dihedral orbit is one achiral cyclic orbit or two mirror-image ones
    dihedral = tables[DIHEDRAL] = {}
    for key, count in cyclic.items():
        mirrors = achiral.get(key, 0)
        orbits, odd = divmod(count + mirrors, 2)
        if odd:
            raise AssertionError(
                f"odd dihedral tally for n={n} key {key}: {count} cyclic + {mirrors} achiral orbits"
            )
        dihedral[key] = orbits
    for label, (element, _) in classes.items():
        if label == ("rotation", 1):
            tables[label] = circular
            continue
        tables[label], (pairing, key) = _fixed_tally(m, element)
        defined = classify_pairing(pairing, circ_flags)
        if defined != key:
            raise AssertionError(
                f"gap-orbit key {key} for n={n} {label} is not classify_pairing's {defined} "
                f"on the first fixed matching {pairing}"
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
