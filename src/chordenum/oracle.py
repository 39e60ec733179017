"""Brute-force ground truth: one sweep, returned as (loops, parallels) tables only.

``full_sweep`` enumerates all (2n-1)!! matchings once and only classifies
them, on the circle and on the line, keyed also by cyclic canonical code;
dihedral codes come once per cyclic orbit, from the matching its cyclic
code rebuilds.  The fixed counts come from a second enumeration: the
invariant matchings of one representative per conjugacy class (one
rotation per order d | 2n, one axis through opposite points, one through
opposite gaps), classified on the circle; the identity reads the full
table.  Every count is one lookup, ``SweepResult.count(view, family)``, a
family sum over one table.  Burnside's identity compares the two
enumerations before the sweep is returned.  Class sizes come from
counting element orders here, not from the recurrence modules, which are
validated against these counts before their tables are trusted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    canonical_pairing_code,
    classify_pairing,
    edge_reflection,
    enumerate_invariant_pairings,
    enumerate_pairings,
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


@dataclass
class SweepResult:
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


def _bump(counts: dict, key):
    counts[key] = counts.get(key, 0) + 1


def full_sweep(n: int, cap: int = DEFAULT_CAP) -> SweepResult:
    """Every table the verify command compares; Burnside's identity checked for n >= 1.

    For each group and family, the orbit count times the group order must
    equal the fixed counts summed over the classes, each class counted as
    its size times its representative's count.
    """
    check_cap(n, cap)
    m = 2 * n
    circ_flags = gap_flags(m, CIRCULAR)
    lin_flags = gap_flags(m, LINEAR)
    classes = _classes(n)

    tables = {CIRCULAR: {}, LINEAR: {}}
    cyclic = {}  # cyclic code -> circular (loops, parallels) of its orbit
    for p in enumerate_pairings(m):
        circ = classify_pairing(p, circ_flags)
        _bump(tables[CIRCULAR], circ)
        _bump(tables[LINEAR], classify_pairing(p, lin_flags))
        cyclic[canonical_pairing_code(p, CYCLIC)] = circ

    # a cyclic code is the offset code of a rotated image of its matchings
    dihedral = {
        canonical_pairing_code(tuple((i + o) % m for i, o in enumerate(c)), DIHEDRAL): key
        for c, key in cyclic.items()
    }
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
