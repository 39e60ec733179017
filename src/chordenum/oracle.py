"""Brute-force ground truth: every count a family filter on a (loops, parallels) table.

``full_sweep`` enumerates all (2n-1)!! matchings once and only classifies
them, on the circle and on the line, keyed also by cyclic canonical code;
dihedral codes come once per cyclic orbit, from the matching its cyclic
code rebuilds.  The fixed counts come from a second enumeration: the
invariant matchings of one representative per conjugacy class (one
rotation per order d | 2n, one axis through opposite points, one through
opposite gaps), classified on the circle; the identity reads the full
table.  Burnside's identity then compares the two enumerations.  Class
sizes come from counting element orders here, not from the recurrence
modules, which are validated against these counts before their tables
are trusted.
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


@dataclass(frozen=True)
class OrbitReport:
    """Orbit count of a family under a group, counted two independent ways.

    ``fixed_counts`` maps each class label to the diagrams fixed by the
    class, summed over its elements (class size times the count of its
    representative).
    """

    n: int
    group: str
    family: str
    orbit_count: int
    fixed_counts: dict
    group_order: int

    @property
    def fixed_total(self) -> int:
        return sum(self.fixed_counts.values())

    def check_burnside(self):
        if self.orbit_count * self.group_order != self.fixed_total:
            raise AssertionError(
                f"Burnside identity fails for n={self.n} {self.group} {self.family}: "
                f"{self.orbit_count} * {self.group_order} != {self.fixed_total}"
            )


@dataclass
class SweepResult:
    n: int
    labelled: dict           # (topology name, family) -> count
    tables: dict             # topology name -> {(k, l): count}
    rotation_fixed: dict     # (d, family) -> count
    reflection_fixed: dict   # (axis type, family) -> count
    orbits: dict             # (group, family) -> OrbitReport


def _bump(counts: dict, key):
    counts[key] = counts.get(key, 0) + 1


def _family_total(table: dict, family: str) -> int:
    """Matchings of a family in a (loops, parallels) -> count table."""
    return sum(count for key, count in table.items() if in_family(family, *key))


def full_sweep(n: int, cap: int = DEFAULT_CAP) -> SweepResult:
    """Everything the verify command compares, each count read off a table.

    Only nonzero counts are stored in ``labelled``, ``rotation_fixed`` and
    ``reflection_fixed``; every orbit report of n >= 1 is checked against
    the Burnside identity.
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
    orbit_tables = {CYCLIC: Counter(cyclic.values()), DIHEDRAL: Counter(dihedral.values())}
    fixed = {
        label: tables[CIRCULAR] if label == ("rotation", 1)
        else Counter(classify_pairing(p, circ_flags) for p in enumerate_invariant_pairings(m, element))
        for label, (element, _) in classes.items()
    }

    labelled = {}
    rotation_fixed = {}
    reflection_fixed = {}
    for f in FAMILIES:
        for topology in (CIRCULAR, LINEAR):
            if count := _family_total(tables[topology], f):
                labelled[(topology, f)] = count
        for (kind, key), table in fixed.items():
            if count := _family_total(table, f):
                (rotation_fixed if kind == "rotation" else reflection_fixed)[(key, f)] = count

    orbits = {}
    for g in (CYCLIC, DIHEDRAL):
        in_group = {
            label: size for label, (_, size) in classes.items()
            if g == DIHEDRAL or label[0] == "rotation"
        }
        for f in FAMILIES:
            report = OrbitReport(
                n=n,
                group=g,
                family=f,
                orbit_count=_family_total(orbit_tables[g], f),
                fixed_counts={label: size * _family_total(fixed[label], f) for label, size in in_group.items()},
                group_order=sum(in_group.values()) if n else 1,
            )
            if n:
                report.check_burnside()
            orbits[(g, f)] = report

    return SweepResult(n, labelled, tables, rotation_fixed, reflection_fixed, orbits)
