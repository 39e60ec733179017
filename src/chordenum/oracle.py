"""Brute-force ground truth by exhaustive matching enumeration.

``full_sweep`` enumerates all (2n-1)!! matchings once.  Each matching is
classified on the circle and on the line, gets its cyclic and dihedral
canonical codes, and is tested against one representative per conjugacy
class of the symmetry group: one rotation per order d | 2n (the rotations
of one order generate the same subgroup, so they fix the same matchings),
one axis through opposite points and one through opposite gaps.  Class
sizes come from counting element orders here, not from the recurrence
modules, which are validated against these counts before their tables are
trusted.
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


def _is_fixed(pairing, element) -> bool:
    for i, j in enumerate(pairing):
        if pairing[element[i]] != element[j]:
            return False
    return True


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


def check_line(name: str, n: int, expected, got) -> tuple[str, bool]:
    """One line of the verification report."""
    ok = expected == got
    status = "OK" if ok else "FAIL"
    return f"CHECK {name} n={n} expected={expected} got={got} {status}", ok


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


def full_sweep(n: int, cap: int = DEFAULT_CAP) -> SweepResult:
    """Everything the verify command compares, from a single enumeration.

    Only nonzero counts are stored in ``labelled``, ``rotation_fixed`` and
    ``reflection_fixed``; every orbit report of n >= 1 is checked against
    the Burnside identity.
    """
    check_cap(n, cap)
    m = 2 * n
    circ_flags = gap_flags(m, CIRCULAR)
    lin_flags = gap_flags(m, LINEAR)
    classes = _classes(n)

    labelled = {}
    tables = {CIRCULAR: {}, LINEAR: {}}
    codes = {(g, f): set() for g in (CYCLIC, DIHEDRAL) for f in FAMILIES}
    fixed = {f: dict.fromkeys(classes, 0) for f in FAMILIES}

    for p in enumerate_pairings(m):
        circ = classify_pairing(p, circ_flags)
        lin = classify_pairing(p, lin_flags)
        _bump(tables[CIRCULAR], circ)
        _bump(tables[LINEAR], lin)
        for f in FAMILIES:
            if in_family(f, *lin):
                _bump(labelled, (LINEAR, f))
        families = [f for f in FAMILIES if in_family(f, *circ)]
        cyclic_code = canonical_pairing_code(p, CYCLIC)
        dihedral_code = canonical_pairing_code(p, DIHEDRAL)
        hits = [label for label, (element, _) in classes.items() if _is_fixed(p, element)]
        for f in families:
            _bump(labelled, (CIRCULAR, f))
            codes[(CYCLIC, f)].add(cyclic_code)
            codes[(DIHEDRAL, f)].add(dihedral_code)
            for label in hits:
                fixed[f][label] += 1

    rotation_fixed = {}
    reflection_fixed = {}
    for f in FAMILIES:
        for (kind, key), count in fixed[f].items():
            if count:
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
                orbit_count=len(codes[(g, f)]),
                fixed_counts={label: size * fixed[f][label] for label, size in in_group.items()},
                group_order=sum(in_group.values()) if n else 1,
            )
            if n:
                report.check_burnside()
            orbits[(g, f)] = report

    return SweepResult(n, labelled, tables, rotation_fixed, reflection_fixed, orbits)
