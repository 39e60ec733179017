import functools
import math

import pytest

from chordenum.diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    classify_pairing,
    edge_reflection,
    enumerate_pairings,
    gap_flags,
    group_elements,
    rotation,
    vertex_reflection,
)
from chordenum.oracle import (
    FAMILIES,
    OracleCapError,
    check_line,
    full_sweep,
    in_family,
)


@functools.lru_cache(maxsize=None)
def family_members(n, family, topology=CIRCULAR):
    flags = gap_flags(2 * n, topology)
    return tuple(p for p in enumerate_pairings(2 * n) if in_family(family, *classify_pairing(p, flags)))


def reference_count(n, family, topology=CIRCULAR, element=None):
    """Family matchings on 2n points, optionally only those fixed by one group element.

    The per-element brute force that ``full_sweep``'s one-representative-per-class
    counts are checked against.
    """
    return sum(
        1
        for p in family_members(n, family, topology)
        if element is None or all(p[element[i]] == element[j] for i, j in enumerate(p))
    )


def element_labels(n):
    """Class label of each element of the dihedral group, in group_elements order."""
    m = 2 * n
    labels = [("rotation", m // math.gcd(s, m)) for s in range(m)]
    return labels + [("reflection", "vertex")] * n + [("reflection", "edge")] * n


def test_family_predicates_nest():
    assert in_family("all", 3, 2)
    assert not in_family("loopless", 1, 0)
    assert in_family("loopless", 0, 2)
    assert not in_family("simple", 0, 1)
    assert in_family("simple", 0, 0)
    with pytest.raises(ValueError):
        in_family("connected", 0, 0)


def test_count_labelled_examples(sweeps):
    assert sweeps[4].labelled[(LINEAR, "loopless")] == 36
    assert sweeps[3].labelled[(CIRCULAR, "simple")] == 1
    assert full_sweep(0).labelled[(CIRCULAR, "all")] == 1


def test_classify_table_examples(sweeps):
    assert sweeps[2].tables[LINEAR] == {(2, 0): 1, (0, 0): 1, (1, 1): 1}
    assert sweeps[1].tables[LINEAR] == {(1, 0): 1}
    assert full_sweep(0).tables[CIRCULAR] == {(0, 0): 1}


def test_classify_table_totals(sweeps):
    for c in range(7):
        table = (sweeps[c] if c else full_sweep(0)).tables[LINEAR]
        assert sum(table.values()) == math.prod(range(2 * c - 1, 0, -2))


def test_rotation_fixed_examples(sweeps):
    assert sweeps[4].rotation_fixed[(2, "simple")] == 5
    assert sweeps[3].rotation_fixed[(3, "loopless")] == 1
    assert sweeps[4].rotation_fixed[(8, "simple")] == 1


def test_rotation_identity_element_recovers_labelled():
    for n in range(6):
        sweep = full_sweep(n)
        for family in FAMILIES:
            labelled = sweep.labelled.get((CIRCULAR, family), 0)
            assert reference_count(n, family, element=rotation(2 * n, 0)) == labelled
            if n:
                assert sweep.rotation_fixed.get((1, family), 0) == labelled


def test_reflection_fixed_examples(sweeps):
    assert sweeps[4].reflection_fixed[("vertex", "loopless")] == 5
    assert sweeps[4].reflection_fixed[("edge", "loopless")] == 9
    assert sweeps[2].reflection_fixed[("vertex", "simple")] == 1


def test_all_axes_of_a_type_fix_equally_many(sweeps):
    # every element of a class fixes as many diagrams as the class
    # representative the sweep tests: rotations of one order and axes of one type
    for n in range(1, 6):
        sweep = sweeps[n]
        for family in ("loopless", "simple"):
            for element, (kind, key) in zip(group_elements(DIHEDRAL, 2 * n), element_labels(n)):
                got = reference_count(n, family, element=element)
                if kind == "rotation":
                    assert got == sweep.rotation_fixed.get((key, family), 0), (n, family, element)
                else:
                    assert got == sweep.reflection_fixed.get((key, family), 0), (n, family, element)


def test_orbit_examples(sweeps):
    assert sweeps[4].orbits[(CYCLIC, "loopless")].orbit_count == 7
    assert sweeps[5].orbits[(DIHEDRAL, "simple")].orbit_count == 18
    assert sweeps[1].orbits[(CYCLIC, "loopless")].orbit_count == 0


def test_orbit_reports_satisfy_burnside(sweeps):
    # the report constructor asserts the identity; recheck the arithmetic here
    for n, sweep in sweeps.items():
        for report in sweep.orbits.values():
            assert report.orbit_count * report.group_order == report.fixed_total


def test_cap_is_enforced():
    with pytest.raises(OracleCapError):
        full_sweep(10)
    with pytest.raises(OracleCapError):
        full_sweep(3, cap=2)
    assert full_sweep(3, cap=3).labelled[(CIRCULAR, "all")] == 15


def test_partitioned_stream_merges_to_the_direct_count(sweeps):
    # branch-by-branch counting over the 2n-1 partitions of the stream
    n = 4
    flags = gap_flags(2 * n, CIRCULAR)
    direct = sweeps[n].labelled[(CIRCULAR, "loopless")]
    merged = 0
    for fp in range(1, 2 * n):
        merged += sum(
            1
            for p in enumerate_pairings(2 * n, first_partner=fp)
            if in_family("loopless", *classify_pairing(p, flags))
        )
    assert merged == direct


def test_check_line_format():
    line, ok = check_line("labelled-all", 3, 15, 15)
    assert line == "CHECK labelled-all n=3 expected=15 got=15 OK"
    assert ok
    line, ok = check_line("labelled-all", 3, 15, 14)
    assert line.endswith("FAIL")
    assert not ok


def test_full_sweep_matches_individual_operations(sweeps):
    for n in (1, 2, 3, 4):
        sweep = sweeps[n]
        for family in FAMILIES:
            for topology in (CIRCULAR, LINEAR):
                assert sweep.labelled.get((topology, family), 0) == reference_count(n, family, topology)
        for topology in (CIRCULAR, LINEAR):
            flags = gap_flags(2 * n, topology)
            table = {}
            for p in enumerate_pairings(2 * n):
                key = classify_pairing(p, flags)
                table[key] = table.get(key, 0) + 1
            assert sweep.tables[topology] == table
        for d in [d for d in range(1, 2 * n + 1) if (2 * n) % d == 0]:
            for family in FAMILIES:
                assert sweep.rotation_fixed.get((d, family), 0) == reference_count(
                    n, family, element=rotation(2 * n, 2 * n // d)
                )
        for axis, element in (
            ("vertex", vertex_reflection(2 * n, 0)),
            ("edge", edge_reflection(2 * n, 2 * n - 1)),
        ):
            for family in FAMILIES:
                assert sweep.reflection_fixed.get((axis, family), 0) == reference_count(
                    n, family, element=element
                )
        for group in (CYCLIC, DIHEDRAL):
            elements = group_elements(group, 2 * n)
            for family in FAMILIES:
                # Burnside over every element, one reference count each
                direct = {}
                for element, label in zip(elements, element_labels(n)):
                    direct[label] = direct.get(label, 0) + reference_count(n, family, element=element)
                report = sweep.orbits[(group, family)]
                assert report.fixed_counts == direct
                assert report.group_order == len(elements)
                assert report.orbit_count == sum(direct.values()) // len(elements)
