import functools
import math
import os
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordenum import diagram, oracle
from chordenum.cli import main
from chordenum.diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    canonical_pairing_code,
    classify_pairing,
    edge_reflection,
    enumerate_pairings,
    gap_flags,
    group_elements,
    offset_code,
    rotation,
    vertex_reflection,
)
from chordenum.oracle import (
    FAMILIES,
    OracleCapError,
    full_sweep,
)

from fixed_matchings import enumerate_invariant_pairings

# CHORDENUM_ACCEPT_EXTENDED=1 runs the chord-placing pass and fixed-tally checks at n = 7 too
EXTENDED = os.environ.get("CHORDENUM_ACCEPT_EXTENDED") == "1"


def in_family(family, loops, parallels):
    """The reference family predicate that ``SweepResult``'s one-pass sums are held to."""
    return {"all": True, "loopless": loops == 0, "simple": loops == 0 and parallels == 0}[family]


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


def test_count_labelled_examples(sweeps):
    assert sweeps[4].count(LINEAR, "loopless") == 36
    assert sweeps[3].count(CIRCULAR, "simple") == 1
    assert full_sweep(0).count(CIRCULAR, "all") == 1


def test_family_sums_equal_the_filtered_sums(sweeps):
    # count reads sums taken once per table, held to the reference predicate
    for sweep in (full_sweep(0), *sweeps.values()):
        for view, table in sweep.tables.items():
            for family in FAMILIES:
                filtered = sum(count for key, count in table.items() if in_family(family, *key))
                assert sweep.count(view, family) == filtered, (sweep.n, view, family)


def test_classify_table_examples(sweeps):
    assert sweeps[2].tables[LINEAR] == {(2, 0): 1, (0, 0): 1, (1, 1): 1}
    assert sweeps[1].tables[LINEAR] == {(1, 0): 1}
    assert full_sweep(0).tables[CIRCULAR] == {(0, 0): 1}


def test_classify_table_totals(sweeps):
    for c in range(7):
        table = (sweeps[c] if c else full_sweep(0)).tables[LINEAR]
        assert sum(table.values()) == math.prod(range(2 * c - 1, 0, -2))


def test_rotation_fixed_examples(sweeps):
    assert sweeps[4].count(("rotation", 2), "simple") == 5
    assert sweeps[3].count(("rotation", 3), "loopless") == 1
    assert sweeps[4].count(("rotation", 8), "simple") == 1


def test_rotation_identity_element_recovers_labelled():
    for n in range(6):
        sweep = full_sweep(n)
        for family in FAMILIES:
            labelled = sweep.count(CIRCULAR, family)
            assert reference_count(n, family, element=rotation(2 * n, 0)) == labelled
            if n:
                assert sweep.count(("rotation", 1), family) == labelled


def test_reflection_fixed_examples(sweeps):
    assert sweeps[4].count(("reflection", "vertex"), "loopless") == 5
    assert sweeps[4].count(("reflection", "edge"), "loopless") == 9
    assert sweeps[2].count(("reflection", "vertex"), "simple") == 1


def test_all_axes_of_a_type_fix_equally_many(sweeps):
    # every element of a class fixes as many diagrams as the class
    # representative the sweep enumerates: rotations of one order and axes of one type
    for n in range(1, 6):
        sweep = sweeps[n]
        for family in ("loopless", "simple"):
            for element, label in zip(group_elements(DIHEDRAL, 2 * n), element_labels(n)):
                got = reference_count(n, family, element=element)
                assert got == sweep.count(label, family), (n, family, element)


def test_orbit_examples(sweeps):
    assert sweeps[4].count(CYCLIC, "loopless") == 7
    assert sweeps[5].count(DIHEDRAL, "simple") == 18
    assert sweeps[1].count(CYCLIC, "loopless") == 0


def test_orbit_reports_satisfy_burnside(sweeps):
    # the sweep asserts the identity; recheck it here, one class label per group element
    for n, sweep in sweeps.items():
        for group in (CYCLIC, DIHEDRAL):
            labels = element_labels(n)[: len(group_elements(group, 2 * n))]
            for family in FAMILIES:
                fixed_total = sum(sweep.count(label, family) for label in labels)
                assert sweep.count(group, family) * len(labels) == fixed_total


def test_dihedral_codes_come_once_per_cyclic_orbit(monkeypatch):
    # the chord-placing pass keys the cyclic orbits itself, and each cyclic code
    # is mirrored once: no canonical code, per matching or per orbit
    calls = Counter()
    canonical, mirrored = diagram.canonical_pairing_code, diagram._mirrored

    def counting_canonical(pairing, kind):
        calls["canonical"] += 1
        return canonical(pairing, kind)

    def counting_mirrored(code):
        calls["mirrored"] += 1
        return mirrored(code)

    monkeypatch.setattr(diagram, "canonical_pairing_code", counting_canonical)
    monkeypatch.setattr(diagram, "_mirrored", counting_mirrored)
    sweep = full_sweep(5)
    assert calls == {"mirrored": 105}
    assert sweep.count(CYCLIC, "all") == 105


def test_the_sweep_holds_tallies_not_orbits():
    # the pass keeps count tables only, not one code per cyclic orbit: kept as
    # bytes in a dict, the 9,749 orbit codes at n = 7 would peak at 1.3-1.7 MB
    tracemalloc.start()
    try:
        full_sweep(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_one_full_pass_and_one_invariant_pass_per_non_identity_class(monkeypatch):
    calls = {"full": [], "invariant": [], "classify": 0}
    full, invariant = oracle._place_chords, oracle._fixed_tally
    classify = oracle.classify_pairing

    def counting_full(point_count):
        calls["full"].append(point_count)
        return full(point_count)

    def counting_invariant(point_count, element):
        calls["invariant"].append(element)
        return invariant(point_count, element)

    def counting_classify(pairing, flags):
        calls["classify"] += 1
        return classify(pairing, flags)

    monkeypatch.setattr(oracle, "_place_chords", counting_full)
    monkeypatch.setattr(oracle, "_fixed_tally", counting_invariant)
    monkeypatch.setattr(oracle, "classify_pairing", counting_classify)
    full_sweep(5)
    assert calls["full"] == [10]
    # rotations of order 2, 5 and 10 and the two axis types; the identity reads the full pass
    assert len(calls["invariant"]) == 5
    assert rotation(10, 0) not in calls["invariant"]
    # both passes key their matchings themselves: classify_pairing checks only
    # the first fixed matching of each non-identity class
    assert calls["classify"] == 5


@pytest.mark.parametrize("n", range(8 if EXTENDED else 7))
def test_fixed_tally_equals_the_classifier_for_every_element(n):
    # every element of the dihedral group, not only the class representatives:
    # the gap-orbit key of each fixed matching is classify_pairing's on the circle
    m = 2 * n
    flags = gap_flags(m, CIRCULAR)
    for element in group_elements(DIHEDRAL, m):
        fixed = list(enumerate_invariant_pairings(m, element))
        tally, (pairing, key) = oracle._fixed_tally(m, element)
        assert tally == Counter(classify_pairing(p, flags) for p in fixed), element
        assert pairing == fixed[0] and key == classify_pairing(pairing, flags), element


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.data())
def test_gap_orbits_partition_the_gaps(n, data):
    # on m >= 4 points each gap joins its own pair of points (on 2, both gaps join 0 and 1)
    m = 2 * n
    element = data.draw(st.sampled_from(group_elements(DIHEDRAL, m)))

    def image(gap):
        ends = {element[gap], element[(gap + 1) % m]}
        return next(k for k in range(m) if {k, (k + 1) % m} == ends)

    orbits = oracle._gap_orbits(element)
    covered = set()
    for i, j, size in orbits:
        assert j == (i + 1) % m
        orbit, gap = {i}, image(i)
        while gap != i:
            orbit.add(gap)
            gap = image(gap)
        assert {image(gap) for gap in orbit} == orbit
        assert len(orbit) == size and not orbit & covered
        covered |= orbit
    assert covered == set(range(m))
    assert sum(size for _, _, size in orbits) == m


def test_a_wrong_gap_orbit_key_is_refused(monkeypatch, capsys):
    # weight each vertex-axis gap orbit one gap too many: the first matching that
    # axis fixes has two loops, which now read as three
    axis = vertex_reflection(8, 0)
    real = oracle._gap_orbits

    def widened(element):
        orbits = real(element)
        return tuple((i, j, size + 1) for i, j, size in orbits) if element == axis else orbits

    monkeypatch.setattr(oracle, "_gap_orbits", widened)
    refusal = "gap-orbit key (3, 0) for n=4 ('reflection', 'vertex') is not classify_pairing's (2, 0)"
    with pytest.raises(AssertionError) as raised:
        full_sweep(4)
    assert str(raised.value).startswith(refusal)
    assert main(["verify", "--max", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {refusal} on the first fixed matching ")


def leaf_codes(m):
    """``_place_chords(m)``'s tables, and the offset code each leaf hands to ``_mirrored``, its one call."""
    real, codes = diagram._mirrored, []

    def collecting(code):
        codes.append(code)
        return real(code)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagram, "_mirrored", collecting)
        tables = oracle._place_chords(m)
    return tables, codes


def rebuilt(code):
    """The matching whose offset code is ``code``."""
    return tuple((i + offset) % len(code) for i, offset in enumerate(code))


@pytest.mark.parametrize("n", range(8 if EXTENDED else 7))
def test_chord_placing_pass_equals_the_classifier_and_the_canonical_codes(n):
    m = 2 * n
    (circular, linear, cyclic, achiral), codes = leaf_codes(m)
    flags = {CIRCULAR: gap_flags(m, CIRCULAR), LINEAR: gap_flags(m, LINEAR)}
    expected = {topology: Counter() for topology in flags}
    canonical = set()
    dihedral = {}  # dihedral code -> circular key
    for p in enumerate_pairings(m):
        for topology, topology_flags in flags.items():
            expected[topology][classify_pairing(p, topology_flags)] += 1
        canonical.add(canonical_pairing_code(p, CYCLIC))
        dihedral[canonical_pairing_code(p, DIHEDRAL)] = classify_pairing(p, flags[CIRCULAR])
    assert circular == expected[CIRCULAR]
    assert linear == expected[LINEAR]
    if n <= 1:
        # no leaf is reached: the one matching is its own achiral orbit
        assert codes == [] and cyclic == achiral == {(n, 0): 1}
    else:
        # one leaf per cyclic orbit, each at its least rotation
        assert len(codes) == len(canonical) and {tuple(code) for code in codes} == canonical
        keys, achiral_keys = Counter(), Counter()
        for code in codes:
            pairing = rebuilt(code)
            assert offset_code(pairing) == tuple(code)
            key = classify_pairing(pairing, flags[CIRCULAR])
            keys[key] += 1
            # achiral: the mirror image i -> -i is a rotation of the matching
            image = tuple((m - pairing[-i]) % m for i in range(m))
            if canonical_pairing_code(image, CYCLIC) == tuple(code):
                achiral_keys[key] += 1
        assert cyclic == keys
        assert achiral == achiral_keys
    # the sweep's dihedral table tallies each dihedral orbit's circular key once
    assert full_sweep(n).tables[DIHEDRAL] == Counter(dihedral.values())


@pytest.mark.parametrize("n", range(8))
def test_orbit_weights_are_periods_that_cover_every_matching(n):
    # the pass weights each leaf's code by its period: the periods must sum to
    # (2n-1)!!, and each must be the number of distinct rotations of its matching
    m = 2 * n
    (circular, _, cyclic, _), codes = leaf_codes(m)
    if n <= 1:
        # no leaf is reached: one matching, one orbit
        assert codes == [] and circular == cyclic == {(n, 0): 1}
        return
    periods = [(code + code).find(code, 1) for code in codes]
    assert sum(periods) == sum(circular.values()) == math.prod(range(2 * n - 1, 0, -2))
    if n > 6:
        return
    for code, period in zip(codes, periods):
        pairing = rebuilt(code)
        rotations = {tuple((pairing[(i - s) % m] + s) % m for i in range(m)) for s in range(m)}
        assert period == len(rotations)


def test_burnside_compares_two_enumerations(monkeypatch):
    # drop one matching fixed by the vertex axis: the orbit codes no longer agree
    axis = vertex_reflection(8, 0)
    real = oracle._fixed_tally

    def dropping(point_count, element):
        tally, first = real(point_count, element)
        if element == axis:
            tally[first[1]] -= 1
        return tally, first

    monkeypatch.setattr(oracle, "_fixed_tally", dropping)
    with pytest.raises(AssertionError, match="Burnside identity fails for n=4"):
        full_sweep(4)


@pytest.mark.parametrize(
    "flipped, refusal",
    [(1, "odd dihedral tally for n=4 key "), (2, "Burnside identity fails for n=4 dihedral all: ")],
)
def test_a_wrong_achiral_verdict_is_refused(monkeypatch, capsys, flipped, refusal):
    # call achiral orbits of one circular key chiral: one flip leaves an odd tally,
    # two leave an even one that the dihedral Burnside identity must catch
    mirrored = diagram._mirrored
    _, codes = leaf_codes(8)
    flags = gap_flags(8, CIRCULAR)
    achiral = [(classify_pairing(rebuilt(c), flags), c) for c in codes if mirrored(c) in c + c]
    key = next(key for key, count in Counter(key for key, _ in achiral).items() if count >= 2)
    targets = [code for k, code in achiral if k == key][:flipped]

    def flipping(code):
        # no offset is 0, so the all-zero code is never a rotation
        return bytes(len(code)) if code in targets else mirrored(code)

    monkeypatch.setattr(diagram, "_mirrored", flipping)
    with pytest.raises(AssertionError, match=refusal):
        full_sweep(4)
    assert main(["verify", "--max", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"internal error: {refusal}")


def test_an_uneven_cut_of_a_circular_key_is_refused(monkeypatch, capsys):
    # one matching too many under a key with loops: its loops no longer spread
    # evenly over the gaps, and the line's table is refused
    real = oracle._line_table

    def padding(circular, m):
        key = next(key for key in circular if key[0])
        return real({**circular, key: circular[key] + 1}, m)

    monkeypatch.setattr(oracle, "_line_table", padding)
    with pytest.raises(AssertionError, match="on 8 points do not cut evenly"):
        full_sweep(4)
    assert main(["verify", "--max", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: the ")
    assert captured.err.endswith(" on 4 points do not cut evenly\n")


def test_cap_is_enforced():
    with pytest.raises(OracleCapError):
        full_sweep(10)
    with pytest.raises(OracleCapError):
        full_sweep(3, cap=2)
    assert full_sweep(3, cap=3).count(CIRCULAR, "all") == 15


def test_full_sweep_matches_individual_operations(sweeps):
    for n in (1, 2, 3, 4):
        sweep = sweeps[n]
        for family in FAMILIES:
            for topology in (CIRCULAR, LINEAR):
                assert sweep.count(topology, family) == reference_count(n, family, topology)
        for topology in (CIRCULAR, LINEAR):
            flags = gap_flags(2 * n, topology)
            table = {}
            for p in enumerate_pairings(2 * n):
                key = classify_pairing(p, flags)
                table[key] = table.get(key, 0) + 1
            assert sweep.tables[topology] == table
        for d in [d for d in range(1, 2 * n + 1) if (2 * n) % d == 0]:
            for family in FAMILIES:
                assert sweep.count(("rotation", d), family) == reference_count(
                    n, family, element=rotation(2 * n, 2 * n // d)
                )
        for axis, element in (
            ("vertex", vertex_reflection(2 * n, 0)),
            ("edge", edge_reflection(2 * n, 2 * n - 1)),
        ):
            for family in FAMILIES:
                assert sweep.count(("reflection", axis), family) == reference_count(
                    n, family, element=element
                )
        for group in (CYCLIC, DIHEDRAL):
            elements = group_elements(group, 2 * n)
            for family in FAMILIES:
                # Burnside over every element, one reference count each
                direct = {}
                for element, label in zip(elements, element_labels(n)):
                    direct[label] = direct.get(label, 0) + reference_count(n, family, element=element)
                sizes = Counter(element_labels(n)[: len(elements)])
                assert {label: size * sweep.count(label, family) for label, size in sizes.items()} == direct
                assert sweep.count(group, family) == sum(direct.values()) // len(elements)
