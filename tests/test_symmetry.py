from collections import Counter

import pytest

from chordenum import symmetry
from chordenum.diagram import (
    classify_pairing,
    gap_flags,
    rotation,
    sectored,
)
from chordenum.golden import LOOPLESS_TABLE, SIMPLE_TABLE
from chordenum.labelled import loopless_chord, simple_chain, simple_linear
from chordenum.symmetry import (
    EVEN_SECTOR_REFERENCE,
    EVEN_SECTOR_TERMS,
    RecurrenceValidationError,
    loopless_cyclic,
    loopless_fixed_chain,
    loopless_rotation_fixed,
    loopless_sector_counts,
    rotation_totals,
    simple_cyclic,
    simple_fixed_chain,
    simple_rotation_fixed,
    simple_sector_counts,
    simple_sector_glueable,
    totient,
    validate_even_sector_terms,
)

from fixed_matchings import enumerate_invariant_pairings


# The widely printed even-d term set: its fourth term lacks the factor d, so
# the validation harness must reject it (see docs/ERRATA.md).
EVEN_SECTOR_TERMS_PRINTED = tuple(
    (source, dm, dk, (lambda m, k, d: 2 * m + k - 7) if i == 3 else fn)
    for i, (source, dm, dk, fn) in enumerate(EVEN_SECTOR_TERMS)
)


def loopless_sector_presubtraction(d: int, m: int, counts) -> int:
    """A loopless sector count via the unsubtracted sum form, as a second route."""
    get = lambda i: counts[i] if i >= 0 else 0
    value = (d * (m - 1) - 1) * get(m - 2)
    for i in range(1, m // 2):
        value += d * (m - 1 - 2 * i) * get(m - 2 - 2 * i)
    if d % 2 == 0:
        value += get(m - 1)
    return value


def enumerate_sector_counts(d, m, family="loopless"):
    """Exhaustive count of d-fold symmetric sectored diagrams, split by
    the diameter-orbit class for even d."""
    pts = m * d
    if pts == 0:
        return {0: 1}
    if pts % 2:
        return {}
    flags = gap_flags(pts, sectored(d))
    element = rotation(pts, m)
    split = {}
    for p in enumerate_invariant_pairings(pts, element):
        loops, parallels = classify_pairing(p, flags)
        if loops or (family == "simple" and parallels):
            continue
        if d % 2 == 0:
            diameters = sum(1 for i, j in enumerate(p) if i < j and j - i == pts // 2)
            k = 2 * diameters // d
        else:
            k = 0
        split[k] = split.get(k, 0) + 1
    return split


def test_totient_small_values():
    assert [totient(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_loopless_sector_initial_values():
    assert loopless_sector_counts(3, 2)[2] == 2
    assert loopless_sector_counts(2, 4) == (1, 1, 2, 5, 17)
    assert loopless_sector_counts(5, 2) == (1, 0, 4)


def test_loopless_sector_counts_match_enumeration():
    for d in range(1, 7):
        counts = loopless_sector_counts(d, 14 // d)
        for m in range(14 // d + 1):
            expected = sum(enumerate_sector_counts(d, m).values())
            assert counts[m] == expected, (d, m)


def test_loopless_sector_matches_labelled_at_one_sector():
    from chordenum.labelled import loopless_linear

    counts = loopless_sector_counts(1, 20)
    labelled = loopless_linear(10)
    for c in range(11):
        assert counts[2 * c] == labelled[c]


def test_presubtraction_forms_agree():
    for d in range(1, 6):
        counts = loopless_sector_counts(d, 12)
        for m in range(3, 13):
            assert loopless_sector_presubtraction(d, m, counts) == counts[m]


def test_loopless_fixed_examples():
    fixed = loopless_rotation_fixed(4)
    assert fixed == {1: 31, 2: 15, 4: 3, 8: 1}
    assert loopless_rotation_fixed(1) == {1: 0, 2: 0}


def test_loopless_fixed_identity_and_degenerate_divisor():
    b = loopless_chord(10)
    for n in range(1, 11):
        fixed = loopless_rotation_fixed(n)
        assert fixed[1] == b[n]
        if n >= 2:
            assert fixed[2 * n] == 1  # only the all-diameter diagram survives


def test_loopless_fixed_matches_oracle(sweeps):
    for n, sweep in sweeps.items():
        fixed = loopless_rotation_fixed(n)
        for d, value in fixed.items():
            assert sweep.count(("rotation", d), "loopless") == value


def test_fixed_counts_never_exceed_sector_totals():
    for n in range(2, 11):
        for d, value in loopless_rotation_fixed(n).items():
            m = 2 * n // d
            assert value <= loopless_sector_counts(d, m)[m]
        for d, value in simple_rotation_fixed(n).items():
            m = 2 * n // d
            assert value <= simple_sector_counts(d, m).totals[m]


def test_loopless_cyclic_against_published_column():
    table = loopless_cyclic(20)
    for n in range(1, 21):
        assert table[n] == LOOPLESS_TABLE[n][2]


# ---------------------------------------------------------------------------
# simple family


def test_even_sector_reference_regenerates():
    for (d, m), split in EVEN_SECTOR_REFERENCE.items():
        assert enumerate_sector_counts(d, m, "simple") == split, (d, m)


def test_odd_sector_counts_match_enumeration():
    for d, m_top in ((1, 10), (3, 6), (5, 4), (7, 2)):
        column = simple_sector_counts(d, m_top)
        for m in range(m_top + 1):
            expected = sum(enumerate_sector_counts(d, m, "simple").values())
            assert column.totals[m] == expected, (d, m)


def test_even_sector_recurrence_validates_and_matches():
    for d in (2, 4):
        m_top = max(m for (dd, m) in EVEN_SECTOR_REFERENCE if dd == d)
        column = simple_sector_counts(d, m_top)
        for (dd, m), split in EVEN_SECTOR_REFERENCE.items():
            if dd != d:
                continue
            for k, count in split.items():
                assert column.by_diameter.get((m, k), 0) == count
            assert column.totals[m] == sum(split.values())


def test_printed_term_set_fails_the_harness(monkeypatch):
    reference = {
        (m, k): count
        for (d, m), split in EVEN_SECTOR_REFERENCE.items()
        if d == 2
        for k, count in split.items()
    }
    problems = validate_even_sector_terms(2, reference, EVEN_SECTOR_TERMS_PRINTED)
    assert problems, "the uncorrected term set should not reproduce enumeration"
    assert any("m=4 k=0" in p for p in problems)
    monkeypatch.setattr(symmetry, "EVEN_SECTOR_TERMS", EVEN_SECTOR_TERMS_PRINTED)
    with pytest.raises(RecurrenceValidationError):
        simple_sector_counts(2, 6)
    assert not validate_even_sector_terms(2, reference, EVEN_SECTOR_TERMS)


def test_a_cell_missing_from_a_reference_row_is_checked_as_zero():
    reference = {
        (m, k): count
        for (d, m), split in EVEN_SECTOR_REFERENCE.items()
        if d == 2
        for k, count in split.items()
        if (m, k) != (7, 7)
    }
    assert validate_even_sector_terms(2, reference) == [
        "d=2 m=7 k=7: recurrence gives 1, enumeration gives 0"
        " [terms: r(1,-1)*1*1, r(2,0)*9*0, r(3,1)*16*0, r(4,0)*28*0, r(5,1)*16*0, r(6,0)*16*0]"
    ]


def reference_even_sector_table(d: int, m_max: int) -> dict:
    """The even-d table cell by cell through the term set: the spec the row kernel must equal."""
    table = {(0, 0): 1}
    for m in range(1, m_max + 1):
        for k in range(m + 1):
            value = symmetry.predicted_cell({"r": table}, m, k, EVEN_SECTOR_TERMS, d)
            if value:
                table[(m, k)] = value
    return table


def test_even_sector_rows_equal_the_term_set_beyond_the_reference():
    for d in (2, 4, 6, 8):
        table = reference_even_sector_table(d, 40)
        column = simple_sector_counts(d, 40)
        assert column.by_diameter == table, d
        assert column.totals == tuple(
            sum(table.get((m, k), 0) for k in range(m + 1)) for m in range(41)
        ), d


def test_a_drifted_even_sector_cell_fails_validation(monkeypatch):
    build = symmetry._even_sector_rows

    def drifted(d, m_max):
        rows = build(d, m_max)
        rows[3][1] += 1
        return rows

    monkeypatch.setattr(symmetry, "_even_sector_rows", drifted)
    with pytest.raises(RecurrenceValidationError, match=r"d=2 m=3 k=1: table gives 2"):
        simple_sector_counts(2, 6)


def test_corrected_coefficient_is_pinned_by_enumeration():
    # the harness data determines the (m-4) coefficient as an affine
    # function of m, k and d: solving any three independent cells gives
    # 2dm + dk - 7d, i.e. exactly d times the uncorrected coefficient
    for d in (2, 4):
        reference = {
            (m, k): count
            for (dd, m), split in EVEN_SECTOR_REFERENCE.items()
            if dd == d
            for k, count in split.items()
        }
        cells = []
        for (m, k), want in sorted(reference.items()):
            if m < 4:
                continue
            source = reference.get((m - 4, k), 0)
            if not source:
                continue
            rest = 0
            for _, dm, dk, coeff in EVEN_SECTOR_TERMS:
                if dm == 4:
                    continue
                rest += coeff(m, k, d) * reference.get((m - dm, k + dk), 0)
            cells.append((m, k, (want - rest), source))
        assert cells
        for m, k, numerator, source in cells:
            assert numerator % source == 0
            assert numerator // source == (2 * m + k - 7) * d


def test_sector_one_matches_simple_linear():
    column = simple_sector_counts(1, 20)
    labelled = simple_linear(9)
    for c in range(1, 11):
        assert column.totals[2 * c] == labelled[c - 1]


def test_glueable_chain_reproduces_labelled_chain_at_one_sector():
    chain = simple_chain(10)
    q = simple_sector_glueable(1, 20)
    for n in range(1, 11):
        assert q[2 * n] == chain.no_end_chord[n]


def test_simple_fixed_examples():
    assert simple_rotation_fixed(4) == {1: 21, 2: 5, 4: 1, 8: 1}
    assert simple_rotation_fixed(2)[2] == 1
    fixed5 = simple_rotation_fixed(5)
    assert fixed5[5] == 3 and fixed5[10] == 1


def test_simple_fixed_matches_oracle(sweeps):
    for n, sweep in sweeps.items():
        fixed = simple_rotation_fixed(n)
        for d, value in fixed.items():
            assert sweep.count(("rotation", d), "simple") == value


def test_simple_cyclic_against_published_column():
    table = simple_cyclic(20)
    for n in range(1, 21):
        assert table[n] == SIMPLE_TABLE[n][2]


def test_burnside_sums_divisible_up_to_40():
    for n in range(1, 41):
        loopless = loopless_rotation_fixed(n)
        total = sum(totient(d) * loopless[d] for d in loopless)
        assert total % (2 * n) == 0
        simple = simple_rotation_fixed(n)
        total = sum(totient(d) * simple[d] for d in simple)
        assert total % (2 * n) == 0


# ---------------------------------------------------------------------------
# one build per sector column


def test_shared_builds_match_per_n_burnside_sums():
    for family, fixed_chain, rotation_fixed, cyclic in (
        ("loopless", loopless_fixed_chain, loopless_rotation_fixed, loopless_cyclic),
        ("simple", simple_fixed_chain, simple_rotation_fixed, simple_cyclic),
    ):
        totals = rotation_totals(fixed_chain, 60)
        table = cyclic(60)
        fixed_chain.built.clear()  # the per-n counts build their own, shorter chains
        for n in range(1, 61):
            fixed = rotation_fixed(n)
            total = sum(totient(d) * fixed[d] for d in fixed)
            assert totals[n] == total, (family, n)
            assert table[n] == total // (2 * n), (family, n)


def test_simple_cyclic_builds_each_sector_column_once(monkeypatch):
    built = Counter()
    original = symmetry.simple_sector_counts

    def counting(d, m_max, *args, **kwargs):
        built[d] += 1
        return original(d, m_max, *args, **kwargs)

    monkeypatch.setattr(symmetry, "simple_sector_counts", counting)
    simple_cyclic(60)
    assert built[2] == 1
    assert max(built.values()) == 1
