import pytest

from chordenum import reflection, symmetry
from chordenum.diagram import (
    classify_pairing,
    edge_reflection,
    gap_flags,
    sectored,
)
from chordenum.golden import LOOPLESS_TABLE, SIMPLE_TABLE
from chordenum.reflection import (
    MIRROR_REFERENCE,
    MIRROR_TERMS,
    build_mirror_tables,
    loopless_axes,
    loopless_dihedral,
    simple_axes,
    simple_dihedral,
    validate_mirror_terms,
)
from chordenum.symmetry import (
    RecurrenceValidationError,
    loopless_cyclic,
    loopless_rotation_fixed,
    simple_cyclic,
    simple_rotation_fixed,
    totient,
)

from fixed_matchings import enumerate_invariant_pairings


def enumerate_mirror_counts(n):
    """Exhaustive mirror-table row: simple 2n-point sectored(2) diagrams fixed
    by the reflection through the midpoints of the two cut gaps, split by the
    number of self-paired chords (second map: those with the end chord)."""
    pts = 2 * n
    if n == 0:
        return {0: 1}, {}
    sigma = edge_reflection(pts, n - 1)
    flags = gap_flags(pts, sectored(2))
    r_split, s_split = {}, {}
    for p in enumerate_invariant_pairings(pts, sigma):
        loops, parallels = classify_pairing(p, flags)
        if loops or parallels:
            continue
        k = sum(1 for i in range(pts) if p[i] == sigma[i]) // 2
        r_split[k] = r_split.get(k, 0) + 1
        if p[0] == pts - 1:
            s_split[k] = s_split.get(k, 0) + 1
    return r_split, s_split


# ---------------------------------------------------------------------------
# loopless family


def test_loopless_axis_sequences():
    vertex, edge = loopless_axes(7)
    assert vertex == (0, 0, 1, 2, 5, 17, 56, 223)
    assert edge[:5] == (0, 0, 1, 2, 9)
    # the n = 2 edge-axis value is 1, not 0: required by enumeration and by
    # integrality of the dihedral average
    assert edge[2] == 1


def test_loopless_axes_match_oracle(sweeps):
    vertex, edge = loopless_axes(6)
    for n, sweep in sweeps.items():
        assert sweep.count(("reflection", "vertex"), "loopless") == vertex[n]
        assert sweep.count(("reflection", "edge"), "loopless") == edge[n]


def test_loopless_dihedral_against_published_column():
    table = loopless_dihedral(20)
    for n in range(1, 21):
        assert table[n] == LOOPLESS_TABLE[n][3]


def test_loopless_dihedral_matches_oracle(sweeps):
    table = loopless_dihedral(6)
    for n, sweep in sweeps.items():
        assert sweep.count("dihedral", "loopless") == table[n]


# ---------------------------------------------------------------------------
# mirror tables for the simple family


def test_mirror_reference_regenerates():
    for n, (r_ref, s_ref) in MIRROR_REFERENCE.items():
        r_got, s_got = enumerate_mirror_counts(n)
        assert r_got == r_ref, n
        assert s_got == s_ref, n


def test_mirror_tables_validate_and_match_reference():
    tables = build_mirror_tables(9)
    assert [sum(tables.rows[n]) for n in range(8)] == [1, 1, 1, 4, 11, 37, 140, 557]
    assert tables.counts.get((7, 3)) == 95  # 14-point regression value
    assert tables.counts.get((2, 0)) == 1  # boundary override
    assert tables.counts.get((1, 1)) == 1 and tables.end_chord.get((1, 1)) == 1
    # end-chord counts never exceed the full mirror counts
    for key, value in tables.end_chord.items():
        assert value <= tables.counts.get(key, 0)


def test_mirror_row_totals_equal_a_scan_over_the_cells():
    tables = build_mirror_tables(30)
    assert len(tables.rows) == len(tables.end_chord_rows) == 31
    for n in range(31):
        assert sum(tables.rows[n]) == sum(v for (nn, _), v in tables.counts.items() if nn == n)
        assert sum(tables.end_chord_rows[n]) == sum(
            v for (nn, _), v in tables.end_chord.items() if nn == n
        )


def test_mirror_recurrence_rejects_wrong_coefficients(monkeypatch):
    broken = tuple(
        (table, dn, dk, (lambda n, k: 2 * n - 5) if i == 1 else fn)
        for i, (table, dn, dk, fn) in enumerate(MIRROR_TERMS)
    )
    monkeypatch.setattr(reflection, "MIRROR_TERMS", broken)
    with pytest.raises(RecurrenceValidationError) as failure:
        build_mirror_tables(7)
    # the first wrong cell, with every term's share source(dn,dk)*coeff*cell
    assert (
        "mirror n=3 k=1: recurrence gives 3, enumeration gives 4 [terms: s(0,0)*1*1, r(2,0)*1*1,"
        " s(2,0)*1*1, r(4,0)*-4*0, r(3,-1)*0*1, r(5,-1)*0*0, r(6,0)*-8*0]"
    ) in str(failure.value).splitlines()


def reference_mirror_tables(n_max: int) -> tuple[dict, dict]:
    """(counts, end_chord) cell by cell through the term set: the spec the row kernel must equal."""
    r = {(0, 0): 1}
    s = {}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            value = r.get((n - 1, k - 1), 0) - s.get((n - 1, k - 1), 0)
            if value:
                s[(n, k)] = value
        for k in range(n + 1):
            value = symmetry.predicted_cell({"r": r, "s": s}, n, k, MIRROR_TERMS)
            if value:
                r[(n, k)] = value
        if n == 2:
            r[(2, 0)] = 1
    return r, s


def test_mirror_rows_equal_the_term_set_beyond_the_reference():
    counts, end_chord = reference_mirror_tables(60)
    tables = build_mirror_tables(60)
    assert tables.counts == counts
    assert tables.end_chord == end_chord


def test_the_mirror_terms_reproduce_the_reference():
    assert validate_mirror_terms(MIRROR_REFERENCE) == []


def test_a_drifted_mirror_cell_fails_validation(monkeypatch):
    build = reflection._mirror_rows

    def drifted():
        for n, (r, s) in enumerate(build()):
            yield [cell + (n == 4 and k == 2) for k, cell in enumerate(r)], s

    monkeypatch.setattr(reflection, "_mirror_rows", drifted)
    with pytest.raises(RecurrenceValidationError, match=r"mirror n=4 k=2: table gives 6"):
        build_mirror_tables(7)


def test_split_coefficients_are_pinned_by_enumeration():
    # the two published sub-cases of the (n-4, k) term share one offset, so
    # enumeration pins their sum: an affine fit over reference cells must
    # give 2(2n - k - 7) exactly
    reference = {}
    for n, (r_ref, _) in MIRROR_REFERENCE.items():
        for k, v in r_ref.items():
            reference[(n, k)] = v
    s_reference = {}
    for n, (_, s_ref) in MIRROR_REFERENCE.items():
        for k, v in s_ref.items():
            s_reference[(n, k)] = v
    seen = 0
    for (n, k), want in sorted(reference.items()):
        if n < 4 or (n, k) == (2, 0):
            continue
        source = reference.get((n - 4, k), 0)
        if not source:
            continue
        rest = 0
        for table, dn, dk, coeff in MIRROR_TERMS:
            if dn == 4 and table == "r":
                continue
            lookup = reference if table == "r" else s_reference
            rest += coeff(n, k) * lookup.get((n - dn, k + dk), 0)
        numerator = want - rest
        assert numerator % source == 0
        assert numerator // source == 2 * (2 * n - k - 7)
        seen += 1
    assert seen >= 3


def test_simple_axis_sequences():
    vertex, edge = simple_axes(7)
    assert vertex == (0, 0, 1, 1, 3, 10, 34, 130)
    assert edge == (0, 0, 1, 1, 5, 20, 78, 324)


def test_simple_axes_match_oracle(sweeps):
    vertex, edge = simple_axes(6)
    for n, sweep in sweeps.items():
        assert sweep.count(("reflection", "vertex"), "simple") == vertex[n]
        assert sweep.count(("reflection", "edge"), "simple") == edge[n]


def test_simple_dihedral_against_published_column():
    table = simple_dihedral(20)
    for n in range(1, 21):
        assert table[n] == SIMPLE_TABLE[n][3]


def test_simple_dihedral_matches_oracle(sweeps):
    table = simple_dihedral(6)
    for n, sweep in sweeps.items():
        assert sweep.count("dihedral", "simple") == table[n]


# ---------------------------------------------------------------------------
# structural sanity


def test_dihedral_averages_divisible_up_to_40():
    # the builders assert integrality internally; a completed call is the check
    loopless_dihedral(40)
    simple_dihedral(40)


def test_reflections_at_most_halve_orbit_counts():
    cyclic = loopless_cyclic(40)
    dihedral = loopless_dihedral(40)
    for n in range(2, 41):
        assert dihedral[n] <= cyclic[n] <= 2 * dihedral[n]
    cyclic = simple_cyclic(40)
    dihedral = simple_dihedral(40)
    for n in range(2, 41):
        assert dihedral[n] <= cyclic[n] <= 2 * dihedral[n]


# ---------------------------------------------------------------------------
# one build per table


def test_shared_builds_match_per_n_burnside_sums():
    for family, rotation_fixed, axes, dihedral in (
        ("loopless", loopless_rotation_fixed, loopless_axes, loopless_dihedral),
        ("simple", simple_rotation_fixed, simple_axes, simple_dihedral),
    ):
        vertex, edge = axes(60)
        table = dihedral(60)
        for chain in (symmetry.loopless_fixed_chain, symmetry.simple_fixed_chain):
            chain.built.clear()  # the per-n counts build their own, shorter chains
        for n in range(1, 61):
            fixed = rotation_fixed(n)
            total = sum(totient(d) * fixed[d] for d in fixed) + n * vertex[n] + n * edge[n]
            assert total % (4 * n) == 0, (family, n)
            assert table[n] == total // (4 * n), (family, n)


def test_simple_dihedral_builds_the_mirror_tables_once(fresh_chains, yielded_rows):
    requests = [lambda: simple_dihedral(40), lambda: simple_axes(25), lambda: simple_dihedral(60), lambda: simple_axes(10)]
    for order in (requests, requests[::-1]):
        fresh_chains()
        yielded_rows.clear()
        for request in order:
            request()
        mirror = {key: count for key, count in yielded_rows.items() if key[0] == "_mirror_rows"}
        assert mirror == {("_mirror_rows", n): 1 for n in range(61)}


def test_loopless_cyclic_and_axes_build_each_sector_column_once(fresh_chains, yielded_rows):
    # loopless_dihedral calls both, so it builds the 2-sector column twice on purpose
    for build in (loopless_cyclic, loopless_axes):
        for sizes in ((50, 30, 60), (60, 30, 50)):
            fresh_chains()
            yielded_rows.clear()
            for size in sizes:
                build(size)
            column = {key: count for key, count in yielded_rows.items() if key[0] == "_loopless_column"}
            assert column[("_loopless_column", 2, 60)] == 1, build.__name__
            assert set(column.values()) == {1}, build.__name__
