import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chordenum import oracle
from chordenum.diagram import (
    CIRCULAR,
    CYCLIC,
    DIHEDRAL,
    LINEAR,
    Diagram,
    _is_least_rotation,
    _min_cyclic_shift,
    _mirrored,
    _stabiliser,
    act,
    canonical_code,
    canonical_pairing_code,
    classify,
    classify_pairing,
    edge_reflection,
    enumerate_matchings,
    enumerate_pairings,
    format_diagram,
    gap_flags,
    group_elements,
    offset_code,
    parse_diagram,
    rotation,
    sectored,
    vertex_reflection,
)

from fixed_matchings import enumerate_invariant_pairings


def double_fact(m):
    return math.prod(range(m, 0, -2)) if m > 0 else 1


# ---------------------------------------------------------------------------
# construction and validation


def test_rejects_odd_point_count():
    with pytest.raises(ValueError):
        Diagram((0,) * 1)


def test_rejects_fixed_points_and_non_involutions():
    with pytest.raises(ValueError):
        Diagram((0, 1))  # fixed points
    with pytest.raises(ValueError):
        Diagram((1, 0, 3, 3))


def test_rejects_bad_sector_count():
    with pytest.raises(ValueError):
        Diagram((1, 0, 3, 2), sectored(3))
    with pytest.raises(ValueError, match="0 sectors do not divide 0 points"):
        Diagram((), ("sectored", 0))


@pytest.mark.parametrize("topology", ["nonsense", ("bogus", 2)])
@pytest.mark.parametrize("pairing", [(), (1, 0)])
def test_rejects_unknown_topology_even_without_chords(pairing, topology):
    with pytest.raises(ValueError, match="unknown topology"):
        Diagram(pairing, topology)


def test_from_chords_round_trip():
    d = Diagram.from_chords([(1, 3), (2, 4)], LINEAR)
    assert d.pairing == (2, 3, 0, 1)
    assert d.chords() == [(1, 3), (2, 4)]


def test_text_form_round_trip():
    for topology in (CIRCULAR, LINEAR, sectored(2), sectored(3)):
        for d in enumerate_matchings(3, topology):
            assert parse_diagram(format_diagram(d)) == d


def test_text_form_example():
    d = Diagram.from_chords([(1, 3), (2, 4)])
    assert format_diagram(d) == "n=2;circular;1-3,2-4"


# ---------------------------------------------------------------------------
# adjacency and classification


def test_gap_flags_topologies():
    assert gap_flags(6, CIRCULAR) == (True,) * 6
    assert gap_flags(6, LINEAR) == (True,) * 5 + (False,)
    assert gap_flags(6, sectored(3)) == (True, False, True, False, True, False)
    assert gap_flags(6, sectored(6)) == (False,) * 6


def test_sectored_one_equals_linear():
    for m in (2, 4, 6, 8):
        assert gap_flags(m, sectored(1)) == gap_flags(m, LINEAR)


def test_classify_examples():
    assert classify(Diagram.from_chords([(1, 3), (2, 4)], CIRCULAR)) == (0, 0)
    assert classify(Diagram.from_chords([(1, 4), (2, 3)], LINEAR)) == (1, 1)
    assert classify(Diagram.from_chords([(1, 2), (3, 4)], CIRCULAR)) == (2, 1)


def pairwise_classify(pairing, flags):
    """The definition taken literally: every chord, then every pair of chords."""
    m = len(pairing)
    chords = [(i, j) for i, j in enumerate(pairing) if i < j]

    def adjacent(a, b):  # a < b
        return (b == a + 1 and flags[a]) or (a == 0 and b == m - 1 and flags[m - 1])

    def crossing(a, b, c, d):
        return (a < c < b < d) or (c < a < d < b)

    loops = sum(1 for a, b in chords if adjacent(a, b))
    parallels = 0
    for idx, (a, b) in enumerate(chords):
        for c, d in chords[idx + 1:]:
            if crossing(a, b, c, d):
                continue
            if (adjacent(*sorted((a, c))) and adjacent(*sorted((b, d)))) or (
                adjacent(*sorted((a, d))) and adjacent(*sorted((b, c)))
            ):
                parallels += 1
    return loops, parallels


def test_gap_scan_matches_the_pairwise_definition():
    for n in range(7):
        flag_sets = [gap_flags(2 * n, t) for t in (CIRCULAR, LINEAR)]
        flag_sets += [gap_flags(2 * n, sectored(d)) for d in (2, 3) if (2 * n) % d == 0]
        for p in enumerate_pairings(2 * n):
            for flags in flag_sets:
                assert classify_pairing(p, flags) == pairwise_classify(p, flags), (p, flags)


def test_loop_monotonicity_across_topologies():
    # circular adjacency contains linear contains sectored
    for n in range(1, 5):
        flag_sets = [gap_flags(2 * n, CIRCULAR), gap_flags(2 * n, LINEAR)]
        flag_sets += [gap_flags(2 * n, sectored(d)) for d in range(2, 2 * n + 1) if (2 * n) % d == 0]
        for p in enumerate_pairings(2 * n):
            loops = [classify_pairing(p, flags)[0] for flags in flag_sets]
            assert loops[0] >= loops[1]
            assert all(loops[1] >= l for l in loops[2:])


# ---------------------------------------------------------------------------
# group actions


def test_act_rejects_non_circular():
    d = Diagram.from_chords([(1, 3), (2, 4)], LINEAR)
    with pytest.raises(ValueError):
        act(d, rotation(4, 1))
    with pytest.raises(ValueError):
        canonical_code(d, CYCLIC)


def test_act_examples():
    d = Diagram.from_chords([(1, 3), (2, 4)])
    assert act(d, rotation(4, 1)).chords() == [(1, 3), (2, 4)]
    assert act(d, rotation(4, 0)) == d
    d2 = Diagram.from_chords([(1, 2), (3, 4)])
    assert act(d2, rotation(4, 1)).chords() == [(1, 4), (2, 3)]


def test_act_is_a_group_action():
    elements = group_elements(DIHEDRAL, 8)
    for d in list(enumerate_matchings(4))[::7]:
        assert act(d, rotation(8, 0)) == d
        for g in elements[::3]:
            for h in elements[::5]:
                composed = tuple(g[h[i]] for i in range(8))
                assert act(act(d, h), g) == act(d, composed)


def test_classify_invariant_under_action():
    for n in (2, 3, 4):
        elements = group_elements(DIHEDRAL, 2 * n)
        for d in enumerate_matchings(n):
            reference = classify(d)
            for g in elements:
                assert classify(act(d, g)) == reference


def test_group_sizes():
    assert len(group_elements(CYCLIC, 8)) == 8
    assert len(group_elements(DIHEDRAL, 8)) == 16
    with pytest.raises(ValueError):
        group_elements("frieze", 8)


# ---------------------------------------------------------------------------
# canonical codes


def test_canonical_code_examples():
    assert canonical_code(Diagram.from_chords([(1, 2), (3, 4)]), CYCLIC) == (1, 3, 1, 3)
    assert canonical_code(Diagram.from_chords([(1, 3), (2, 4)]), CYCLIC) == (2, 2, 2, 2)
    # rotation by one maps {1,4},{2,3} to {1,2},{3,4}: equal codes
    a = canonical_code(Diagram.from_chords([(1, 4), (2, 3)]), DIHEDRAL)
    b = canonical_code(Diagram.from_chords([(1, 2), (3, 4)]), DIHEDRAL)
    assert a == b


def test_an_unknown_group_kind_is_refused():
    d = Diagram.from_chords([(1, 3), (2, 4)])
    for least in (lambda: canonical_code(d, "bogus"), lambda: canonical_pairing_code(d.pairing, "bogus")):
        with pytest.raises(ValueError, match="unknown group kind 'bogus'"):
            least()


def naive_canonical_code(d, kind):
    images = [act(d, g) for g in group_elements(kind, d.point_count)]
    return min(offset_code(im.pairing) for im in images)


def test_canonical_code_matches_definition():
    for n in (1, 2, 3, 4):
        for d in enumerate_matchings(n):
            for kind in (CYCLIC, DIHEDRAL):
                assert canonical_code(d, kind) == naive_canonical_code(d, kind)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), max_size=10), st.booleans())
@example([1, 3, 1, 3], False)
@example([1, 3, 1, 3], True)
@example([2, 1, 2, 1, 1, 2, 1], True)
@example([1, 1, 1], False)
@example([], False)
@example([], True)
def test_least_shift_is_the_least_of_all_shifts(entries, as_bytes):
    # a small alphabet makes periodic sequences and repeated minima common
    seq = bytes(entries) if as_bytes else tuple(entries)
    every_shift = [seq[s:] + seq[:s] for s in range(len(seq))]
    assert _min_cyclic_shift(seq) == min(every_shift, default=seq)
    assert type(_min_cyclic_shift(seq)) is type(seq)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=10))
@example([1, 2, 1, 2])
@example([1, 2, 1, 1, 2])
@example([1, 1, 2, 1, 1, 2, 1])
@example([1, 3, 1, 2])
@example([2, 2, 2])
@example([1])
def test_least_rotation_and_stabiliser_match_brute_force(entries):
    # a small alphabet makes periodic codes and repeated minima common; the
    # code is rotated to start at its least entry, as the chord-placing pass's are
    s = entries.index(min(entries))
    code = bytes(entries[s:] + entries[:s])
    m = len(code)
    rotations = [code[i:] + code[:i] for i in range(m)]
    assert _is_least_rotation(code) == (_min_cyclic_shift(code) == code)
    period = next(q for q in range(1, m + 1) if rotations[q % m] == code)
    mirror = bytes((m - code[-i]) % m for i in range(m))
    assert _stabiliser(code) == (period, mirror in rotations)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(lambda n: st.permutations(range(2 * n))), st.booleans())
@example([], False)
@example([], True)
def test_mirrored_code_is_the_code_of_the_mirror_image(order, as_bytes):
    # consecutive entries of a point order are the chords of a random matching
    pairing = [0] * len(order)
    for a, b in zip(order[::2], order[1::2]):
        pairing[a], pairing[b] = b, a
    code = bytes(offset_code(pairing)) if as_bytes else offset_code(pairing)
    image = act(Diagram(tuple(pairing)), vertex_reflection(len(pairing), 0)).pairing
    assert _mirrored(code) == type(code)(offset_code(image))
    assert type(_mirrored(code)) is type(code)


def test_canonical_code_separates_orbits_exactly():
    # equal codes iff same orbit, checked exhaustively
    for n in range(6):
        for kind in (CYCLIC, DIHEDRAL):
            by_code = {}
            for d in enumerate_matchings(n):
                by_code.setdefault(canonical_code(d, kind), set()).add(d.pairing)
            for code, members in by_code.items():
                seed = next(iter(members))
                orbit = {
                    act(Diagram(seed), g).pairing
                    for g in group_elements(kind, 2 * n)
                }
                assert members == orbit


# ---------------------------------------------------------------------------
# enumeration


def test_matching_counts_are_double_factorials():
    for n in range(8):
        count = sum(1 for _ in enumerate_pairings(2 * n))
        assert count == double_fact(2 * n - 1)


def test_enumeration_order_is_fixed():
    first = [d.chords() for d in enumerate_matchings(3)]
    assert first[0] == [(1, 2), (3, 4), (5, 6)]
    assert first[1] == [(1, 2), (3, 5), (4, 6)]
    assert first[-1] == [(1, 6), (2, 5), (3, 4)]


def test_invariant_enumeration_matches_filtering():
    for n in range(6):
        m = 2 * n
        elements = group_elements(DIHEDRAL, m) if m else [()]
        # every class representative the oracle's fixed counts are built from
        representatives = [element for element, _ in oracle._classes(n).values()]
        everything = list(enumerate_pairings(m))
        for g in elements[:: max(1, len(elements) // 6)] + representatives:
            fixed = sorted(
                p for p in everything if all(p[g[i]] == g[j] for i, j in enumerate(p))
            )
            assert sorted(enumerate_invariant_pairings(m, g)) == fixed


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_offsets_shift_under_rotation(n, data):
    # property behind the fast canonical code
    everything = list(enumerate_pairings(2 * n))
    p = data.draw(st.sampled_from(everything))
    s = data.draw(st.integers(min_value=0, max_value=2 * n - 1))
    rotated = act(Diagram(p), rotation(2 * n, s)).pairing
    o = offset_code(p)
    expected = tuple(o[(i - s) % (2 * n)] for i in range(2 * n))
    assert offset_code(rotated) == expected


def test_reflection_formulas_fix_expected_points():
    sigma = vertex_reflection(8, 0)
    assert sigma[0] == 0 and sigma[4] == 4
    tau = edge_reflection(8, 7)
    assert tau[7] == 0 and tau[3] == 4
