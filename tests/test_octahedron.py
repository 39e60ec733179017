import functools
import math

import pytest

from chordenum import diagram as diagram_module
from chordenum import octahedron
from chordenum.cli import main
from chordenum.diagram import DIHEDRAL, Diagram, canonical_code, classify, enumerate_matchings, offset_code
from chordenum.labelled import loopless_chord, loopless_linear
from chordenum.octahedron import (
    HamCycle,
    _canonical_walks,
    _pairing,
    count_cycles,
    cycle_to_diagram,
    diagram_to_cycle,
    list_cycles,
)
from chordenum.reflection import loopless_dihedral


def adjacent(u, v):
    """Octahedron adjacency: vertices 2i-1 and 2i form pair i, and only a pair is not an edge."""
    return (u + 1) // 2 != (v + 1) // 2


@functools.cache
def scan(n):
    """Each undirected Hamiltonian cycle, as a vertex tuple, by a plain scan.

    The spec of ``list_cycles``' order: from vertex 1, extend the path by
    each unused vertex 2..2n that ``adjacent`` allows, in ascending order,
    and keep a closed path whose second vertex is below its last.
    """
    m = 2 * n
    cycles = []
    path = [1]
    used = [False] * (m + 1)

    def extend():
        if len(path) == m:
            if adjacent(path[-1], 1) and path[1] < path[-1]:
                cycles.append(tuple(path))
            return
        for v in range(2, m + 1):
            if not used[v] and adjacent(path[-1], v):
                used[v] = True
                path.append(v)
                extend()
                path.pop()
                used[v] = False

    extend()
    return tuple(cycles)


def listed(n):
    return list_cycles(n)[2]


def test_unique_cycle_on_two_pairs():
    assert scan(2) == ((1, 3, 2, 4),)
    [(cycle, diagram)] = listed(2)
    assert cycle.vertices == (1, 3, 2, 4)
    assert cycle_to_diagram(cycle).chords() == [(1, 3), (2, 4)]
    assert diagram.chords() == [(1, 3), (2, 4)]


def test_no_cycles_on_one_pair():
    assert count_cycles(1) == (0, 0)


def test_counts_and_identity():
    b = loopless_chord(4)
    ct = loopless_dihedral(4)
    for n in range(1, 5):
        labelled, orbit = count_cycles(n)
        assert labelled * 4 * n == b[n] * 2**n * math.factorial(n)
        assert orbit == ct[n]
    assert count_cycles(3) == (16, 2)


def test_every_cycle_gives_a_loopless_diagram():
    for cycle, _ in listed(3):
        loops, _ = classify(cycle_to_diagram(cycle))
        assert loops == 0


def test_cycle_round_trip_preserves_canonical_forms():
    for n in (2, 3, 4):
        for cycle, _ in listed(n):
            diagram = cycle_to_diagram(cycle)
            back, labels = diagram_to_cycle(diagram)
            assert cycle_to_diagram(back) == diagram
            assert canonical_code(cycle_to_diagram(back), DIHEDRAL) == canonical_code(
                diagram, DIHEDRAL
            )
            assert sorted(labels) == list(range(1, 2 * n + 1))


def test_diagram_round_trip_is_identity():
    for n in (2, 3, 4):
        for diagram in enumerate_matchings(n):
            if classify(diagram)[0]:
                continue
            cycle, _ = diagram_to_cycle(diagram)
            assert cycle_to_diagram(cycle) == diagram


def test_loops_are_rejected():
    with pytest.raises(ValueError):
        diagram_to_cycle(Diagram.from_chords([(1, 2), (3, 4)]))


def test_malformed_input_to_the_bijection_is_refused():
    with pytest.raises(ValueError, match="dimension must be positive, got 0"):
        diagram_to_cycle(Diagram(()))
    for vertices in ((1, 2, 3), (), (1, 3, 3, 4), (1, 3, 2, 5)):
        with pytest.raises(ValueError, match="a cycle visits each of the vertices 1..2n once"):
            cycle_to_diagram(HamCycle(vertices))
    # every vertex once, but a step joins antipodes (the wrap step in the second): bad input, not exit 3
    for vertices in ((1, 2, 3, 4), (2, 3, 5, 4, 6, 1), (3, 1, 4, 2, 6, 5)):
        with pytest.raises(ValueError, match="a cycle never steps between antipodal vertices"):
            cycle_to_diagram(HamCycle(vertices))


def test_cap_is_enforced():
    with pytest.raises(ValueError):
        count_cycles(7)


def test_canonical_cycle_storage():
    c = HamCycle.canonical((3, 1, 4, 2))
    assert c.vertices == (1, 3, 2, 4)
    assert HamCycle.canonical((1, 4, 2, 3)).vertices == (1, 3, 2, 4)


def test_search_never_canonicalises(monkeypatch):
    calls = []
    real = HamCycle.canonical

    def counting(cls, seq):
        calls.append(seq)
        return real(seq)

    monkeypatch.setattr(HamCycle, "canonical", classmethod(counting))
    assert len(listed(4)) == 744
    assert count_cycles(4) == (744, 7)
    assert calls == []


def test_search_yields_each_cycle_in_canonical_form():
    for cycle, _ in listed(4):
        seq = cycle.vertices
        for s in range(len(seq)):
            rotated = seq[s:] + seq[:s]
            assert HamCycle.canonical(rotated) == cycle
            assert HamCycle.canonical(rotated[::-1]) == cycle


def test_search_yields_the_order_of_a_plain_adjacency_scan():
    for n in range(1, 6):
        assert tuple(cycle.vertices for cycle, _ in listed(n)) == scan(n)


def test_each_listed_cycle_carries_its_own_diagram():
    for n in range(1, 5):
        for cycle, diagram in listed(n):
            assert diagram == cycle_to_diagram(cycle)


def test_count_cycles_at_the_cap():
    assert count_cycles(6) == (6385920, 196)


def test_walks_are_the_labelled_loopless_diagrams():
    for n in range(1, 6):
        tables = [_pairing(walk) for walk, _ in _canonical_walks(n)]
        assert len(set(tables)) == len(tables)
        loopless = {d.pairing for d in enumerate_matchings(n) if classify(d)[0] == 0}
        assert set(tables) == loopless
        assert len(tables) == loopless_chord(5)[n]


def test_each_walk_enters_pairs_in_order_at_their_odd_vertex():
    for n in range(1, 6):
        for walk, _ in _canonical_walks(n):
            seq = walk.vertices
            assert sorted(seq) == list(range(1, 2 * n + 1))
            assert all(adjacent(u, v) for u, v in zip(seq, seq[1:] + seq[:1]))
            entries = [v for v in seq if all(adjacent(u, v) for u in seq[: seq.index(v)])]
            assert entries == [2 * pair - 1 for pair in range(1, n + 1)]
            assert HamCycle.canonical(seq) == walk


def test_count_cycles_equals_the_full_search_tally():
    # the spec: tally every labelled cycle the plain scan yields, one diagram per partner table
    for n in range(1, 6):
        labelled = 0
        diagrams = {}
        for labelled, seq in enumerate(scan(n), start=1):
            cycle = HamCycle(seq)
            pairing = _pairing(cycle)
            if pairing not in diagrams:
                diagrams[pairing] = cycle_to_diagram(cycle)
        codes = {canonical_code(diagram, DIHEDRAL) for diagram in diagrams.values()}
        walk_codes = {canonical_code(cycle_to_diagram(walk), DIHEDRAL) for walk, _ in _canonical_walks(n)}
        assert walk_codes == codes
        assert count_cycles(n) == (labelled, len(codes))


def test_each_walk_carries_the_offset_code_of_its_diagram():
    for n in range(1, 7):
        walks = _canonical_walks(n)
        assert [code for _, code in walks] == [bytes(offset_code(_pairing(walk))) for walk, _ in walks]


def test_orbit_count_is_the_number_of_dihedral_codes_of_the_walks():
    # up to the cap, where the full-search tally above is out of reach
    for n in range(1, 7):
        codes = {canonical_code(cycle_to_diagram(walk), DIHEDRAL) for walk, _ in _canonical_walks(n)}
        assert count_cycles(n)[1] == len(codes)


def test_a_code_with_a_loop_is_refused(loop_in_a_walk):
    for run in (count_cycles, list_cycles):
        with pytest.raises(AssertionError) as refused:
            run(3)
        assert refused.value.args == ("antipodal vertices were adjacent on the cycle",)


def test_a_walk_set_not_closed_under_the_symmetries_is_refused(monkeypatch, capsys):
    # the last walk at n = 4 is fixed by 4 of the 16 symmetries, so without it
    # the stabilisers sum to 7 * 16 - 4; the first is fixed by all 16
    monkeypatch.setattr(octahedron, "_canonical_walks", lambda n: _canonical_walks(n)[:-1])
    for run in (count_cycles, list_cycles):
        with pytest.raises(AssertionError, match="stabilisers sum to 108, which 16 does not divide"):
            run(4)
    assert main(["octahedron", "--n", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ")


def test_the_count_path_canonicalises_nothing(monkeypatch):
    # one mirror per walk for its stabiliser, and no least rotation of any code
    calls = {"mirrored": 0, "least shift": 0}
    mirrored, least_shift = diagram_module._mirrored, diagram_module._min_cyclic_shift

    def counting_mirrored(code):
        calls["mirrored"] += 1
        return mirrored(code)

    def counting_least_shift(seq):
        calls["least shift"] += 1
        return least_shift(seq)

    monkeypatch.setattr(diagram_module, "_mirrored", counting_mirrored)
    monkeypatch.setattr(diagram_module, "_min_cyclic_shift", counting_least_shift)
    assert count_cycles(5) == (56256, 29)
    assert calls == {"mirrored": 293, "least shift": 0}


def held_karp(n, starts):
    """Directed Hamiltonian paths from the given start vertices, by end vertex.

    Dynamic programming over (visited vertex set, end vertex), as in Held
    and Karp (1962); it shares no code with the scan or the walk.
    """
    m = 2 * n
    neighbours = [[w for w in range(m) if adjacent(v + 1, w + 1)] for v in range(m)]
    full = (1 << m) - 1
    ways = [[0] * m for _ in range(full + 1)]
    for start in starts:
        ways[1 << (start - 1)][start - 1] = 1
    for mask in range(full + 1):
        row = ways[mask]
        for v in range(m):
            if row[v]:
                for w in neighbours[v]:
                    if not mask >> w & 1:
                        ways[mask | 1 << w][w] += row[v]
    return {v + 1: ways[full][v] for v in range(m)}


def test_held_karp_paths_and_cycles():
    linear = loopless_linear(6)
    for n in range(1, 7):
        paths = sum(held_karp(n, range(1, 2 * n + 1)).values())
        assert paths == linear[n] * 2**n * math.factorial(n)  # the paper's claim for paths
        directed = sum(ways for end, ways in held_karp(n, [1]).items() if adjacent(end, 1))
        assert directed // 2 == count_cycles(n)[0] and directed % 2 == 0
