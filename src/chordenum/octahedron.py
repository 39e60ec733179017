"""Loopless chord diagrams as Hamiltonian cycles of cocktail-party graphs.

The n-dimensional octahedron (cocktail-party graph) has vertices 1..2n in
antipodal pairs (2i-1, 2i) and every edge except within pairs.  Drawing a
Hamiltonian cycle as a circle and joining the antipodal pairs by chords
yields a loopless chord diagram; the construction inverts exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .diagram import CIRCULAR, DIHEDRAL, Diagram, canonical_code, classify

CYCLE_CAP = 6


@dataclass(frozen=True)
class OctahedronGraph:
    n: int

    def antipode(self, v: int) -> int:
        return v + 1 if v % 2 else v - 1

    def adjacent(self, u: int, v: int) -> bool:
        return u != v and self.antipode(u) != v


@dataclass(frozen=True)
class HamCycle:
    """A Hamiltonian cycle stored as its least rotation/direction."""

    vertices: tuple[int, ...]

    @classmethod
    def canonical(cls, seq) -> "HamCycle":
        """Start at the least vertex and go towards its smaller neighbour."""
        seq = tuple(seq)
        s = seq.index(min(seq))
        forward = seq[s:] + seq[:s]
        return cls(min(forward, forward[:1] + forward[:0:-1]))


def hamiltonian_cycles(n: int):
    """Yield each undirected Hamiltonian cycle exactly once.

    The search starts every cycle at vertex 1 and keeps the orientation
    with the smaller second vertex, so each cycle comes once and already
    in the form ``HamCycle.canonical`` gives it.
    """
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    graph = OctahedronGraph(n)
    m = 2 * n
    # ascending neighbours other than the start vertex, and which vertices close the cycle
    neighbours = [()] + [
        tuple(v for v in range(2, m + 1) if graph.adjacent(u, v)) for u in range(1, m + 1)
    ]
    closes = [False] + [graph.adjacent(u, 1) for u in range(1, m + 1)]
    path = [1]
    used = [False] * (m + 1)
    used[1] = True

    def extend():
        if len(path) == m:
            if closes[path[-1]] and path[1] < path[-1]:
                yield HamCycle(tuple(path))
            return
        for v in neighbours[path[-1]]:
            if not used[v]:
                used[v] = True
                path.append(v)
                yield from extend()
                path.pop()
                used[v] = False

    yield from extend()


def _pairing(cycle: HamCycle) -> tuple[int, ...]:
    """Partner table whose chords join the positions of each antipodal pair."""
    seq = cycle.vertices
    m = len(seq)
    position = [0] * (m + 1)  # vertex -> its index along the cycle
    for i, v in enumerate(seq):
        position[v] = i
    pairing = [0] * m
    for i in range(1, m, 2):
        a, b = position[i], position[i + 1]
        pairing[a], pairing[b] = b, a
    return tuple(pairing)


def cycle_to_diagram(cycle: HamCycle) -> Diagram:
    """Chords join the positions of each antipodal pair along the cycle."""
    diagram = Diagram(_pairing(cycle), CIRCULAR)
    loops, _ = classify(diagram)
    if loops:
        raise AssertionError("antipodal vertices were adjacent on the cycle")
    return diagram


def diagram_to_cycle(diagram: Diagram) -> tuple[HamCycle, dict[int, int]]:
    """Invert the construction: the circle walk on a relabelled octahedron.

    The j-th chord (ordered by smaller endpoint) becomes the antipodal pair
    (2j-1, 2j), with the odd vertex on the smaller endpoint.  Returns the
    cycle and the induced labelling position -> vertex (1-based).
    """
    if diagram.topology != CIRCULAR:
        raise ValueError("only circular diagrams correspond to cycles")
    loops, _ = classify(diagram)
    if loops:
        raise ValueError("diagrams with loops have no corresponding cycle")
    labels = {}
    for j, (a, b) in enumerate(diagram.chords(), start=1):
        labels[a] = 2 * j - 1
        labels[b] = 2 * j
    seq = tuple(labels[i] for i in range(1, diagram.point_count + 1))
    return HamCycle.canonical(seq), labels


def _canonical_walks(n: int):
    """Yield the canonical walk of each orbit, as a cycle (see ``count_cycles``).

    Pair 1 is open from the start.  Each step either enters the next
    unentered pair at its odd vertex or closes an open pair other than the
    current vertex's at its even vertex, so no step joins antipodes.  The
    second vertex is 3 and the last is an even vertex of at least 4, so
    each walk is already in the form ``HamCycle.canonical`` gives it.
    """
    m = 2 * n
    path = [1]
    closed = [False] * (n + 1)

    def extend(entered):
        if len(path) == m:
            if path[-1] != 2:  # the last vertex must be adjacent to vertex 1
                yield HamCycle(tuple(path))
            return
        if entered < n:
            path.append(2 * entered + 1)
            yield from extend(entered + 1)
            path.pop()
        current = (path[-1] + 1) // 2
        for pair in range(1, entered + 1):
            if pair != current and not closed[pair]:
                closed[pair] = True
                path.append(2 * pair)
                yield from extend(entered)
                path.pop()
                closed[pair] = False

    yield from extend(1)


def _census(n: int) -> tuple[int, int, dict[tuple[int, ...], Diagram]]:
    """(labelled count, orbit count, partner table -> diagram) from the canonical walks."""
    if n > CYCLE_CAP:
        raise ValueError(f"n={n} exceeds the cycle enumeration cap {CYCLE_CAP}")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    diagrams = {}  # the walks give distinct partner tables, one per loopless diagram
    for cycle in _canonical_walks(n):
        diagram = cycle_to_diagram(cycle)
        diagrams[diagram.pairing] = diagram
    labelled = len(diagrams) * 2 ** (n - 1) * math.factorial(n - 1) // 2
    return labelled, len({canonical_code(diagram, DIHEDRAL) for diagram in diagrams.values()}), diagrams


def count_cycles(n: int) -> tuple[int, int]:
    """(labelled cycle count, orbit count under graph automorphisms), with no cycle search.

    Write each directed Hamiltonian cycle as its vertex sequence from
    vertex 1.  The pair relabellings that fix vertices 1 and 2 (any
    permutation of pairs 2..n, with or without a swap inside each) keep
    adjacency, so they map such sequences to such sequences.  There are
    2^(n-1) (n-1)! of them, and they act freely: a relabelling that fixes
    a sequence fixes each of its vertices, which are all vertices.  Each
    orbit holds exactly one sequence that enters pairs 2..n in increasing
    order, each at its odd vertex (name the pairs by first visit, the
    first-visited vertex odd), and ``_canonical_walks`` yields exactly
    those.  Each undirected cycle gives two directed ones, so the labelled
    count is walks * 2^(n-1) (n-1)! / 2.

    Read as positions, a walk is the loopless diagram it draws, labelled as
    ``diagram_to_cycle`` labels it; so the walks are the labelled loopless
    diagrams, and two cycles are isomorphic exactly when their diagrams
    share a dihedral canonical code.
    """
    labelled, orbits, _ = _census(n)
    return labelled, orbits


def list_cycles(n: int) -> tuple[int, int, list[tuple[HamCycle, Diagram]]]:
    """``count_cycles``' counts, and each Hamiltonian cycle in search order with its diagram.

    One search.  Each cycle takes its diagram from the walks' diagrams by
    partner table, so each diagram is built once.
    """
    labelled, orbits, diagrams = _census(n)
    cycles = []
    for cycle in hamiltonian_cycles(n):
        diagram = diagrams.get(_pairing(cycle))
        if diagram is None:
            path = "-".join(str(v) for v in cycle.vertices)
            raise AssertionError(f"cycle {path} has a partner table that no walk gives")
        cycles.append((cycle, diagram))
    return labelled, orbits, cycles
