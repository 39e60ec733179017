"""Loopless chord diagrams as Hamiltonian cycles of cocktail-party graphs.

The n-dimensional octahedron (cocktail-party graph) has vertices 1..2n in
antipodal pairs (2i-1, 2i) and every edge except within pairs.  Drawing a
Hamiltonian cycle as a circle and joining the antipodal pairs by chords
yields a loopless chord diagram; the construction inverts exactly.
"""

from __future__ import annotations

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


def cycle_diagrams(n: int):
    """Yield (cycle, diagram) for each Hamiltonian cycle, in search order.

    The diagram and its loop check come once per distinct partner table,
    from the first cycle that gives it; later cycles with that table share
    the same diagram object.
    """
    if n > CYCLE_CAP:
        raise ValueError(f"n={n} exceeds the cycle enumeration cap {CYCLE_CAP}")
    diagrams = {}
    for cycle in hamiltonian_cycles(n):
        pairing = _pairing(cycle)
        diagram = diagrams.get(pairing)
        if diagram is None:
            diagram = diagrams[pairing] = cycle_to_diagram(cycle)
        yield cycle, diagram


def tally_cycles(cycles) -> tuple[int, int]:
    """(labelled cycle count, orbit count under graph automorphisms) of ``cycle_diagrams`` pairs.

    Orbits are counted through the bijection: two cycles are isomorphic
    exactly when their diagrams share a dihedral canonical code, which
    comes once per distinct diagram.
    """
    labelled = 0
    diagrams = {}  # partner table -> diagram
    for labelled, (_, diagram) in enumerate(cycles, start=1):
        diagrams[diagram.pairing] = diagram
    return labelled, len({canonical_code(diagram, DIHEDRAL) for diagram in diagrams.values()})


def count_cycles(n: int) -> tuple[int, int]:
    """(labelled cycle count, orbit count under graph automorphisms), in one search."""
    return tally_cycles(cycle_diagrams(n))
