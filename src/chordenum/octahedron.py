"""Loopless chord diagrams as Hamiltonian cycles of cocktail-party graphs.

The n-dimensional octahedron (cocktail-party graph) has vertices 1..2n in
antipodal pairs (2i-1, 2i) and every edge except within pairs.  Drawing a
Hamiltonian cycle as a circle and joining the antipodal pairs by chords
yields a loopless chord diagram; the construction inverts exactly.
The counts read each walk's offset code, whose period and mirror test are
``diagram._stabiliser``; only the listing builds diagrams.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._record import Record
from .diagram import CIRCULAR, Diagram, _stabiliser, classify

CYCLE_CAP = 6
# --list holds every cycle: 56,256 at n = 5 in about 50 MB, 6,385,920 at n = 6
LIST_CAP = 5


class HamCycle(Record):
    """A Hamiltonian cycle stored as its least rotation/direction."""

    vertices: tuple[int, ...]

    @classmethod
    def canonical(cls, seq) -> "HamCycle":
        """Start at the least vertex and go towards its smaller neighbour."""
        seq = tuple(seq)
        s = seq.index(min(seq))
        forward = seq[s:] + seq[:s]
        return cls(min(forward, forward[:1] + forward[:0:-1]))


def _pairing(cycle: HamCycle) -> tuple[int, ...]:
    """Partner table whose chords join the positions of each antipodal pair."""
    position = {v: i for i, v in enumerate(cycle.vertices)}
    return tuple(position[((v - 1) ^ 1) + 1] for v in cycle.vertices)  # the antipode of v


def cycle_to_diagram(cycle: HamCycle) -> Diagram:
    """Chords join the positions of each antipodal pair; ``ValueError`` if it is no octahedron cycle."""
    m = len(cycle.vertices)
    if not m or m % 2 or sorted(cycle.vertices) != list(range(1, m + 1)):
        raise ValueError(f"a cycle visits each of the vertices 1..2n once, n > 0; got {cycle.vertices}")
    diagram = Diagram(_pairing(cycle), CIRCULAR)
    if classify(diagram)[0]:
        raise ValueError(f"a cycle never steps between antipodal vertices; got {cycle.vertices}")
    return diagram


def diagram_to_cycle(diagram: Diagram) -> tuple[HamCycle, dict[int, int]]:
    """Invert the construction: the circle walk on a relabelled octahedron.

    The j-th chord (ordered by smaller endpoint) becomes the antipodal pair
    (2j-1, 2j), with the odd vertex on the smaller endpoint.  Returns the
    cycle and the induced labelling position -> vertex (1-based).
    """
    if diagram.topology != CIRCULAR:
        raise ValueError("only circular diagrams correspond to cycles")
    if not diagram.pairing:
        raise ValueError("dimension must be positive, got 0")
    if classify(diagram)[0]:
        raise ValueError("diagrams with loops have no corresponding cycle")
    labels = {}
    for j, (a, b) in enumerate(diagram.chords(), start=1):
        labels[a], labels[b] = 2 * j - 1, 2 * j
    seq = tuple(labels[i] for i in range(1, diagram.point_count + 1))
    return HamCycle.canonical(seq), labels


def _canonical_walks(n: int) -> list[tuple[HamCycle, bytes]]:
    """The canonical walk of each orbit, as a cycle with its offset code (see ``count_cycles``).

    Pair 1 is open from the start.  Each step either enters the next
    unentered pair at its odd vertex or closes an open pair other than the
    current vertex's at its even vertex, so no step joins antipodes.  The
    second vertex is 3 and the last is an even vertex of at least 4, so
    each walk is already in the form ``HamCycle.canonical`` gives it.
    The pair entered at position a and closed at i is the chord (a, i): it
    writes i - a at a and m - (i - a) at i of ``offset_code(_pairing(walk))``.
    """
    m = 2 * n
    path = [1]
    entry = [0] * (n + 1)  # pair -> the position of its odd vertex while it is open, else -1
    code = bytearray(m)
    walks = []

    def extend(entered):
        i = len(path)
        if i == m:
            if path[-1] != 2:  # the last vertex must be adjacent to vertex 1
                walks.append((HamCycle(tuple(path)), bytes(code)))
            return
        if entered < n:
            entry[entered + 1] = i
            path.append(2 * entered + 1)
            extend(entered + 1)
            path.pop()
        current = (path[-1] + 1) // 2
        for pair in range(1, entered + 1):
            a = entry[pair]
            if pair != current and a >= 0:
                entry[pair] = -1
                code[a], code[i] = i - a, m - i + a
                path.append(2 * pair)
                extend(entered)
                path.pop()
                entry[pair] = a

    extend(1)
    return walks


def _tally(n: int) -> tuple[int, int, list[tuple[HamCycle, bytes]]]:
    """(labelled count, orbit count, the canonical walks with their codes), read from the codes."""
    if n > CYCLE_CAP:
        raise ValueError(f"n={n} exceeds the cycle enumeration cap {CYCLE_CAP}")
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    walks = _canonical_walks(n)
    fixed = 0  # the walks' stabilisers in the dihedral group of the 2n points, summed
    for _, code in walks:
        if 1 in code:  # a chord on neighbouring positions, the wrap included
            raise AssertionError("antipodal vertices were adjacent on the cycle")
        period, achiral = _stabiliser(code)  # 2n // period rotations fix it, as many reflections if achiral
        fixed += 2 * n // period * (2 if achiral else 1)
    orbits, rest = divmod(fixed, 4 * n)
    if rest:
        raise AssertionError(f"the walks' stabilisers sum to {fixed}, which {4 * n} does not divide")
    return len(walks) * 2 ** (n - 1) * math.factorial(n - 1) // 2, orbits, walks


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
    diagrams, and the cycle orbits are their dihedral orbits.  No diagram or
    canonical code is built: an entry 1 in a code would be a loop, and by
    Burnside the orbits are the codes' stabilisers (``_tally``) over 4n.
    """
    return _tally(n)[:2]


def list_cycles(n: int) -> tuple[int, int, list[tuple[HamCycle, Diagram]]]:
    """``count_cycles``' counts, and each Hamiltonian cycle in search order with its diagram.

    No search: the relabellings that fix vertices 1 and 2 act freely on
    the directed cycles written from vertex 1, one walk per orbit (see
    ``count_cycles``), so their images of the walks are each such cycle
    exactly once.  An undirected cycle is two of them, one each way round,
    and keeping the image whose second vertex is smaller than its last
    keeps it once, in the form ``HamCycle.canonical`` gives it.  A search
    from vertex 1 over ascending neighbours, depth first, would yield the
    cycles in lexicographic order of their vertices, so sorting the images
    gives the search order.  A relabelling moves no position, so each
    image draws its walk's diagram, read once per walk off its offset code:
    the partner of position i is i + o[i] mod m.
    """
    if LIST_CAP < n <= CYCLE_CAP:  # above CYCLE_CAP, _tally gives its own refusal
        raise ValueError(f"n={n} exceeds the cycle listing cap {LIST_CAP}; the counts alone go to {CYCLE_CAP}")
    labelled, orbits, walks = _tally(n)
    m = 2 * n
    relabellings = [  # each relabelling as a table vertex -> image
        [0, 1, 2] + [v for pair, swap in zip(order, swaps) for v in (2 * pair - 1 + swap, 2 * pair - swap)]
        for order in itertools.permutations(range(2, n + 1))
        for swaps in itertools.product((0, 1), repeat=n - 1)
    ]
    images = []
    for walk, code in walks:
        diagram = Diagram(tuple((i + o) % m for i, o in enumerate(code)), CIRCULAR)
        second, last = walk.vertices[1], walk.vertices[-1]
        relabel = operator.itemgetter(*walk.vertices)  # a walk has at least four vertices
        images += [(relabel(image), diagram) for image in relabellings if image[second] < image[last]]
    images.sort(key=operator.itemgetter(0))
    return labelled, orbits, [(HamCycle(seq), diagram) for seq, diagram in images]
