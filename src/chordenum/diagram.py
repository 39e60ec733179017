"""Chord and linear diagrams as fixed-point-free involutions.

A diagram on 2n points is stored as a partner table ``pairing`` indexed
0..2n-1 (``pairing[i]`` is the partner of point ``i``).  Points are
numbered 1..2n in all text I/O; the 0-based table is an internal detail.

The ``topology`` decides which consecutive points count as neighbours:

* ``CIRCULAR`` -- every gap, including the one between points 2n and 1;
* ``LINEAR``   -- the circular gaps minus (2n, 1);
* ``sectored(d)`` -- the circle cut into d sectors of m = 2n/d points
  each; every seam (jm, jm+1) is cut, including (2n, 1).

``sectored(1)`` therefore coincides with ``LINEAR``.
"""

from __future__ import annotations

import functools
import re

from ._record import Record

CIRCULAR = "circular"
LINEAR = "linear"

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"


def sectored(d: int):
    """Topology value for a diagram cut into d equal sectors."""
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    return ("sectored", d)


def topology_name(topology) -> str:
    if topology == CIRCULAR or topology == LINEAR:
        return topology
    kind, d = topology
    return f"sectored({d})"


def parse_topology(text: str):
    if text in (CIRCULAR, LINEAR):
        return text
    m = re.fullmatch(r"sectored\((\d+)\)", text)
    if m is None:
        raise ValueError(f"unknown topology {text!r}")
    return sectored(int(m.group(1)))


def gap_flags(point_count: int, topology) -> tuple[bool, ...]:
    """Whether points i and i+1 (cyclically, 0-based) are neighbours."""
    if topology == CIRCULAR:
        return (True,) * point_count
    if topology == LINEAR:
        topology = sectored(1)
    if type(topology) is not tuple or len(topology) != 2 or topology[0] != "sectored":
        raise ValueError(f"unknown topology {topology!r}")
    d = topology[1]
    if d < 1 or point_count % d != 0:
        raise ValueError(f"{d} sectors do not divide {point_count} points")
    m = point_count // d
    return tuple(i % m != m - 1 for i in range(point_count))


class Diagram(Record):
    """An immutable perfect matching on 2n points with a topology flag."""

    pairing: tuple[int, ...]
    topology: object = CIRCULAR

    def __post_init__(self):
        p = self.pairing
        m = len(p)
        if m % 2 != 0:
            raise ValueError(f"point count must be even, got {m}")
        for i, j in enumerate(p):
            if not 0 <= j < m or j == i or p[j] != i:
                raise ValueError("pairing is not a fixed-point-free involution")
        gap_flags(m, self.topology)  # validates the topology and sector divisibility

    @property
    def point_count(self) -> int:
        return len(self.pairing)

    @property
    def chord_count(self) -> int:
        return len(self.pairing) // 2

    @classmethod
    def from_chords(cls, chords, topology=CIRCULAR, point_count=None) -> "Diagram":
        """Build a diagram from 1-based chord pairs such as [(1, 3), (2, 4)]."""
        chords = list(chords)
        if point_count is None:
            point_count = 2 * len(chords)
        p = [-1] * point_count
        for a, b in chords:
            if not (1 <= a <= point_count and 1 <= b <= point_count):
                raise ValueError(f"chord ({a},{b}) out of range 1..{point_count}")
            p[a - 1], p[b - 1] = b - 1, a - 1
        if -1 in p:
            raise ValueError("chords do not cover every point")
        return cls(tuple(p), topology)

    def chords(self) -> list[tuple[int, int]]:
        """1-based chords, smaller endpoint first, sorted by smaller endpoint."""
        return [(i + 1, j + 1) for i, j in enumerate(self.pairing) if i < j]


def format_diagram(diagram: Diagram) -> str:
    body = ",".join(f"{a}-{b}" for a, b in diagram.chords())
    return f"n={diagram.chord_count};{topology_name(diagram.topology)};{body}"


def parse_diagram(text: str) -> Diagram:
    head, topo, body = text.split(";")
    n = int(head.removeprefix("n="))
    chords = []
    if body:
        for part in body.split(","):
            a, b = part.split("-")
            chords.append((int(a), int(b)))
    if len(chords) != n:
        raise ValueError(f"expected {n} chords, found {len(chords)}")
    return Diagram.from_chords(chords, parse_topology(topo), point_count=2 * n)


# ---------------------------------------------------------------------------
# Loop / parallel classification


def classify_pairing(pairing, flags) -> tuple[int, int]:
    """(loop count, parallel pair count) of a partner table under gap flags.

    One scan of the neighbour gaps (i, i+1): the gap holds a loop when its
    points are partners, and the two chords leaving it are parallel when
    their partners sit on a neighbour gap in reversed order.  Each parallel
    pair is met at both of its gaps; on 2 points the one chord fills both
    gaps.
    """
    m = len(pairing)
    loops = ends = 0
    for i in range(m):
        if flags[i]:
            j = (i + 1) % m
            a, b = pairing[i], pairing[j]
            if a == j:
                loops += 1
            elif flags[b] and (b + 1) % m == a:
                ends += 1
    return min(loops, m // 2), ends // 2


def classify(diagram: Diagram) -> tuple[int, int]:
    """Count loops and unordered parallel chord pairs of a diagram.

    A loop is a chord joining neighbouring points.  Two chords are a
    parallel pair when they do not cross and their endpoints are
    neighbours on both sides; a pair qualifying on both sides at once
    (possible only on 4 points) still counts once.  Pairs involving a
    loop are counted.
    """
    return classify_pairing(diagram.pairing, gap_flags(diagram.point_count, diagram.topology))


# ---------------------------------------------------------------------------
# Group actions and canonical codes


def rotation(point_count: int, shift: int) -> tuple[int, ...]:
    return tuple((i + shift) % point_count for i in range(point_count))


def vertex_reflection(point_count: int, axis_point: int = 0) -> tuple[int, ...]:
    """Reflection fixing ``axis_point`` and the opposite point."""
    return tuple((2 * axis_point - i) % point_count for i in range(point_count))


def edge_reflection(point_count: int, gap: int = 0) -> tuple[int, ...]:
    """Reflection through the midpoints of gap (gap, gap+1) and its opposite."""
    return tuple((2 * gap + 1 - i) % point_count for i in range(point_count))


def group_elements(kind: str, point_count: int) -> list[tuple[int, ...]]:
    """All elements of the cyclic (2n) or dihedral (4n) group as point maps.

    On 0 points both groups degenerate to the trivial group.
    """
    if kind not in (CYCLIC, DIHEDRAL):
        raise ValueError(f"unknown group kind {kind!r}")
    if point_count == 0:
        return [()]
    elements = [rotation(point_count, s) for s in range(point_count)]
    if kind == DIHEDRAL:
        half = point_count // 2
        elements += [vertex_reflection(point_count, p) for p in range(half)]
        elements += [edge_reflection(point_count, p) for p in range(half)]
    return elements


def act(diagram: Diagram, element: tuple[int, ...]) -> Diagram:
    """Relabel the points of a circular diagram by a group element."""
    if diagram.topology != CIRCULAR:
        raise ValueError("group actions are defined on circular diagrams only")
    p = diagram.pairing
    new = [0] * len(p)
    for i, j in enumerate(p):
        new[element[i]] = element[j]
    return Diagram(tuple(new), CIRCULAR)


def offset_code(pairing) -> tuple[int, ...]:
    m = len(pairing)
    return tuple((pairing[i] - i) % m for i in range(m))


def _min_cyclic_shift(seq):
    """Least cyclic shift of a tuple or bytes, of the same type.

    A least shift starts with the least entry, so only the shifts that
    start at one of its occurrences are compared.  On bytes it is the
    reference that the tests hold ``_is_least_rotation`` to.
    """
    m = len(seq)
    if m == 0:
        return seq
    low = min(seq)
    doubled = seq + seq
    return min([doubled[s:s + m] for s, x in enumerate(seq) if x == low])


@functools.cache
def _negation(m: int) -> bytes:
    """``bytes.translate`` table of x -> (m - x) mod m."""
    return bytes((m - x) % m for x in range(256))


def _mirrored(code):
    """Offset code of the mirror image i -> -i, of the type of ``code``: entry i is entry -i negated."""
    m = len(code)
    if isinstance(code, bytes):
        return (code[:1] + code[:0:-1]).translate(_negation(m)) if m else code
    return type(code)((m - code[-i]) % m for i in range(m))


def _is_least_rotation(code: bytes) -> bool:
    """Whether a code that starts at its least entry is its own least rotation.

    Only the rotations that start at that entry again, which ``bytes.find`` finds, can be less.
    """
    m, low, doubled = len(code), code[:1], code + code
    i = code.find(low, 1)
    while i > 0:
        if doubled[i:i + m] < code:
            return False
        i = code.find(low, i + 1)
    return True


def _stabiliser(code: bytes) -> tuple[int, bool]:
    """(period, achiral) of a nonempty code: the least shift s > 0 that maps it to itself,
    and whether its mirror image ``_mirrored(code)`` is one of its rotations."""
    doubled = code + code
    return doubled.find(code, 1), _mirrored(code) in doubled


def canonical_pairing_code(pairing, kind: str) -> tuple[int, ...]:
    """Lexicographically least offset sequence over all group images."""
    if kind not in (CYCLIC, DIHEDRAL):
        raise ValueError(f"unknown group kind {kind!r}")
    code = offset_code(pairing)
    best = _min_cyclic_shift(code)
    if kind == DIHEDRAL:
        best = min(best, _min_cyclic_shift(_mirrored(code)))
    return best


def canonical_code(diagram: Diagram, kind: str) -> tuple[int, ...]:
    if diagram.topology != CIRCULAR:
        raise ValueError("canonical codes are defined on circular diagrams only")
    return canonical_pairing_code(diagram.pairing, kind)


# ---------------------------------------------------------------------------
# Exhaustive enumeration


def enumerate_pairings(point_count: int):
    """Yield every partner table on the given points exactly once.

    The smallest free point is always paired with each larger partner in
    ascending order, which fixes the stream order.
    """
    if point_count % 2 != 0:
        raise ValueError(f"point count must be even, got {point_count}")
    p = [-1] * point_count

    def fill(start):
        a = start
        while a < point_count and p[a] != -1:
            a += 1
        if a == point_count:
            yield tuple(p)
            return
        for b in range(a + 1, point_count):
            if p[b] == -1:
                p[a], p[b] = b, a
                yield from fill(a + 1)
                p[a], p[b] = -1, -1

    yield from fill(0)


def enumerate_matchings(n: int, topology=CIRCULAR):
    """Yield the (2n-1)!! diagrams with n chords in a fixed order."""
    if n < 0:
        raise ValueError(f"chord count must be nonnegative, got {n}")
    for p in enumerate_pairings(2 * n):
        yield Diagram(p, topology)
