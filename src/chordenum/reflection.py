"""Reflection-fixed counts and dihedral orbit averages for both families.

Two reflection axis types exist on 2n points: through two opposite points
(vertex axis) or through two opposite gap midpoints (edge axis).  The
loopless counts come straight from the 2-sector column; the simple counts
need the mirror-symmetric table built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .labelled import SequenceTable
from .symmetry import (
    RecurrenceValidationError,
    loopless_chain_from_column,
    loopless_fixed_chain,
    loopless_sector_counts,
    rotation_totals,
    simple_fixed_chain,
    simple_rotation_fixed,  # noqa: F401  perfbench's tracer test checks this from-import binding
)


# ---------------------------------------------------------------------------
# Loopless family


def _loopless_axes(col, n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex- and edge-axis counts for n = 0..n_max from the 2-sector column."""
    vertex = [0, 0]
    edge = [0, 0]
    for n in range(2, n_max + 1):
        vertex.append(col[n - 1])
        edge.append(col[n] - 2 * col[n - 1] + col[n - 2])
    return tuple(vertex[: n_max + 1]), tuple(edge[: n_max + 1])


def loopless_vertex_axis(n_max: int) -> tuple[int, ...]:
    """Diagrams fixed by a point-through-point reflection, by chord count.

    Equals the 2-sector count one step down: the forced axis chord is
    removed and the halves unfold.  On 2 points the axis chord is itself
    a loop, so the n = 1 value is 0 rather than the unfolded 1.
    """
    return _loopless_axes(loopless_sector_counts(2, n_max), n_max)[0]


def loopless_edge_axis(n_max: int) -> tuple[int, ...]:
    """Diagrams fixed by a gap-through-gap reflection, by chord count.

    Inclusion-exclusion over the two seams of the unfolded diagram.  Note
    the value at n = 2 is 1 (the crossing of the two diameters); claims
    of 0 there fail both exhaustive enumeration and the dihedral average
    at n = 2 -- see docs/ERRATA.md.
    """
    return _loopless_axes(loopless_sector_counts(2, n_max), n_max)[1]


def loopless_dihedral(n_max: int) -> SequenceTable:
    """Loopless chord diagrams up to rotation and reflection.

    Computed both as the closed combination with the cyclic average and as
    the explicit group average; the two must agree and be integral.
    """
    col = loopless_sector_counts(2, n_max)
    half_turn = loopless_chain_from_column(2, col)  # the d = 2 chain rotation_totals asks for
    rotation = rotation_totals(
        lambda d, m_max: half_turn if d == 2 else loopless_fixed_chain(d, m_max), n_max
    )
    table = _dihedral_average("loopless-dihedral", rotation, *_loopless_axes(col, n_max))
    for n in range(2, n_max + 1):
        closed_numerator = 2 * rotation[n] // (2 * n) + col[n] - col[n - 1] + col[n - 2]
        if closed_numerator % 4 or closed_numerator // 4 != table[n]:
            raise ArithmeticError(
                f"closed dihedral form disagrees at n={n}: "
                f"{closed_numerator}/4 vs {table[n]}"
            )
    return table


def _dihedral_average(name: str, rotation, vertex, edge) -> SequenceTable:
    """Burnside average over the 4n symmetries: 2n rotations, n reflections per axis type."""
    values = [1]
    for n in range(1, len(rotation)):
        total = rotation[n] + n * vertex[n] + n * edge[n]
        if total % (4 * n):
            raise ArithmeticError(f"dihedral average is not integral at n={n}: {total}/{4 * n}")
        values.append(total // (4 * n))
    return SequenceTable(name, tuple(values))


# ---------------------------------------------------------------------------
# Simple family: the mirror-symmetric table with its validation harness

# Term layout: (table, dn, dk, coeff); the term contributes
# coeff(n, k) * table[n - dn, k - dk], where table "r" is the mirror table
# itself and "s" its end-chord subset.
MIRROR_TERMS = (
    ("s", 0, 0, lambda n, k: 1),
    ("r", 2, 0, lambda n, k: 2 * (n - 2)),
    ("s", 2, 0, lambda n, k: 1),
    ("r", 4, 0, lambda n, k: 2 * (2 * n - k - 7)),
    ("r", 3, 1, lambda n, k: 2 * (k - 1)),
    ("r", 5, 1, lambda n, k: 2 * (k - 1)),
    ("r", 6, 0, lambda n, k: 2 * (n - k - 6)),
)

# Exhaustive reference {n: ({k: r count}, {k: end-chord count})}, regenerated
# by tests/test_reflection.py.
MIRROR_REFERENCE = {
    0: ({0: 1}, {}),
    1: ({1: 1}, {1: 1}),
    2: ({0: 1}, {}),
    3: ({1: 4}, {1: 1}),
    4: ({0: 6, 2: 5}, {2: 3}),
    5: ({1: 35, 3: 2}, {1: 6, 3: 2}),
    6: ({0: 58, 2: 82}, {2: 29}),
    7: ({1: 462, 3: 95}, {1: 58, 3: 53}),
}


@dataclass(frozen=True)
class MirrorTables:
    """Simple mirror-symmetric cut diagrams by self-paired chord count.

    ``counts[(n, k)]`` is the number of simple diagrams on 2n points, cut
    at the gaps (2n, 1) and (n, n+1), fixed by the reflection through
    those two gap midpoints, with k chords mapped to themselves;
    ``end_chord[(n, k)]`` the subset containing the chord {1, 2n}.
    """

    counts: dict
    end_chord: dict

    def row_total(self, n: int) -> int:
        return self._totals[0].get(n, 0)

    def end_chord_total(self, n: int) -> int:
        return self._totals[1].get(n, 0)

    @cached_property
    def _totals(self) -> tuple[dict[int, int], dict[int, int]]:
        """Row sums of ``counts`` and ``end_chord``, one pass over each on first use."""
        totals: tuple[dict[int, int], dict[int, int]] = ({}, {})
        for cells, by_row in zip((self.counts, self.end_chord), totals):
            for (n, _), value in cells.items():
                by_row[n] = by_row.get(n, 0) + value
        return totals


def _predicted_mirror_cell(r, s, n, k, terms=MIRROR_TERMS) -> int:
    value = 0
    for table, dn, dk, coeff in terms:
        source = r if table == "r" else s
        value += coeff(n, k) * source.get((n - dn, k - dk), 0)
    return value


def build_mirror_tables(n_max: int, terms=MIRROR_TERMS) -> MirrorTables:
    """Build the mirror tables row by row and validate against the reference.

    The end-chord rows alternate off the main table; the main rows follow
    the seven-term recurrence with the boundary cells (0,0) and (2,0) set
    to 1 (the recurrence itself yields 0 at n = 2).
    """
    r = {(0, 0): 1}
    s: dict[tuple[int, int], int] = {}
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            value = r.get((n - 1, k - 1), 0) - s.get((n - 1, k - 1), 0)
            if value:
                s[(n, k)] = value
        for k in range(n + 1):
            value = _predicted_mirror_cell(r, s, n, k, terms)
            if value:
                r[(n, k)] = value
        if n == 2:
            r[(2, 0)] = 1
    problems = []
    for n, (r_ref, s_ref) in MIRROR_REFERENCE.items():
        if n > n_max:
            continue
        for k in range(n + 1):
            got = r.get((n, k), 0)
            want = r_ref.get(k, 0)
            if got != want:
                problems.append(f"mirror count n={n} k={k}: recurrence {got}, enumeration {want}")
            got = s.get((n, k), 0)
            want = s_ref.get(k, 0)
            if got != want:
                problems.append(f"end-chord count n={n} k={k}: recurrence {got}, enumeration {want}")
    if problems:
        raise RecurrenceValidationError(
            "mirror recurrence failed validation:\n" + "\n".join(problems)
        )
    return MirrorTables(counts=r, end_chord=s)


def _simple_axes(tables: MirrorTables, n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Vertex- and edge-axis counts for n = 0..n_max from mirror tables built to n_max.

    The edge axis takes the mirror diagrams that stay simple after gluing
    both seams: strip those with an end chord on either seam, then remove
    the ones that would turn a mirrored chord pair into a parallel pair.
    """
    vertex = [0, 0]
    loopless_glued = [0, 0]
    for n in range(2, n_max + 1):
        vertex.append(tables.row_total(n - 1) - vertex[n - 2])
        loopless_glued.append(
            tables.row_total(n) - 2 * tables.end_chord_total(n) + loopless_glued[n - 2]
        )
    edge = [0] + [loopless_glued[n] - vertex[n - 1] for n in range(1, n_max + 1)]
    return tuple(vertex[: n_max + 1]), tuple(edge)


def simple_vertex_axis(n_max: int) -> tuple[int, ...]:
    """Simple diagrams fixed by a point-through-point reflection."""
    return _simple_axes(build_mirror_tables(n_max), n_max)[0]


def simple_edge_axis(n_max: int) -> tuple[int, ...]:
    """Simple diagrams fixed by a gap-through-gap reflection."""
    return _simple_axes(build_mirror_tables(n_max), n_max)[1]


def simple_dihedral(n_max: int) -> SequenceTable:
    """Simple chord diagrams up to rotation and reflection."""
    rotation = rotation_totals(simple_fixed_chain, n_max)
    return _dihedral_average(
        "simple-dihedral", rotation, *_simple_axes(build_mirror_tables(n_max), n_max)
    )
