"""Reflection-fixed counts and dihedral orbit averages for both families.

Two reflection axis types exist on 2n points: through two opposite points
(vertex axis) or through two opposite gap midpoints (edge axis).  The
loopless counts come straight from the 2-sector column; the simple counts
need the mirror-symmetric table built here.  Both families' axes are kept
per process, as the rotation chains are (``symmetry._kept_prefixes``).
"""

from __future__ import annotations

from functools import cached_property

from ._record import Record
from .labelled import SequenceTable
from .symmetry import (
    RecurrenceValidationError,
    _kept_prefixes,
    _nonzero_cells,
    _shifted,
    loopless_cyclic,
    loopless_sector_counts,
    simple_cyclic,
    simple_rotation_fixed,  # noqa: F401  perfbench's tracer test checks this from-import binding
)


# ---------------------------------------------------------------------------
# Loopless family


@_kept_prefixes
def loopless_axes(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(vertex, edge): diagrams fixed by each reflection type, from one 2-sector column.

    Vertex axis (point-through-point): equals the 2-sector count one step
    down: the forced axis chord is removed and the halves unfold.  On 2
    points the axis chord is itself a loop, so the n = 1 value is 0 rather
    than the unfolded 1.

    Edge axis (gap-through-gap): inclusion-exclusion over the two seams of
    the unfolded diagram.  Note the value at n = 2 is 1 (the crossing of
    the two diameters); claims of 0 there fail both exhaustive enumeration
    and the dihedral average at n = 2 -- see docs/ERRATA.md.
    """
    col = loopless_sector_counts(2, n_max)
    vertex = [0, 0]
    edge = [0, 0]
    for n in range(2, n_max + 1):
        vertex.append(col[n - 1])
        edge.append(col[n] - 2 * col[n - 1] + col[n - 2])
    return tuple(vertex[: n_max + 1]), tuple(edge[: n_max + 1])


def loopless_dihedral(n_max: int) -> SequenceTable:
    """Loopless chord diagrams up to rotation and reflection, from ``loopless_cyclic`` and the axes."""
    return _dihedral_average(loopless_cyclic(n_max), *loopless_axes(n_max))


def _dihedral_average(cyclic, vertex, edge) -> SequenceTable:
    """Burnside average over the 4n symmetries, reduced to (2 cyclic + vertex + edge) / 4.

    The 2n rotations fix 2n * cyclic[n] diagrams in all; each axis type has n reflections.
    """
    values = [1]
    for n in range(1, len(cyclic)):
        total = 2 * cyclic[n] + vertex[n] + edge[n]
        if total % 4:
            raise ArithmeticError(f"dihedral average is not integral at n={n}: {total}/4")
        values.append(total // 4)
    return SequenceTable(tuple(values))


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


class MirrorTables(Record):
    """Simple mirror-symmetric cut diagrams by self-paired chord count.

    ``rows[n][k]`` is the number of simple diagrams on 2n points, cut at
    the gaps (2n, 1) and (n, n+1), fixed by the reflection through those
    two gap midpoints, with k chords mapped to themselves, k = 0..n;
    ``end_chord_rows[n][k]`` the subset containing the chord {1, 2n}.  The
    views ``counts`` and ``end_chord`` (nonzero cells by (n, k)) are built on first read.
    """

    rows: list
    end_chord_rows: list

    @cached_property
    def counts(self) -> dict:
        return _nonzero_cells(self.rows)

    @cached_property
    def end_chord(self) -> dict:
        return _nonzero_cells(self.end_chord_rows)


def _predicted_mirror_cell(r, s, n, k) -> int:
    value = 0
    for table, dn, dk, coeff in MIRROR_TERMS:
        source = r if table == "r" else s
        value += coeff(n, k) * source.get((n - dn, k - dk), 0)
    return value


def validate_mirror_terms(reference: dict) -> list[str]:
    """Check each reference row against ``MIRROR_TERMS``; return diagnostics.

    ``reference`` is ``MIRROR_REFERENCE`` or a part of it.  Every main-table
    cell with n >= 1 is predicted from the reference cells below it (and
    the end-chord cells of its own row) and compared; the boundary cell
    (2, 0), which the recurrence does not produce, is skipped.  An empty
    return means the term set reproduces the reference exactly.
    """
    r = {(n, k): v for n, (r_ref, _) in reference.items() for k, v in r_ref.items()}
    s = {(n, k): v for n, (_, s_ref) in reference.items() for k, v in s_ref.items()}
    problems = []
    for n in sorted(reference):
        for k in range(n + 1):
            if n == 0 or (n, k) == (2, 0):  # the boundary cells
                continue
            got = _predicted_mirror_cell(r, s, n, k)
            want = r.get((n, k), 0)
            if got != want:
                problems.append(f"mirror terms n={n} k={k}: recurrence gives {got}, enumeration gives {want}")
    return problems


def _mirror_rows(n_max: int) -> tuple[list[list[int]], list[list[int]]]:
    """(r, s): rows n = 0..n_max of the mirror and end-chord tables, row n holding k = 0..n.

    End-chord cells first, s(n, k) = r(n-1, k-1) - s(n-1, k-1); then the
    main row by the same recurrence as ``MIRROR_TERMS``: each term's source
    row n - dn is read at k - dk by ``symmetry._shifted``.  The
    boundary cells (0,0) and (2,0) are set to 1 (the recurrence itself
    yields 0 at n = 2).
    """
    r = [[1]]
    s = [[0]]
    for n in range(1, n_max + 1):
        width = n + 1
        s_row = [above - end for above, end in zip(
            _shifted(r, n - 1, -1, width), _shifted(s, n - 1, -1, width))]
        s.append(s_row)
        r.append([
            t0 + 2 * (n - 2) * t1 + t2
            + 2 * (2 * n - k - 7) * t3
            + 2 * (k - 1) * (t4 + t5)
            + 2 * (n - k - 6) * t6
            for k, (t0, t1, t2, t3, t4, t5, t6) in enumerate(zip(
                s_row, _shifted(r, n - 2, 0, width), _shifted(s, n - 2, 0, width),
                _shifted(r, n - 4, 0, width), _shifted(r, n - 3, -1, width),
                _shifted(r, n - 5, -1, width), _shifted(r, n - 6, 0, width),
            ))
        ])
        if n == 2:
            r[2][0] = 1
    return r, s


def build_mirror_tables(n_max: int) -> MirrorTables:
    """Build the mirror tables row by row and validate against the reference.

    ``MIRROR_TERMS`` must reproduce every reference cell up to n_max, and
    so must the built tables; a mismatch aborts with a per-cell diagnostic.
    """
    r_rows, s_rows = _mirror_rows(n_max)
    reference = {n: split for n, split in MIRROR_REFERENCE.items() if n <= n_max}
    problems = validate_mirror_terms(reference)
    for n, refs in reference.items():
        for label, rows, ref in zip(("mirror count", "end-chord count"), (r_rows, s_rows), refs):
            problems += [
                f"{label} n={n} k={k}: recurrence {got}, enumeration {ref.get(k, 0)}"
                for k, got in enumerate(rows[n]) if got != ref.get(k, 0)
            ]
    if problems:
        raise RecurrenceValidationError(
            "mirror recurrence failed validation:\n" + "\n".join(problems)
        )
    return MirrorTables(rows=r_rows, end_chord_rows=s_rows)


@_kept_prefixes
def simple_axes(n_max: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(vertex, edge): simple diagrams fixed by each reflection type, from one mirror build.

    Vertex axis: simple diagrams fixed by a point-through-point reflection.
    Edge axis: simple diagrams fixed by a gap-through-gap reflection, taken
    as the mirror diagrams that stay simple after gluing both seams: strip
    those with an end chord on either seam, then remove the ones that would
    turn a mirrored chord pair into a parallel pair.
    """
    tables = build_mirror_tables(n_max)
    totals = [sum(row) for row in tables.rows]
    end_chord_totals = [sum(row) for row in tables.end_chord_rows]
    vertex = [0, 0]
    loopless_glued = [0, 0]
    for n in range(2, n_max + 1):
        vertex.append(totals[n - 1] - vertex[n - 2])
        loopless_glued.append(totals[n] - 2 * end_chord_totals[n] + loopless_glued[n - 2])
    edge = [0] + [loopless_glued[n] - vertex[n - 1] for n in range(1, n_max + 1)]
    return tuple(vertex[: n_max + 1]), tuple(edge)


def simple_dihedral(n_max: int) -> SequenceTable:
    """Simple chord diagrams up to rotation and reflection, from ``simple_cyclic`` and the axes."""
    return _dihedral_average(simple_cyclic(n_max), *simple_axes(n_max))
