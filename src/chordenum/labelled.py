"""Labelled counting recurrences: sequences and triangles over exact integers.

Index conventions.  Sequences are indexed by chord count n from 0, with
the n = 0 entry fixed by the generating-function convention (0 for the
chord-diagram families, since gluing an empty diagram is not counted).
The simple-family triangle and the simple linear sequence carry an index
offset: entry n describes diagrams with n + 1 chords, mirroring the
classifier series ``wzx`` and ``W``.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._record import Record


def double_factorial(m: int) -> int:
    """Product of the odd numbers down from m; (-1)!! = 1 by convention."""
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double factorial defined for odd m >= -1, got {m}")
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


class SequenceTable(Record):
    """An integer sequence indexed by chord count from 0."""

    values: tuple

    def __getitem__(self, n: int) -> int:
        return self.values[n]

    def __len__(self) -> int:
        return len(self.values)


class TriangleTable(Record):
    """A count table kept by row; absent entries are 0.

    ``rows[n]`` maps the rest of each index ``(n, ...)`` to its count.
    """

    rows: tuple

    def row(self, n: int) -> dict:
        return self.rows[n] if 0 <= n < len(self.rows) else {}

    def value(self, n: int, *rest) -> int:
        return self.row(n).get(rest, 0)

    def row_total(self, n: int) -> int:
        return sum(self.row(n).values())

    @cached_property
    def entries(self) -> dict:
        """Every entry keyed by its full index ``(n, ...)``."""
        return {(n, *rest): v for n, row in enumerate(self.rows) for rest, v in row.items()}


# ---------------------------------------------------------------------------
# Loopless family


def loop_triangle(n_max: int) -> TriangleTable:
    """Linear diagrams with n chords counted by loop number k."""
    rows = [{(0,): 1}]
    for n in range(n_max):
        # row n zero-padded, prev[k + 1] = entry k, so every read below is in range
        prev = [0] * (n + 4)
        for (k,), v in rows[n].items():
            prev[k + 1] = v
        row = {}
        for k in range(n + 2):
            value = prev[k] + (2 * n - k) * prev[k + 1] + (k + 1) * prev[k + 2]
            if value:
                row[(k,)] = value
        rows.append(row)
    return TriangleTable(tuple(rows))


def loopless_linear(n_max: int) -> SequenceTable:
    """Loopless linear diagrams by the three-term recurrence."""
    values = [1, 0]
    for n in range(1, n_max):
        values.append((2 * n + 1) * values[n] + values[n - 1])
    return SequenceTable(tuple(values[: n_max + 1]))


def loopless_linear_binomial(n_max: int) -> SequenceTable:
    """Same sequence via the binomial-sum recurrence (independent route)."""
    values = [1]
    for n in range(n_max):
        acc = 2 * n * values[n]
        for k in range(1, n + 1):
            acc += math.comb(n, k) * double_factorial(2 * k - 3) * values[n - k]
        values.append(acc)
    return SequenceTable(tuple(values))


def loopless_chord(n_max: int) -> SequenceTable:
    """Loopless chord diagrams: the linear counts corrected for the glued gap."""
    a = loopless_linear(n_max)
    values = [0, 0]
    for n in range(2, n_max + 1):
        values.append(a[n] - a[n - 1])
    return SequenceTable(tuple(values[: n_max + 1]))


# ---------------------------------------------------------------------------
# Simple family


def loop_parallel_triangle(n_max: int) -> TriangleTable:
    """Linear diagrams with n+1 chords counted by loops k and parallel pairs l.

    Entry (n, k, l) covers n + 1 chords; k runs to n + 1 and l to n.
    """
    rows = [{(1, 0): 1}]
    for n in range(n_max):
        # row n zero-padded, prev[k + 1][l + 1] = entry (k, l), so every read below is in range
        prev = [[0] * (n + 4) for _ in range(n + 5)]
        for (k, l), v in rows[n].items():
            prev[k + 1][l + 1] = v
        row = {}
        for k in range(n + 3):
            below, here, above = prev[k], prev[k + 1], prev[k + 2]
            for l in range(n + 2):
                value = (
                    below[l + 1]
                    + (2 * n + 1 - k - 2 * l) * here[l + 1]
                    + (k + 1) * above[l + 1]
                    + 2 * (l + 1) * here[l + 2]
                    + here[l]
                )
                if value:
                    row[(k, l)] = value
        rows.append(row)
    return TriangleTable(tuple(rows))


def parallel_triangle(n_max: int) -> TriangleTable:
    """Linear diagrams with n+1 chords counted by parallel pairs l alone.

    The middle coefficient is 2n + 2 - 2l, the value forced by summing the
    two-parameter recurrence over the loop count; the variant with 2n + 1
    fails the row-sum check (rows must total (2n+1)!!) and the exhaustive
    classifier.
    """
    rows = [{(0,): 1}]
    for n in range(n_max):
        # row n zero-padded, prev[l + 1] = entry l, so every read below is in range
        prev = [0] * (n + 4)
        for (l,), v in rows[n].items():
            prev[l + 1] = v
        row = {}
        for l in range(n + 2):
            value = prev[l] + (2 * n + 2 - 2 * l) * prev[l + 1] + 2 * (l + 1) * prev[l + 2]
            if value:
                row[(l,)] = value
        rows.append(row)
    return TriangleTable(tuple(rows))


def simple_linear(n_max: int) -> SequenceTable:
    """Simple linear diagrams; entry n counts diagrams with n + 1 chords."""
    values = [0, 1]
    for n in range(2, n_max + 1):
        values.append(
            (2 * n - 1) * values[n - 1]
            + (4 * n - 3) * values[n - 2]
            + (2 * n - 4) * (values[n - 3] if n >= 3 else 0)
        )
    return SequenceTable(tuple(values[: n_max + 1]))


class SimpleChain(Record):
    """Simple linear counts and the two gluing corrections toward chord counts.

    ``no_end_chord[n]`` counts simple linear diagrams with n chords and no
    chord joining the two cut ends; ``chord[n]`` the simple chord diagrams.
    """

    linear: SequenceTable
    no_end_chord: SequenceTable
    chord: SequenceTable


def simple_chain(n_max: int) -> SimpleChain:
    linear = simple_linear(n_max)
    q = [0]
    b = [0]
    for n in range(1, n_max + 1):
        q.append(linear[n - 1] - q[n - 1])
        b.append(q[n] - b[n - 1])
    return SimpleChain(
        linear=linear,
        no_end_chord=SequenceTable(tuple(q)),
        chord=SequenceTable(tuple(b)),
    )


def simple_chord(n_max: int) -> SequenceTable:
    return simple_chain(n_max).chord
