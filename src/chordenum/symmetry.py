"""Sector-symmetric diagram tables and rotation-fixed counts for both families.

A d-fold symmetric sectored diagram lives on m*d points cut into d sectors;
``loopless_sector_counts`` and ``simple_sector_counts`` tabulate them by m.
``*_fixed_chain`` turn one column into the counts of chord diagrams fixed by
a rotation of order d, for every size at once; ``*_rotation_fixed`` read
them per divisor, and ``rotation_totals`` sums them over the divisors, one
chain per d, for the ``*_cyclic`` orbit averages.  Each process keeps the
longest chain built so far per d, and the longest rotation sums per family,
and answers shorter requests with their prefix (``_kept_prefixes``); the
sector tables behind a chain are not kept.
"""

from __future__ import annotations

from functools import cached_property, wraps

from ._record import Record
from .labelled import SequenceTable, simple_chord


class RecurrenceValidationError(AssertionError):
    """A recurrence disagrees with exhaustive reference counts."""


def totient(m: int) -> int:
    result = m
    p = 2
    remaining = m
    while p * p <= remaining:
        if remaining % p == 0:
            while remaining % p == 0:
                remaining //= p
            result -= result // p
        p += 1
    if remaining > 1:
        result -= result // remaining
    return result


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def _kept_prefixes(build):
    """Serve ``build(*key, size)`` from the longest result built so far for ``key``.

    A chain is filled upward from entry 0, so entry m does not depend on how
    far it was built: a request for ``size`` gets the first size + 1 entries
    of a longer build (of each chain, when the result is a tuple of chains).
    A longer request builds again and replaces the entry.  An entry is
    stored only once its build has returned, so a build that fails
    validation stores nothing, and callers racing on one key can cost a
    rebuild but never a wrong entry.  ``built`` maps key -> (size, result).
    """
    built = {}

    @wraps(build)
    def serve(*args):
        key, size = args[:-1], args[-1]
        kept = built.get(key)
        if kept is None or kept[0] < size:
            kept = built[key] = (size, build(*args))
        return _prefix(kept[1], size)

    serve.built = built
    return serve


def _prefix(result: tuple, size: int) -> tuple:
    """Entries 0..size of a chain, or of each chain in a tuple of chains."""
    if result and isinstance(result[0], tuple):
        return tuple(chain[: size + 1] for chain in result)
    return result[: size + 1]


# ---------------------------------------------------------------------------
# Loopless family


def loopless_sector_counts(d: int, m_max: int) -> tuple[int, ...]:
    """Loopless d-sector diagrams with m*d points, for m = 0..m_max.

    Odd d:  value(m) = d(m-1) value(m-2) + value(m-4).
    Even d: value(m) = value(m-1) + d(m-1) value(m-2) - value(m-3) + value(m-4).
    """
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    even = d % 2 == 0
    initial = [1, 1 if even else 0, d if even else d - 1]
    values = initial[: m_max + 1]
    get = lambda m: values[m] if m >= 0 else 0
    for m in range(3, m_max + 1):
        value = d * (m - 1) * get(m - 2) + get(m - 4)
        if even:
            value += get(m - 1) - get(m - 3)
        values.append(value)
    return tuple(values)


@_kept_prefixes
def loopless_fixed_chain(d: int, m_max: int) -> tuple[int, ...]:
    """Loopless chord diagrams on m*d points fixed by a rotation of order d.

    Entry m holds the count for m = 0..m_max, from one sector column;
    entries with m*d odd describe no chord diagram and are never read.
    """
    counts = loopless_sector_counts(d, m_max)
    values = []
    for m in range(len(counts)):
        if d * m == 2:
            values.append(0)  # a single chord is always a loop
        else:
            values.append(counts[m] - (counts[m - 2] if m >= 2 else 0))
    return tuple(values)


def loopless_rotation_fixed(n: int) -> dict[int, int]:
    """Loopless chord diagrams fixed by each rotation order d | 2n."""
    return _fixed_by_divisor(loopless_fixed_chain, n)


def loopless_cyclic(n_max: int) -> SequenceTable:
    """Loopless chord diagrams up to rotation, by the divisor average."""
    return _rotation_average(rotation_totals(loopless_fixed_chain, n_max))


# ---------------------------------------------------------------------------
# Both families: Burnside sums over the rotations


def _fixed_by_divisor(fixed_chain, n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"chord count must be positive, got {n}")
    return {d: fixed_chain(d, 2 * n // d)[2 * n // d] for d in divisors(2 * n)}


@_kept_prefixes
def rotation_totals(fixed_chain, n_max: int) -> list[int]:
    """Burnside sums over the rotations, sum of phi(d) fix_d(n) over d | 2n.

    Entry n holds the sum for n = 0..n_max.  ``fixed_chain(d, m_max)`` is
    ``loopless_fixed_chain`` or ``simple_fixed_chain``; it is called once
    per d, so each sector column is built once for every n, and the whole
    sum costs O(n_max^2) table cells.
    """
    totals = [0] * (n_max + 1)
    for d in range(1, 2 * n_max + 1):
        m_max = 2 * n_max // d
        step = 1 if d % 2 == 0 else 2  # m*d = 2n is even
        if m_max < step:
            continue
        chain = fixed_chain(d, m_max)
        phi = totient(d)
        for m in range(step, m_max + 1, step):
            totals[d * m // 2] += phi * chain[m]
    return totals


def _rotation_average(totals: list[int]) -> SequenceTable:
    values = [1]
    for n in range(1, len(totals)):
        if totals[n] % (2 * n):
            raise ArithmeticError(f"rotation average is not integral at n={n}: {totals[n]}/{2 * n}")
        values.append(totals[n] // (2 * n))
    return SequenceTable(tuple(values))


# ---------------------------------------------------------------------------
# Simple family: the even-d table, with the term layout and validation
# harness it shares with the mirror table (``reflection``)

# A term (source, drow, dk, coeff) adds coeff(row, k, *args) times cell
# (row - drow, k + dk) of its source: "r", the table itself, or "s", the
# mirror's end-chord subset (``reflection.MIRROR_TERMS``).  dk is the shift
# the row kernels pass to ``_shifted``.  The factor d on the (2m + k - 7)
# term is a correction: the widely printed form omits it, which already fails
# the exhaustive reference at (d, m) = (2, 4) (8 instead of 9) and breaks the
# rotation averages from n = 5 on.  See docs/ERRATA.md.
EVEN_SECTOR_TERMS = (
    ("r", 1, -1, lambda m, k, d: 1),
    ("r", 2, 0, lambda m, k, d: (m - 1) * d - 3 + (1 if m == 2 else 0)),
    ("r", 3, 1, lambda m, k, d: (k + 1) * d),
    ("r", 4, 0, lambda m, k, d: (2 * m + k - 7) * d),
    ("r", 5, 1, lambda m, k, d: (k + 1) * d),
    ("r", 6, 0, lambda m, k, d: (m + k - 6) * d),
)

# Exhaustive-enumeration reference counts {(d, m): {k: count}} for simple
# d-sector diagrams split by k (k*d/2 chords joining opposite points).
# Regenerated from scratch by tests/test_symmetry.py.
EVEN_SECTOR_REFERENCE = {
    (2, 0): {0: 1},
    (2, 1): {1: 1},
    (2, 2): {2: 1},
    (2, 3): {1: 1, 3: 1},
    (2, 4): {0: 4, 2: 4, 4: 1},
    (2, 5): {1: 21, 3: 9, 5: 1},
    (2, 6): {0: 32, 2: 69, 4: 16, 6: 1},
    (2, 7): {1: 261, 3: 178, 5: 25, 7: 1},
    (4, 0): {0: 1},
    (4, 1): {1: 1},
    (4, 2): {0: 2, 2: 1},
    (4, 3): {1: 7, 3: 1},
    (4, 4): {0: 26, 2: 16, 4: 1},
    (4, 5): {1: 141, 3: 29, 5: 1},
    (4, 6): {0: 514, 2: 453, 4: 46, 6: 1},
}


def predicted_cell(tables: dict, row: int, k: int, terms, *args) -> int:
    """Cell (row, k) by a term set, reading each source's {(row, k): count} cells in ``tables``."""
    value = 0
    for source, drow, dk, coeff in terms:
        value += coeff(row, k, *args) * tables[source].get((row - drow, k + dk), 0)
    return value


def _term_problems(name: str, tables: dict, terms, args=(), boundary=()) -> list[str]:
    """Predict every cell k = 0..row of each reference row by ``terms``; describe each mismatch.

    ``tables`` maps each source to its reference {(row, k): count} cells.
    Row 0 and the ``boundary`` cells, which the recurrence does not produce,
    are skipped.  A message names every term's share, source(drow,dk)*coeff*cell.
    """
    problems = []
    for row in sorted({row for row, _ in tables["r"]}):
        for k in range(row + 1):
            if row == 0 or (row, k) in boundary:
                continue
            got = predicted_cell(tables, row, k, terms, *args)
            want = tables["r"].get((row, k), 0)
            if got != want:
                shares = ", ".join(
                    f"{source}({drow},{dk})*{coeff(row, k, *args)}*{tables[source].get((row - drow, k + dk), 0)}"
                    for source, drow, dk, coeff in terms
                )
                problems.append(
                    f"{name}={row} k={k}: recurrence gives {got}, enumeration gives {want} [terms: {shares}]"
                )
    return problems


def _check_tables(recurrence: str, name: str, problems: list[str], built: dict, reference: dict) -> None:
    """Raise ``RecurrenceValidationError`` with ``problems`` and every built cell the reference contradicts.

    ``built`` maps each source to its row lists, ``reference`` to its {(row, k): count} cells.
    """
    rows = sorted({row for row, _ in reference["r"]})
    for source, table in built.items():
        label = "table" if source == "r" else "end-chord table"
        problems = problems + [
            f"{name}={row} k={k}: {label} gives {got}, enumeration gives {reference[source].get((row, k), 0)}"
            for row in rows
            for k, got in enumerate(table[row])
            if got != reference[source].get((row, k), 0)
        ]
    if problems:
        raise RecurrenceValidationError(f"{recurrence} recurrence failed validation:\n" + "\n".join(problems))


def validate_even_sector_terms(d: int, reference: dict, terms=EVEN_SECTOR_TERMS) -> list[str]:
    """Check each reference row against the recurrence; return diagnostics.

    ``reference`` maps (m, k) to exhaustive counts; every cell k = 0..m of
    each row m >= 1 it holds is predicted from the cells below it and
    compared, a cell it leaves out counting 0.  An empty return means the
    term set reproduces the reference exactly.
    """
    return _term_problems(f"d={d} m", {"r": reference}, terms, (d,))


class SectorColumn(Record):
    """Simple d-sector counts: totals by m and, for even d, the split by diameter class.

    ``rows`` is ``_even_sector_rows`` (None for odd d); ``by_diameter``, its
    nonzero cells as an (m, k) -> count dict, is built on first read.
    """

    totals: tuple
    rows: list | None

    @cached_property
    def by_diameter(self) -> dict | None:
        return None if self.rows is None else _nonzero_cells(self.rows)


def _shifted(rows: list[list[int]], i: int, shift: int, width: int) -> list[int]:
    """Row i of a row-list table read at k + shift, for k = 0..width - 1; zero outside the table."""
    if i < 0:
        return [0] * width
    row = rows[i][shift:] if shift >= 0 else [0] * -shift + rows[i]
    return row + [0] * (width - len(row))


def _even_sector_rows(d: int, m_max: int) -> list[list[int]]:
    """Rows m = 0..m_max of the even-d table, row m holding k = 0..m.

    The same recurrence as ``EVEN_SECTOR_TERMS``, one row at a time: each
    term's source row m - drow is read at k + dk by ``_shifted``, with the
    offsets taken from the term table, and the six terms are summed inline.
    """
    rows = [[1]]
    for m in range(1, m_max + 1):
        width = m + 1
        below = (m - 1) * d - 3 + (1 if m == 2 else 0)
        rows.append([
            t1 + below * t2 + d * (
                (k + 1) * (t3 + t5)
                # factor d on (2m + k - 7): the correction in docs/ERRATA.md
                + (2 * m + k - 7) * t4
                + (m + k - 6) * t6
            )
            for k, (t1, t2, t3, t4, t5, t6) in enumerate(zip(*(
                _shifted(rows, m - drow, dk, width) for _, drow, dk, _ in EVEN_SECTOR_TERMS
            )))
        ])
    return rows


def simple_sector_counts(d: int, m_max: int) -> SectorColumn:
    """Simple d-sector diagrams with m*d points, for m = 0..m_max.

    For even d the table is built by diameter class k and validated
    against the embedded exhaustive reference before it is returned:
    the term set must reproduce every reference cell, and so must the
    built table.  A mismatch aborts with a per-cell diagnostic.
    """
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    if d % 2 == 1:
        values = [1, 0, d - 1][: m_max + 1]
        get = lambda m: values[m] if m >= 0 else 0
        for m in range(3, m_max + 1):
            values.append(
                ((m - 1) * d - 2) * get(m - 2)
                + (2 * m - 7) * d * get(m - 4)
                + (m - 6) * d * get(m - 6)
            )
        return SectorColumn(tuple(values), None)

    rows = _even_sector_rows(d, m_max)
    reference = {
        (m, k): count
        for (dd, m), split in EVEN_SECTOR_REFERENCE.items()
        if dd == d and m <= m_max
        for k, count in split.items()
    }
    if reference:
        problems = validate_even_sector_terms(d, reference, EVEN_SECTOR_TERMS)
        _check_tables("even-sector", f"d={d} m", problems, {"r": rows}, {"r": reference})
    return SectorColumn(tuple(sum(row) for row in rows), rows)


def _nonzero_cells(rows: list[list[int]]) -> dict[tuple[int, int], int]:
    """The (row, k) -> value cells of a row-list table that are not zero."""
    return {(i, k): value for i, row in enumerate(rows) for k, value in enumerate(row) if value}


# ---------------------------------------------------------------------------
# Simple family: gluing chains and rotation-fixed counts


def simple_sector_glueable(d: int, m_max: int) -> tuple[int, ...]:
    """d-sector diagrams that glue into loopless chord diagrams.

    Follows the alternating correction q(m) = totals(m) - q(m-2); the
    m < 2 entries are the boundary convention 1 for d > 2 and 0 otherwise.
    """
    totals = simple_sector_counts(d, m_max).totals
    seed = 1 if d > 2 else 0
    values = [seed, seed][: m_max + 1]
    for m in range(2, m_max + 1):
        values.append(totals[m] - values[m - 2])
    return tuple(values)


def _half_turn_fixed_chain(m_max: int) -> tuple[int, ...]:
    """Simple chord diagrams on 2m points fixed by the half turn, m = 0..m_max."""
    q = simple_sector_glueable(2, m_max)
    get_q = lambda m: q[m] if m >= 0 else 0
    p = [0, 1][: m_max + 1]
    for m in range(2, m_max + 1):
        p.append(get_q(m) - p[m - 2] - get_q(m - 4))
    f = [1, 0][: m_max + 1]
    for m in range(2, m_max + 1):
        f.append(p[m] - f[m - 2] - get_q(m - 1) + p[m - 1])
    return tuple(f)


@_kept_prefixes
def simple_fixed_chain(d: int, m_max: int) -> tuple[int, ...]:
    """Simple chord diagrams on m*d points fixed by a rotation of order d.

    Entry m holds the count for m = 0..m_max, from one sector column;
    entries with m*d odd describe no chord diagram and are never read.
    """
    if d == 1:
        chord = simple_chord(m_max // 2)
        return tuple(0 if m % 2 else chord[m // 2] for m in range(m_max + 1))
    if d == 2:
        return _half_turn_fixed_chain(m_max)
    q = simple_sector_glueable(d, m_max)
    get_q = lambda i: q[i] if i >= 0 else 0
    f = [0] * (m_max + 1)
    for m in range(1, m_max + 1):
        f[m] = get_q(m) - (f[m - 2] if m >= 2 else 0)
        if d % 2 == 0:
            f[m] -= get_q(m - 2) + get_q(m - 3)
    return tuple(f)


def simple_rotation_fixed(n: int) -> dict[int, int]:
    """Simple chord diagrams fixed by each rotation order d | 2n."""
    return _fixed_by_divisor(simple_fixed_chain, n)


def simple_cyclic(n_max: int) -> SequenceTable:
    """Simple chord diagrams up to rotation, by the divisor average."""
    return _rotation_average(rotation_totals(simple_fixed_chain, n_max))
