"""Sector-symmetric diagram tables and rotation-fixed counts for both families.

A d-fold symmetric sectored diagram lives on m*d points cut into d sectors;
``loopless_sector_counts`` and ``simple_sector_counts`` tabulate them by m.
``*_fixed_chain`` turn one column into the counts of chord diagrams fixed by
a rotation of order d, for every size at once; ``*_rotation_fixed`` read
them per divisor, and ``rotation_totals`` sums them over the divisors, one
chain per d, for the ``*_cyclic`` orbit averages.  Each process keeps the
chains per d and the rotation sums per family (``_kept_streams``).  A
chain is one generator that reads its sector column's kernel directly,
so a kept key holds two generators, the chain and the kernel; a request
longer than any before it resumes where the last one stopped and each row
of the even-d table is built once per process; a shorter request reads a
prefix.  The memory is the kept entries plus fixed windows: a generator
holds the values its recurrence reads back, a row kernel the last 7 rows.
"""

from __future__ import annotations

from _thread import allocate_lock  # threading's Lock, without importing threading
from functools import cached_property, wraps
from itertools import chain, count, islice

from ._record import Record
from .labelled import SequenceTable


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


def _kept_streams(start):
    """Serve entries 0..size of one sequence per key, each entry computed once per process.

    ``start(*key)`` is called on the first request for ``key``.  It returns
    an iterator over all the entries (a generator function is decorated
    directly), or ``more(have, size)``, which returns entries have..size.
    ``serve(*key, size)`` asks it only for the entries past those kept, so
    a longer request resumes where the last one stopped and a shorter one
    gets a prefix; entries that are tuples are served as a tuple of chains.
    If that raises, the key is dropped with all it kept and the next
    request starts afresh, so nothing half-built is served.  One lock per
    store serialises the requests: callers racing on one key wait for each
    other, and never resume one generator twice or get a wrong entry.
    ``built`` maps key -> (entries, iterator or more).
    """
    built = {}
    lock = allocate_lock()

    @wraps(start)
    def serve(*args):
        key, size = args[:-1], args[-1]
        with lock:
            if key not in built:
                built[key] = [], start(*key)
            entries, more = built[key]
            have = len(entries)
            if have <= size:
                try:
                    entries += more(have, size) if callable(more) else islice(more, size + 1 - have)
                except BaseException:
                    del built[key]
                    raise
            served = entries[: size + 1]
        return tuple(zip(*served)) if served and isinstance(served[0], tuple) else tuple(served)

    serve.built = built
    return serve


# ---------------------------------------------------------------------------
# Loopless family


def _loopless_column(d: int):
    """Loopless d-sector counts for m = 0, 1, 2, ...

    Odd d:  value(m) = d(m-1) value(m-2) + value(m-4).
    Even d: value(m) = value(m-1) + d(m-1) value(m-2) - value(m-3) + value(m-4).
    """
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    even = d % 2 == 0
    v4, v3, v2, v1 = 0, 1, 1 if even else 0, d if even else d - 1  # value(m-4)..value(m-1) at m = 3
    yield from (v3, v2, v1)
    for m in count(3):
        value = d * (m - 1) * v2 + v4
        if even:
            value += v1 - v3
        v4, v3, v2, v1 = v3, v2, v1, value
        yield value


def loopless_sector_counts(d: int, m_max: int) -> tuple[int, ...]:
    """Loopless d-sector diagrams with m*d points, for m = 0..m_max (``_loopless_column``)."""
    return tuple(islice(_loopless_column(d), m_max + 1))


@_kept_streams
def loopless_fixed_chain(d: int):
    """``loopless_fixed_chain(d, m_max)``: loopless chord diagrams on m*d points fixed by a rotation of order d.

    Entry m holds the count for m = 0..m_max, from one sector column;
    entries with m*d odd describe no chord diagram and are never read.
    """
    v2 = v1 = 0  # value(m-2), value(m-1), zero below m = 0
    for m, value in enumerate(_loopless_column(d)):
        yield 0 if d * m == 2 else value - v2  # a single chord is always a loop
        v2, v1 = v1, value


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


@_kept_streams
def rotation_totals(fixed_chain):
    """``rotation_totals(fixed_chain, n_max)``: Burnside sums over the rotations, sum of phi(d) fix_d(n) over d | 2n.

    Entry n holds the sum for n = 0..n_max.  ``fixed_chain(d, m_max)`` is
    ``loopless_fixed_chain`` or ``simple_fixed_chain``.  A request past the
    kept sums adds phi(d) times each chain entry m with m*d/2 among the new
    n, once per d, so each chain is read once per extension, and the whole
    sum costs O(n_max^2) table cells.
    """

    def more(have, size):
        totals = [0] * (size + 1 - have)
        for d in range(1, 2 * size + 1):
            m_max = 2 * size // d
            step = 1 if d % 2 == 0 else 2  # m*d = 2n is even
            first = max(-(-2 * have // d), 1)  # the least m >= 1 with m*d/2 >= have,
            first += -first % step  # rounded up to a multiple of step
            if m_max < first:
                continue
            chain = fixed_chain(d, m_max)
            phi = totient(d)
            for m in range(first, m_max + 1, step):
                totals[d * m // 2 - have] += phi * chain[m]
        return totals

    return more


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


def _checked(rows, recurrence: str, name: str, problems: list[str], reference: dict):
    """Check the first rows of ``rows`` against the reference rows among them, then return all of ``rows``.

    ``reference`` maps each source to its {(row, k): count} cells; each row
    of ``rows`` is the row of source "r", or with more than one source a
    tuple of one row per source.  ``problems`` and every built reference
    cell that contradicts the reference are raised as one
    ``RecurrenceValidationError``; a cell the reference leaves out counts 0.
    """
    checked = sorted({row for row, _ in reference["r"]})
    head = list(islice(rows, checked[-1] + 1))
    tables = zip(*head) if len(reference) > 1 else [head]
    for (source, cells), table in zip(reference.items(), tables):
        label = "table" if source == "r" else "end-chord table"
        problems = problems + [
            f"{name}={row} k={k}: {label} gives {got}, enumeration gives {cells.get((row, k), 0)}"
            for row in checked
            for k, got in enumerate(table[row])
            if got != cells.get((row, k), 0)
        ]
    if problems:
        raise RecurrenceValidationError(f"{recurrence} recurrence failed validation:\n" + "\n".join(problems))
    return chain(head, rows)


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

    ``rows`` is the list of ``_even_sector_rows`` (None for odd d); ``by_diameter``, its
    nonzero cells as an (m, k) -> count dict, is built on first read.
    """

    totals: tuple
    rows: list | None

    @cached_property
    def by_diameter(self) -> dict | None:
        return None if self.rows is None else _nonzero_cells(self.rows)


def _shifted(rows: dict, i: int, shift: int, width: int) -> list[int]:
    """Row i of a table of rows by index, read at k + shift for k = 0..width - 1; zero outside the table."""
    if i < 0:
        return [0] * width
    row = rows[i][shift:] if shift >= 0 else [0] * -shift + rows[i]
    return row + [0] * (width - len(row))


def _even_sector_rows(d: int):
    """Rows m = 0, 1, 2, ... of the even-d table, row m holding k = 0..m.

    The same recurrence as ``EVEN_SECTOR_TERMS``, one row at a time: each
    term's source row m - drow is read at k + dk by ``_shifted``, with the
    offsets taken from the term table, and the six terms are summed inline.
    Only rows m - 6..m are held, the deepest any term reads.
    """
    rows = {0: [1]}
    yield rows[0]
    for m in count(1):
        rows.pop(m - 7, None)
        width = m + 1
        below = (m - 1) * d - 3 + (1 if m == 2 else 0)
        rows[m] = [
            t1 + below * t2 + d * (
                (k + 1) * (t3 + t5)
                # factor d on (2m + k - 7): the correction in docs/ERRATA.md
                + (2 * m + k - 7) * t4
                + (m + k - 6) * t6
            )
            for k, (t1, t2, t3, t4, t5, t6) in enumerate(zip(*(
                _shifted(rows, m - drow, dk, width) for _, drow, dk, _ in EVEN_SECTOR_TERMS
            )))
        ]
        yield rows[m]


def _checked_even_rows(d: int):
    """``_even_sector_rows(d)``, its first rows checked against the embedded exhaustive reference.

    The term set must reproduce every reference cell of d, and so must the
    built rows, before this returns; a mismatch raises with a per-cell
    diagnostic.  An even d with no reference rows is not checked.
    """
    rows = _even_sector_rows(d)
    if (d, 0) not in EVEN_SECTOR_REFERENCE:  # every d with reference rows has its row m = 0
        return rows
    reference = {
        (m, k): count
        for (dd, m), split in EVEN_SECTOR_REFERENCE.items()
        if dd == d
        for k, count in split.items()
    }
    problems = validate_even_sector_terms(d, reference, EVEN_SECTOR_TERMS)
    return _checked(rows, "even-sector", f"d={d} m", problems, {"r": reference})


def _odd_sector_totals(d: int):
    """Simple d-sector totals for odd d, m = 0, 1, 2, ..."""
    v6, v5, v4, v3, v2, v1 = 0, 0, 0, 1, 0, d - 1  # value(m-6)..value(m-1) at m = 3, zero below m = 0
    yield from (v3, v2, v1)
    for m in count(3):
        value = ((m - 1) * d - 2) * v2 + (2 * m - 7) * d * v4 + (m - 6) * d * v6
        v6, v5, v4, v3, v2, v1 = v5, v4, v3, v2, v1, value
        yield value


def simple_sector_counts(d: int, m_max: int) -> SectorColumn:
    """Simple d-sector diagrams with m*d points, for m = 0..m_max, with the whole even-d table.

    Built afresh on each call; the kept chains hold only their own entries.
    For even d the rows come from ``_checked_even_rows``, so the reference
    rows are built and checked whatever m_max is.
    """
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    if d % 2 == 1:
        return SectorColumn(tuple(islice(_odd_sector_totals(d), m_max + 1)), None)
    rows = list(islice(_checked_even_rows(d), m_max + 1))
    return SectorColumn(tuple(map(sum, rows)), rows)


def _nonzero_cells(rows: list[list[int]]) -> dict[tuple[int, int], int]:
    """The (row, k) -> value cells of a row-list table that are not zero."""
    return {(i, k): value for i, row in enumerate(rows) for k, value in enumerate(row) if value}


# ---------------------------------------------------------------------------
# Simple family: gluing chains and rotation-fixed counts


@_kept_streams
def simple_fixed_chain(d: int):
    """``simple_fixed_chain(d, m_max)``: simple chord diagrams on m*d points fixed by a rotation of order d.

    Entry m holds the count for m = 0..m_max, from the sector totals (the
    odd-d recurrence, or the row sums of the checked even-d table) in one
    pass.  The diagrams that glue into loopless ones follow the alternating
    correction q(m) = totals(m) - q(m-2), with the boundary convention
    q(0) = q(1) = 1 for d > 2 and 0 otherwise; f(m) = q(m) - f(m-2) then
    corrects them for the glued seams, less q(m-2) + q(m-3) for even d.
    The half turn (d = 2) has its own correction through p(m).  Entries
    with m*d odd describe no chord diagram and are never read.
    """
    if d < 1:
        raise ValueError(f"sector count must be positive, got {d}")
    seed = 1 if d > 2 else 0
    q4 = q3 = q2 = q1 = p2 = p1 = p = f2 = f1 = 0  # q(m-4)..q(m-1), p(m-2)..p(m), f(m-2), f(m-1); 0 below m = 0
    for m, total in enumerate(map(sum, _checked_even_rows(d)) if d % 2 == 0 else _odd_sector_totals(d)):
        q = seed if m < 2 else total - q2
        if d == 2:
            p = m if m < 2 else q - p2 - q4
            f = 1 - m if m < 2 else p - f2 - q1 + p1
        else:
            f = 0 if m == 0 else q - f2
            if d % 2 == 0 and m:
                f -= q2 + q3
        q4, q3, q2, q1, p2, p1, f2, f1 = q3, q2, q1, q, p1, p, f1, f
        yield f


def simple_rotation_fixed(n: int) -> dict[int, int]:
    """Simple chord diagrams fixed by each rotation order d | 2n."""
    return _fixed_by_divisor(simple_fixed_chain, n)


def simple_cyclic(n_max: int) -> SequenceTable:
    """Simple chord diagrams up to rotation, by the divisor average."""
    return _rotation_average(rotation_totals(simple_fixed_chain, n_max))
