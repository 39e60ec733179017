"""Sector-symmetric diagram tables and rotation-fixed counts for both families.

A d-fold symmetric sectored diagram lives on m*d points cut into d sectors;
``loopless_sector_counts`` and ``simple_sector_counts`` tabulate them by m.
``*_fixed_chain`` turn one column into the counts of chord diagrams fixed by
a rotation of order d, for every size at once; ``*_rotation_fixed`` read
them per divisor, and ``rotation_totals`` sums them over the divisors, one
chain per d, for the ``*_cyclic`` orbit averages.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def loopless_sector_presubtraction(d: int, m: int, counts) -> int:
    """The same count via the unsubtracted sum form (redundant check)."""
    get = lambda i: counts[i] if i >= 0 else 0
    value = (d * (m - 1) - 1) * get(m - 2)
    for i in range(1, m // 2):
        value += d * (m - 1 - 2 * i) * get(m - 2 - 2 * i)
    if d % 2 == 0:
        value += get(m - 1)
    return value


def loopless_fixed_chain(d: int, m_max: int) -> tuple[int, ...]:
    """Loopless chord diagrams on m*d points fixed by a rotation of order d.

    Entry m holds the count for m = 0..m_max, from one sector column;
    entries with m*d odd describe no chord diagram and are never read.
    """
    return loopless_chain_from_column(d, loopless_sector_counts(d, m_max))


def loopless_chain_from_column(d: int, counts) -> tuple[int, ...]:
    """``loopless_fixed_chain`` from a prebuilt d-sector column."""
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
    return _rotation_average("loopless-cyclic", rotation_totals(loopless_fixed_chain, n_max))


# ---------------------------------------------------------------------------
# Both families: Burnside sums over the rotations


def _fixed_by_divisor(fixed_chain, n: int) -> dict[int, int]:
    if n < 1:
        raise ValueError(f"chord count must be positive, got {n}")
    return {d: fixed_chain(d, 2 * n // d)[2 * n // d] for d in divisors(2 * n)}


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


def _rotation_average(name: str, totals: list[int]) -> SequenceTable:
    values = [1]
    for n in range(1, len(totals)):
        if totals[n] % (2 * n):
            raise ArithmeticError(f"rotation average is not integral at n={n}: {totals[n]}/{2 * n}")
        values.append(totals[n] // (2 * n))
    return SequenceTable(name, tuple(values))


# ---------------------------------------------------------------------------
# Simple family: the even-d table with its validation harness

# Each term contributes coeff(m, k, d) * value(m - dm, k + dk).  The factor d
# on the (2m + k - 7) term is a correction: the widely printed form omits it,
# which already fails the exhaustive reference at (d, m) = (2, 4) (8 instead
# of 9) and breaks the rotation averages from n = 5 on.  See docs/ERRATA.md.
EVEN_SECTOR_TERMS = (
    (1, -1, lambda m, k, d: 1),
    (2, 0, lambda m, k, d: (m - 1) * d - 3 + (1 if m == 2 else 0)),
    (3, 1, lambda m, k, d: (k + 1) * d),
    (4, 0, lambda m, k, d: (2 * m + k - 7) * d),
    (5, 1, lambda m, k, d: (k + 1) * d),
    (6, 0, lambda m, k, d: (m + k - 6) * d),
)

# The uncorrected fourth term, kept as data so the harness can demonstrate
# the failure.
EVEN_SECTOR_TERMS_PRINTED = tuple(
    (dm, dk, (lambda m, k, d: 2 * m + k - 7) if i == 3 else fn)
    for i, (dm, dk, fn) in enumerate(EVEN_SECTOR_TERMS)
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


def predicted_cell(table: dict, m: int, k: int, d: int, terms=EVEN_SECTOR_TERMS) -> int:
    value = 0
    for dm, dk, coeff in terms:
        value += coeff(m, k, d) * table.get((m - dm, k + dk), 0)
    return value


def validate_even_sector_terms(d: int, reference: dict, terms=EVEN_SECTOR_TERMS) -> list[str]:
    """Check each reference cell against the recurrence; return diagnostics.

    ``reference`` maps (m, k) to exhaustive counts; every cell with m >= 1
    is predicted from the cells below it and compared.  An empty return
    means the term set reproduces the reference exactly.
    """
    problems = []
    table = dict(reference)
    for m, k in sorted(table):
        if m == 0:
            continue
        got = predicted_cell(table, m, k, d, terms)
        want = table[(m, k)]
        if got != want:
            contributions = [
                f"({dm},{dk})*{coeff(m, k, d)}*{table.get((m - dm, k + dk), 0)}"
                for dm, dk, coeff in terms
            ]
            problems.append(
                f"d={d} m={m} k={k}: recurrence gives {got}, enumeration gives {want}"
                f" [terms: {', '.join(contributions)}]"
            )
    return problems


@dataclass(frozen=True)
class SectorColumn:
    """Simple d-sector counts: totals by m, and the split by diameter class."""

    d: int
    totals: tuple
    by_diameter: dict | None  # (m, k) -> count, even d only


def simple_sector_counts(d: int, m_max: int, terms=EVEN_SECTOR_TERMS) -> SectorColumn:
    """Simple d-sector diagrams with m*d points, for m = 0..m_max.

    For even d the table is built by diameter class k and validated
    against the embedded exhaustive reference before it is returned;
    a mismatch aborts with a per-cell diagnostic.
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
        return SectorColumn(d, tuple(values), None)

    table = {(0, 0): 1}
    for m in range(1, m_max + 1):
        for k in range(m + 1):
            value = predicted_cell(table, m, k, d, terms)
            if value:
                table[(m, k)] = value
    reference = {
        (m, k): count
        for (dd, m), split in EVEN_SECTOR_REFERENCE.items()
        if dd == d and m <= m_max
        for k, count in split.items()
    }
    if reference:
        problems = validate_even_sector_terms(d, reference, terms)
        if problems:
            raise RecurrenceValidationError(
                "even-sector recurrence failed validation:\n" + "\n".join(problems)
            )
    totals = tuple(
        sum(table.get((m, k), 0) for k in range(m + 1)) for m in range(m_max + 1)
    )
    return SectorColumn(d, totals, table)


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
    return _rotation_average("simple-cyclic", rotation_totals(simple_fixed_chain, n_max))
