"""The verify report: recurrences against the oracle, the golden tables, b-files.

Every check is one ``CHECK name n=N expected=E got=G OK|FAIL`` line.  The
recurrence tables are built before the sweeps: each family from its row of
``FAMILIES``, the one family table (``seq`` reads it too), to max(N, 20),
then the axes and the per-n rotation-fixed counts to N.  The rotation
chains, each family's rotation sums and both families' axes are kept per
process (``symmetry._kept_streams``), so each of them, with the sector
and mirror rows behind it, is built once, to max(N, 20), and the later
requests read their prefixes.  The classified triangle is built once.
"""

from __future__ import annotations

import os
from itertools import accumulate
from operator import mul

from . import golden, labelled, oracle, reflection, symmetry
from .diagram import CIRCULAR, CYCLIC, DIHEDRAL, LINEAR

GOLDEN_MAX = 20
GOLDEN_TABLES = {"loopless": golden.LOOPLESS_TABLE, "simple": golden.SIMPLE_TABLE}

# family -> (builder to n_max, index offset, golden column or None): the
# builder's table holds the count for n chords at entry n - offset, and the
# column indexes golden.COLUMNS in the table named by the family's prefix.
# Each builder looks its function up on the module at call time, so a
# wrapper installed there (perfbench's tracer) sees the call.
FAMILIES = {
    "loopless-linear": (lambda n_max: labelled.loopless_linear(n_max), 0, 0),
    "loopless-chord": (lambda n_max: labelled.loopless_chord(n_max), 0, 1),
    "loopless-cyclic": (lambda n_max: symmetry.loopless_cyclic(n_max), 0, 2),
    "loopless-dihedral": (lambda n_max: reflection.loopless_dihedral(n_max), 0, 3),
    "simple-linear": (lambda n_max: labelled.simple_linear(n_max), 1, 0),
    "simple-chord": (lambda n_max: labelled.simple_chord(n_max), 0, 1),
    "simple-cyclic": (lambda n_max: symmetry.simple_cyclic(n_max), 0, 2),
    "simple-dihedral": (lambda n_max: reflection.simple_dihedral(n_max), 0, 3),
    "all": (lambda n_max: list(accumulate(range(1, 2 * n_max, 2), mul, initial=1)), 0, None),  # (2n - 1)!!
}

BFILE_FAMILIES = {"003436": "loopless-chord", "003437": "loopless-dihedral"}
BFILE_COMPARE_LIMIT = 1000


def family_values(family: str, n_max: int) -> list[int]:
    """Values for chord counts 1..n_max."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    build, offset, _ = FAMILIES[family]
    table = build(n_max)
    return [table[n - offset] for n in range(1, n_max + 1)]


def check_line(name: str, n: int, expected, got) -> tuple[str, bool]:
    """One line of the verification report."""
    ok = expected == got
    return f"CHECK {name} n={n} expected={expected} got={got} {'OK' if ok else 'FAIL'}", ok


def _cells(cells: dict) -> str:
    return repr(dict(sorted(cells.items()))).replace(" ", "")


def _rotation_fixed(n: int) -> dict[str, int]:
    fixed = {"loopless": symmetry.loopless_rotation_fixed(n), "simple": symmetry.simple_rotation_fixed(n)}
    return {f"{f}-d{d}": fixed[f][d] for d in sorted(fixed["loopless"]) for f in fixed}


def build_recurrences(depth: int) -> dict[str, list]:
    """Every count the checks read: name -> values for n = 1, 2, ..."""
    tables = {family: family_values(family, max(depth, GOLDEN_MAX)) for family in FAMILIES}
    tables["rotation-fixed"] = [_rotation_fixed(n) for n in range(1, depth + 1)]
    triangle = labelled.loop_parallel_triangle(max(depth - 1, 0))
    tables["classify-table-linear"] = [_cells(triangle.row(n)) for n in range(depth)]
    axes = {"loopless": reflection.loopless_axes(depth), "simple": reflection.simple_axes(depth)}
    for family, (vertex, edge) in axes.items():
        tables[f"{family}-vertex"], tables[f"{family}-edge"] = vertex[1:], edge[1:]
    return tables


# The sweep checks in report order: (name, recurrence table, sweep reader).
# A table whose values are mappings makes one check per key, named
# ``name-key``, against the same key of the sweep reader's mapping.
SWEEP_CHECKS = (
    ("labelled-linear-loopless", "loopless-linear", lambda s: s.count(LINEAR, "loopless")),
    ("labelled-linear-simple", "simple-linear", lambda s: s.count(LINEAR, "simple")),
    ("labelled-circular-loopless", "loopless-chord", lambda s: s.count(CIRCULAR, "loopless")),
    ("labelled-circular-simple", "simple-chord", lambda s: s.count(CIRCULAR, "simple")),
    ("labelled-all", "all", lambda s: s.count(CIRCULAR, "all")),
    ("classify-table-linear", "classify-table-linear", lambda s: _cells(s.tables[LINEAR])),
    ("rotation-fixed", "rotation-fixed", lambda s: {
        f"{f}-d{view[1]}": s.count(view, f)
        for view in s.tables if isinstance(view, tuple) and view[0] == "rotation"
        for f in ("loopless", "simple")
    }),
    ("reflection-fixed-loopless-vertex", "loopless-vertex",
     lambda s: s.count(("reflection", "vertex"), "loopless")),
    ("reflection-fixed-loopless-edge", "loopless-edge",
     lambda s: s.count(("reflection", "edge"), "loopless")),
    ("reflection-fixed-simple-vertex", "simple-vertex",
     lambda s: s.count(("reflection", "vertex"), "simple")),
    ("reflection-fixed-simple-edge", "simple-edge",
     lambda s: s.count(("reflection", "edge"), "simple")),
    ("orbits-cyclic-loopless", "loopless-cyclic", lambda s: s.count(CYCLIC, "loopless")),
    ("orbits-cyclic-simple", "simple-cyclic", lambda s: s.count(CYCLIC, "simple")),
    ("orbits-dihedral-loopless", "loopless-dihedral", lambda s: s.count(DIHEDRAL, "loopless")),
    ("orbits-dihedral-simple", "simple-dihedral", lambda s: s.count(DIHEDRAL, "simple")),
)


def sweep_checks(recurrences: dict, sweep: oracle.SweepResult) -> list[tuple]:
    """(name, expected, got) for every check of SWEEP_CHECKS at the sweep's n."""
    checks = []
    for name, table, observed in SWEEP_CHECKS:
        expected, got = recurrences[table][sweep.n - 1], observed(sweep)
        if isinstance(expected, dict):
            checks += [(f"{name}-{key}", value, got.get(key, 0)) for key, value in expected.items()]
        else:
            checks.append((name, expected, got))
    return checks


def table_checks(recurrences: dict) -> list[tuple]:
    """(name, n, expected, got) per golden column: its first mismatch, else row GOLDEN_MAX."""
    entries = []
    for family, (_, _, col) in FAMILIES.items():
        if col is None:
            continue
        label = family.split("-")[0]
        reference, ours = GOLDEN_TABLES[label], recurrences[family]
        n = next((n for n in range(1, GOLDEN_MAX + 1) if ours[n - 1] != reference[n][col]), GOLDEN_MAX)
        entries.append((f"golden-{label}-{golden.COLUMNS[col]}", n, reference[n][col], ours[n - 1]))
    return entries


def parse_bfile(path: str) -> dict[int, int]:
    values = {}
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                index, value = (int(part) for part in line.split())
            except ValueError:
                raise ValueError(f"{path}:{line_number}: expected two integers, got {line!r}") from None
            values[index] = value
    return values


def bfile_check(path: str, family: str | None) -> tuple:
    """(name, n, expected, got) at the b-file's first mismatch, else at its last index."""
    named = [fam for digits, fam in BFILE_FAMILIES.items() if digits in os.path.basename(path)]
    family = family or (named[0] if len(named) == 1 else None)
    if family is None:
        raise ValueError("cannot infer the sequence family from the file name; pass --bfile-family")
    try:
        reference = parse_bfile(path)
    except OSError as exc:  # a missing or unreadable b-file is a usage error
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    indices = sorted(i for i in reference if 1 <= i <= BFILE_COMPARE_LIMIT)
    if not indices:
        raise ValueError(f"{path} holds no comparable indices (1..{BFILE_COMPARE_LIMIT})")
    ours = family_values(family, indices[-1])
    i = next((i for i in indices if ours[i - 1] != reference[i]), indices[-1])
    return (f"bfile-{family}", i, reference[i], ours[i - 1])


def report(depth: int, cap: int, bfile=None, bfile_family=None) -> tuple[str, bool]:
    """The report text and whether every check passed.

    Sweeps n = 1..depth, then the golden tables, then the b-file if given.
    A depth above the cap, a negative cap, a family without a b-file and a
    b-file that cannot be used are refused before any table is built.
    """
    oracle.check_cap(depth, cap)
    if bfile_family and not bfile:
        raise ValueError("--bfile-family needs --bfile")
    bfile_entry = bfile_check(bfile, bfile_family) if bfile else None
    recurrences = build_recurrences(depth)
    entries = []
    for n in range(1, depth + 1):
        sweep = oracle.full_sweep(n, cap=cap)
        entries += [(name, n, expected, got) for name, expected, got in sweep_checks(recurrences, sweep)]
    entries += table_checks(recurrences)
    if bfile_entry:
        entries.append(bfile_entry)
    lines, oks = zip(*(check_line(*entry) for entry in entries))
    return "\n".join(lines) + "\n", all(oks)
