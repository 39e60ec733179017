"""Command-line interface: sequence emission, verification sweeps, regressions.

Exit codes: 0 success, 1 verification failure, 2 usage error (including an
output path that cannot be written).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import golden, labelled, octahedron, oracle, reflection, symmetry
from .diagram import CYCLIC, DIHEDRAL, format_diagram
from .labelled import double_factorial
from .series import MARKER_SERIES, SERIES_NAMES, SeriesError, integer_coeffs, named_series

# family -> (builder to n_max, index offset): the builder's table holds the
# count for n chords at entry n - offset.  Each builder looks its function up
# on the module at call time, so a wrapper installed there (perfbench's
# tracer) sees the call.
SEQ_BUILDERS = {
    "loopless-linear": (lambda n_max: labelled.loopless_linear(n_max), 0),
    "loopless-chord": (lambda n_max: labelled.loopless_chord(n_max), 0),
    "loopless-cyclic": (lambda n_max: symmetry.loopless_cyclic(n_max), 0),
    "loopless-dihedral": (lambda n_max: reflection.loopless_dihedral(n_max), 0),
    "simple-linear": (lambda n_max: labelled.simple_linear(n_max), 1),
    "simple-chord": (lambda n_max: labelled.simple_chord(n_max), 0),
    "simple-cyclic": (lambda n_max: symmetry.simple_cyclic(n_max), 0),
    "simple-dihedral": (lambda n_max: reflection.simple_dihedral(n_max), 0),
    "all": (lambda n_max: [double_factorial(2 * n - 1) for n in range(n_max + 1)], 0),
}
SEQ_FAMILIES = tuple(SEQ_BUILDERS)

TRIANGLE_NAMES = ("a_nk", "a_nkl", "ahat_nl")


def family_values(family: str, n_max: int) -> list[int]:
    """Values for chord counts 1..n_max."""
    if family not in SEQ_BUILDERS:
        raise ValueError(f"unknown family {family!r}")
    build, offset = SEQ_BUILDERS[family]
    table = build(n_max)
    return [table[n - offset] for n in range(1, n_max + 1)]


def render_sequence(family: str, values: list[int], fmt: str) -> str:
    lines = []
    if fmt == "table":
        width = len(str(len(values)))
        for n, v in enumerate(values, start=1):
            lines.append(f"{n:>{width}} {v}")
    elif fmt == "csv":
        lines.append("n,value")
        for n, v in enumerate(values, start=1):
            lines.append(f"{n},{v}")
    elif fmt == "bfile":
        for n, v in enumerate(values, start=1):
            lines.append(f"{n} {v}")
    elif fmt == "json":
        payload = {
            "name": family,
            "offset": 1,
            "values": [str(v) for v in values],
        }
        return json.dumps(payload, indent=2) + "\n"
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out_path, "w") as handle:
                handle.write(text)
        except OSError as exc:  # a bad --out is a usage error, not a failed check
            raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def cmd_seq(args) -> int:
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    values = family_values(args.family, args.max)
    _emit(render_sequence(args.family, values, args.format), args.out)
    return 0


def cmd_series(args) -> int:
    series = named_series(args.name, args.order)
    z = args.z
    x = args.x
    if args.name in MARKER_SERIES:
        needs_z = args.name in ("wz", "wzx")
        needs_x = args.name in ("wx", "wzx")
        if needs_z and z is None:
            raise SeriesError(f"series {args.name} needs --z 0|1")
        if needs_x and x is None:
            raise SeriesError(f"series {args.name} needs --x 0|1")
        rational = series.substitute_markers(
            z=z if needs_z else None, x=x if needs_x else None
        )
        ints = integer_coeffs(series, z=z if needs_z else None, x=x if needs_x else None)
    else:
        if z is not None or x is not None:
            raise SeriesError(f"series {args.name} has no markers to assign")
        rational = series
        ints = integer_coeffs(series)
    lines = [f"{n} {rational[n]} {ints[n]}" for n in range(args.order + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_triangle(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be at least 0")
    if args.name == "a_nk":
        table = labelled.loop_triangle(args.max)
        chord_offset = 0
        total = lambda n: double_factorial(2 * n - 1)
    elif args.name == "a_nkl":
        table = labelled.loop_parallel_triangle(args.max)
        chord_offset = 1
        total = lambda n: double_factorial(2 * n + 1)
    else:
        table = labelled.parallel_triangle(args.max)
        chord_offset = 1
        total = lambda n: double_factorial(2 * n + 1)

    lines = []
    if args.format == "csv":
        key_names = "n,k,l" if args.name == "a_nkl" else ("n,k" if args.name == "a_nk" else "n,l")
        lines.append(f"{key_names},value")
        for n in range(args.max + 1):
            for key, value in sorted(table.row(n).items()):
                lines.append(",".join(str(i) for i in (n, *key, value)))
    else:
        for n in range(args.max + 1):
            row_total = table.row_total(n)
            expected = total(n)
            status = "ok" if row_total == expected else "MISMATCH"
            lines.append(
                f"n={n} chords={n + chord_offset} total={row_total} expected={expected} {status}"
            )
            for key, value in sorted(table.row(n).items()):
                label = " ".join(f"{name}={i}" for name, i in zip(("k", "l"), key))
                if args.name == "ahat_nl":
                    label = f"l={key[0]}"
                lines.append(f"  {label}: {value}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_fixed(args) -> int:
    loopless = symmetry.loopless_rotation_fixed(args.n)
    simple = symmetry.simple_rotation_fixed(args.n)
    lines = [
        f"d={d} loopless={loopless[d]} simple={simple[d]}"
        for d in sorted(loopless)
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_octahedron(args) -> int:
    labelled_count, orbit_count = octahedron.count_cycles(args.n)
    lines = [f"labelled {labelled_count}", f"orbits {orbit_count}"]
    if args.list:
        for cycle in octahedron.hamiltonian_cycles(args.n):
            diagram = octahedron.cycle_to_diagram(cycle)
            path = "-".join(str(v) for v in cycle.vertices)
            lines.append(f"cycle {path} {format_diagram(diagram)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _compact(value) -> str:
    return repr(value).replace(" ", "")


def _sweep_checks(n: int, cap: int):
    """CHECK entries comparing every recurrence against the oracle at one n."""
    sweep = oracle.full_sweep(n, cap=cap)
    a = labelled.loopless_linear(n)
    b = labelled.loopless_chord(n)
    chain = labelled.simple_chain(n)
    triangle = labelled.loop_parallel_triangle(max(n - 1, 0))

    checks = [
        ("labelled-linear-loopless", a[n], sweep.labelled.get(("linear", "loopless"), 0)),
        ("labelled-linear-simple", chain.linear[n - 1], sweep.labelled.get(("linear", "simple"), 0)),
        ("labelled-circular-loopless", b[n], sweep.labelled.get(("circular", "loopless"), 0)),
        ("labelled-circular-simple", chain.chord[n], sweep.labelled.get(("circular", "simple"), 0)),
        ("labelled-all", double_factorial(2 * n - 1), sweep.labelled.get(("circular", "all"), 0)),
    ]

    expected_table = triangle.row(n - 1)
    got_table = {(k, l): v for (k, l), v in sweep.tables["linear"].items()}
    checks.append(
        (
            "classify-table-linear",
            _compact(dict(sorted(expected_table.items()))),
            _compact(dict(sorted(got_table.items()))),
        )
    )

    loopless_fixed = symmetry.loopless_rotation_fixed(n)
    simple_fixed = symmetry.simple_rotation_fixed(n)
    for d in sorted(loopless_fixed):
        checks.append(
            (f"rotation-fixed-loopless-d{d}", loopless_fixed[d], sweep.rotation_fixed.get((d, "loopless"), 0))
        )
        checks.append(
            (f"rotation-fixed-simple-d{d}", simple_fixed[d], sweep.rotation_fixed.get((d, "simple"), 0))
        )

    vertex = reflection.loopless_vertex_axis(n)
    edge = reflection.loopless_edge_axis(n)
    vertex_s = reflection.simple_vertex_axis(n)
    edge_s = reflection.simple_edge_axis(n)
    checks += [
        ("reflection-fixed-loopless-vertex", vertex[n], sweep.reflection_fixed.get(("vertex", "loopless"), 0)),
        ("reflection-fixed-loopless-edge", edge[n], sweep.reflection_fixed.get(("edge", "loopless"), 0)),
        ("reflection-fixed-simple-vertex", vertex_s[n], sweep.reflection_fixed.get(("vertex", "simple"), 0)),
        ("reflection-fixed-simple-edge", edge_s[n], sweep.reflection_fixed.get(("edge", "simple"), 0)),
    ]

    cyclic_loopless = symmetry.loopless_cyclic(n)
    cyclic_simple = symmetry.simple_cyclic(n)
    dihedral_loopless = reflection.loopless_dihedral(n)
    dihedral_simple = reflection.simple_dihedral(n)
    checks += [
        ("orbits-cyclic-loopless", cyclic_loopless[n], sweep.orbits[(CYCLIC, "loopless")].orbit_count),
        ("orbits-cyclic-simple", cyclic_simple[n], sweep.orbits[(CYCLIC, "simple")].orbit_count),
        ("orbits-dihedral-loopless", dihedral_loopless[n], sweep.orbits[(DIHEDRAL, "loopless")].orbit_count),
        ("orbits-dihedral-simple", dihedral_simple[n], sweep.orbits[(DIHEDRAL, "simple")].orbit_count),
    ]
    return checks


# golden.COLUMNS in order, as the family suffix of each column
GOLDEN_VIEWS = ("linear", "chord", "cyclic", "dihedral")


def _table_checks():
    n_max = 20
    entries = []
    for label, reference in (("loopless", golden.LOOPLESS_TABLE), ("simple", golden.SIMPLE_TABLE)):
        for col, (col_name, view) in enumerate(zip(golden.COLUMNS, GOLDEN_VIEWS)):
            computed = family_values(f"{label}-{view}", n_max)
            bad = [n for n in range(1, n_max + 1) if computed[n - 1] != reference[n][col]]
            n = bad[0] if bad else n_max
            entries.append((f"golden-{label}-{col_name}", n, reference[n][col], computed[n - 1]))
    return entries


BFILE_FAMILIES = {"003436": "loopless-chord", "003437": "loopless-dihedral"}
BFILE_COMPARE_LIMIT = 1000


def parse_bfile(path: str) -> dict[int, int]:
    values = {}
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_number}: expected two fields, got {line!r}")
            values[int(parts[0])] = int(parts[1])
    return values


def _bfile_check(path: str, family: str | None):
    if family is None:
        for digits, fam in BFILE_FAMILIES.items():
            if digits in path:
                family = fam
                break
    if family is None:
        raise ValueError(
            "cannot infer the sequence family from the file name; pass --bfile-family"
        )
    try:
        reference = parse_bfile(path)
    except OSError as exc:  # a missing or unreadable b-file is a usage error
        raise ValueError(f"cannot read {path}: {exc.strerror or exc}") from exc
    indices = sorted(i for i in reference if 1 <= i <= BFILE_COMPARE_LIMIT)
    if not indices:
        raise ValueError(f"{path} holds no comparable indices (1..{BFILE_COMPARE_LIMIT})")
    ours = family_values(family, max(indices))
    for i in indices:
        if ours[i - 1] != reference[i]:
            return (f"bfile-{family}", i, reference[i], ours[i - 1])
    top = indices[-1]
    return (f"bfile-{family}", top, reference[top], ours[top - 1])


def cmd_verify(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be at least 0")
    if not args.tables:
        oracle.check_cap(args.max, args.oracle_cap)  # refuse before any sweep runs
    bfile_entry = _bfile_check(args.bfile, args.bfile_family) if args.bfile else None
    entries = []
    if not args.tables:
        for n in range(1, args.max + 1):
            entries.extend((name, n, expected, got) for name, expected, got in _sweep_checks(n, args.oracle_cap))
    entries.extend(_table_checks())
    if bfile_entry:
        entries.append(bfile_entry)

    all_ok = True
    lines = []
    for name, n, expected, got in entries:
        line, ok = oracle.check_line(name, n, expected, got)
        lines.append(line)
        all_ok = all_ok and ok
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chordenum",
        description="Exact enumeration of loopless and simple chord diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit a counting sequence for chord counts 1..N")
    p.add_argument("family", choices=SEQ_FAMILIES)
    p.add_argument("--max", type=int, default=20, metavar="N")
    p.add_argument("--format", choices=("table", "csv", "json", "bfile"), default="table")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("triangle", help="emit a classified count triangle")
    p.add_argument("name", choices=TRIANGLE_NAMES)
    p.add_argument("--max", type=int, default=8, metavar="N")
    p.add_argument("--format", choices=("table", "csv"), default="table")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_triangle)

    p = sub.add_parser("series", help="print exact generating-function coefficients")
    p.add_argument("name", choices=SERIES_NAMES)
    p.add_argument("--order", type=int, default=10, metavar="N")
    p.add_argument("--z", type=int, choices=(0, 1))
    p.add_argument("--x", type=int, choices=(0, 1))
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("fixed", help="rotation-fixed counts per divisor, both families")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_fixed)

    p = sub.add_parser("verify", help="oracle sweep, golden tables, optional b-file")
    p.add_argument("--max", type=int, default=5, metavar="N", help="oracle sweep depth")
    p.add_argument("--tables", action="store_true", help="golden tables only, skip the sweep")
    p.add_argument("--bfile", metavar="PATH")
    p.add_argument("--bfile-family", choices=("loopless-chord", "loopless-dihedral"))
    p.add_argument("--oracle-cap", type=int, default=oracle.DEFAULT_CAP)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("octahedron", help="Hamiltonian cycle counts of the cocktail-party graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list", action="store_true", help="print each cycle and its diagram")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_octahedron)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad arguments, caps, unassigned markers
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
