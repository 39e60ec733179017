"""Command-line interface: sequence emission, verification sweeps, regressions.

Exit codes: 0 success, 1 verification failure (a failed ``verify`` check or
a triangle row off its (2m-1)!! total), 2 usage error (including an output
path that cannot be written), 3 internal error: every internal
assertion, such as a recurrence's own integrality or validation check, the
oracle's Burnside identity or the octahedron's loop check.
"""

from __future__ import annotations

import argparse
import functools
import os
import stat
import sys

from . import labelled, octahedron, oracle, symmetry, verify
from .diagram import format_diagram
from .labelled import double_factorial
from .series import MARKERS_OF, SERIES_NAMES, SeriesError, integer_coeffs, named_series

# name -> (builder to n_max, chord offset, key names): row n holds diagrams
# with n + offset chords, keyed by the named statistics.
TRIANGLES = {
    "a_nk": (lambda n_max: labelled.loop_triangle(n_max), 0, ("k",)),
    "a_nkl": (lambda n_max: labelled.loop_parallel_triangle(n_max), 1, ("k", "l")),
    "ahat_nl": (lambda n_max: labelled.parallel_triangle(n_max), 1, ("l",)),
}
TRIANGLE_NAMES = tuple(TRIANGLES)


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
        import json  # imported here: no other command needs it
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
    """Write to stdout or to ``out_path``.

    A regular file (or a new one) is replaced whole through a temporary file
    beside it, so a failed write leaves it as it was.  Anything else -- a
    symlink, a device such as /dev/null, a FIFO -- is written in place.
    """
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        try:
            mode = os.lstat(out_path).st_mode
        except FileNotFoundError:
            mode = stat.S_IFREG | 0o666 & ~_umask()
        if not stat.S_ISREG(mode):
            with open(out_path, "w") as handle:
                handle.write(text)
            return
        import tempfile  # imported here: only --out needs it
        # beside the target, so that the rename stays on one filesystem
        fd, partial = tempfile.mkstemp(dir=os.path.dirname(out_path) or ".", suffix=".tmp")
        try:
            with open(fd, "w") as handle:
                os.fchmod(fd, stat.S_IMODE(mode))
                handle.write(text)
                handle.flush()
                os.fsync(fd)
            os.replace(partial, out_path)
        except BaseException:
            os.unlink(partial)
            raise
    except OSError as exc:  # a bad --out is a usage error, not a failed check
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def cmd_seq(args) -> int:
    if args.max < 1:
        raise ValueError("--max must be at least 1")
    values = verify.family_values(args.family, args.max)
    _emit(render_sequence(args.family, values, args.format), args.out)
    return 0


def cmd_series(args) -> int:
    for marker in MARKERS_OF.get(args.name, ""):
        if getattr(args, marker) is None:
            raise SeriesError(f"series {args.name} needs --{marker} 0|1")
    # the markers are set inside the construction, which refuses one the series lacks
    series = named_series(args.name, args.order, z=args.z, x=args.x)
    ints = integer_coeffs(series)
    lines = [f"{n} {series[n]} {ints[n]}" for n in range(args.order + 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_triangle(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be at least 0")
    build, chord_offset, key_names = TRIANGLES[args.name]
    table = build(args.max)

    lines = [",".join(("n", *key_names, "value"))] if args.format == "csv" else []
    failed = []
    for n in range(args.max + 1):
        # each row sums to the matchings on its chords, (2m-1)!!
        row_total = table.row_total(n)
        expected = double_factorial(2 * (n + chord_offset) - 1)
        status = "ok" if row_total == expected else "MISMATCH"
        if status != "ok":
            failed.append(f"row n={n}: total={row_total} expected={expected} {status}")
        cells = sorted(table.row(n).items())
        if args.format == "csv":
            lines.extend(",".join(str(i) for i in (n, *key, value)) for key, value in cells)
        else:
            lines.append(f"n={n} chords={n + chord_offset} total={row_total} expected={expected} {status}")
            for key, value in cells:
                label = " ".join(f"{name}={i}" for name, i in zip(key_names, key))
                lines.append(f"  {label}: {value}")
    _emit("\n".join(lines) + "\n", args.out)
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


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
    if args.list:
        labelled_count, orbit_count, cycles = octahedron.list_cycles(args.n)
    else:
        labelled_count, orbit_count = octahedron.count_cycles(args.n)
        cycles = []
    lines = [f"labelled {labelled_count}", f"orbits {orbit_count}"]
    texts = {}  # partner table -> text, once per diagram the cycles share
    for cycle, diagram in cycles:
        if diagram.pairing not in texts:
            texts[diagram.pairing] = format_diagram(diagram)
        path = "-".join(str(v) for v in cycle.vertices)
        lines.append(f"cycle {path} {texts[diagram.pairing]}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_verify(args) -> int:
    if args.max < 0:
        raise ValueError("--max must be at least 0")
    depth = 0 if args.tables else args.max
    text, ok = verify.report(depth, args.oracle_cap, args.bfile, args.bfile_family)
    _emit(text, args.out)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once: parsing keeps no state in it between calls."""
    parser = argparse.ArgumentParser(
        prog="chordenum",
        description="Exact enumeration of loopless and simple chord diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("seq", help="emit a counting sequence for chord counts 1..N")
    p.add_argument("family", choices=tuple(verify.FAMILIES))
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
    p.add_argument("--bfile-family", choices=tuple(verify.BFILE_FAMILIES.values()))
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
    if hasattr(sys, "set_int_max_str_digits"):  # exact counts pass 4,300 digits near n = 1424
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad arguments, caps, unassigned markers
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, AssertionError) as exc:  # a bug, not a failed check
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
