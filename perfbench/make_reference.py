"""Generate reference.json: the expected output of every benchmark request.

Usage: python3 perfbench/make_reference.py [--check]

Runs every request any workload can make (rows-200, the whole interactive
parameter space, verify --max 6 and the cross-checks) in this process, and
before writing anything cross-checks the outputs against sources that do
not share the recurrence code:

* the golden tables for n <= 20;
* the integer coefficients of the closed-form series b, phi, psi, W and U
  for the labelled families up to n = 200;
* the divisor average of the ``fixed`` output against the cyclic rows;
* the octahedron identity cycles * 4n = b(n) * 2^n * n!.

With ``--check`` the freshly computed data must equal the committed file,
and nothing is written.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chordenum import cli, golden, series  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

ROWS = 200


def run_cli(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return out.getvalue()


def parse_rows(text: str) -> list[int]:
    """Values of a table-format ``seq`` output, for n = 1, 2, ..."""
    rows = [line.split() for line in text.splitlines()]
    if [int(n) for n, _ in rows] != list(range(1, len(rows) + 1)):
        raise SystemExit("seq output is not numbered 1..N")
    return [int(v) for _, v in rows]


def double_factorial(m: int) -> int:
    return math.prod(range(m, 0, -2)) if m > 0 else 1


def totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def expect(condition: bool, message: str):
    if not condition:
        raise SystemExit(f"cross-check failed: {message}")


def check_rows(values: dict):
    """Golden tables for n <= 20, closed-form series up to n = 200."""
    golden_columns = {
        "loopless-linear": (golden.LOOPLESS_TABLE, 0),
        "loopless-chord": (golden.LOOPLESS_TABLE, 1),
        "loopless-cyclic": (golden.LOOPLESS_TABLE, 2),
        "loopless-dihedral": (golden.LOOPLESS_TABLE, 3),
        "simple-linear": (golden.SIMPLE_TABLE, 0),
        "simple-chord": (golden.SIMPLE_TABLE, 1),
        "simple-cyclic": (golden.SIMPLE_TABLE, 2),
        "simple-dihedral": (golden.SIMPLE_TABLE, 3),
    }
    for family, (table, column) in golden_columns.items():
        for n in range(1, 21):
            expect(values[family][n - 1] == table[n][column], f"{family} n={n} vs golden")
    expect(
        values["all"] == [double_factorial(2 * n - 1) for n in range(1, ROWS + 1)],
        "all vs (2n-1)!!",
    )
    for name, family in (("b", "all"), ("phi", "loopless-linear"), ("psi", "loopless-chord"), ("U", "simple-chord")):
        coeffs = series.integer_coeffs(series.named_series(name, ROWS))
        expect(coeffs[1:] == values[family], f"{family} vs series {name} to order {ROWS}")
    # W holds n + 1 chords at t^n.
    coeffs = series.integer_coeffs(series.named_series("W", ROWS - 1))
    expect(coeffs == values["simple-linear"], f"simple-linear vs series W to order {ROWS - 1}")


def check_interactive(texts: dict, values: dict):
    for key, text in texts.items():
        argv = key.split()
        if argv[0] == "seq":
            family, m = argv[1], int(argv[3])
            expect(parse_rows(text) == values[family][:m], key)
        elif argv[0] == "fixed":
            n = int(argv[2])
            fixed = {}
            for line in text.splitlines():
                d, loopless, simple = (int(part.split("=")[1]) for part in line.split())
                fixed[d] = (loopless, simple)
            expect(sorted(fixed) == [d for d in range(1, 2 * n + 1) if 2 * n % d == 0], key)
            for i, family in enumerate(("loopless", "simple")):
                expect(fixed[1][i] == values[f"{family}-chord"][n - 1], f"{key} d=1 {family}")
                total = sum(totient(d) * counts[i] for d, counts in fixed.items())
                expect(total == 2 * n * values[f"{family}-cyclic"][n - 1], f"{key} {family} average")
        elif argv[0] == "triangle":
            expect("MISMATCH" not in text and " ok" in text, key)
        elif argv[0] == "series":
            check_series(key, text, values)


def check_series(key: str, text: str, values: dict):
    argv = key.split()
    name, markers = argv[1], dict(zip(argv[4::2], argv[5::2]))
    ints = [int(line.split()[2]) for line in text.splitlines()]
    order = len(ints) - 1
    all_chords = [double_factorial(2 * n - 1) for n in range(order + 2)]
    shifted_linear = values["simple-linear"][: order + 1]
    expected = {
        ("b", ()): all_chords[: order + 1],
        ("phi", ()): [1] + values["loopless-linear"][:order],
        ("psi", ()): [0] + values["loopless-chord"][:order],
        ("U", ()): [0] + values["simple-chord"][:order],
        ("W", ()): shifted_linear,
        ("wz", (("--z", "0"),)): [1] + values["loopless-linear"][:order],
        ("wz", (("--z", "1"),)): all_chords[: order + 1],
        ("wx", (("--x", "1"),)): all_chords[1:],
        ("wzx", (("--x", "1"), ("--z", "1"))): all_chords[1:],
        ("wzx", (("--x", "0"), ("--z", "0"))): shifted_linear,
    }.get((name, tuple(sorted(markers.items()))))
    if expected is not None:
        expect(ints == expected, key)


def generate() -> dict:
    outputs, texts = {}, {}
    for request in workloads.requests("rows-200", 0) + workloads.interactive_space():
        key = workloads.key(request)
        text = run_cli(request["argv"])
        outputs[key] = hashlib.sha256(text.encode()).hexdigest()
        texts[key] = text
        print(f"ran {key}", file=sys.stderr)

    values = {family: parse_rows(texts[f"seq {family} --max {ROWS}"]) for family in workloads.FAMILIES}
    check_rows(values)
    check_interactive({k: v for k, v in texts.items() if not k.endswith(f"--max {ROWS}")}, values)

    (verify,) = workloads.requests("oracle-sweep", 0)
    verify_key = workloads.key(verify)
    lines = run_cli(verify["argv"]).splitlines()
    expect(bool(lines) and all(line.startswith("CHECK ") and line.endswith(" OK") for line in lines), verify_key)

    calls = {}
    for name in workloads.CROSSCHECKS:
        calls[name] = workloads.crosscheck(name)
        expect(calls[name]["agree"], name)
        print(f"ran {name}", file=sys.stderr)
    expect(calls["series-U-150"]["digest"] == workloads.digest([0] + values["simple-chord"][:150]), "U digest")
    expect(calls["series-psi-60"]["digest"] == workloads.digest([0] + values["loopless-chord"][:60]), "psi digest")
    octa = calls["octahedron-5"]
    expect(octa["cycles"] * 4 * 5 == values["loopless-chord"][4] * 2**5 * math.factorial(5), "cycle identity")
    expect(octa["orbits"] == golden.LOOPLESS_TABLE[5][3], "octahedron orbits vs golden")

    return {"outputs": outputs, "verify": {verify_key: lines}, "calls": calls}


def main(argv) -> int:
    data = generate()
    if argv[1:] == ["--check"]:
        if data != reference.load():
            print("reference.json differs from freshly generated data", file=sys.stderr)
            return 1
        print("reference.json matches", file=sys.stderr)
        return 0
    with open(reference.PATH, "w") as handle:
        json.dump(data, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"wrote {reference.PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
