"""Acceptance criteria, one test per criterion.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion; each test also prints a CRITERION line (visible with -s).
Set CHORDENUM_ACCEPT_EXTENDED=1 to widen the oracle sweep of criterion 3
to n <= 7 under its 60-second budget.
"""

import math
import os
import time

from chordenum.cli import family_values, main
from chordenum.diagram import CYCLIC, DIHEDRAL
from chordenum.golden import LOOPLESS_TABLE, SIMPLE_TABLE
from chordenum.labelled import (
    double_factorial,
    loop_parallel_triangle,
    loopless_chord,
    loopless_linear,
    loopless_linear_binomial,
    simple_chain,
)
from chordenum.octahedron import count_cycles
from chordenum.oracle import DEFAULT_CAP, FAMILIES, full_sweep
from chordenum.reflection import loopless_dihedral, simple_dihedral
from chordenum.series import (
    full_pde_residual,
    integer_coeffs,
    loop_pde_residual,
    marker_triangle,
    named_series,
)
from chordenum.symmetry import (
    loopless_cyclic,
    loopless_rotation_fixed,
    simple_cyclic,
    simple_rotation_fixed,
    totient,
)
from chordenum.verify import build_recurrences, sweep_checks

EXTENDED = os.environ.get("CHORDENUM_ACCEPT_EXTENDED") == "1"


def report(number, text):
    print(f"CRITERION {number} PASS: {text}")


def test_criterion_1_loopless_table_reproduced_quickly():
    start = time.perf_counter()
    a = loopless_linear(20)
    b = loopless_chord(20)
    cyclic = loopless_cyclic(20)
    dihedral = loopless_dihedral(20)
    elapsed = time.perf_counter() - start
    for n in range(1, 21):
        assert (a[n], b[n], cyclic[n], dihedral[n]) == LOOPLESS_TABLE[n]
    assert elapsed < 2.0, f"loopless table took {elapsed:.2f}s"
    report(1, f"loopless table rows 1..20 exact in {elapsed:.3f}s")


def test_criterion_2_simple_table_reproduced_quickly():
    start = time.perf_counter()
    chain = simple_chain(20)
    cyclic = simple_cyclic(20)
    dihedral = simple_dihedral(20)
    elapsed = time.perf_counter() - start
    for n in range(1, 21):
        row = (chain.linear[n - 1], chain.chord[n], cyclic[n], dihedral[n])
        assert row == SIMPLE_TABLE[n]
    assert elapsed < 2.0, f"simple table took {elapsed:.2f}s"
    report(2, f"simple table rows 1..20 exact in {elapsed:.3f}s")


def test_criterion_3_oracle_equivalence(sweeps):
    # default sweep: every labelled count, classified cell, rotation- and
    # reflection-fixed count, and orbit count for n <= 6 (sweeps fixture
    # enumerates independently of the recurrences)
    start = time.perf_counter()
    checked = 0
    recurrences = build_recurrences(family_values, 7 if EXTENDED else 6)
    for n in range(1, 7):
        for name, expected, got in sweep_checks(recurrences, sweeps[n]):
            assert expected == got, f"{name} at n={n}: {expected} != {got}"
            checked += 1
    if EXTENDED:
        for name, expected, got in sweep_checks(recurrences, full_sweep(7, cap=DEFAULT_CAP)):
            assert expected == got, f"{name} at n=7: {expected} != {got}"
            checked += 1
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"extended sweep took {elapsed:.1f}s"
        report(3, f"oracle equivalence n<=7, {checked} checks in {elapsed:.1f}s")
    else:
        report(3, f"oracle equivalence n<=6, {checked} checks")


def test_criterion_4_generating_function_cross_checks():
    a = loopless_linear(25)
    b = loopless_chord(25)
    chain = simple_chain(25)
    assert integer_coeffs(named_series("phi", 25)) == list(a.values)
    assert integer_coeffs(named_series("psi", 25)) == list(b.values)
    assert integer_coeffs(named_series("W", 25)) == list(chain.linear.values)
    assert integer_coeffs(named_series("U", 25)) == list(chain.chord.values)
    assert integer_coeffs(named_series("b", 25)) == [
        double_factorial(2 * n - 1) for n in range(26)
    ]

    triangle = loop_parallel_triangle(12)
    cells = marker_triangle(named_series("wzx", 12))
    keys = set(triangle.entries) | set(cells)
    for key in keys:
        assert triangle.entries.get(key, 0) == cells.get(key, 0)

    assert loop_pde_residual(20).is_zero()
    assert full_pde_residual(15).is_zero()
    report(4, "EGFs match recurrences to order 25, classifier to 12, residuals zero")


def test_criterion_5_burnside_integrality_and_double_counting(sweeps):
    for n in range(1, 41):
        fixed = loopless_rotation_fixed(n)
        assert sum(totient(d) * fixed[d] for d in fixed) % (2 * n) == 0
        fixed = simple_rotation_fixed(n)
        assert sum(totient(d) * fixed[d] for d in fixed) % (2 * n) == 0
    # dihedral sums: the builders assert divisibility by 4n internally
    loopless_dihedral(40)
    simple_dihedral(40)

    for n, sweep in sweeps.items():
        # one class label per group element: the rotation by s has order 2n / gcd(s, 2n)
        rotations = [("rotation", 2 * n // math.gcd(s, 2 * n)) for s in range(2 * n)]
        axes = [("reflection", "vertex"), ("reflection", "edge")] * n
        for group, labels in ((CYCLIC, rotations), (DIHEDRAL, rotations + axes)):
            for family in FAMILIES:
                fixed_total = sum(sweep.count(label, family) for label in labels)
                assert sweep.count(group, family) * len(labels) == fixed_total
    report(5, "rotation/dihedral averages integral to n=40; codes = Burnside to n=6")


def test_criterion_6_octahedron_bijection():
    b = loopless_chord(6)
    dihedral = loopless_dihedral(6)
    for n in range(1, 7):
        labelled, orbit = count_cycles(n)
        assert labelled * 4 * n == b[n] * 2**n * math.factorial(n)
        assert orbit == dihedral[n]
    assert count_cycles(3) == (16, 2)
    report(6, "cycle counts satisfy the 4n identity and orbit counts to n=6")


def test_criterion_7_bfile_prefix_agreement(tmp_path, capsys):
    chord = tmp_path / "b003436.txt"
    chord.write_text(
        "".join(f"{n} {LOOPLESS_TABLE[n][1]}\n" for n in range(1, 21))
    )
    dihedral = tmp_path / "b003437.txt"
    dihedral.write_text(
        "".join(f"{n} {LOOPLESS_TABLE[n][3]}\n" for n in range(1, 21))
    )
    assert main(["verify", "--tables", "--bfile", str(chord)]) == 0
    assert main(["verify", "--tables", "--bfile", str(dihedral)]) == 0

    broken = tmp_path / "b003436_off.txt"
    broken.write_text("".join(
        f"{n} {LOOPLESS_TABLE[n][1] + (n == 9)}\n" for n in range(1, 21)
    ))
    assert main(["verify", "--tables", "--bfile", str(broken)]) == 1
    out = capsys.readouterr().out
    assert "CHECK bfile-loopless-chord n=9" in out and "FAIL" in out
    report(7, "b-file prefixes agree; a planted mismatch exits nonzero")


def test_criterion_8_three_term_and_binomial_sum_agree():
    assert loopless_linear(20).values == loopless_linear_binomial(20).values
    report(8, "three-term and binomial-sum recurrences agree to n=20")
