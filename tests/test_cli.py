import argparse
import errno
import json
import math
import os
import stat
import subprocess
import sys
from fractions import Fraction
from itertools import product

import pytest

from chordenum import cli, labelled, octahedron, oracle, reflection, symmetry, verify
from chordenum.cli import main, render_sequence
from chordenum.diagram import vertex_reflection
from chordenum.golden import LOOPLESS_TABLE, SIMPLE_TABLE
from chordenum.series import MARKERS_OF, SERIES_NAMES, integer_coeffs, named_series
from chordenum.symmetry import RecurrenceValidationError
from chordenum.verify import family_values, parse_bfile


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_seq_examples(capsys):
    code, out = run(capsys, "seq", "loopless-chord", "--max", "4")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["0", "1", "4", "31"]

    code, out = run(capsys, "seq", "simple-dihedral", "--max", "6")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["0", "1", "1", "4", "18", "116"]

    code, out = run(capsys, "seq", "all", "--max", "3")
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["1", "3", "15"]


def test_every_family_matches_the_published_tables():
    for family, table, col in (
        ("loopless-linear", LOOPLESS_TABLE, 0),
        ("loopless-chord", LOOPLESS_TABLE, 1),
        ("loopless-cyclic", LOOPLESS_TABLE, 2),
        ("loopless-dihedral", LOOPLESS_TABLE, 3),
        ("simple-linear", SIMPLE_TABLE, 0),
        ("simple-chord", SIMPLE_TABLE, 1),
        ("simple-cyclic", SIMPLE_TABLE, 2),
        ("simple-dihedral", SIMPLE_TABLE, 3),
    ):
        values = family_values(family, 20)
        assert values == [table[n][col] for n in range(1, 21)]


def test_counts_past_4300_digits_print(capsys):
    # the interpreter's default int-to-str limit is 4,300 digits; main lifts it while it runs,
    # and gives the caller its limit back, also after a usage error
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(4300)
    try:
        code, out = run(capsys, "seq", "loopless-chord", "--max", "1424")
        after_run = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        with pytest.raises(SystemExit):
            main(["seq", "nonsense"])
        after_usage_error = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(out.splitlines()[-1].split()[1]) > 4300
    assert after_run == 4300
    assert after_usage_error == 4300


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "nonsense", "--max", "3"])
    assert exc.value.code == 2


def test_seq_and_verify_offer_the_family_table():
    (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    (family,) = [a for a in commands.choices["seq"]._actions if a.dest == "family"]
    assert family.choices == (
        "loopless-linear",
        "loopless-chord",
        "loopless-cyclic",
        "loopless-dihedral",
        "simple-linear",
        "simple-chord",
        "simple-cyclic",
        "simple-dihedral",
        "all",
    )
    (bfile_family,) = [a for a in commands.choices["verify"]._actions if a.dest == "bfile_family"]
    assert bfile_family.choices and set(bfile_family.choices) <= set(verify.FAMILIES)
    with pytest.raises(ValueError, match="'no-such-family'"):
        verify.family_values("no-such-family", 3)


def test_json_round_trip_preserves_24_digit_values(capsys):
    code, out = run(capsys, "seq", "loopless-linear", "--max", "20", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["offset"] == 1
    parsed = [int(v) for v in payload["values"]]
    assert parsed == family_values("loopless-linear", 20)
    assert payload["values"][19] == "116160936719430292078411"


def test_bfile_format_is_two_fields(capsys):
    code, out = run(capsys, "seq", "simple-chord", "--max", "8", "--format", "bfile")
    assert code == 0
    for i, line in enumerate(out.splitlines(), start=1):
        fields = line.split()
        assert len(fields) == 2
        assert int(fields[0]) == i


def test_output_is_deterministic(capsys):
    first = run(capsys, "verify", "--max", "2")
    second = run(capsys, "verify", "--max", "2")
    assert first == second


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    code, out = run(capsys, "seq", "loopless-chord", "--max", "3", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "1 0\n2 1\n3 4\n"


def test_series_command(capsys):
    code, out = run(capsys, "series", "U", "--order", "6")
    assert code == 0
    ints = [int(line.split()[2]) for line in out.splitlines()]
    assert ints == [0, 0, 1, 1, 21, 168, 1968]

    code, out = run(capsys, "series", "wzx", "--order", "4", "--z", "0", "--x", "0")
    assert code == 0
    ints = [int(line.split()[2]) for line in out.splitlines()]
    assert ints == [0, 1, 3, 24, 211]


def marker_choices(name):
    """Every 0/1 assignment of the markers a series carries."""
    carried = MARKERS_OF.get(name, "")
    return [dict(zip(carried, values)) for values in product((0, 1), repeat=len(carried))]


def marker_options(markers):
    return [option for marker, value in markers.items() for option in (f"--{marker}", str(value))]


@pytest.mark.parametrize("name", SERIES_NAMES)
def test_series_ratio_column_prints_as_a_fraction(capsys, name):
    # the middle column is a_n / n! in lowest terms, as str(Fraction) prints it
    for markers in marker_choices(name):
        for order in range(1, 41):
            code, out = run(capsys, "series", name, "--order", str(order), *marker_options(markers))
            assert code == 0
            ints = integer_coeffs(named_series(name, order, **markers))
            expected = "".join(f"{n} {Fraction(a, math.factorial(n))} {a}\n" for n, a in enumerate(ints))
            assert out == expected, (order, markers)


def test_series_marker_usage_errors(capsys):
    code = main(["series", "wzx", "--order", "3"])
    assert code == 2
    code = main(["series", "phi", "--order", "3", "--z", "0"])
    assert code == 2


@pytest.mark.parametrize(
    "argv, marker",
    [
        (["series", "wz", "--order", "3", "--z", "1", "--x", "1"], "x"),
        (["series", "wx", "--order", "3", "--z", "1", "--x", "1"], "z"),
    ],
    ids=["wz --x", "wx --z"],
)
def test_series_refuses_a_marker_the_series_does_not_carry(capsys, argv, marker):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: series {argv[1]} carries no marker {marker} to assign\n"


def test_triangle_command_prints_row_totals(capsys):
    code, out = run(capsys, "triangle", "a_nkl", "--max", "3")
    assert code == 0
    totals = [line for line in out.splitlines() if line.startswith("n=")]
    assert totals[0] == "n=0 chords=1 total=1 expected=1 ok"
    assert totals[3] == "n=3 chords=4 total=105 expected=105 ok"


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_a_triangle_row_off_its_total_exits_1(monkeypatch, capsys, fmt):
    build = labelled.loop_triangle

    def off_by_one(n_max):
        rows = [dict(row) for row in build(n_max).rows]
        rows[2][(1,)] += 1
        return labelled.TriangleTable(tuple(rows))

    monkeypatch.setattr(labelled, "loop_triangle", off_by_one)
    code = main(["triangle", "a_nk", "--max", "3", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "row n=2: total=4 expected=3 MISMATCH\n"
    if fmt == "table":
        totals = [line for line in captured.out.splitlines() if line.startswith("n=")]
        assert totals[2] == "n=2 chords=2 total=4 expected=3 MISMATCH"
        assert [line.endswith(" ok") for line in totals] == [True, True, False, True]
    else:
        assert "2,1,2" in captured.out.splitlines()


def test_fixed_command(capsys):
    code, out = run(capsys, "fixed", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "d=1 loopless=31 simple=21",
        "d=2 loopless=15 simple=5",
        "d=4 loopless=3 simple=1",
        "d=8 loopless=1 simple=1",
    ]


def test_octahedron_command(capsys):
    code, out = run(capsys, "octahedron", "--n", "3")
    assert code == 0
    assert out.splitlines() == ["labelled 16", "orbits 2"]

    code, out = run(capsys, "octahedron", "--n", "2", "--list")
    assert code == 0
    assert out.splitlines()[-1] == "cycle 1-3-2-4 n=2;circular;1-3,2-4"

    code = main(["octahedron", "--n", "9"])
    assert code == 2


def test_octahedron_list_counts_and_lists_in_one_search(monkeypatch, capsys):
    calls = {"_canonical_walks": [], "cycle_to_diagram": 0}
    walks, to_diagram = octahedron._canonical_walks, octahedron.cycle_to_diagram

    def counting_walks(n):
        calls["_canonical_walks"].append(n)
        return walks(n)

    def counting_to_diagram(cycle):
        calls["cycle_to_diagram"] += 1
        return to_diagram(cycle)

    monkeypatch.setattr(octahedron, "_canonical_walks", counting_walks)
    monkeypatch.setattr(octahedron, "cycle_to_diagram", counting_to_diagram)
    assert main(["octahedron", "--n", "9", "--list"]) == 2  # the cap refuses before any walk
    assert calls["_canonical_walks"] == []
    capsys.readouterr()
    code, out = run(capsys, "octahedron", "--n", "4", "--list")
    assert code == 0
    assert out.splitlines()[:2] == ["labelled 744", "orbits 7"]
    assert len(out.splitlines()) == 2 + 744
    assert calls["_canonical_walks"] == [4]
    # each walk's diagram is read off its offset code, not rebuilt from the cycle
    assert calls["cycle_to_diagram"] == 0


def test_octahedron_at_the_cap(capsys):
    code, out = run(capsys, "octahedron", "--n", "6")
    assert code == 0
    assert out.splitlines() == ["labelled 6385920", "orbits 196"]


def test_octahedron_above_the_cap_refuses_before_any_walk_or_search(monkeypatch, capsys):
    calls = []
    walks = octahedron._canonical_walks
    monkeypatch.setattr(octahedron, "_canonical_walks", lambda n: calls.append(("walk", n)) or walks(n))
    for argv in (["octahedron", "--n", "7"], ["octahedron", "--n", "7", "--list"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n=7 exceeds the cycle enumeration cap 6\n"
    assert calls == []
    assert main(["octahedron", "--n", "3", "--list"]) == 0  # the counter sees a run below the cap
    assert calls == [("walk", 3)]


def test_octahedron_list_refuses_above_its_cap_before_any_walk(monkeypatch, capsys):
    assert octahedron.LIST_CAP == 5
    monkeypatch.setattr(octahedron, "_canonical_walks", lambda n: pytest.fail("walked above the list cap"))
    assert main(["octahedron", "--n", "6", "--list"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: n=6 exceeds the cycle listing cap 5")


def test_octahedron_list_formats_each_shared_diagram_once(monkeypatch, capsys):
    formatted = []
    format_diagram = cli.format_diagram
    monkeypatch.setattr(cli, "format_diagram", lambda diagram: formatted.append(diagram) or format_diagram(diagram))
    code, out = run(capsys, "octahedron", "--n", "4", "--list")
    assert code == 0
    assert len(out.splitlines()) == 2 + 744
    assert len(formatted) == 31


def test_verify_passes_and_checks_are_well_formed(capsys):
    code, out = run(capsys, "verify", "--max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines
    for line in lines:
        fields = line.split()
        assert fields[0] == "CHECK"
        assert fields[-1] == "OK"
        assert fields[2].startswith("n=")


def test_verify_tables_only(capsys):
    code, out = run(capsys, "verify", "--tables")
    assert code == 0
    assert all(line.startswith("CHECK golden-") for line in out.splitlines())
    assert len(out.splitlines()) == 8


def test_verify_bfile_paths(tmp_path, capsys):
    good = tmp_path / "b003436.txt"
    lines = [f"{n} {LOOPLESS_TABLE[n][1]}" for n in range(1, 21)]
    good.write_text("# comment line\n" + "\n".join(lines) + "\n")
    code, out = run(capsys, "verify", "--tables", "--bfile", str(good))
    assert code == 0
    assert "bfile-loopless-chord" in out

    bad = tmp_path / "b003436_broken.txt"
    rows = dict(enumerate(lines, start=1))
    rows[7] = "7 44190"
    bad.write_text("\n".join(rows[i] for i in range(1, 21)) + "\n")
    code, out = run(capsys, "verify", "--tables", "--bfile", str(bad))
    assert code == 1
    fail_lines = [line for line in out.splitlines() if line.endswith("FAIL")]
    assert fail_lines == ["CHECK bfile-loopless-chord n=7 expected=44190 got=44189 FAIL"]

    unnamed = tmp_path / "mystery.txt"
    unnamed.write_text("1 0\n")
    code = main(["verify", "--tables", "--bfile", str(unnamed)])
    assert code == 2

    code, out = run(
        capsys,
        "verify",
        "--tables",
        "--bfile",
        str(unnamed),
        "--bfile-family",
        "loopless-chord",
    )
    assert code == 0


def test_bfile_family_is_read_from_the_file_name_alone(tmp_path, capsys):
    # a dihedral b-file inside a directory named after the chord sequence
    folder = tmp_path / "003436"
    folder.mkdir()
    dihedral = folder / "b003437.txt"
    dihedral.write_text("".join(f"{n} {LOOPLESS_TABLE[n][3]}\n" for n in range(1, 21)))
    code, out = run(capsys, "verify", "--tables", "--bfile", str(dihedral))
    assert code == 0
    assert out.splitlines()[-1] == f"CHECK bfile-loopless-dihedral n=20 expected={LOOPLESS_TABLE[20][3]} got={LOOPLESS_TABLE[20][3]} OK"

    # a name that carries both sequence numbers, or neither, is refused
    for name in ("b003436_vs_b003437.txt", "b000000.txt"):
        ambiguous = folder / name
        ambiguous.write_text("1 0\n")
        code = main(["verify", "--tables", "--bfile", str(ambiguous)])
        captured = capsys.readouterr()
        assert code == 2, name
        assert captured.out == "", name
        assert captured.err == "error: cannot infer the sequence family from the file name; pass --bfile-family\n"


def test_parse_bfile_rejects_malformed_lines(tmp_path):
    path = tmp_path / "three_fields.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_bfile(str(path))

    path = tmp_path / "not_a_number.txt"
    path.write_text("# header\n1 abc\n")
    with pytest.raises(ValueError) as exc:
        parse_bfile(str(path))
    assert str(exc.value) == f"{path}:2: expected two integers, got '1 abc'"


def test_the_parser_is_built_once(monkeypatch, capsys):
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    after = []
    for argv in (["seq", "all", "--max", "3"], ["fixed", "--n", "4"], ["seq", "all", "--max", "3"]):
        assert main(argv) == 0
        after.append(len(built))
    assert after[1] == after[2] == after[0]  # at most the first call builds it


def test_the_parser_keeps_no_state_between_calls(tmp_path, capsys):
    target = tmp_path / "seq.txt"
    assert main(["seq", "all", "--max", "3", "--out", str(target)]) == 0
    assert main(["seq", "all", "--max", "3"]) == 0
    assert capsys.readouterr().out == target.read_text() == "1 1\n2 3\n3 15\n"

    assert main(["series", "wz", "--order", "3", "--z", "1"]) == 0
    capsys.readouterr()
    assert main(["series", "wz", "--order", "3"]) == 2
    assert "needs --z" in capsys.readouterr().err

    with pytest.raises(SystemExit) as refused:
        main(["seq", "no-such-family"])
    assert refused.value.code == 2
    capsys.readouterr()
    assert main(["seq", "loopless-chord", "--max", "4"]) == 0
    assert [line.split()[1] for line in capsys.readouterr().out.splitlines()] == ["0", "1", "4", "31"]


def test_render_sequence_formats():
    values = [0, 1, 4]
    assert render_sequence("x", values, "bfile") == "1 0\n2 1\n3 4\n"
    assert render_sequence("x", values, "csv") == "n,value\n1,0\n2,1\n3,4\n"
    assert "values" in json.loads(render_sequence("x", values, "json"))


def test_out_into_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "seq.txt"
    code = main(["seq", "simple-cyclic", "--max", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert not target.exists()


def test_a_failed_out_write_leaves_the_target_unchanged(tmp_path, capsys, monkeypatch):
    target = tmp_path / "seq.txt"
    target.write_bytes(b"kept as it was\n")
    real_open = open

    class FullDisk:
        def __init__(self, handle):
            self.handle = handle

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.handle.close()

        def write(self, text):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(cli, "open", lambda path, mode="r": FullDisk(real_open(path, mode)), raising=False)
    code = main(["seq", "loopless-chord", "--max", "3", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: cannot write {target}: No space left on device\n"
    assert target.read_bytes() == b"kept as it was\n"
    assert list(tmp_path.iterdir()) == [target]


SEQ_ARGV = ["seq", "loopless-chord", "--max", "3"]


def test_out_to_a_fifo_is_written_in_place(tmp_path, capsys, monkeypatch):
    # a FIFO, like /dev/null or /dev/stdout, must never be renamed over
    expected = run(capsys, *SEQ_ARGV)[1].encode()
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    monkeypatch.setattr(os, "replace", lambda *args: pytest.fail("renamed over a FIFO"))
    try:
        code, out = run(capsys, *SEQ_ARGV, "--out", str(fifo))
        received = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert (code, out) == (0, "")
    assert received == expected
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_out_through_a_symlink_writes_the_file_it_names(tmp_path, capsys):
    expected = run(capsys, *SEQ_ARGV)[1]
    target = tmp_path / "seq.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(capsys, *SEQ_ARGV, "--out", str(link)) == (0, "")
    assert link.is_symlink()
    assert target.read_text() == expected


def test_out_keeps_an_existing_mode_and_gives_a_new_file_the_default(tmp_path, capsys):
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    kept.chmod(0o640)
    fresh = tmp_path / "fresh.txt"
    for target in (kept, fresh):
        assert run(capsys, *SEQ_ARGV, "--out", str(target)) == (0, "")
    mask = os.umask(0)
    os.umask(mask)
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o666 & ~mask


def test_out_is_synced_before_the_rename_and_ignores_stale_temporaries(tmp_path, capsys, monkeypatch):
    target = tmp_path / "seq.txt"
    stale = tmp_path / f"seq.txt.{os.getpid()}.tmp"  # as a killed run might leave it
    stale.write_text("left behind\n")
    calls = []
    real_fsync, real_replace = os.fsync, os.replace
    monkeypatch.setattr(os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1])
    monkeypatch.setattr(os, "replace", lambda *args: (calls.append("replace"), real_replace(*args))[1])
    assert run(capsys, *SEQ_ARGV, "--out", str(target)) == (0, "")
    assert calls == ["fsync", "replace"]
    assert sorted(tmp_path.iterdir()) == [target, stale]


def test_negative_max_is_refused(capsys):
    for argv in (
        ["triangle", "a_nk", "--max", "-1"],
        ["triangle", "a_nkl", "--max", "-1", "--format", "csv"],
        ["verify", "--max", "-3"],
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2, argv
        assert captured.out == "", argv
        assert captured.err == "error: --max must be at least 0\n", argv


def test_verify_refuses_a_depth_over_the_cap_before_any_sweep(monkeypatch, capsys):
    calls = []
    original = oracle.full_sweep

    def counting(n, *args, **kwargs):
        calls.append(n)
        return original(n, *args, **kwargs)

    monkeypatch.setattr(oracle, "full_sweep", counting)
    code = main(["verify", "--max", "4", "--oracle-cap", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: n=4 exceeds the enumeration cap 2\n"
    assert calls == []


def test_missing_bfile_is_a_usage_error(tmp_path, capsys):
    code = main(["verify", "--tables", "--bfile", str(tmp_path / "b003436.txt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read ")


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--bfile-family", "loopless-chord"], "--bfile-family needs --bfile"),
        (["--oracle-cap", "-1"], "n=0 exceeds the enumeration cap -1"),
    ],
    ids=["bfile-family-without-bfile", "negative-oracle-cap"],
)
def test_verify_tables_refuses_bad_options(capsys, argv, error):
    code = main(["verify", "--tables", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"


@pytest.mark.parametrize(
    "module, builder, error",
    [
        (symmetry, "loopless_cyclic", ArithmeticError("rotation average is not integral at n=3: 7/6")),
        (reflection, "simple_dihedral", RecurrenceValidationError("cell (2, 4) disagrees")),
    ],
)
def test_internal_errors_exit_3_not_as_failed_checks(monkeypatch, capsys, module, builder, error):
    def broken(n_max):
        raise error

    monkeypatch.setattr(module, builder, broken)
    family = builder.replace("_", "-")
    code = main(["seq", family, "--max", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"internal error: {error}\n"


def test_a_non_integral_dihedral_average_exits_3(monkeypatch, capsys):
    real = reflection.loopless_axes

    def off_by_one(n_max):
        vertex, edge = real(n_max)
        return vertex[:2] + (vertex[2] + 1,) + vertex[3:], edge

    monkeypatch.setattr(reflection, "loopless_axes", off_by_one)
    code = main(["seq", "loopless-dihedral", "--max", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: dihedral average is not integral at n=2: 5/4\n"


def test_a_failed_burnside_identity_exits_3(monkeypatch, capsys):
    # drop the one matching on 2 points that the vertex axis fixes
    axis = vertex_reflection(2, 0)
    real = oracle._fixed_tally

    def dropping(point_count, element):
        tally, first = real(point_count, element)
        if element == axis:
            tally[first[1]] -= 1
        return tally, first

    monkeypatch.setattr(oracle, "_fixed_tally", dropping)
    code = main(["verify", "--max", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: Burnside identity fails for n=1 dihedral all: 1 * 4 != 3\n"


def test_a_loop_on_a_cycle_diagram_exits_3(loop_in_a_walk, capsys):
    code = main(["octahedron", "--n", "3"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "internal error: antipodal vertices were adjacent on the cycle\n"


def test_start_up_imports_only_what_every_command_runs():
    """Records need no dataclasses; json and tempfile wait for the one path that uses each."""
    probe = (
        "import sys; before = set(sys.modules); import chordenum.cli; chordenum.cli.build_parser(); "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "chordenum.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect", "json", "tempfile"}), sorted(added)


def test_no_command_loads_fractions():
    """Every series is printed from ints: neither start-up nor any command loads fractions, decimal or numbers."""
    argvs = [
        ["series", name, "--order", "12", *marker_options(markers)]
        for name in SERIES_NAMES
        for markers in marker_choices(name)
    ]
    argvs += [["seq", family, "--max", "8"] for family in verify.FAMILIES]
    argvs += [["triangle", name, "--max", "4"] for name in cli.TRIANGLE_NAMES]
    argvs += [["fixed", "--n", "6"], ["verify", "--max", "3"]]
    probe = (
        "import sys; import chordenum.cli; chordenum.cli.build_parser()\n"
        f"codes = [chordenum.cli.main(argv + ['--out', {os.devnull!r}]) for argv in {argvs!r}]\n"
        "print(codes, sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(argvs)} []\n"
