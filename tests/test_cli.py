import json

import pytest

from chordenum import oracle
from chordenum.cli import family_values, main, parse_bfile, render_sequence
from chordenum.golden import LOOPLESS_TABLE, SIMPLE_TABLE


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


def test_unknown_family_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["seq", "nonsense", "--max", "3"])
    assert exc.value.code == 2


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


def test_series_marker_usage_errors(capsys):
    code = main(["series", "wzx", "--order", "3"])
    assert code == 2
    code = main(["series", "phi", "--order", "3", "--z", "0"])
    assert code == 2


def test_triangle_command_prints_row_totals(capsys):
    code, out = run(capsys, "triangle", "a_nkl", "--max", "3")
    assert code == 0
    totals = [line for line in out.splitlines() if line.startswith("n=")]
    assert totals[0] == "n=0 chords=1 total=1 expected=1 ok"
    assert totals[3] == "n=3 chords=4 total=105 expected=105 ok"


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


def test_parse_bfile_rejects_malformed_lines(tmp_path):
    path = tmp_path / "three_fields.txt"
    path.write_text("1 2 3\n")
    with pytest.raises(ValueError):
        parse_bfile(str(path))


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
