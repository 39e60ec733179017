from collections import defaultdict

import pytest

from chordenum import labelled, oracle, symmetry, verify
from chordenum.cli import main
from chordenum.oracle import OracleCapError
from chordenum.verify import check_line


def test_check_line_format():
    line, ok = check_line("labelled-all", 3, 15, 15)
    assert line == "CHECK labelled-all n=3 expected=15 got=15 OK"
    assert ok
    line, ok = check_line("labelled-all", 3, 15, 14)
    assert line.endswith("FAIL")
    assert not ok


def test_verify_builds_each_recurrence_once_per_run(monkeypatch, capsys, yielded_rows):
    built = []
    original = labelled.loop_parallel_triangle

    def counting(n_max, *args, **kwargs):
        built.append(n_max)
        return original(n_max, *args, **kwargs)

    monkeypatch.setattr(labelled, "loop_parallel_triangle", counting)
    assert main(["verify", "--max", "4"]) == 0
    capsys.readouterr()
    # each mirror row once, for the simple-dihedral column; the reflection axes to 4 are its prefix
    mirror = {key: count for key, count in yielded_rows.items() if key[0] == "_mirror_rows"}
    assert mirror == {("_mirror_rows", n): 1 for n in range(21)}
    assert built == [3]


def test_report_refuses_a_depth_over_the_cap_before_building_anything(monkeypatch):
    monkeypatch.setattr(verify, "build_recurrences", lambda *args: pytest.fail("built the recurrences"))
    monkeypatch.setattr(oracle, "full_sweep", lambda *args, **kwargs: pytest.fail("ran a sweep"))
    with pytest.raises(OracleCapError):
        verify.report(4, 2)


def test_verify_sums_each_familys_rotations_once(monkeypatch):
    summed = defaultdict(list)
    start = symmetry.rotation_totals.__wrapped__

    def counting(fixed_chain):
        more = start(fixed_chain)

        def counted(have, size):
            summed[fixed_chain.__name__].append((have, size))
            return more(have, size)

        return counted

    monkeypatch.setattr(symmetry, "rotation_totals", symmetry._kept_streams(counting))
    verify.report(6, 9)
    # entries 0..20 of each family's sum, each computed once
    assert summed == {"loopless_fixed_chain": [(0, 20)], "simple_fixed_chain": [(0, 20)]}
