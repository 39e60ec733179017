import pytest

from chordenum import labelled, oracle, reflection, verify
from chordenum.cli import family_values, main
from chordenum.oracle import OracleCapError
from chordenum.verify import check_line


def test_check_line_format():
    line, ok = check_line("labelled-all", 3, 15, 15)
    assert line == "CHECK labelled-all n=3 expected=15 got=15 OK"
    assert ok
    line, ok = check_line("labelled-all", 3, 15, 14)
    assert line.endswith("FAIL")
    assert not ok


def test_verify_builds_each_recurrence_once_per_run(monkeypatch, capsys):
    built = {"build_mirror_tables": [], "loop_parallel_triangle": []}
    for module, name in ((reflection, "build_mirror_tables"), (labelled, "loop_parallel_triangle")):
        original = getattr(module, name)

        def counting(n_max, *args, _original=original, _calls=built[name], **kwargs):
            _calls.append(n_max)
            return _original(n_max, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert main(["verify", "--max", "4"]) == 0
    capsys.readouterr()
    # one mirror build for the simple-dihedral column; the reflection axes to 4 are its prefix
    assert built["build_mirror_tables"] == [20]
    assert built["loop_parallel_triangle"] == [3]


def test_report_refuses_a_depth_over_the_cap_before_building_anything(monkeypatch):
    monkeypatch.setattr(verify, "build_recurrences", lambda *args: pytest.fail("built the recurrences"))
    monkeypatch.setattr(oracle, "full_sweep", lambda *args, **kwargs: pytest.fail("ran a sweep"))
    with pytest.raises(OracleCapError):
        verify.report(family_values, 4, 2)
