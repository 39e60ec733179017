"""Self-tests of the benchmark.  Run: python3 -m pytest -q perfbench"""

from __future__ import annotations

import inspect
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import chordenum  # noqa: E402
from chordenum import cli, octahedron, oracle, reflection, series  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

GOOD = workloads.cli("seq", "simple-dihedral", "--max", 12)


def bindings() -> dict:
    """Every module-level and class-level binding in the chordenum package."""
    found = {}
    for name in sorted(sys.modules):
        if name == "chordenum" or name.startswith("chordenum."):
            for attribute, value in vars(sys.modules[name]).items():
                found[(name, attribute)] = value
                if inspect.isclass(value):
                    for method, raw in vars(value).items():
                        found[(name, attribute, method)] = raw
    return found


def capture(argv) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_checker_counts_a_wrong_value_as_failed(monkeypatch):
    expected = reference.load()
    key = workloads.key(GOOD)
    assert key in expected["outputs"]
    forged = dict(expected, outputs=dict(expected["outputs"], **{key: "0" * 64}))
    monkeypatch.setattr(reference, "load", lambda: forged)
    monkeypatch.setattr(workloads, "requests", lambda workload, seed: [GOOD, workloads.cli("fixed", "--n", 12)])
    result = run.run("interactive", 0, 0, False)
    assert result["attempted"] == 2
    assert len(result["failures"]) == 1 and key in result["failures"][0]

    call = {"kind": "call", "name": "octahedron-5"}
    wrong = dict(expected["calls"]["octahedron-5"], orbits=28)
    assert reference.failure(call, {"rc": 0, "value": wrong}, expected) is not None
    verify = workloads.cli("verify", "--max", 6)
    lines = expected["verify"][workloads.key(verify)]
    assert reference.failure(verify, {"rc": 0, "text": "\n".join(lines)}, expected) is None
    assert reference.failure(verify, {"rc": 0, "text": "\n".join(lines[1:])}, expected) is not None


def test_checker_counts_a_raised_exception_as_failed(monkeypatch):
    raising = {"kind": "call", "name": "no-such-check"}
    refused = workloads.cli("seq", "loopless-linear", "--max", 0)
    monkeypatch.setattr(workloads, "requests", lambda workload, seed: [GOOD, raising, refused])
    result = run.run("crosscheck", 0, 0, False)
    assert result["attempted"] == 3
    assert len(result["failures"]) == 2
    assert "ValueError" in result["failures"][0]
    assert "exit code 2" in result["failures"][1]


def test_tracer_changes_no_output_and_leaves_no_wrapper_behind():
    argvs = [
        ["seq", "simple-dihedral", "--max", "12"],
        ["fixed", "--n", "12"],
        ["series", "wzx", "--order", "8", "--z", "1", "--x", "0"],
        ["triangle", "a_nkl", "--max", "5"],
        ["verify", "--max", "3"],
    ]
    before = bindings()
    plain = [capture(argv) for argv in argvs] + [octahedron.count_cycles(3)]

    trace = tracer.Tracer().install()
    try:
        # from-imports are wrapped where they are bound, not only where defined
        for module, name in ((reflection, "simple_rotation_fixed"), (oracle, "classify_pairing"),
                             (cli, "double_factorial"), (chordenum, "loopless_dihedral")):
            assert hasattr(getattr(module, name), "__perfbench_wrapped__"), name
        assert hasattr(series.TruncatedSeries.__mul__, "__perfbench_wrapped__")
        traced = []
        for index, argv in enumerate(argvs):
            frame = trace.begin_request(index)
            traced.append(capture(argv))
            trace.end_request(frame)
        traced.append(octahedron.count_cycles(3))
    finally:
        trace.uninstall()

    assert traced == plain
    assert tracer.wrapped_names() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = trace.summary()
    ids = {span[0] for span in trace.spans}
    assert all(span[1] == 0 or span[1] in ids for span in trace.spans)
    assert {span[2] for span in trace.spans if span[3] == "cli"} == set(range(len(argvs)))
    assert summary["counters"]["octahedron.cycles"] == 16
    assert summary["counters"]["oracle.matchings"] == 1 + 3 + 15
    assert summary["layer_calls"]["cli"] == len(argvs)
    assert summary["layer_self"]["symmetry"] > 0 and summary["layer_self"]["diagram"] > 0
