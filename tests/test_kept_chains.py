"""The fixed-count chains each process keeps (``symmetry._kept_prefixes``).

A served chain must equal a fresh build whatever was asked before it, a
build that fails validation must leave nothing behind, and a session of
CLI requests must print the same bytes in any order.
"""

import hashlib
import io
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chordenum import symmetry
from chordenum.cli import main
from chordenum.golden import SIMPLE_TABLE
from chordenum.reflection import loopless_axes, simple_axes
from chordenum.symmetry import (
    RecurrenceValidationError,
    loopless_fixed_chain,
    simple_cyclic,
    simple_fixed_chain,
)

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
CHAINS = {"loopless": loopless_fixed_chain, "simple": simple_fixed_chain}


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.tuples(st.sampled_from(("loopless", "simple", "axes")), st.integers(1, 12), st.integers(0, 40)),
    max_size=8,
))
def test_served_chains_equal_fresh_builds(requests):
    for family, d, m_max in requests:
        if family == "axes":
            for axes in (loopless_axes, simple_axes):
                assert axes(m_max) == axes.__wrapped__(m_max), (axes.__name__, m_max)
        else:
            chain = CHAINS[family]
            assert chain(d, m_max) == chain.__wrapped__(d, m_max), (family, d, m_max)


def test_a_build_that_fails_validation_keeps_nothing(monkeypatch):
    build = symmetry._even_sector_rows

    def drifted(d, m_max):
        rows = build(d, m_max)
        rows[3][1] += 1
        return rows

    monkeypatch.setattr(symmetry, "_even_sector_rows", drifted)
    with pytest.raises(RecurrenceValidationError, match=r"d=2 m=3 k=1: table gives 2"):
        simple_cyclic(20)
    monkeypatch.undo()
    assert list(simple_cyclic(20).values[1:]) == [SIMPLE_TABLE[n][2] for n in range(1, 21)]


def test_shorter_requests_reuse_the_half_turn_column(monkeypatch, capsys):
    built = Counter()
    original = symmetry.simple_sector_counts

    def counting(d, m_max):
        built[d] += 1
        return original(d, m_max)

    monkeypatch.setattr(symmetry, "simple_sector_counts", counting)
    for argv in (["fixed", "--n", "80"], ["fixed", "--n", "40"], ["seq", "simple-cyclic", "--max", "40"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built[2] == 1


def session_requests() -> list[str]:
    """A seeded sample of ``fixed --n 1..80`` and the orbit-count ``seq`` requests at 10..60,
    by ascending size; sampled so that the three orders take well under a second."""
    rng = random.Random(21)
    requests = [f"fixed --n {n}" for n in rng.sample(range(1, 81), 40)]
    for family in ("loopless-cyclic", "loopless-dihedral", "simple-cyclic", "simple-dihedral"):
        requests += [f"seq {family} --max {m}" for m in rng.sample(range(10, 61), 15)]
    return sorted(requests, key=lambda request: int(request.rsplit(" ", 1)[1]))


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_a_session_prints_the_reference_in_any_order(order):
    with open(REFERENCE_PATH) as handle:
        outputs = json.load(handle)["outputs"]
    requests = session_requests()
    if order == "descending":
        requests.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(requests)
    for request in requests:
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(request.split()) == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == outputs[request], request
