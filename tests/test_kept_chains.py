"""The chains, table totals and rotation sums each process keeps (``symmetry._kept_streams``).

A served chain must equal a fresh build whatever was asked before it, each
kernel row must be yielded once per key per process in any request order, a
build that fails validation or is interrupted must leave nothing behind,
callers racing on one key must wait for each other, a session of CLI
requests must print the same bytes in any order, and each kept key must
hold no more than two live generators.
"""

import gc
import hashlib
import io
import json
import random
import threading
import time
import types
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
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

from conftest import KEPT_CHAINS

REFERENCE_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
CHAINS = {"loopless": loopless_fixed_chain, "simple": simple_fixed_chain}
REQUESTS = {
    "loopless": lambda d, m_max: [loopless_fixed_chain(d, m_max)],
    "simple": lambda d, m_max: [simple_fixed_chain(d, m_max)],
    "axes": lambda d, m_max: [loopless_axes(m_max), simple_axes(m_max)],
    "totals": lambda d, m_max: [symmetry.rotation_totals(chain, m_max) for chain in CHAINS.values()],
}


# the kernel counter is a function-scoped fixture, emptied for each example
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(
    st.tuples(st.sampled_from(tuple(REQUESTS)), st.integers(1, 12), st.integers(0, 40)),
    max_size=8,
))
def test_served_chains_equal_fresh_builds(fresh_chains, yielded_rows, requests):
    fresh = []
    for family, d, m_max in requests:
        fresh_chains()
        fresh.append(REQUESTS[family](d, m_max))
    fresh_chains()
    yielded_rows.clear()
    for (family, d, m_max), expected in zip(requests, fresh):
        assert REQUESTS[family](d, m_max) == expected, (family, d, m_max)
    # the table rows; the loopless 2-sector column (scalar) is read by the d = 2 chain and by the axes, one column each
    assert all(count == 1 for key, count in yielded_rows.items() if key[0] != "_loopless_column")


def test_a_build_that_fails_validation_keeps_nothing(monkeypatch):
    build = symmetry._even_sector_rows

    def drifted(d):
        for m, row in enumerate(build(d)):
            yield [cell + (m == 3 and k == 1) for k, cell in enumerate(row)]

    monkeypatch.setattr(symmetry, "_even_sector_rows", drifted)
    with pytest.raises(RecurrenceValidationError, match=r"d=2 m=3 k=1: table gives 2"):
        simple_cyclic(20)
    assert (2,) not in simple_fixed_chain.built
    assert (simple_fixed_chain,) not in symmetry.rotation_totals.built
    monkeypatch.undo()
    assert list(simple_cyclic(20).values[1:]) == [SIMPLE_TABLE[n][2] for n in range(1, 21)]


def test_shorter_requests_reuse_the_half_turn_column(fresh_chains, yielded_rows, capsys):
    argvs = [["fixed", "--n", "80"], ["fixed", "--n", "40"], ["seq", "simple-cyclic", "--max", "40"]]
    for order in (argvs, argvs[::-1]):
        fresh_chains()
        yielded_rows.clear()
        for argv in order:
            assert main(argv) == 0
        capsys.readouterr()
        half_turn = {key[2]: count for key, count in yielded_rows.items() if key[:2] == ("_even_sector_rows", 2)}
        assert half_turn == {m: 1 for m in range(81)}


def test_an_interrupted_extension_is_dropped_and_built_afresh(monkeypatch, fresh_chains):
    fresh = simple_fixed_chain(2, 40)
    fresh_chains()
    assert simple_fixed_chain(2, 20) == fresh[:21]
    shifted = symmetry._shifted

    def failing(rows, i, shift, width):
        if width == 31:
            raise RuntimeError("row 30")
        return shifted(rows, i, shift, width)

    monkeypatch.setattr(symmetry, "_shifted", failing)
    with pytest.raises(RuntimeError, match="row 30"):
        simple_fixed_chain(2, 40)
    assert (2,) not in simple_fixed_chain.built
    monkeypatch.undo()
    assert simple_fixed_chain(2, 40) == fresh
    assert simple_fixed_chain(2, 20) == fresh[:21]


def test_threads_asking_one_key_at_different_sizes_wait_for_each_other(monkeypatch, fresh_chains):
    fresh = simple_fixed_chain(2, 60)
    fresh_chains()
    build = symmetry._even_sector_rows

    def slow(d):  # a thread switch in every row, so that the pulls overlap
        for row in build(d):
            time.sleep(0.001)
            yield row

    monkeypatch.setattr(symmetry, "_even_sector_rows", slow)
    sizes = (60, 15, 45, 30)  # more threads than cores
    served, errors = {}, []
    barrier = threading.Barrier(len(sizes))

    def ask(size):
        barrier.wait()
        try:
            served[size] = simple_fixed_chain(2, size)
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(size,)) for size in sizes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert served == {size: fresh[: size + 1] for size in sizes}


def live_generators() -> int:
    gc.collect()
    return sum(isinstance(obj, types.GeneratorType) for obj in gc.get_objects())


def test_each_kept_key_holds_at_most_two_live_generators(capsys):
    # the stores start empty (``fresh_chains``); a key holds its chain and the row kernel or
    # column it reads, no stack of wrappers
    before = live_generators()
    for argv in ("fixed --n 40", "seq simple-dihedral --max 40", "seq loopless-dihedral --max 40"):
        assert main(argv.split()) == 0
    capsys.readouterr()
    keys = sum(len(chain.built) for chain in KEPT_CHAINS)
    assert live_generators() - before <= 2 * keys


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
