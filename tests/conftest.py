from collections import Counter

import pytest

from chordenum import octahedron, oracle, reflection, symmetry

SWEEP_MAX = 6

# The chains each process keeps (``symmetry._kept_streams``).
KEPT_CHAINS = (
    symmetry.loopless_fixed_chain,
    symmetry.simple_fixed_chain,
    symmetry.rotation_totals,
    reflection.loopless_axes,
    reflection.simple_axes,
)


def empty_kept_chains():
    for chain in KEPT_CHAINS:
        chain.built.clear()


@pytest.fixture(autouse=True)
def fresh_chains():
    """Empty the kept chains before every test, so that a test which patches a
    kernel, drifts a cell or counts builds sees fresh builds.  Returns the
    function that empties them, for a test that needs a fresh build midway."""
    empty_kept_chains()
    return empty_kept_chains


@pytest.fixture
def yielded_rows(monkeypatch):
    """Count each row the table kernels yield, by (kernel, *key, row): the even-sector
    and mirror rows, and the loopless column's entries (which ``reflection``
    reads through its own from-import binding)."""
    yielded = Counter()
    for module, name in (
        (symmetry, "_even_sector_rows"),
        (reflection, "_mirror_rows"),
        (symmetry, "_loopless_column"),
        (reflection, "_loopless_column"),
    ):

        def counting(*key, _kernel=getattr(module, name), _name=name):
            for row, cells in enumerate(_kernel(*key)):
                yielded[(_name, *key, row)] += 1
                yield cells

        monkeypatch.setattr(module, name, counting)
    return yielded


@pytest.fixture(scope="session")
def sweeps():
    """Oracle full sweeps for n = 1..6, shared across the whole run."""
    return {n: oracle.full_sweep(n) for n in range(1, SWEEP_MAX + 1)}


@pytest.fixture
def loop_in_a_walk(monkeypatch):
    """Give the octahedron kernel's first walk a code with an entry 1: a chord on neighbouring positions."""
    walks = octahedron._canonical_walks

    def looped(n):
        found = walks(n)
        walk, code = found[0]
        found[0] = walk, b"\x01" + code[1:]
        return found

    monkeypatch.setattr(octahedron, "_canonical_walks", looped)
