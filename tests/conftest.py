import pytest

from chordenum import octahedron, oracle, reflection, symmetry

SWEEP_MAX = 6

# The chains each process keeps (``symmetry._kept_prefixes``).
KEPT_CHAINS = (
    symmetry.loopless_fixed_chain,
    symmetry.simple_fixed_chain,
    symmetry.rotation_totals,
    reflection.loopless_axes,
    reflection.simple_axes,
)


@pytest.fixture(autouse=True)
def fresh_chains():
    """Empty the kept chains before every test, so that a test which patches a
    kernel, drifts a cell or counts builds sees fresh builds."""
    for chain in KEPT_CHAINS:
        chain.built.clear()


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
