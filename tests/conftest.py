import pytest

from chordenum import oracle, reflection, symmetry

SWEEP_MAX = 6

# The chains each process keeps (``symmetry._kept_prefixes``).
KEPT_CHAINS = (symmetry.loopless_fixed_chain, symmetry.simple_fixed_chain, reflection.simple_axes)


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
