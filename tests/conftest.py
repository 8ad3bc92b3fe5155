import time
from typing import NamedTuple

import pytest
from hypothesis import settings

from circnot import CutSet
from helpers import SweepEntry, all_small_circuits, mkcirc, swap_circular, sweep_table

# Property tests run a fixed, derandomized set of examples by default, sized
# to a few seconds of the suite; ``pytest --hypothesis-profile=large`` runs
# many more, with fresh randomness on every run.
settings.register_profile("fixed", derandomize=True, deadline=None, database=None, max_examples=150)
settings.register_profile("large", deadline=None, database=None, max_examples=5000)
settings.load_profile("fixed")


@pytest.fixture
def swap():
    return swap_circular()


@pytest.fixture
def single_cnot():
    return mkcirc(2, [(0, 1)])


# The four worked cut sets of the circular SWAP, by gap (wire, index):
# reconstruction of the original SWAP; the cyclically permuted single-CNOT
# list; the four-qubit teleported CNOT; selective destination teleportation.
SWAP_CUT_FIXTURES = {
    "swap": [(0, 2), (1, 2)],
    "single-cnot": [(0, 1), (1, 1)],
    "teleported-cnot": [(0, 0), (0, 1), (0, 2), (1, 2)],
    "sdt": [(0, 1), (0, 2), (1, 0), (1, 1)],
}


@pytest.fixture
def swap_cut_sets():
    return {name: CutSet.of(gaps) for name, gaps in SWAP_CUT_FIXTURES.items()}


class SmallSweep(NamedTuple):
    """Per circuit, its ``SweepEntry`` list (``sweep_table``), and the seconds the table took."""

    table: list[tuple[object, list[SweepEntry]]]
    seconds: float


@pytest.fixture(scope="session")
def small_sweep() -> SmallSweep:
    """Every ``all_small_circuits(3, 4)`` circuit with each subset of 1-6 of its gaps.

    Built once per session; each small-sweep test reads it and checks its
    own relation against its own reference.
    """
    start = time.perf_counter()
    table = sweep_table(all_small_circuits(3, 4), 6)
    return SmallSweep(table, time.perf_counter() - start)
