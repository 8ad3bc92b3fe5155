import pytest
from hypothesis import settings

from circnot import CutSet
from helpers import mkcirc, swap_circular

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
