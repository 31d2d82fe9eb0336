import random

import kref
import pytest

from lamtower.domains import Tower, flat_base


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def tower():
    return Tower(flat_base())


@pytest.fixture(scope="session")
def mismatches():
    """mismatches(base) is kref.diff of a fresh Tower over base, run once per
    base order in a session."""
    runs = {}

    def diff(base):
        key = (base.leq, base.bottom)
        if key not in runs:
            runs[key] = kref.diff(Tower(base))
        return runs[key]
    return diff
