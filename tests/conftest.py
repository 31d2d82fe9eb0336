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
    """kref.diff of a fresh Tower, run once per base order in a session.

    mismatches(base, *ops) lists the mismatches of the named operations, an
    op being a name or an (operation, stage) pair, or all of them when no op
    is named."""
    runs = {}

    def view(base, *ops):
        key = (base.leq, base.bottom)
        if key not in runs:
            runs[key] = kref.diff(Tower(base))
        return [m for m in runs[key] if not ops or m[0] in ops or m[:2] in ops]
    return view
