import os
import sys
import tracemalloc

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Fixed example sequence and no per-example deadline: tier-1 results do not
# depend on the run or on the machine's speed.
settings.register_profile("bandsel", derandomize=True, deadline=None)
settings.load_profile("bandsel")


@pytest.fixture
def traced_peak():
    """``run(fn, *args)`` calls ``fn`` under tracemalloc; returns (result, peak bytes allocated in the call)."""
    def run(fn, *args):
        tracemalloc.start()
        try:
            return fn(*args), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return run
