import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Fixed example sequence and no per-example deadline: tier-1 results do not
# depend on the run or on the machine's speed.
settings.register_profile("bandsel", derandomize=True, deadline=None)
settings.load_profile("bandsel")
