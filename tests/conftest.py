"""Hypothesis profiles. Tier-1 runs the default one; HYPOTHESIS_PROFILE=thorough
runs ten times hypothesis' default of 100 examples in every test that does
not fix its own count, for a longer search of a chosen few:

    HYPOTHESIS_PROFILE=thorough python -m pytest tests/test_core.py -k unit_pwlh
"""

import os

from hypothesis import settings

settings.register_profile("thorough", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
