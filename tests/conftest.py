import os

from hypothesis import settings

# CI selects this profile, so that every run draws the same examples and a
# failure there reproduces; local runs stay randomized
settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
