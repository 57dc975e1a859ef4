"""Hypothesis profiles.  `ci` draws the same examples on every run, so a
property test cannot pass on one run and fail on the next; select it with
HYPOTHESIS_PROFILE=ci."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
