"""Hypothesis settings for the suite.

With the environment variable CI set (GitHub Actions sets it), every
property test draws its examples from a fixed seed and ignores the local
example database, so each CI run checks the same examples.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
