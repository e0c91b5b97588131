"""Hypothesis settings for the suite.

With the environment variable CI set (GitHub Actions sets it), every
property test draws its examples from a fixed seed and ignores the local
example database, so each CI run checks the same examples.

The ``stress`` profile, loaded with ``--hypothesis-profile=stress``, draws
from the seed given by ``--hypothesis-seed``, ignores the example database
and reports one failure per test, with CI set or not; ``scripts/stress.py``
runs it over a range of seeds.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("stress", derandomize=False, database=None, report_multiple_bugs=False)
if os.environ.get("CI"):
    settings.load_profile("ci")
