"""Test-suite settings.

With the ``CI`` environment variable set (CI services set it), hypothesis runs
the ``ci`` profile: examples are derived from each test's source instead of
drawn at random, so every Python version of the matrix runs the same
examples, and no example is failed for its run time.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("CI"):
    settings.load_profile("ci")
