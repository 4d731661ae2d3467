"""Shared test configuration: deterministic Hypothesis runs."""

from hypothesis import settings

# Examples derive from each test's source rather than a random seed, and
# no example database is written, so every run checks the same cases.
settings.register_profile("qwgeom", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("qwgeom")
