"""Shared pytest set-up: one hypothesis profile for every property test.

Examples are derived from each test's name (no random seed, no example
database), so a property test draws the same cases on every run.
"""

from hypothesis import settings

settings.register_profile("obembed", derandomize=True, database=None, deadline=None)
settings.load_profile("obembed")
