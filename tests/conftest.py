"""Hypothesis settings for the whole suite.

Most property tests draw fresh examples on every run (database=None), so a failing draw
is lost unless the report carries it: print_blob=True prints the blob that replays it
with @reproduce_failure.
"""

from hypothesis import settings

settings.register_profile("fuzzydist", print_blob=True)
settings.load_profile("fuzzydist")
