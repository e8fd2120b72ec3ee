"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples in every process and on every run:
# the seed comes from each test's name, and no example database carries
# failures from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
