"""Settings and fixtures shared by every test module."""

import pytest
from hypothesis import settings

from hemsim import canon

# Property tests draw the same examples in every process and on every run:
# the seed comes from each test's name, and no example database carries
# failures from one run into the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def verify_calls(monkeypatch):
    """Count every signature verified."""
    calls = []
    real_verify = canon.verify

    def verify(*args):
        calls.append(args)
        return real_verify(*args)

    monkeypatch.setattr(canon, "verify", verify)
    return calls
