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


@pytest.fixture
def ed25519_verifies(monkeypatch):
    """Record every ed25519 verification actually computed, not answered from a memo."""
    calls = []
    private_key, real_key, invalid_signature = canon._ed25519()

    class CountingKey:
        def __init__(self, key):
            self._key = key

        @classmethod
        def from_public_bytes(cls, data):
            return cls(real_key.from_public_bytes(data))

        def verify(self, signature, message):
            calls.append((signature, message))
            self._key.verify(signature, message)

    monkeypatch.setattr(canon, "_ed25519", lambda: (private_key, CountingKey, invalid_signature))
    return calls
