"""Canonical byte serialization and signing primitives.

Every signed payload in the fleet model (licenses, meter snapshots, pod
manifests, cap policies, session auth, location challenge responses) is
serialized through these helpers so that signatures are bit-reproducible:
fixed field order, little-endian fixed-width integers and floats,
length-prefixed byte strings, and a domain-separation tag per payload kind.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

U8_MAX = 2**8 - 1
U32_MAX = 2**32 - 1
U64_MAX = 2**64 - 1
U128_MAX = 2**128 - 1


class EncodingError(ValueError):
    """Value cannot be represented in the canonical encoding."""


def u8(value: int) -> bytes:
    if not 0 <= value <= U8_MAX:
        raise EncodingError(f"u8 out of range: {value}")
    return struct.pack("<B", value)


def u32(value: int) -> bytes:
    if not 0 <= value <= U32_MAX:
        raise EncodingError(f"u32 out of range: {value}")
    return struct.pack("<I", value)


def u64(value: int) -> bytes:
    if not 0 <= value <= U64_MAX:
        raise EncodingError(f"u64 out of range: {value}")
    return struct.pack("<Q", value)


def u128(value: int) -> bytes:
    if not 0 <= value <= U128_MAX:
        raise EncodingError(f"u128 out of range: {value}")
    return value.to_bytes(16, "little")


def f64(value: float) -> bytes:
    """IEEE-754 binary64, little-endian: every bit of the float is bound."""
    return struct.pack("<d", value)


def blob(data: bytes) -> bytes:
    """Length-prefixed byte string (u32 length, then raw bytes)."""
    return u32(len(data)) + data


def opt_u64(value: int | None) -> bytes:
    """Presence flag byte followed by the value when present."""
    if value is None:
        return b"\x00"
    return b"\x01" + u64(value)


def tagged(tag: str, *parts: bytes) -> bytes:
    """Domain-separated message: length-prefixed tag, then the payload parts."""
    return blob(tag.encode("ascii")) + b"".join(parts)


class Decoder:
    """Sequential reader matching the encoders above."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise EncodingError("truncated canonical payload")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self._take(8))[0]

    def u128(self) -> int:
        return int.from_bytes(self._take(16), "little")

    def blob(self) -> bytes:
        return self._take(self.u32())

    def opt_u64(self) -> int | None:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise EncodingError(f"bad optional flag byte: {flag}")
        return self.u64()

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise EncodingError("trailing bytes after canonical payload")


@dataclass
class KeyPair:
    """Ed25519 signing keypair; the private half never leaves this object."""

    _private: Ed25519PrivateKey
    public_bytes: bytes

    def sign(self, message: bytes) -> bytes:
        return self._private.sign(message)


def generate_keypair(seed: bytes) -> KeyPair:
    """Derive a keypair from 32 seed bytes (deterministic for a fixed seed)."""
    if len(seed) != 32:
        raise ValueError("ed25519 seed must be exactly 32 bytes")
    private = Ed25519PrivateKey.from_private_bytes(seed)
    public = private.public_key().public_bytes_raw()
    return KeyPair(_private=private, public_bytes=public)


def verify(public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """True iff `signature` is valid for `message` under the given public key."""
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
