"""Canonical byte serialization and signing primitives.

Every signed message in the fleet model is a `Doc`: licenses, cap policies,
pod manifests, meter snapshots, session auth and location challenge
responses. Each `Doc` declares its domain-separation tag and typed fields
once, and from that one declaration come its signed bytes, its wire form
and a decoder that refuses every encoding but the canonical one: fixed field
order, little-endian fixed-width numbers, length-prefixed byte strings, and
mappings in strictly increasing key order.

`verify` answers from a memo while a `verify_memo()` block is open, so each
distinct (key, message, signature) costs one ed25519 verification in that
block. `scenarios.execute_scenario` opens one per execution; outside such a
block every call verifies. Verification is a pure function of the triple,
so every caller still gets the answer it would compute itself.
"""

from __future__ import annotations

import hashlib
import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

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
    """Value cannot be represented in, or bytes are not, the canonical encoding."""


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
    """IEEE-754 binary64, little-endian. NaN and -0.0 have no one encoding."""
    if math.isnan(value) or (value == 0.0 and math.copysign(1.0, value) < 0.0):
        raise EncodingError(f"f64 has no canonical encoding: {value!r}")
    return struct.pack("<d", value)


def blob(data: bytes) -> bytes:
    """Length-prefixed byte string (u32 length, then raw bytes)."""
    return u32(len(data)) + data


def opt_u64(value: int | None) -> bytes:
    """Presence flag byte followed by the value when present."""
    if value is None:
        return b"\x00"
    return b"\x01" + u64(value)


_UNPACK_U32 = struct.Struct("<I").unpack_from
_UNPACK_U64 = struct.Struct("<Q").unpack_from
_UNPACK_F64 = struct.Struct("<d").unpack_from


class Decoder:
    """Sequential reader matching the encoders above, from byte `pos` on."""

    def __init__(self, data: bytes, pos: int = 0):
        self._data = data
        self.pos = pos

    def _take(self, n: int) -> bytes:
        if self.pos + n > len(self._data):
            raise EncodingError("truncated canonical payload")
        out = self._data[self.pos : self.pos + n]
        self.pos += n
        return out

    # The fixed-width reads check bounds once, then unpack in place at `pos`.

    def u8(self) -> int:
        pos = self.pos
        if pos + 1 > len(self._data):
            raise EncodingError("truncated canonical payload")
        self.pos = pos + 1
        return self._data[pos]

    def u32(self) -> int:
        pos = self.pos
        if pos + 4 > len(self._data):
            raise EncodingError("truncated canonical payload")
        self.pos = pos + 4
        return _UNPACK_U32(self._data, pos)[0]

    def u64(self) -> int:
        pos = self.pos
        if pos + 8 > len(self._data):
            raise EncodingError("truncated canonical payload")
        self.pos = pos + 8
        return _UNPACK_U64(self._data, pos)[0]

    def u128(self) -> int:
        return int.from_bytes(self._take(16), "little")

    def f64(self) -> float:
        pos = self.pos
        if pos + 8 > len(self._data):
            raise EncodingError("truncated canonical payload")
        self.pos = pos + 8
        value = _UNPACK_F64(self._data, pos)[0]
        f64(value)  # refuses NaN and -0.0, as encoding does
        return value

    def blob(self) -> bytes:
        return self._take(self.u32())

    def text(self) -> str:
        try:
            return self.blob().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EncodingError("text is not valid UTF-8") from exc

    def opt_u64(self) -> int | None:
        flag = self.u8()
        if flag == 0:
            return None
        if flag != 1:
            raise EncodingError(f"bad optional flag byte: {flag}")
        return self.u64()


@dataclass(frozen=True)
class Field:
    """A field type: encoder, decoder, and the order of values that key a mapping."""

    encode: Callable[[Any], bytes]
    decode: Callable[[Decoder], Any]
    rank: Callable[[Any], Any] = lambda value: value


U32 = Field(u32, Decoder.u32)
U64 = Field(u64, Decoder.u64)
U128 = Field(u128, Decoder.u128)
OPT_U64 = Field(opt_u64, Decoder.opt_u64)
F64 = Field(f64, Decoder.f64)
BLOB = Field(blob, Decoder.blob)
TEXT = Field(lambda value: blob(value.encode("utf-8")), Decoder.text)


def ordinal(members: Sequence) -> Field:
    """One byte per value: its index in `members`, which also ranks it."""
    index = {member: i for i, member in enumerate(members)}
    encoded = {member: u8(i) for member, i in index.items()}

    def decode(dec: Decoder) -> Any:
        i = dec.u8()
        if i >= len(members):
            raise EncodingError(f"unknown ordinal: {i}")
        return members[i]

    return Field(encoded.__getitem__, decode, index.__getitem__)


def mapping(key: Field, value: Field) -> Field:
    """A u32 count, then (key, value) pairs sorted by strictly increasing key rank."""

    def encode(items: dict) -> bytes:
        return u32(len(items)) + b"".join(
            key.encode(k) + value.encode(items[k]) for k in sorted(items, key=key.rank))

    def decode(dec: Decoder) -> dict:
        items, last = {}, None
        for _ in range(dec.u32()):
            k = key.decode(dec)
            rank = key.rank(k)
            if last is not None and rank <= last:
                raise EncodingError(f"mapping keys not strictly increasing at {k!r}")
            items[k], last = value.decode(dec), rank
        return items

    return Field(encode, decode)


class Doc:
    """One signed message kind: a domain-separation tag, then named typed fields."""

    def __init__(self, tag: str, **fields: Field):
        self.tag = tag
        self.head = blob(tag.encode("ascii"))
        self.fields = fields

    def signed(self, **values: Any) -> bytes:
        """The bytes a signature covers: the tag, then each field in order."""
        return self.head + b"".join(f.encode(values[name]) for name, f in self.fields.items())

    def wire(self, sign: Callable[[bytes], bytes], **values: Any) -> bytes:
        """The signed bytes, then the signature `sign` makes over them as a blob."""
        signed = self.signed(**values)
        return signed + blob(sign(signed))

    def decode(self, wire: bytes) -> tuple[dict[str, Any], bytes, bytes]:
        """(fields, signed bytes, signature) of the one canonical wire form.

        Any other bytes raise EncodingError: another tag, a truncated or
        out-of-range field, mapping keys out of order or repeated, and
        anything after the signature.
        """
        if not wire.startswith(self.head):
            raise EncodingError(f"not a {self.tag} payload")
        dec = Decoder(wire, len(self.head))
        fields = {name: f.decode(dec) for name, f in self.fields.items()}
        end = dec.pos
        signature = dec.blob()
        if dec.pos != len(wire):
            raise EncodingError("trailing bytes after canonical payload")
        return fields, wire[:end], signature


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


_verified: ContextVar[dict[bytes, bool] | None] = ContextVar("verified", default=None)


@contextmanager
def verify_memo() -> Iterator[None]:
    """Within the block, `verify` checks each distinct triple once.

    The block starts with an empty memo and puts back the enclosing one on
    exit, so no answer outlives the block that computed it.
    """
    token = _verified.set({})
    try:
        yield
    finally:
        _verified.reset(token)


def verify(public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    """True iff `signature` is valid for `message` under the given public key."""
    memo = _verified.get()
    if memo is None:
        return _ed25519_verify(public_bytes, message, signature)
    # Blobs keep the three parts apart: no two triples share a key preimage.
    key = hashlib.sha256(blob(public_bytes) + blob(signature) + message).digest()
    ok = memo.get(key)
    if ok is None:
        ok = memo[key] = _ed25519_verify(public_bytes, message, signature)
    return ok


def _ed25519_verify(public_bytes: bytes, message: bytes, signature: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_bytes).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False
