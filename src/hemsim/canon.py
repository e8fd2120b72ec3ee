"""Canonical byte serialization and signing primitives.

Every signed message in the fleet model is a `Doc`: licenses, cap policies,
pod manifests, meter snapshots, session auth and location challenge
responses. Each `Doc` declares its domain-separation tag and typed fields
once, and from that one declaration come its signed bytes, its wire form,
the record a decoded document is held in, and a decoder that refuses every
encoding but the canonical one: fixed field order, little-endian fixed-width
numbers, length-prefixed byte strings, and mappings in strictly increasing
key order.

Each field type is a `Field`: an encoder and a reader, built once when the
type is declared. A reader takes `(data, pos)` and returns `(value, pos)`
after the value, and `Doc.decode` runs its fields' readers in order. A map
from an ordinal to u64 values, as every meter and quota map is, unpacks
all of its pairs in one struct call.

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
from dataclasses import dataclass, make_dataclass
from functools import cached_property
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


Reader = Callable[[bytes, int], tuple[Any, int]]  # (data, pos) -> (value, pos after it)

_TRUNCATED = "truncated canonical payload"
_U128 = struct.Struct("<QQ").unpack_from


def _unpacker(layout: str) -> Reader:
    """The reader of one fixed-width number. Past the end of `data` it raises
    struct.error, which `Doc.decode` turns into EncodingError."""
    unpack, size = struct.Struct(layout).unpack_from, struct.calcsize(layout)
    return lambda data, pos: (unpack(data, pos)[0], pos + size)


_read_u8, _read_u32, _read_u64, _read_float = map(_unpacker, ("<B", "<I", "<Q", "<d"))


def _read_u128(data: bytes, pos: int) -> tuple[int, int]:
    low, high = _U128(data, pos)
    return low | high << 64, pos + 16


def _read_f64(data: bytes, pos: int) -> tuple[float, int]:
    value, pos = _read_float(data, pos)
    f64(value)  # refuses NaN and -0.0, as encoding does
    return value, pos


def _read_blob(data: bytes, pos: int) -> tuple[bytes, int]:
    n, pos = _read_u32(data, pos)
    end = pos + n
    if end > len(data):
        raise EncodingError(_TRUNCATED)
    return data[pos:end], end


def _read_text(data: bytes, pos: int) -> tuple[str, int]:
    raw, pos = _read_blob(data, pos)
    try:
        return raw.decode("utf-8"), pos
    except UnicodeDecodeError as exc:
        raise EncodingError("text is not valid UTF-8") from exc


def _read_opt_u64(data: bytes, pos: int) -> tuple[int | None, int]:
    flag, pos = _read_u8(data, pos)
    if flag == 0:
        return None, pos
    if flag != 1:
        raise EncodingError(f"bad optional flag byte: {flag}")
    return _read_u64(data, pos)


@dataclass(frozen=True)
class Field:
    """A field type: encoder, reader, the order of values that key a mapping,
    and, for an ordinal, the values its byte indexes."""

    encode: Callable[[Any], bytes]
    read: Reader
    rank: Callable[[Any], Any] = lambda value: value
    members: tuple | None = None


U32 = Field(u32, _read_u32)
U64 = Field(u64, _read_u64)
U128 = Field(u128, _read_u128)
OPT_U64 = Field(opt_u64, _read_opt_u64)
F64 = Field(f64, _read_f64)
BLOB = Field(blob, _read_blob)
TEXT = Field(lambda value: blob(value.encode("utf-8")), _read_text)


def ordinal(members: Sequence) -> Field:
    """One byte per value: its index in `members`, which also ranks it."""
    members = tuple(members)
    index = {member: i for i, member in enumerate(members)}
    encoded = {member: u8(i) for member, i in index.items()}

    def read(data: bytes, pos: int) -> tuple[Any, int]:
        i, pos = _read_u8(data, pos)
        if i >= len(members):
            raise EncodingError(f"unknown ordinal: {i}")
        return members[i], pos

    return Field(encoded.__getitem__, read, index.__getitem__, members)


def mapping(key: Field, value: Field) -> Field:
    """A u32 count, then (key, value) pairs sorted by strictly increasing key rank.

    A map from an ordinal to u64 values (every meter and quota map) unpacks
    all of its pairs with one struct per count, up to the number of ordinals.
    A larger count, a buffer too short for the pairs or an ordinal unknown
    or out of order sends the read pair by pair, which names the first fault.
    """

    def encode(items: dict) -> bytes:
        return u32(len(items)) + b"".join(
            key.encode(k) + value.encode(items[k]) for k in sorted(items, key=key.rank))

    def read_pairs(data: bytes, pos: int) -> tuple[dict, int]:
        count, pos = _read_u32(data, pos)
        items, last = {}, None
        for _ in range(count):
            k, pos = key.read(data, pos)
            rank = key.rank(k)
            if last is not None and rank <= last:
                raise EncodingError(f"mapping keys not strictly increasing at {k!r}")
            items[k], pos = value.read(data, pos)
            last = rank
        return items, pos

    members = key.members
    if members is None or value is not U64:
        return Field(encode, read_pairs)
    layouts = [struct.Struct("<" + "BQ" * n) for n in range(len(members) + 1)]

    def read(data: bytes, pos: int) -> tuple[dict, int]:
        count, start = _read_u32(data, pos)
        if count < len(layouts) and start + layouts[count].size <= len(data):
            flat = layouts[count].unpack_from(data, start)
            ordinals, last = flat[::2], -1
            for i in ordinals:
                if not last < i < len(members):
                    break
                last = i
            else:
                items = dict(zip(map(members.__getitem__, ordinals), flat[1::2]))
                return items, start + layouts[count].size
        return read_pairs(data, pos)

    return Field(encode, read)


class Doc:
    """One signed message kind: a domain-separation tag, then named typed fields."""

    def __init__(self, tag: str, **fields: Field):
        self.tag = tag
        self.head = blob(tag.encode("ascii"))
        self.fields = fields
        self._encoders = [(name, f.encode) for name, f in fields.items()]
        self._readers = [(name, f.read) for name, f in fields.items()]

    def signed(self, **values: Any) -> bytes:
        """The bytes a signature covers: the tag, then each field in order."""
        return self.head + b"".join([encode(values[name]) for name, encode in self._encoders])

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
        fields, pos = {}, len(self.head)
        try:
            for name, read in self._readers:
                fields[name], pos = read(wire, pos)
            end = pos
            signature, pos = _read_blob(wire, end)
        except struct.error:
            raise EncodingError(_TRUNCATED) from None
        if pos != len(wire):
            raise EncodingError("trailing bytes after canonical payload")
        return fields, wire[:end], signature

    @cached_property
    def record(self) -> type:
        """The frozen dataclass that holds a decoded document: one attribute per
        field, in order, named after the tag ("pod-manifest.v1" -> PodManifest).
        Built on first use, so a kind that is never held builds none."""
        name = self.tag.split(".")[0].title().replace("-", "")
        return make_dataclass(name, list(self.fields), frozen=True)


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
