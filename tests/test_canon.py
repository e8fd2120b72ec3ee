"""Signed-document codec tests: golden wire vectors, canonical round trips,
refusal of every non-canonical encoding by the chip and the verifier, and the
scoped memo of `canon.verify`."""

import dataclasses
import hashlib
import importlib
import json
import math
import os
import pkgutil
import random
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hemsim
from hemsim import canon
from hemsim.attest import SNAPSHOT, DeviceStatus, emit_snapshot, verify_chain
from hemsim.chipmodel import (
    RESOURCE,
    ChipState,
    DeviceIdentity,
    MeterResource,
    ThrottleLevel,
    mint_fleet,
)
from hemsim.cluster import (
    CAP_POLICY,
    MANIFEST,
    SESSION_AUTH,
    adopt_manifest,
    apply_cap_update,
    issue_cap_policy,
    issue_manifest,
)
from hemsim.geoloc import GEOLOC_RESPONSE
from hemsim.licensing import LICENSE, RejectReason, install

KEY = canon.generate_keypair(bytes(range(32)))
DEVICE = 0x00112233445566778899AABBCCDDEEFF
PEER = 0x0F1E2D3C4B5A69788796A5B4C3D2E1F0  # ranks after DEVICE
NONCE = bytes(range(16))
FW_A = hashlib.sha256(b"fw-a").digest()
FW_B = hashlib.sha256(b"fw-b").digest()
FLOAT_OPS = MeterResource.FLOAT_OPS


@pytest.fixture
def world():
    """A regulator key and two enrolled chips."""
    return mint_fleet(random.Random(61), 2)


def flips(wire: bytes):
    """`wire` with each one of its bits flipped in turn."""
    value = int.from_bytes(wire, "little")
    for bit in range(len(wire) * 8):
        yield bit, (value ^ (1 << bit)).to_bytes(len(wire), "little")


def hand_laid(sign, doc: canon.Doc, *parts: bytes) -> bytes:
    """A wire of field bytes laid out by hand after `doc`'s tag, canonical or
    not, with a valid signature from `sign` over them."""
    signed = doc.head + b"".join(parts)
    return signed + canon.blob(sign(signed))


class TestGoldenWireVectors:
    """Frozen vectors: a fixed key seed and fixed ids. They guard every byte of
    each layout (tag, field order, widths, endianness, mapping order)."""

    def test_cap_policy(self):
        wire = issue_cap_policy(KEY, cap=4, cap_epoch=7, check_period_ms=60_000.5)
        assert wire.hex() == (
            "0d0000006361702d706f6c6963792e7632"  # tag "cap-policy.v2"
            "04000000"                            # cap 4
            "0700000000000000"                    # cap_epoch 7
            "00000000104ced40"                    # check_period_ms 60000.5
            "40000000"                            # 64-byte signature
            "a4c7e2cdd1b143ebab6d8889f1804080fe9d913f194f8493b8c959a86cf48877"
            "97607afe2d7823a34cde19e936b278c1d78adb09bcb4f0c8d7e7cc24433cb40b"
        )

    def test_pod_manifest_with_two_members(self):
        wire = issue_manifest(KEY, "pod-1", {PEER: FW_B, DEVICE: FW_A}, manifest_epoch=2)
        assert wire.hex() == (
            "0f000000706f642d6d616e69666573742e7631"  # tag "pod-manifest.v1"
            "05000000706f642d31"                      # pod_id "pod-1"
            "0200000000000000"                        # manifest_epoch 2
            "02000000"                                # two members, by device id
            "ffeeddccbbaa99887766554433221100"        # DEVICE
            "20000000" + FW_A.hex() +
            "f0e1d2c3b4a5968778695a4b3c2d1e0f"        # PEER
            "20000000" + FW_B.hex() +
            "40000000"
            "a67b2524f9c36261a6cfa61cdd60ebb3f1cfa2940a2be3bd031ba9cd5fbdafb6"
            "fe445a9ef80a98682fe9ba5ee8c215516c5538bfe3843842d5292b76d77d2909"
        )

    def test_meter_snapshot(self):
        chip = ChipState(DeviceIdentity(DEVICE, KEY, frozenset()))
        chip.throttle = ThrottleLevel.FULL
        chip.advance_to(600_000.0)
        chip.consume(FLOAT_OPS, 10**6)
        chip.consume(MeterResource.JOULES, 5)
        assert emit_snapshot(chip, 3).hex() == (
            "110000006d657465722d736e617073686f742e7631"  # tag "meter-snapshot.v1"
            "ffeeddccbbaa99887766554433221100"            # device_id
            "0300000000000000"                            # sequence_no 3
            "c027090000000000"                            # rtc_time_ms 600000
            "07000000"                                    # seven meters, by ordinal
            "00" "40420f0000000000"                       # float_ops 1e6
            "01" "0000000000000000"
            "02" "0000000000000000"
            "03" "0000000000000000"
            "04" "0000000000000000"
            "05" "0500000000000000"                       # joules 5
            "06" "0000000000000000"
            "40000000"
            "6ba12ae997a165a8a240ae122b53981b130c99dfec87a99b68e8a765cc3e7060"
            "41cf2319f672250eb8606741cbc11bf48a20b85407226d40841658e2fb98770f"
        )

    def test_session_auth(self):
        message = SESSION_AUTH.signed(signer=DEVICE, peer=PEER, nonce=NONCE)
        assert message.hex() == (
            "0f00000073657373696f6e2d617574682e7631"  # tag "session-auth.v1"
            "ffeeddccbbaa99887766554433221100"        # signer
            "f0e1d2c3b4a5968778695a4b3c2d1e0f"        # peer
            "10000000000102030405060708090a0b0c0d0e0f"  # nonce
        )
        assert KEY.sign(message).hex() == (
            "ccbba049d23696815db47212627a84dc36b07a936e76405b1f01e5c48a3d3da0"
            "8c7a9f956762483a5da5f9e47e3d1cafc03212a4146bfbc9c67c070ea0028805"
        )

    def test_geoloc_response(self):
        message = GEOLOC_RESPONSE.signed(device_id=DEVICE, nonce=NONCE)
        assert message.hex() == (
            "1200000067656f6c6f632d726573706f6e73652e7631"  # tag "geoloc-response.v1"
            "ffeeddccbbaa99887766554433221100"              # device_id
            "10000000000102030405060708090a0b0c0d0e0f"      # nonce
        )
        assert KEY.sign(message).hex() == (
            "bc72c66d8ace3165666d7373e9f75499593013ce6f0e05d56f236a59dd1c27a8"
            "b5f3c9e3261d01d1accb82f8f5251791a59295b982216d3f8b104dffdfd3a504"
        )


def module_values():
    """(module.name, value) of every module-level name in src/hemsim."""
    for info in pkgutil.iter_modules(hemsim.__path__):
        module = importlib.import_module(f"hemsim.{info.name}")
        for name, value in vars(module).items():
            yield f"{info.name}.{name}", value


def module_docs() -> dict[int, tuple[str, canon.Doc]]:
    return {id(value): (name, value) for name, value in module_values()
            if isinstance(value, canon.Doc)}


def test_every_doc_tag_is_distinct():
    # Domain separation: no two kinds of signed message share a tag, so no
    # signature over one kind verifies as another.
    tags = sorted((doc.tag, name) for name, doc in module_docs().values())
    assert len(tags) == 6, tags
    assert len({tag for tag, _ in tags}) == len(tags), tags


def test_each_doc_record_holds_its_fields_in_order():
    for name, doc in module_docs().values():
        assert [f.name for f in dataclasses.fields(doc.record)] == list(doc.fields), name
        values = dict(VALUES[FIELD_KINDS[doc.tag]])
        assert dataclasses.asdict(doc.record(**values)) == values, name


def test_no_dataclass_repeats_a_docs_fields():
    # Each document's fields are declared once, in its Doc: a hand-written
    # twin dataclass would be a second declaration that can drift.
    docs = [doc for _, doc in module_docs().values()]
    records = {doc.record for doc in docs}
    field_sets = {frozenset(doc.fields) for doc in docs}
    twins = {name for name, value in module_values()
             if isinstance(value, type) and dataclasses.is_dataclass(value)
             and value not in records
             and frozenset(f.name for f in dataclasses.fields(value)) in field_sets}
    assert not twins


def test_import_builds_records_only_for_the_held_kinds():
    # Session auth and location responses are signed and checked, never held,
    # so a fresh import builds no record class for them.
    src = str(Path(hemsim.__file__).resolve().parents[1])
    probe = ("import hemsim.scenarios\n"
             "from hemsim.cluster import SESSION_AUTH\n"
             "from hemsim.geoloc import GEOLOC_RESPONSE\n"
             "from hemsim import attest, cluster, licensing\n"
             "docs = [SESSION_AUTH, GEOLOC_RESPONSE, licensing.LICENSE, cluster.CAP_POLICY,\n"
             "        cluster.MANIFEST, attest.SNAPSHOT]\n"
             "print(['record' in vars(doc) for doc in docs])")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         timeout=60, capture_output=True, text=True, check=True).stdout
    assert out.strip() == str([False, False, True, True, True, True])


NETWORK_ONLY = {"name": "network_only", "seed": 1, "network": {"nodes": [
    {"id": "a", "lat": 0, "lon": 0}, {"id": "b", "lat": 10, "lon": 10}]}}


@pytest.mark.parametrize("action, loads", [
    ("pass", False),
    ("assert cli.main(['list']) == 0", False),
    ("assert cli.main(['describe', 'geoloc_cbg']) == 0", False),
    ("assert cli.main(['run', 'geoloc_cbg', '--out', OUT]) == 0", False),
    ("assert cli.main(['run', NETWORK_ONLY, '--out', OUT]) == 0", False),
    ("canon.generate_keypair(bytes(32))", True),
    ("canon.verify(bytes(32), b'message', bytes(64))", True),
    ("assert cli.main(['run', 'licensing_basic', '--out', OUT]) == 0", True),
], ids=["import", "list", "describe", "run_geoloc", "run_network", "generate_keypair", "verify",
        "run_licensing"])
def test_ed25519_backend_loads_only_with_the_first_key_or_signature_check(tmp_path, action,
                                                                          loads):
    # A fresh interpreter imports every hemsim module, takes one action, and
    # says whether cryptography was ever imported.
    network_only = tmp_path / "network_only.json"
    network_only.write_text(json.dumps(NETWORK_ONLY), encoding="utf-8")
    src = str(Path(hemsim.__file__).resolve().parents[1])
    probe = ("import sys\n"
             "from hemsim import canon, cli, config, scenarios\n"
             f"OUT, NETWORK_ONLY = {str(tmp_path / 'out')!r}, {str(network_only)!r}\n"
             f"{action}\n"
             "print('cryptography' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         timeout=60, capture_output=True, text=True, check=True).stdout
    assert out.splitlines()[-1] == str(loads)


U64S = st.integers(0, canon.U64_MAX)
U128S = st.integers(0, canon.U128_MAX)
FIELDS = {
    "license": (LICENSE, dict(
        license_id=U64S, device_id=U128S, not_after=st.one_of(st.none(), U64S),
        quotas=st.dictionaries(st.sampled_from(list(MeterResource)), U64S))),
    "cap_policy": (CAP_POLICY, dict(
        cap=st.integers(0, canon.U32_MAX), cap_epoch=U64S,
        check_period_ms=st.floats(allow_nan=False).filter(
            lambda v: math.copysign(1.0, v) > 0.0 or v != 0.0))),
    "manifest": (MANIFEST, dict(
        pod_id=st.text(max_size=12), manifest_epoch=U64S,
        members=st.dictionaries(U128S, st.binary(max_size=40), max_size=4))),
    "snapshot": (SNAPSHOT, dict(
        device_id=U128S, sequence_no=U64S, rtc_time_ms=U64S,
        meters=st.fixed_dictionaries({r: U64S for r in MeterResource}))),
    "session_auth": (SESSION_AUTH, dict(signer=U128S, peer=U128S, nonce=st.binary())),
    "geoloc_response": (GEOLOC_RESPONSE, dict(device_id=U128S, nonce=st.binary())),
}


@pytest.mark.parametrize("kind", sorted(FIELDS))
@settings(max_examples=60)
@given(data=st.data())
def test_wire_round_trip(kind, data):
    doc, strategies = FIELDS[kind]
    values = data.draw(st.fixed_dictionaries(strategies), label="fields")
    signature = data.draw(st.binary(max_size=80), label="signature")
    signed = doc.signed(**values)
    wire = signed + canon.blob(signature)
    assert doc.decode(wire) == (values, signed, signature)
    extra = data.draw(st.binary(min_size=1, max_size=8), label="trailing")
    with pytest.raises(canon.EncodingError):
        doc.decode(wire + extra)


# One valid value of every field of each kind, with each mapping holding
# two entries and each optional field present.
VALUES = {
    "license": dict(license_id=7, device_id=DEVICE, not_after=10**12,
                    quotas={FLOAT_OPS: 10**9, MeterResource.JOULES: 5}),
    "cap_policy": dict(cap=4, cap_epoch=7, check_period_ms=60_000.5),
    "manifest": dict(pod_id="pod-1", manifest_epoch=2, members={DEVICE: FW_A, PEER: FW_B}),
    "snapshot": dict(device_id=DEVICE, sequence_no=3, rtc_time_ms=600_000,
                     meters={r: i for i, r in enumerate(MeterResource)}),
    "session_auth": dict(signer=DEVICE, peer=PEER, nonce=NONCE),
    "geoloc_response": dict(device_id=DEVICE, nonce=NONCE),
}
FIELD_KINDS = {doc.tag: kind for kind, (doc, _) in FIELDS.items()}


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_every_strict_prefix_of_a_wire_is_refused(kind):
    doc = FIELDS[kind][0]
    wire = doc.wire(KEY.sign, **VALUES[kind])
    assert doc.decode(wire)[0] == VALUES[kind]
    for end in range(len(wire)):
        message = "truncated canonical payload" if end >= len(doc.head) else "not a"
        with pytest.raises(canon.EncodingError, match=message):
            doc.decode(wire[:end])


TRUNCATED = "truncated canonical payload"
SIG = canon.blob(bytes(64))
NO_EXPIRY = canon.opt_u64(None)
LICENSE_HEAD = canon.u64(7) + canon.u128(DEVICE)  # license_id, device_id
SNAPSHOT_HEAD = canon.u128(DEVICE) + canon.u64(3) + canon.u64(600_000)
METERS = tuple(range(len(MeterResource)))  # every ordinal, in order


def pairs(*ordinals: int) -> bytes:
    """Meter-map pairs laid by hand: each ordinal byte, then a u64 value."""
    return b"".join(bytes([i]) + canon.u64(1000 + i) for i in ordinals)


def not_increasing_at(resource: MeterResource) -> str:
    return f"mapping keys not strictly increasing at {resource!r}"


# Hand-laid bodies (the bytes after the tag) of each class of non-canonical
# meter or quota map wire, and the one message each is refused with.
REFUSALS = [
    pytest.param(LICENSE, LICENSE_HEAD[:-7], TRUNCATED, id="license-truncated-fixed"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(1)[:2], TRUNCATED,
                 id="license-truncated-count"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(2) + pairs(0, 5)[:13], TRUNCATED,
                 id="license-truncated-mid-pair"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(1) + pairs(0) + NO_EXPIRY + SIG[:3],
                 TRUNCATED, id="license-truncated-signature-length"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(1) + pairs(0) + NO_EXPIRY + SIG[:-1],
                 TRUNCATED, id="license-truncated-signature-body"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(2) + pairs(0, 7) + NO_EXPIRY + SIG,
                 "unknown ordinal: 7", id="license-unknown-ordinal"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(2) + pairs(5, 5) + NO_EXPIRY + SIG,
                 not_increasing_at(MeterResource.JOULES), id="license-repeated-ordinal"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(2) + pairs(5, 0) + NO_EXPIRY + SIG,
                 not_increasing_at(FLOAT_OPS), id="license-decreasing-ordinal"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(1) + pairs(0) + b"\x02" + canon.u64(9) + SIG,
                 "bad optional flag byte: 2", id="license-optional-flag-2"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(1) + pairs(0) + NO_EXPIRY + SIG + b"\x00",
                 "trailing bytes after canonical payload", id="license-trailing-bytes"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(8) + pairs(*METERS, 7) + NO_EXPIRY + SIG,
                 "unknown ordinal: 7", id="license-eight-quotas"),
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(canon.U32_MAX) + pairs(0, 1, 2), TRUNCATED,
                 id="license-count-u32-max-short-body"),
    # Too short for the pairs its count claims, with a bad first ordinal: the
    # first fault is named, not the truncation after it.
    pytest.param(LICENSE, LICENSE_HEAD + canon.u32(3) + pairs(9), "unknown ordinal: 9",
                 id="license-short-body-unknown-first-ordinal"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD[:-1], TRUNCATED, id="snapshot-truncated-fixed"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7)[:3], TRUNCATED,
                 id="snapshot-truncated-count"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(*METERS)[:-4], TRUNCATED,
                 id="snapshot-truncated-mid-pair"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(*METERS) + SIG[:2], TRUNCATED,
                 id="snapshot-truncated-signature-length"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(*METERS) + SIG[:40], TRUNCATED,
                 id="snapshot-truncated-signature-body"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(*METERS[:6], 200) + SIG,
                 "unknown ordinal: 200", id="snapshot-unknown-ordinal"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(0, 1, 1, 3, 4, 5, 6) + SIG,
                 not_increasing_at(MeterResource.INT_OPS), id="snapshot-repeated-ordinal"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(0, 1, 2, 4, 3, 5, 6) + SIG,
                 not_increasing_at(MeterResource.INTERCONNECT_TRANSFER_BYTES),
                 id="snapshot-decreasing-ordinal"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(7) + pairs(*METERS) + SIG + b"\x00",
                 "trailing bytes after canonical payload", id="snapshot-trailing-bytes"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(8) + pairs(*METERS, 6) + SIG,
                 not_increasing_at(MeterResource.CLOCK_CYCLES), id="snapshot-eight-meters"),
    pytest.param(SNAPSHOT, SNAPSHOT_HEAD + canon.u32(canon.U32_MAX) + pairs(*METERS), TRUNCATED,
                 id="snapshot-count-u32-max-short-body"),
]


@pytest.mark.parametrize("doc, body, message", REFUSALS)
def test_each_non_canonical_meter_map_wire_is_refused_with_its_reason(doc, body, message):
    wire = doc.head + body
    with pytest.raises(canon.EncodingError) as refused:
        doc.decode(wire)
    assert str(refused.value) == message
    if doc is LICENSE:
        chip = ChipState(DeviceIdentity(DEVICE, KEY, frozenset({KEY.public_bytes})))
        assert install(chip, wire).reason is RejectReason.MALFORMED
    else:  # the verifier reports the same reason
        result = verify_chain({DEVICE: [wire]}, {DEVICE: KEY.public_bytes}).device_results[0]
        assert (result.status, result.detail) == (DeviceStatus.MALFORMED, message)


@pytest.mark.parametrize("kind", sorted(FIELDS))
@settings(max_examples=100)
@given(data=st.data())
def test_any_bytes_after_the_head_are_refused_or_are_the_canonical_wire(kind, data):
    # Whatever follows the tag, decoding raises EncodingError and nothing
    # else, or returns fields whose one encoding is exactly those bytes.
    doc, strategies = FIELDS[kind]
    if data.draw(st.booleans(), label="random"):
        body = data.draw(st.binary(max_size=200), label="body")
    else:  # a canonical wire with a span of it replaced
        values = data.draw(st.fixed_dictionaries(strategies), label="fields")
        body = doc.wire(lambda signed: bytes(64), **values)[len(doc.head):]
        start = data.draw(st.integers(0, len(body)), label="start")
        stop = data.draw(st.integers(start, len(body)), label="stop")
        body = body[:start] + data.draw(st.binary(max_size=12), label="splice") + body[stop:]
    wire = doc.head + body
    try:
        fields, signed, signature = doc.decode(wire)
    except canon.EncodingError:
        return
    assert doc.signed(**fields) == signed
    assert signed + canon.blob(signature) == wire


class TestCapPolicyWire:
    def _adopted(self, world):
        regulator, _, (chip, _) = world
        assert apply_cap_update(chip, issue_cap_policy(regulator, cap=4, cap_epoch=1))
        return regulator, chip, chip.cap_policy

    def test_every_single_bit_flip_is_refused(self, world):
        regulator, chip, before = self._adopted(world)
        wire = issue_cap_policy(regulator, cap=8, cap_epoch=2, check_period_ms=30_000.0)
        for bit, flipped in flips(wire):
            assert not apply_cap_update(chip, flipped), f"bit {bit}"
            assert chip.cap_policy == before, f"bit {bit}"
        assert apply_cap_update(chip, wire)

    @pytest.mark.parametrize("period_bytes, adopted", [
        (struct.pack("<d", 30_000.0), True),  # the hand-laid layout is the real one
        (struct.pack("<d", math.nan), False),
        (bytes.fromhex("010000000000f87f"), False),  # another NaN bit pattern
        (struct.pack("<d", -0.0), False),
    ], ids=["canonical", "nan", "other_nan", "negative_zero"])
    def test_only_a_canonical_period_is_adopted(self, world, verify_calls, period_bytes,
                                                adopted):
        regulator, chip, before = self._adopted(world)
        wire = hand_laid(regulator.sign, CAP_POLICY, canon.u32(8), canon.u64(2), period_bytes)
        verify_calls.clear()
        assert apply_cap_update(chip, wire) is adopted
        if not adopted:
            assert verify_calls == []
            assert chip.cap_policy == before

    def test_trailing_bytes_refused_without_verify(self, world, verify_calls):
        regulator, chip, before = self._adopted(world)
        wire = issue_cap_policy(regulator, cap=8, cap_epoch=2) + b"\x00"
        verify_calls.clear()
        assert not apply_cap_update(chip, wire)
        assert verify_calls == [] and chip.cap_policy == before

    @pytest.mark.parametrize("period", [math.nan, -0.0])
    def test_non_canonical_period_does_not_encode(self, world, period):
        regulator, *_ = world
        with pytest.raises(canon.EncodingError):
            issue_cap_policy(regulator, cap=8, cap_epoch=2, check_period_ms=period)


class TestManifestWire:
    def _adopted(self, world):
        regulator, _, (chip, _) = world
        assert adopt_manifest(chip, issue_manifest(regulator, "pod-1", {DEVICE: FW_A}, 0))
        return regulator, chip, chip.pod_manifest

    def test_every_single_bit_flip_is_refused(self, world):
        regulator, chip, before = self._adopted(world)
        wire = issue_manifest(regulator, "pod-1", {DEVICE: FW_A, PEER: FW_B}, 1)
        for bit, flipped in flips(wire):
            assert not adopt_manifest(chip, flipped), f"bit {bit}"
            assert chip.pod_manifest == before, f"bit {bit}"
        assert adopt_manifest(chip, wire)

    @pytest.mark.parametrize("pod_id, members, adopted", [
        (b"pod-1", ((DEVICE, FW_A), (PEER, FW_B)), True),  # the real layout
        (b"pod-1", ((PEER, FW_B), (DEVICE, FW_A)), False),  # out of order
        (b"pod-1", ((DEVICE, FW_A), (DEVICE, FW_A)), False),  # repeated
        (b"pod-\xff", ((DEVICE, FW_A), (PEER, FW_B)), False),  # not UTF-8
    ], ids=["canonical", "out_of_order", "repeated", "not_utf8"])
    def test_only_a_canonical_manifest_is_adopted(self, world, verify_calls, pod_id, members,
                                                  adopted):
        regulator, chip, before = self._adopted(world)
        pairs = [canon.u128(device) + canon.blob(fw) for device, fw in members]
        wire = hand_laid(regulator.sign, MANIFEST, canon.blob(pod_id), canon.u64(1),
                         canon.u32(len(pairs)), *pairs)
        verify_calls.clear()
        assert adopt_manifest(chip, wire) is adopted
        if not adopted:
            assert verify_calls == []
            assert chip.pod_manifest == before

    def test_trailing_bytes_refused_without_verify(self, world, verify_calls):
        regulator, chip, before = self._adopted(world)
        wire = issue_manifest(regulator, "pod-1", {DEVICE: FW_A}, 1) + b"\x00"
        verify_calls.clear()
        assert not adopt_manifest(chip, wire)
        assert verify_calls == [] and chip.pod_manifest == before


class TestSnapshotWire:
    def _chain(self, world):
        """A first snapshot, then a chip that has run 1000 ops since it."""
        _, registry, (chip, _) = world
        first = emit_snapshot(chip, 0)
        chip.consume(FLOAT_OPS, 1000)
        return registry, chip, first

    def test_every_single_bit_flip_is_refused(self, world):
        registry, chip, first = self._chain(world)
        device = chip.identity.device_id
        wire = emit_snapshot(chip, 1)
        assert verify_chain({device: [first, wire]}, registry).totals[FLOAT_OPS] == 1000
        for bit, flipped in flips(wire):
            report = verify_chain({device: [first, flipped]}, registry)
            assert report.device_results[0].status is not DeviceStatus.VERIFIED, f"bit {bit}"
            assert set(report.totals.values()) == {0}, f"bit {bit}"

    @pytest.mark.parametrize("order, status", [
        (tuple(MeterResource), DeviceStatus.VERIFIED),  # the real layout
        (tuple(MeterResource)[1::-1] + tuple(MeterResource)[2:], DeviceStatus.MALFORMED),
        (tuple(MeterResource)[:1] + tuple(MeterResource)[:-1], DeviceStatus.MALFORMED),
        (tuple(MeterResource)[:-1], DeviceStatus.MALFORMED),  # leaves out a meter
    ], ids=["canonical", "out_of_order", "repeated", "missing"])
    def test_only_a_canonical_snapshot_verifies(self, world, verify_calls, order, status):
        registry, chip, first = self._chain(world)
        meters = [RESOURCE.encode(r) + canon.u64(chip.meter_value(r)) for r in order]
        wire = hand_laid(chip.sign, SNAPSHOT, canon.u128(chip.identity.device_id),
                         canon.u64(1), canon.u64(int(chip.rtc_read())),
                         canon.u32(len(meters)), *meters)
        verify_calls.clear()
        report = verify_chain({chip.identity.device_id: [first, wire]}, registry)
        assert report.device_results[0].status is status
        if status is DeviceStatus.MALFORMED:
            assert verify_calls == []
            assert set(report.totals.values()) == {0} and report.incomplete

    def test_trailing_bytes_refused_without_verify(self, world, verify_calls):
        registry, chip, first = self._chain(world)
        verify_calls.clear()
        report = verify_chain({chip.identity.device_id: [first, emit_snapshot(chip, 1) + b"\0"]},
                              registry)
        assert report.device_results[0].status is DeviceStatus.MALFORMED
        assert verify_calls == []


def flip_bit(data: bytes, bit: int) -> bytes:
    """`data` with bit `bit` (taken modulo its length) flipped."""
    bit %= len(data) * 8
    return (int.from_bytes(data, "little") ^ (1 << bit)).to_bytes(len(data), "little")


@pytest.mark.parametrize("size", [0, 31, 33, 64])
def test_a_seed_of_any_other_length_than_32_bytes_is_refused(size):
    with pytest.raises(ValueError, match="exactly 32 bytes"):
        canon.generate_keypair(bytes(size))


class TestVerifyMemo:
    MESSAGE = b"memo" * 10
    GOOD = (KEY.public_bytes, MESSAGE, KEY.sign(MESSAGE))  # verify's argument order
    OTHER = (KEY.public_bytes, MESSAGE + b"!", KEY.sign(MESSAGE + b"!"))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.binary(min_size=32, max_size=32), message=st.binary(min_size=1, max_size=64),
           bad_key=st.binary(max_size=40).filter(lambda key: len(key) != 32),
           bit=st.integers(0, 2**16), data=st.data())
    def test_every_answer_equals_plain_verify(self, seed, message, bad_key, bit, data):
        key = canon.generate_keypair(seed)
        wrong = canon.generate_keypair(hashlib.sha256(seed).digest())
        signature = key.sign(message)
        triples = [
            (key.public_bytes, message, signature),
            (key.public_bytes, message, flip_bit(signature, bit)),
            (key.public_bytes, flip_bit(message, bit), signature),
            (wrong.public_bytes, message, signature),
            (bad_key, message, signature),
        ]
        plain = [canon.verify(*triple) for triple in triples]
        assert plain == [True, False, False, False, False]
        asked = data.draw(st.permutations(list(range(len(triples))) * 2), label="order")
        with canon.verify_memo():
            assert [canon.verify(*triples[i]) for i in asked] == [plain[i] for i in asked]

    @pytest.mark.parametrize("good_first", [True, False])
    def test_triples_with_equal_concatenations_do_not_collide(self, ed25519_verifies,
                                                              good_first):
        key, message, signature = self.GOOD
        joined = key + signature + message
        shifted = [  # the same bytes, cut at other places: (key, message, signature)
            (joined[:31], joined[95:], joined[31:95]),
            (key, message[1:], signature + message[:1]),
        ]
        assert all(k + s + m == joined for k, m, s in shifted)
        with canon.verify_memo():
            for _ in range(2):
                if good_first:
                    assert canon.verify(*self.GOOD)
                assert [canon.verify(*triple) for triple in shifted] == [False, False]
                if not good_first:
                    assert canon.verify(*self.GOOD)

    def test_memo_ends_with_its_block(self, ed25519_verifies):
        with canon.verify_memo():
            assert canon.verify(*self.GOOD) and canon.verify(*self.GOOD)
        assert len(ed25519_verifies) == 1
        assert canon.verify(*self.GOOD) and canon.verify(*self.GOOD)
        assert len(ed25519_verifies) == 3

    def test_memo_ends_when_its_block_raises(self, ed25519_verifies):
        with pytest.raises(RuntimeError):
            with canon.verify_memo():
                assert canon.verify(*self.GOOD)
                raise RuntimeError
        assert canon.verify(*self.GOOD) and canon.verify(*self.GOOD)
        assert len(ed25519_verifies) == 3

    def test_nested_block_restores_the_outer_memo(self, ed25519_verifies):
        with canon.verify_memo():
            assert canon.verify(*self.GOOD)
            with canon.verify_memo():  # starts empty
                assert canon.verify(*self.GOOD) and canon.verify(*self.OTHER)
                assert len(ed25519_verifies) == 3
            assert canon.verify(*self.GOOD)  # answered by the outer memo
            assert len(ed25519_verifies) == 3
            assert canon.verify(*self.OTHER)  # the inner memo's answers are gone
            assert len(ed25519_verifies) == 4
