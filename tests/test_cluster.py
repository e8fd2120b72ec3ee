"""Cluster interconnect tests: handshakes, caps, pods, bridges, detector."""

import hashlib
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemsim import canon, cluster, scenarios
from hemsim.chipmodel import (
    DeviceIdentity,
    ChipState,
    ConsumeResult,
    MeterResource,
    mint_fleet,
    provision_chip,
)
from hemsim.cluster import (
    CAP_POLICY,
    DIRECT_INTERCONNECT_BYTES_PER_MS,
    MANIFEST,
    DataEvent,
    HandshakeReject,
    PodManifest,
    Session,
    adopt_manifest,
    apply_cap_update,
    bridge_transfer,
    detect_cross_pod_coupling,
    handshake,
    issue_cap_policy,
    issue_manifest,
    run_due_checks,
    teardown,
)
from hemsim.config import validate_config
from hemsim.licensing import IssuerState, install
from hemsim.scenarios import run_cluster_section


@pytest.fixture
def world():
    rng = random.Random(31)
    regulator, registry, chips = mint_fleet(rng, 6)
    return rng, regulator, registry, {chip.device_id: chip for chip in chips}


def held_by_both_ends(session):
    return all(end.sessions.get(session.session_id) is session for end in session.ends)


def held_by_neither_end(session):
    return all(session.session_id not in end.sessions for end in session.ends)


def adopt_caps(regulator, chips, cap, epoch=0, check_period_ms=60_000.0):
    policy = issue_cap_policy(regulator, cap, epoch, check_period_ms)
    for chip in chips.values():
        assert apply_cap_update(chip, policy)
    return policy


@pytest.fixture
def crypto_calls(monkeypatch):
    """Count every signature verified and every chip signature made."""
    calls = {"verify": 0, "sign": 0}
    real_verify, real_sign = canon.verify, ChipState.sign

    def verify(*args):
        calls["verify"] += 1
        return real_verify(*args)

    def sign(self, message):
        calls["sign"] += 1
        return real_sign(self, message)

    monkeypatch.setattr(canon, "verify", verify)
    monkeypatch.setattr(ChipState, "sign", sign)
    return calls


class TestPodRegime:
    def test_members_connect_nonmembers_rejected(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, b, c, d = ids[:4]
        manifest = issue_manifest(
            regulator, "pod-1",
            {i: chips[i].firmware_hash for i in (a, b, c)},
            manifest_epoch=0,
        )
        for i in (a, b, c, d):
            assert adopt_manifest(chips[i], manifest)
        session_ids = itertools.count()
        ok = handshake(0.0, chips[a], chips[b], registry, rng, session_ids)
        assert ok.accepted
        rejected = handshake(1.0, chips[a], chips[d], registry, rng, session_ids)
        assert rejected.reason is HandshakeReject.NOT_IN_POD

    def test_firmware_mismatch_rejects_and_self_disables(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, b, c = ids[:3]
        manifest = issue_manifest(
            regulator, "pod-1",
            {i: chips[i].firmware_hash for i in (a, b, c)},
            manifest_epoch=0,
        )
        for i in (a, b, c):
            assert adopt_manifest(chips[i], manifest)
        session_ids = itertools.count()
        held = handshake(0.0, chips[b], chips[c], registry, rng, session_ids).session
        chips[b].firmware_hash = hashlib.sha256(b"patched").digest()
        result = handshake(0.0, chips[a], chips[b], registry, rng, session_ids)
        assert result.reason is HandshakeReject.FIRMWARE_MISMATCH
        assert chips[b].self_disabled
        # Disabling closes b's sessions at both ends, its peer c's included.
        assert held_by_neither_end(held)
        assert not chips[b].sessions and not chips[c].sessions
        again = handshake(1.0, chips[a], chips[b], registry, rng, session_ids)
        assert again.reason is HandshakeReject.BAD_AUTH

    def test_self_disabled_member_stays_stopped_under_a_genuine_license(self, world):
        rng, regulator, registry, chips = world
        a, b = (chips[i] for i in sorted(chips)[:2])
        manifest = issue_manifest(regulator, "pod-1",
                                  {n.device_id: n.firmware_hash for n in (a, b)},
                                  manifest_epoch=0)
        assert adopt_manifest(a, manifest) and adopt_manifest(b, manifest)
        b.tamper_event("firmware_mod", covert=True)
        result = handshake(0.0, a, b, registry, rng, itertools.count())
        assert result.reason is HandshakeReject.FIRMWARE_MISMATCH
        lic = IssuerState(regulator).issue(b.device_id, {MeterResource.CLOCK_CYCLES: 10**6})
        assert install(b, lic).accepted
        assert b.consume(MeterResource.CLOCK_CYCLES, 1000) is ConsumeResult.THROTTLED
        assert b.meter_value(MeterResource.CLOCK_CYCLES) == 0

    def test_member_replacement_via_manifest_reissue(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, b, c = ids[:3]
        first = issue_manifest(
            regulator, "pod-1",
            {a: chips[a].firmware_hash, b: chips[b].firmware_hash},
            manifest_epoch=0,
        )
        assert adopt_manifest(chips[a], first)
        # Device b breaks; the regulator re-issues with c in its place.
        replacement = issue_manifest(
            regulator, "pod-1",
            {a: chips[a].firmware_hash, c: chips[c].firmware_hash},
            manifest_epoch=1,
        )
        assert adopt_manifest(chips[a], replacement)
        assert not adopt_manifest(chips[a], first)  # stale epoch rejected
        assert adopt_manifest(chips[b], first) and adopt_manifest(chips[c], replacement)
        session_ids = itertools.count()
        assert handshake(0.0, chips[a], chips[c], registry, rng, session_ids).accepted
        rejected = handshake(1.0, chips[a], chips[b], registry, rng, session_ids)
        assert rejected.reason is HandshakeReject.NOT_IN_POD

    def test_stale_manifest_epoch_refused_without_verify(self, world, crypto_calls):
        rng, regulator, _, chips = world
        ids = sorted(chips)
        chip = chips[ids[0]]
        members = {i: chips[i].firmware_hash for i in ids[:2]}
        current = issue_manifest(regulator, "pod-1", members, manifest_epoch=3)
        assert adopt_manifest(chip, current)
        crypto_calls.update(verify=0)
        for stale_epoch in (0, 3):
            grown = {**members, ids[2]: chips[ids[2]].firmware_hash}
            stale = issue_manifest(regulator, "pod-1", grown, manifest_epoch=stale_epoch)
            assert adopt_manifest(chip, stale) is False
        assert crypto_calls["verify"] == 0
        rogue = canon.generate_keypair(rng.randbytes(32))
        forged = issue_manifest(rogue, "pod-1", members, manifest_epoch=4)
        assert adopt_manifest(chip, forged) is False
        assert crypto_calls["verify"] == len(chip.identity.issuer_keys)
        assert chip.pod_manifest == PodManifest(**MANIFEST.decode(current)[0])

    def test_unsigned_manifest_rejected(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        rogue = canon.generate_keypair(rng.randbytes(32))
        forged = issue_manifest(rogue, "pod-x",
                                {ids[0]: chips[ids[0]].firmware_hash},
                                manifest_epoch=5)
        assert not adopt_manifest(chips[ids[0]], forged)

    @pytest.mark.parametrize("outsider_first", [False, True])
    def test_member_that_refused_a_forged_manifest_does_not_admit_the_outsider(
            self, world, outsider_first):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        member, outsider = chips[ids[0]], chips[ids[2]]
        pod = {i: chips[i].firmware_hash for i in ids[:2]}
        genuine = issue_manifest(regulator, "pod-1", pod, manifest_epoch=0)
        assert adopt_manifest(member, genuine)
        assert apply_cap_update(outsider, issue_cap_policy(regulator, cap=4, cap_epoch=0))
        rogue = canon.generate_keypair(rng.randbytes(32))
        forged = issue_manifest(rogue, "pod-1",
                                {**pod, outsider.device_id: outsider.firmware_hash},
                                manifest_epoch=1)
        assert not adopt_manifest(member, forged)
        pair = (outsider, member) if outsider_first else (member, outsider)
        result = handshake(0.0, *pair, registry, rng, itertools.count())
        assert result.reason is HandshakeReject.NOT_IN_POD
        assert member.pod_manifest == PodManifest(**MANIFEST.decode(genuine)[0])
        assert not member.sessions

    def test_member_that_adopted_no_manifest_is_refused(self, world, crypto_calls):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, b = chips[ids[0]], chips[ids[1]]
        manifest = issue_manifest(regulator, "pod-1",
                                  {i: chips[i].firmware_hash for i in ids[:2]},
                                  manifest_epoch=0)
        assert adopt_manifest(a, manifest)  # b is listed but holds no manifest
        crypto_calls.update(verify=0, sign=0)
        for pair in ((a, b), (b, a)):
            result = handshake(0.0, *pair, registry, rng, itertools.count())
            assert result.reason is HandshakeReject.CAP_EXCEEDED
        assert crypto_calls == {"verify": 0, "sign": 0}
        assert not a.sessions and not b.sessions

    def test_forged_identity_rejected(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, victim = ids[:2]
        manifest = issue_manifest(
            regulator, "pod-1",
            {a: chips[a].firmware_hash, victim: chips[victim].firmware_hash},
            manifest_epoch=0,
        )
        # Impersonator claims the victim's device id with its own keypair.
        imposter = ChipState(
            DeviceIdentity(
                device_id=victim,
                keypair=canon.generate_keypair(rng.randbytes(32)),
                issuer_keys=frozenset({regulator.public_bytes}),
            )
        )
        for chip in (chips[a], imposter):
            assert adopt_manifest(chip, manifest)
        result = handshake(0.0, chips[a], imposter, registry, rng, itertools.count())
        assert result.reason is HandshakeReject.BAD_AUTH

    @pytest.mark.parametrize("imposter_first", [False, True])
    def test_imposter_with_wrong_firmware_cannot_disable_members(self, world,
                                                                 imposter_first):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        a, victim = ids[:2]
        manifest = issue_manifest(
            regulator, "pod-1",
            {a: chips[a].firmware_hash, victim: chips[victim].firmware_hash},
            manifest_epoch=0,
        )
        imposter = ChipState(DeviceIdentity(
            device_id=victim,
            keypair=canon.generate_keypair(rng.randbytes(32)),
            issuer_keys=frozenset({regulator.public_bytes}),
        ))
        imposter.firmware_hash = hashlib.sha256(b"patched").digest()
        for chip in (chips[a], imposter):
            assert adopt_manifest(chip, manifest)
        pair = (imposter, chips[a]) if imposter_first else (chips[a], imposter)
        result = handshake(0.0, *pair, registry, rng, itertools.count())
        # Authentication fails before the firmware check can run.
        assert result.reason is HandshakeReject.BAD_AUTH
        assert not chips[a].self_disabled
        assert not chips[victim].self_disabled
        assert not imposter.self_disabled

    def test_forged_handshake_fuzz_zero_successes(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        honest = chips[ids[0]]
        adopt_caps(regulator, chips, cap=64)
        session_ids = itertools.count()
        successes = 0
        for trial in range(1000):
            victim = rng.choice(ids[1:])
            imposter = ChipState(DeviceIdentity(
                device_id=victim,
                keypair=canon.generate_keypair(rng.randbytes(32)),
                issuer_keys=frozenset({regulator.public_bytes}),
            ))
            imposter.cap_policy = honest.cap_policy
            result = handshake(float(trial), honest, imposter, registry, rng, session_ids)
            successes += result.accepted
        assert successes == 0


class TestCapRegime:
    def test_cap_boundary(self, world):
        rng, regulator, registry, chips = world
        adopt_caps(regulator, chips, cap=2)
        ids = sorted(chips)
        hub = chips[ids[0]]
        session_ids = itertools.count()
        first = handshake(0.0, hub, chips[ids[1]], registry, rng, session_ids)
        second = handshake(1.0, hub, chips[ids[2]], registry, rng, session_ids)
        assert (first.session.session_id, second.session.session_id) == (0, 1)
        assert first.session.ends == (hub, chips[ids[1]])
        assert held_by_both_ends(first.session) and held_by_both_ends(second.session)
        # A session equals only itself, and its repr terminates although its
        # ends hold it in their own session tables.
        twin = Session(first.session.session_id, first.session.ends, first.session.established_at)
        assert first.session == first.session and first.session != twin
        assert repr(first.session).startswith("Session(session_id=0, ends=(")
        third = handshake(2.0, hub, chips[ids[3]], registry, rng, session_ids)
        assert third.reason is HandshakeReject.CAP_EXCEEDED
        # A refused handshake takes no id: the next session is still number 2.
        fourth = handshake(3.0, chips[ids[3]], chips[ids[4]], registry, rng, session_ids)
        assert fourth.session.session_id == 2
        # Tearing a session down removes it from both ends and frees its slot.
        teardown(first.session)
        assert held_by_neither_end(first.session)
        assert len(hub.sessions) == 1 and len(chips[ids[1]].sessions) == 0
        assert handshake(4.0, hub, chips[ids[5]], registry, rng, session_ids).accepted

    def test_no_adopted_policy_denies(self, world):
        rng, _, registry, chips = world
        ids = sorted(chips)
        result = handshake(0.0, chips[ids[0]], chips[ids[1]], registry, rng,
                           itertools.count())
        assert result.reason is HandshakeReject.CAP_EXCEEDED

    @pytest.mark.parametrize("cap", [0, 1])
    def test_full_endpoint_refuses_before_any_signature(self, world, crypto_calls, cap):
        rng, regulator, registry, chips = world
        adopt_caps(regulator, chips, cap=cap)
        ids = sorted(chips)
        hub = chips[ids[0]]
        session_ids = itertools.count()
        if cap:
            assert handshake(0.0, hub, chips[ids[1]], registry, rng, session_ids).accepted
        crypto_calls.update(verify=0, sign=0)
        expected_rng = random.Random()
        expected_rng.setstate(rng.getstate())
        expected_rng.randbytes(32)  # both nonces are drawn whichever check rejects
        for a, b in ((hub, chips[ids[2]]), (chips[ids[2]], hub)):
            result = handshake(1.0, a, b, registry, rng, session_ids)
            assert result.reason is HandshakeReject.CAP_EXCEEDED
            assert rng.getstate() == expected_rng.getstate()
            expected_rng.randbytes(32)
        assert crypto_calls == {"verify": 0, "sign": 0}
        if cap:  # an admitted handshake still authenticates both ways
            assert handshake(2.0, chips[ids[2]], chips[ids[3]], registry, rng,
                             session_ids).accepted
            assert crypto_calls == {"verify": 2, "sign": 2}

    def test_stale_epoch_refused_without_verify(self, world, crypto_calls):
        rng, regulator, _, chips = world
        chip = chips[sorted(chips)[0]]
        assert apply_cap_update(chip, issue_cap_policy(regulator, cap=4, cap_epoch=3))
        crypto_calls.update(verify=0)
        for stale_epoch in (0, 3):
            stale = issue_cap_policy(regulator, cap=64, cap_epoch=stale_epoch)
            assert not apply_cap_update(chip, stale)
        assert crypto_calls["verify"] == 0
        rogue = canon.generate_keypair(rng.randbytes(32))
        forged = issue_cap_policy(rogue, cap=64, cap_epoch=4)
        assert not apply_cap_update(chip, forged)
        assert crypto_calls["verify"] == len(chip.identity.issuer_keys)
        assert chip.adopted_cap() == 4
        assert chip.cap_policy.cap_epoch == 3

    @pytest.mark.parametrize("period", [0.0, -1.0, math.inf])
    def test_unschedulable_period_refused_without_verify(self, world, crypto_calls, period):
        _, regulator, _, chips = world
        ids = sorted(chips)
        adopted, fresh = chips[ids[0]], chips[ids[1]]
        adopt_caps(regulator, {ids[0]: adopted}, cap=4, check_period_ms=100.0)
        before = adopted.cap_policy
        crypto_calls.update(verify=0)
        bad = issue_cap_policy(regulator, cap=2, cap_epoch=1, check_period_ms=period)
        assert not apply_cap_update(adopted, bad)
        assert not apply_cap_update(fresh, bad)
        assert crypto_calls["verify"] == 0
        assert adopted.cap_policy == before and fresh.cap_policy is None
        assert run_due_checks(adopted, 1000.0) == []
        assert adopted.last_check_ms == 1000.0
        assert run_due_checks(fresh, 1000.0) == []

    def test_unsigned_cap_raise_rejected(self, world):
        rng, regulator, registry, chips = world
        adopt_caps(regulator, chips, cap=2)
        chip = chips[sorted(chips)[0]]
        rogue = canon.generate_keypair(rng.randbytes(32))
        forged = issue_cap_policy(rogue, cap=64, cap_epoch=5)
        assert not apply_cap_update(chip, forged)
        assert chip.adopted_cap() == 2

    def test_replayed_lower_epoch_rejected(self, world):
        _, regulator, registry, chips = world
        chip = chips[sorted(chips)[0]]
        old = issue_cap_policy(regulator, cap=16, cap_epoch=0)
        new = issue_cap_policy(regulator, cap=4, cap_epoch=1)
        assert apply_cap_update(chip, old)
        assert apply_cap_update(chip, new)
        assert not apply_cap_update(chip, old)
        assert chip.adopted_cap() == 4

    def test_lowering_tears_down_newest_first_within_one_period(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        hub = chips[ids[0]]
        adopt_caps(regulator, chips, cap=16, check_period_ms=100.0)
        session_ids = itertools.count()
        sessions = []
        for i, peer in enumerate(ids[1:6]):
            result = handshake(float(i), hub, chips[peer], registry, rng, session_ids)
            sessions.append(result.session)
        assert len(hub.sessions) == 5

        lowered = issue_cap_policy(regulator, cap=2, cap_epoch=1, check_period_ms=100.0)
        assert apply_cap_update(hub, lowered)
        assert len(hub.sessions) == 5  # grace until the next check

        closed = run_due_checks(hub, 110.0)
        assert len(hub.sessions) == 2
        assert len(closed) == 3
        closed_ids = {s.session_id for s in closed}
        newest_three = {s.session_id for s in sorted(sessions, key=lambda s: -s.established_at)[:3]}
        assert closed_ids == newest_three
        assert all(held_by_neither_end(s) for s in closed)
        # The longest-running sessions survive.
        assert held_by_both_ends(sessions[0]) and held_by_both_ends(sessions[1])


    def test_run_due_checks_executes_on_schedule(self, world):
        rng, regulator, registry, chips = world
        ids = sorted(chips)
        hub = chips[ids[0]]
        adopt_caps(regulator, chips, cap=8, check_period_ms=100.0)
        session_ids = itertools.count()
        for i, peer in enumerate(ids[1:5]):
            handshake(float(i), hub, chips[peer], registry, rng, session_ids)
        lowered = issue_cap_policy(regulator, cap=1, cap_epoch=1, check_period_ms=100.0)
        apply_cap_update(hub, lowered)
        # Jump far ahead; the backlog of check instants still runs punctually.
        closed = run_due_checks(hub, 1000.0)
        assert len(hub.sessions) == 1
        assert len(closed) == 3
        assert hub.last_check_ms == 1000.0


class TestCapPolicySignature:
    """The regulator's signature binds every field a chip enforces."""

    _rng = random.Random(5)
    REGULATOR = canon.generate_keypair(_rng.randbytes(32))
    CHIP = provision_chip(_rng, frozenset({REGULATOR.public_bytes}))

    def _adopts(self, wire: bytes) -> bool:
        # A fresh chip each time: one that adopted a policy refuses any later
        # one whose epoch is not greater.
        return apply_cap_update(ChipState(self.CHIP.identity), wire)

    @staticmethod
    def _forged(policy: bytes, **fields) -> bytes:
        """The declared signed bytes of `fields` under `policy`'s signature."""
        return CAP_POLICY.signed(**fields) + canon.blob(CAP_POLICY.decode(policy)[2])

    @pytest.mark.parametrize("signed_period, enforced_period", [
        (60_000.2, 60_000.9),  # the same whole milliseconds
        (0.5, 0.0),
        (0.5, 0.25),
        (2.0**70, 2.0**70 + 2.0**18),  # beyond u64 milliseconds
    ])
    def test_period_change_breaks_signature(self, signed_period, enforced_period):
        policy = issue_cap_policy(self.REGULATOR, cap=4, cap_epoch=1,
                                  check_period_ms=signed_period)
        assert self._adopts(policy)
        changed = self._forged(policy, cap=4, cap_epoch=1, check_period_ms=enforced_period)
        assert not self._adopts(changed)

    @settings(max_examples=150, deadline=None)
    @given(
        cap=st.integers(0, canon.U32_MAX),
        epoch=st.integers(0, canon.U64_MAX),
        period=st.floats(min_value=1e-3, max_value=1e30),
        field=st.sampled_from(["cap", "cap_epoch", "check_period_ms"]),
        data=st.data(),
    )
    def test_any_field_mutation_breaks_signature(self, cap, epoch, period, field, data):
        policy = issue_cap_policy(self.REGULATOR, cap, epoch, period)
        assert self._adopts(policy)
        if field == "cap":
            value = data.draw(st.integers(0, canon.U32_MAX).filter(lambda v: v != cap))
        elif field == "cap_epoch":
            value = data.draw(st.integers(0, canon.U64_MAX).filter(lambda v: v != epoch))
        else:
            value = data.draw(st.one_of(
                st.sampled_from([math.nextafter(period, 0.0),
                                 math.nextafter(period, math.inf),
                                 period + 0.4, period - 0.4]),
                st.floats(min_value=1e-3, max_value=1e30),
            ).filter(lambda v: v != period))
        fields = {"cap": cap, "cap_epoch": epoch, "check_period_ms": period, field: value}
        assert not self._adopts(self._forged(policy, **fields))


class TestChurnLoop:
    SECTION = validate_config({
        "name": "churn", "seed": 0,
        "cluster": {"chips": 12, "cap": 4, "check_period_ms": 500.0,
                    "churn_events": 1500, "cap_lowerings": 3},
    })["cluster"]

    def test_unenforced_cap_is_seen_as_violations(self, monkeypatch):
        # The enforced run has none: test_acceptance's cap-safety criterion.
        monkeypatch.setattr(cluster, "_enforce_cap", lambda chip: [])
        result = run_cluster_section(self.SECTION, seed=4)
        summary = next(r for r in result.records if r["event"] == "churn_summary")
        assert summary["lowerings"] == 3
        assert summary["violations"] > 0
        assert not {p.name: p.passed for p in result.predicates}["cluster_cap_safety"]

    def test_each_refusal_is_counted_under_its_reason(self, monkeypatch):
        # Every fourth handshake checks identities against an empty registry,
        # so an endpoint pair with room refuses it as BAD_AUTH.
        calls = []
        seen = {reason.value: 0 for reason in HandshakeReject}

        def recording_handshake(now_ms, a, b, registry, rng, session_ids):
            calls.append(now_ms)
            if len(calls) % 4 == 0:
                registry = {}
            outcome = handshake(now_ms, a, b, registry, rng, session_ids)
            if not outcome.accepted:
                seen[outcome.reason.value] += 1
            return outcome

        monkeypatch.setattr(scenarios, "handshake", recording_handshake)
        result = run_cluster_section(self.SECTION, seed=4)
        summary = next(r for r in result.records if r["event"] == "churn_summary")
        assert seen["bad_auth"] > 0 and seen["cap_exceeded"] > 0
        assert summary["refusals"] == seen
        assert sum(seen.values()) == summary["handshakes"] - summary["accepted"]


def transfer(
    now_ms: float, session: Session, a: ChipState, b: ChipState, n_bytes: int
) -> DataEvent:
    """Direct-interconnect reference path that bridge transfers are compared with."""
    if not held_by_both_ends(session):
        raise ValueError("transfer over a closed session")
    if n_bytes < 0:
        raise ValueError("transfer size must be nonnegative")
    transit = n_bytes / DIRECT_INTERCONNECT_BYTES_PER_MS
    a.consume(MeterResource.INTERCONNECT_TRANSFER_BYTES, n_bytes)
    b.consume(MeterResource.INTERCONNECT_TRANSFER_BYTES, n_bytes)
    return DataEvent(now_ms, a.device_id, b.device_id, n_bytes, transit)


class TestTransfers:
    def _pair(self, world):
        rng, regulator, registry, chips = world
        adopt_caps(regulator, chips, cap=8)
        ids = sorted(chips)
        a, b = chips[ids[0]], chips[ids[1]]
        session = handshake(0.0, a, b, registry, rng, itertools.count()).session
        return a, b, session

    def test_bridge_latency_multiplier(self, world):
        a, b, session = self._pair(world)
        gig = 10**9
        direct = transfer(0.0, session, a, b, gig)
        bridged = bridge_transfer(0.0, a, b, gig, multiplier=5.0)
        assert bridged.transit_ms == pytest.approx(5.0 * direct.transit_ms)

    def test_meters_reflect_bytes_on_both_endpoints(self, world):
        a, b, _ = self._pair(world)
        bridge_transfer(0.0, a, b, 12345)
        assert a.meter_value(MeterResource.PCIE_TRANSFER_BYTES) == 12345
        assert b.meter_value(MeterResource.PCIE_TRANSFER_BYTES) == 12345

    def test_zero_byte_bridge_leaves_meters_unchanged(self, world):
        a, b, _ = self._pair(world)
        bridge_transfer(0.0, a, b, 0)
        assert a.meter_value(MeterResource.PCIE_TRANSFER_BYTES) == 0

    def test_disabled_sender_bridges_nothing(self, world):
        rng, regulator, registry, _ = world
        a, b, session = self._pair(world)
        # a adopts a manifest of the genuine firmware, then fails it at its next handshake.
        manifest = issue_manifest(regulator, "pod-1",
                                  {n.device_id: n.firmware_hash for n in (a, b)},
                                  manifest_epoch=0)
        assert adopt_manifest(a, manifest)
        a.tamper_event("firmware_mod", covert=True)
        result = handshake(1.0, a, b, registry, rng, itertools.count(1))
        assert result.reason is HandshakeReject.FIRMWARE_MISMATCH
        assert a.self_disabled and held_by_neither_end(session)
        assert bridge_transfer(0.0, a, b, 10**9) is None
        assert [n.meter_value(MeterResource.PCIE_TRANSFER_BYTES) for n in (a, b)] == [0, 0]

    def test_sender_at_its_pcie_quota_bridges_nothing_more(self, world):
        _, regulator, _, _ = world
        a, b, _ = self._pair(world)
        issuer = IssuerState(regulator)  # the key every world chip enrolled
        assert install(a, issuer.issue(a.device_id,
                                       {MeterResource.PCIE_TRANSFER_BYTES: 10})).accepted
        assert bridge_transfer(0.0, a, b, 10**9) is None  # would cross the quota
        assert bridge_transfer(0.0, a, b, 10).n_bytes == 10
        assert bridge_transfer(0.0, a, b, 1) is None  # the quota is reached
        assert [n.meter_value(MeterResource.PCIE_TRANSFER_BYTES) for n in (a, b)] == [10, 10]


class TestCrossPodDetector:
    def test_no_inter_pod_traffic_no_flags(self):
        pod_of = {1: "p1", 2: "p1", 3: "p2"}
        events = [DataEvent(t, 1, 2, 10**9, 1.0)
                  for t in (0.0, 100.0, 200.0)]
        assert detect_cross_pod_coupling(events, pod_of, 100.0, 10**6) == []

    def test_periodic_smuggling_flagged(self):
        pod_of = {1: "p1", 3: "p2"}
        gradient_bytes = 5 * 10**8
        events = [
            DataEvent(50.0 + step * 100.0, 1, 3, gradient_bytes, 2.5)
            for step in range(8)
        ]
        flags = detect_cross_pod_coupling(events, pod_of, 100.0, gradient_bytes)
        assert len(flags) == 1
        assert flags[0].pod_pair == ("p1", "p2")
        assert flags[0].windows_over_threshold == 8

    def test_sporadic_subthreshold_not_flagged(self):
        pod_of = {1: "p1", 3: "p2"}
        events = [
            DataEvent(130.0, 1, 3, 10**4, 0.1),
            DataEvent(890.0, 1, 3, 2 * 10**4, 0.1),
        ]
        assert detect_cross_pod_coupling(events, pod_of, 100.0, 10**6) == []
