"""Licensing protocol tests: issuance, install checks, quota enforcement."""

import itertools
import random
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hemsim import canon, licensing, scenarios
from hemsim.chipmodel import (
    RESOURCE,
    ConsumeResult,
    MeterResource,
    PersistencePolicy,
    PolicyKind,
    ThrottleLevel,
    provision_chip,
)
from hemsim.config import validate_config
from hemsim.licensing import (
    FUZZ_KINDS,
    LICENSE,
    InstallResult,
    License,
    RejectReason,
    fuzz_licenses,
    install,
    make_issuer,
)


@pytest.fixture
def world():
    rng = random.Random(11)
    issuer = make_issuer(rng)
    chip = provision_chip(rng, frozenset({issuer.public_key}))
    return rng, issuer, chip


QUOTA = {MeterResource.CLOCK_CYCLES: 1000}

# The order in which `install` checks, and so the reason it reports first.
CHECK_ORDER = (RejectReason.MALFORMED, RejectReason.WRONG_DEVICE, RejectReason.STALE_ID,
               RejectReason.EXPIRED, RejectReason.BAD_SIGNATURE)


def signed_wire(sign, license_id, device_id, quotas, not_after):
    """Wire bytes of these exact fields, signed by `sign` (quotas in the given order,
    canonical or not)."""
    signed = (LICENSE.head + canon.u64(license_id) + canon.u128(device_id)
              + canon.u32(len(quotas))
              + b"".join(RESOURCE.encode(r) + canon.u64(amount) for r, amount in quotas)
              + canon.opt_u64(not_after))
    return signed + canon.blob(sign(signed))


def held_license(wire):
    """The license a chip would hold after installing `wire`."""
    return License(**LICENSE.decode(wire)[0])


def license_state(chip):
    return (chip.last_license_id, chip.active_license, dict(chip.license_baseline),
            chip.throttle)


class TestIssue:
    def test_first_license_id_is_zero(self, world):
        _, issuer, chip = world
        lic = held_license(issuer.issue(chip.identity.device_id, QUOTA))
        assert lic.license_id == 0

    def test_ids_increment_per_device(self, world):
        _, issuer, chip = world
        ids = [held_license(issuer.issue(chip.identity.device_id, QUOTA)).license_id
               for _ in range(3)]
        assert ids == [0, 1, 2]

    def test_sequencing_is_per_device(self, world):
        rng, issuer, chip = world
        other = provision_chip(rng, frozenset({issuer.public_key}))
        issuer.issue(chip.identity.device_id, QUOTA)
        lic_other = held_license(issuer.issue(other.identity.device_id, QUOTA))
        assert lic_other.license_id == 0

    def test_issued_license_verifies_under_issuer_key(self, world):
        _, issuer, chip = world
        _, signed, signature = LICENSE.decode(issuer.issue(chip.identity.device_id, QUOTA))
        assert canon.verify(issuer.public_key, signed, signature)

    def test_negative_quota_rejected(self, world):
        _, issuer, chip = world
        with pytest.raises(canon.EncodingError):
            issuer.issue(chip.identity.device_id, {MeterResource.JOULES: -5})
        # A refused request burns no id: the first license issued is still id 0.
        lic = held_license(issuer.issue(chip.identity.device_id, QUOTA))
        assert lic.license_id == 0


class TestInstall:
    def test_valid_fresh_license_accepted(self, world):
        _, issuer, chip = world
        result = install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        assert result == InstallResult(True)
        assert chip.throttle is ThrottleLevel.FULL

    def test_replay_rejected_stale_id(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        assert install(chip, lic).accepted
        result = install(chip, lic)
        assert result.reason is RejectReason.STALE_ID

    def test_out_of_order_older_license_rejected(self, world):
        _, issuer, chip = world
        first = issuer.issue(chip.identity.device_id, QUOTA)
        second = issuer.issue(chip.identity.device_id, QUOTA)
        assert install(chip, second).accepted
        assert install(chip, first).reason is RejectReason.STALE_ID

    def test_cross_device_rejected(self, world):
        rng, issuer, chip = world
        other = provision_chip(rng, frozenset({issuer.public_key}))
        lic_for_other = issuer.issue(other.identity.device_id, QUOTA)
        assert install(chip, lic_for_other).reason is RejectReason.WRONG_DEVICE

    def test_expired_license_rejected(self, world):
        _, issuer, chip = world
        # The chip's clock only moves forward, so the on-time install comes first.
        fresh = issuer.issue(chip.identity.device_id, QUOTA, not_after=500)
        chip.advance_to(500.0)
        assert install(chip, fresh).accepted
        lic = issuer.issue(chip.identity.device_id, QUOTA, not_after=500)
        chip.advance_to(501.0)
        assert install(chip, lic).reason is RejectReason.EXPIRED

    def test_non_enrolled_issuer_rejected(self, world):
        rng, issuer, chip = world
        rogue = make_issuer(rng)
        lic = rogue.issue(chip.identity.device_id, QUOTA)
        assert install(chip, lic).reason is RejectReason.BAD_SIGNATURE

    @pytest.mark.parametrize("reason", CHECK_ORDER[:4])
    def test_local_check_refuses_without_verify(self, world, verify_calls, reason):
        rng, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        assert install(chip, lic).accepted
        chip.consume(MeterResource.CLOCK_CYCLES, 1000)
        other = provision_chip(rng, frozenset({issuer.public_key}))
        hostile = {
            RejectReason.MALFORMED: issuer.issue(chip.identity.device_id, QUOTA)[:-1],
            RejectReason.WRONG_DEVICE: issuer.issue(other.identity.device_id, QUOTA),
            RejectReason.STALE_ID: lic,  # the replay of test_replay_rejected_stale_id
            RejectReason.EXPIRED: issuer.issue(chip.identity.device_id, QUOTA, not_after=500),
        }[reason]
        chip.advance_to(501.0)
        before = license_state(chip)
        verify_calls.clear()
        assert install(chip, hostile) == InstallResult(False, reason)
        assert verify_calls == []
        assert license_state(chip) == before
        assert chip.throttle is ThrottleLevel.DISABLED

    @pytest.mark.parametrize("wrong_device,stale,expired,bad_signature",
                             itertools.product((False, True), repeat=4))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_reason_is_first_failing_check(self, wrong_device, stale, expired,
                                           bad_signature, data):
        rng = random.Random(data.draw(st.integers(0, 2**32), label="seed"))
        issuer = make_issuer(rng)
        chip = provision_chip(rng, frozenset({issuer.public_key}))
        for _ in range(data.draw(st.integers(1, 3), label="installed")):
            assert install(chip, issuer.issue(chip.identity.device_id, QUOTA)).accepted
        chip.consume(MeterResource.CLOCK_CYCLES, 7)
        last = chip.last_license_id
        now = 1_000
        license_id = data.draw(st.integers(0, last) if stale
                               else st.integers(last + 1, 2**64 - 1), label="license_id")
        device_id = chip.identity.device_id
        if wrong_device:
            device_id ^= 1 << data.draw(st.integers(0, 127), label="device_bit")
        not_after = (data.draw(st.integers(0, now - 1), label="not_after") if expired
                     else data.draw(st.one_of(st.none(), st.integers(now, 2**64 - 1)),
                                    label="not_after"))
        signer = make_issuer(rng).keypair if bad_signature else issuer.keypair
        wire = signed_wire(signer.sign, license_id, device_id, tuple(QUOTA.items()), not_after)
        faults = [reason for reason, present in zip(
            CHECK_ORDER[1:], (wrong_device, stale, expired, bad_signature)) if present]
        chip.advance_to(float(now))
        before = license_state(chip)
        result = install(chip, wire)
        assert result.accepted == (not faults)
        if faults:
            assert result.reason is faults[0]
            assert license_state(chip) == before
        else:
            assert result.reason is None
            assert (chip.last_license_id == license_id
                    and chip.active_license == held_license(wire))

    def test_field_mutation_invalidates_signature(self, world):
        _, issuer, chip = world
        fields, _, signature = LICENSE.decode(issuer.issue(chip.identity.device_id, QUOTA))
        bumped = LICENSE.signed(**{**fields, "quotas": {MeterResource.CLOCK_CYCLES: 10**9}}
                                ) + canon.blob(signature)
        assert install(chip, bumped).reason is RejectReason.BAD_SIGNATURE


class TestEnforce:
    def test_no_license_means_disabled_from_boot(self, world):
        _, _, chip = world
        assert chip.throttle is ThrottleLevel.DISABLED
        assert chip.consume(MeterResource.CLOCK_CYCLES, 1) is ConsumeResult.THROTTLED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 0

    def test_quota_boundary(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        assert chip.consume(MeterResource.CLOCK_CYCLES, 999) is ConsumeResult.APPLIED
        assert chip.throttle is ThrottleLevel.FULL
        assert chip.consume(MeterResource.CLOCK_CYCLES, 1) is ConsumeResult.APPLIED
        assert chip.throttle is ThrottleLevel.DISABLED

    def test_crossing_consume_rejected_whole(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        chip.consume(MeterResource.CLOCK_CYCLES, 999)
        assert chip.consume(MeterResource.CLOCK_CYCLES, 5) is ConsumeResult.QUOTA_EXCEEDED
        assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) == 999

    def test_direct_consume_past_quota_is_refused_and_meter_stays(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        assert chip.consume(MeterResource.CLOCK_CYCLES, 10**6) is ConsumeResult.QUOTA_EXCEEDED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 0
        assert chip.throttle is ThrottleLevel.FULL  # no quota reached: the grant still runs
        assert chip.consume(MeterResource.CLOCK_CYCLES, 1000) is ConsumeResult.APPLIED
        assert chip.consume(MeterResource.CLOCK_CYCLES, 1) is ConsumeResult.THROTTLED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 1000

    def test_refusal_disables_a_chip_whose_other_quota_is_reached(self, world):
        rng, issuer, _ = world
        chip = provision_chip(rng, frozenset({issuer.public_key}),
                              policy=PersistencePolicy(PolicyKind.BOOT_ROUNDUP,
                                                       roundup_increment=10))
        quotas = {MeterResource.JOULES: 10, MeterResource.CLOCK_CYCLES: 1000}
        assert install(chip, issuer.issue(chip.identity.device_id, quotas)).accepted
        # The boot round-up reaches the joule quota with no consume to see it.
        chip.power_loss(at_ms=1.0)
        chip.power_on(at_ms=2.0)
        assert chip.throttle is ThrottleLevel.FULL
        assert chip.consume(MeterResource.CLOCK_CYCLES, 5000) is ConsumeResult.QUOTA_EXCEEDED
        assert chip.throttle is ThrottleLevel.DISABLED

    def test_license_with_a_reached_quota_installs_disabled(self, world):
        _, issuer, chip = world
        quotas = {MeterResource.JOULES: 0, MeterResource.CLOCK_CYCLES: 1000}
        assert install(chip, issuer.issue(chip.identity.device_id, quotas)).accepted
        assert chip.throttle is ThrottleLevel.DISABLED
        assert chip.consume(MeterResource.CLOCK_CYCLES, 500) is ConsumeResult.THROTTLED
        assert chip.meter_value(MeterResource.CLOCK_CYCLES) == 0

    def test_unlicensed_chip_keeps_its_throttle(self, world):
        _, _, chip = world
        chip.throttle = ThrottleLevel.FULL  # as `mint_fleet` leaves it
        assert chip.consume(MeterResource.CLOCK_CYCLES, 10**9) is ConsumeResult.APPLIED
        assert chip.throttle is ThrottleLevel.FULL

    def test_renewal_after_exhaustion_restores_full(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        chip.consume(MeterResource.CLOCK_CYCLES, 1000)
        assert chip.throttle is ThrottleLevel.DISABLED
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        assert chip.throttle is ThrottleLevel.FULL
        assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) == 0

    def test_unquoted_resource_not_limited(self, world):
        _, issuer, chip = world
        install(chip, issuer.issue(chip.identity.device_id, QUOTA))
        assert chip.consume(MeterResource.JOULES, 10**9) is ConsumeResult.APPLIED
        assert chip.throttle is ThrottleLevel.FULL


class TestQuotaBound:
    def test_random_consume_sequences_never_exceed_quota(self, world):
        _, issuer, chip = world
        seq_rng = random.Random(88)
        for trial in range(50):
            quota = seq_rng.randrange(100, 2000)
            lic = issuer.issue(chip.identity.device_id, {MeterResource.CLOCK_CYCLES: quota})
            assert install(chip, lic).accepted
            while chip.throttle is ThrottleLevel.FULL:
                chip.consume(MeterResource.CLOCK_CYCLES, seq_rng.randrange(1, 300))
                assert chip.consumed_since_install(MeterResource.CLOCK_CYCLES) <= quota


class TestRollbackResistance:
    def test_power_cycling_never_reenables_consumed_license(self, world):
        _, issuer, chip = world
        lic = issuer.issue(chip.identity.device_id, QUOTA)
        install(chip, lic)
        chip.consume(MeterResource.CLOCK_CYCLES, 1000)
        cut_rng = random.Random(3)
        for i in range(50):
            at = chip.clock_ms + cut_rng.uniform(0.1, 5.0)
            chip.power_loss(at_ms=at)
            chip.power_on(at_ms=at + cut_rng.uniform(0.1, 5.0))
            assert install(chip, lic).reason is RejectReason.STALE_ID


class TestRtcExpiryEdge:
    def test_fast_clock_expires_licenses_earlier(self):
        from hemsim.chipmodel import RtcClock

        rng = random.Random(55)
        issuer = make_issuer(rng)
        fast = provision_chip(rng, frozenset({issuer.public_key}),
                              rtc=RtcClock(drift_ppm=50.0))
        exact = provision_chip(rng, frozenset({issuer.public_key}),
                               rtc=RtcClock(drift_ppm=0.0))
        sim_ms = 1_000_000_000.0  # ~11.6 simulated days: +50 ppm is +50 s
        for chip in (fast, exact):
            chip.advance_to(sim_ms)
        not_after = int(sim_ms) + 25_000  # between the two clock readings
        lic_fast = issuer.issue(fast.identity.device_id,
                                {MeterResource.CLOCK_CYCLES: 10}, not_after=not_after)
        lic_exact = issuer.issue(exact.identity.device_id,
                                 {MeterResource.CLOCK_CYCLES: 10}, not_after=not_after)
        assert install(fast, lic_fast).reason is RejectReason.EXPIRED
        assert install(exact, lic_exact).accepted

    def test_expiry_is_judged_by_the_chip_clock(self, verify_calls):
        from hemsim.chipmodel import RtcClock

        rng = random.Random(56)
        issuer = make_issuer(rng)
        chip = provision_chip(rng, frozenset({issuer.public_key}),
                              rtc=RtcClock(epoch_ms=50_000))
        assert chip.clock_ms == 0.0 and chip.rtc_read() == 50_000
        lic = issuer.issue(chip.identity.device_id, QUOTA, not_after=10_000)
        before = license_state(chip)
        assert install(chip, lic) == InstallResult(False, RejectReason.EXPIRED)
        assert verify_calls == []
        assert license_state(chip) == before


class TestWireFormat:
    def test_round_trip(self, world):
        _, issuer, chip = world
        wire = issuer.issue(
            chip.identity.device_id,
            {MeterResource.CLOCK_CYCLES: 1000, MeterResource.FLOAT_OPS: 5},
            not_after=123456,
        )
        fields, signed, signature = LICENSE.decode(wire)
        assert LICENSE.signed(**fields) == signed and signed + canon.blob(signature) == wire

    def test_quota_entries_sorted_by_resource_ordinal(self, world):
        _, issuer, chip = world
        lic = held_license(issuer.issue(
            chip.identity.device_id,
            {MeterResource.JOULES: 1, MeterResource.FLOAT_OPS: 2},
        ))
        ordinals = [RESOURCE.rank(res) for res in lic.quotas]
        assert ordinals == sorted(ordinals)

    def test_golden_wire_vector(self):
        # Frozen vector: fixed issuer seed, fixed device id. Guards the wire
        # layout (field order, widths, endianness) against regressions.
        issuer = make_issuer(random.Random(1234))
        wire = issuer.issue(0x00112233445566778899AABBCCDDEEFF,
                            {MeterResource.CLOCK_CYCLES: 1000}, not_after=7777)
        prefix = (
            "0a0000006c6963656e73652e7631"  # tag "license.v1"
            "0000000000000000"              # license_id 0
            "ffeeddccbbaa99887766554433221100"  # device_id little-endian
            "01000000"                      # one quota entry
            "06"                            # clock_cycles ordinal
            "e803000000000000"              # 1000
            "01611e000000000000"            # not_after present, 7777
        )
        assert wire.hex().startswith(prefix)
        assert LICENSE.decode(wire) == (
            {"license_id": 0, "device_id": 0x00112233445566778899AABBCCDDEEFF,
             "quotas": {MeterResource.CLOCK_CYCLES: 1000}, "not_after": 7777},
            bytes.fromhex(prefix), wire[-64:])

    @given(
        license_id=st.integers(min_value=0, max_value=2**64 - 1),
        device_id=st.integers(min_value=0, max_value=2**128 - 1),
        amounts=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=0,
                         max_size=len(MeterResource), unique=True),
        not_after=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
        signature=st.binary(min_size=64, max_size=64),
    )
    def test_wire_round_trip_property(self, license_id, device_id, amounts, not_after,
                                      signature):
        resources = list(MeterResource)[: len(amounts)]
        wire = signed_wire(lambda signed: signature, license_id, device_id,
                           tuple(zip(resources, amounts)), not_after)
        assert held_license(wire) == License(license_id, device_id,
                                               dict(zip(resources, amounts)), not_after)

    @settings(max_examples=50)
    @given(
        prior=st.integers(min_value=0, max_value=3),
        device_id=st.integers(min_value=0, max_value=2**128 - 1),
        quotas=st.dictionaries(st.sampled_from(list(MeterResource)),
                               st.integers(min_value=0, max_value=2**64 - 1)),
        not_after=st.one_of(st.none(), st.integers(min_value=0, max_value=2**64 - 1)),
    )
    def test_every_issued_license_decodes_to_its_fields(self, prior, device_id, quotas,
                                                        not_after):
        issuer = make_issuer(random.Random(7))
        for _ in range(prior):
            issuer.issue(device_id, QUOTA)
        wire = issuer.issue(device_id, quotas, not_after=not_after)
        fields, signed, signature = LICENSE.decode(wire)
        assert fields == {"license_id": prior, "device_id": device_id, "quotas": quotas,
                          "not_after": not_after}
        assert list(fields["quotas"]) == sorted(quotas, key=RESOURCE.rank)
        assert canon.verify(issuer.public_key, signed, signature)

    def test_every_single_bit_flip_is_refused(self, world):
        _, issuer, chip = world
        assert install(chip, issuer.issue(chip.identity.device_id, QUOTA)).accepted
        wire = issuer.issue(chip.identity.device_id, QUOTA)
        assert len(wire) == 120
        before = license_state(chip)
        value = int.from_bytes(wire, "little")
        for bit in range(len(wire) * 8):
            flipped = (value ^ (1 << bit)).to_bytes(len(wire), "little")
            assert not install(chip, flipped).accepted, f"bit {bit}"
            assert license_state(chip) == before, f"bit {bit}"
        assert install(chip, wire).accepted

    @pytest.mark.parametrize("quotas", [
        ((MeterResource.JOULES, 1), (MeterResource.FLOAT_OPS, 2)),  # out of ordinal order
        ((MeterResource.FLOAT_OPS, 1), (MeterResource.FLOAT_OPS, 2)),  # resource twice
    ])
    def test_non_canonical_quota_order_is_malformed(self, world, verify_calls, quotas):
        _, issuer, chip = world
        # Signed by the enrolled key over exactly these fields: only the
        # canonical-order check stands between this wire and the chip.
        wire = signed_wire(issuer.keypair.sign, 0, chip.identity.device_id, quotas, None)
        with pytest.raises(canon.EncodingError):
            LICENSE.decode(wire)
        verify_calls.clear()
        assert install(chip, wire) == InstallResult(False, RejectReason.MALFORMED)
        assert verify_calls == []
        assert chip.last_license_id == -1 and chip.active_license is None


class TestFuzzCampaign:
    def test_each_kind_is_refused_by_the_check_it_targets(self, monkeypatch):
        rng = random.Random(21)
        issuer = make_issuer(rng)
        chips = [provision_chip(rng, frozenset({issuer.public_key})) for _ in range(6)]
        for chip in chips[:4]:  # two chips stay unlicensed: no id to relabel to
            assert install(chip, issuer.issue(chip.identity.device_id, QUOTA)).accepted
        kinds_drawn = []
        real_choice = rng.choice

        def choice(seq):
            picked = real_choice(seq)
            kinds_drawn.append(picked)
            return picked

        reasons = defaultdict(list)

        def recording_install(chip, wire):
            result = install(chip, wire)
            reasons[kinds_drawn[-1]].append(result.reason)
            if kinds_drawn[-1] == "relabel":
                assert chip.last_license_id >= 0
            return result

        rng.choice = choice
        monkeypatch.setattr(licensing, "install", recording_install)
        acceptances, refusals = fuzz_licenses(issuer, chips, 600, rng)
        assert acceptances == 0
        assert set(reasons) == set(FUZZ_KINDS)
        assert all(None not in kind_reasons for kind_reasons in reasons.values())
        targets = {"truncate": RejectReason.MALFORMED, "append": RejectReason.MALFORMED,
                   "relabel": RejectReason.STALE_ID, "other_chip": RejectReason.WRONG_DEVICE,
                   "rogue": RejectReason.BAD_SIGNATURE}
        for kind, reason in targets.items():
            assert set(reasons[kind]) == {reason}, kind
        tally = Counter(r.value for kind_reasons in reasons.values() for r in kind_reasons)
        assert refusals == {reason.value: tally[reason.value] for reason in RejectReason}

    def test_soundness_holds_with_unlicensed_chips(self):
        # With fewer honest licenses than chips, some chips have no installed
        # id: a stale-id relabel there would offer a genuine id-0 license.
        config = validate_config({"name": "sparse", "seed": 0, "fleet": {"count": 16},
                                  "licensing": {"honest_licenses": 1, "fuzz_licenses": 200}})
        result = scenarios.run_licensing_section(config["licensing"], config["fleet"], 0)
        soundness = {p.name: p for p in result.predicates}["licensing_soundness"]
        assert soundness.passed, soundness.detail
