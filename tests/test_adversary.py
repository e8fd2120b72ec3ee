"""Attack matrix tests: coverage, tier structure, and both-direction claims."""

import hashlib
import json

import pytest

import hemsim.adversary
from hemsim.adversary import (
    ATTACK_INVENTORY,
    ATTACKS,
    Capability,
    ScenarioConfigError,
    TIER_CAPABILITIES,
    Tier,
    attack,
    matrix_report,
    profile_for_tier,
    run_attack,
    run_matrix,
    unexercised_rows,
)

OPEN = profile_for_tier(Tier.OPEN, latency_factor=0.5, counterfeit_trials=2000)

# Reports keep only each row's verdict, so these digests are what holds its
# evidence still: sha256 over seeds 0-11 of
# json.dumps([attack, succeeded, detected, evidence], sort_keys=True).
PIN_PROFILE = profile_for_tier(Tier.OPEN, latency_factor=0.5, counterfeit_trials=20)
EVIDENCE_SHA256 = {
    "accounting_fragmentation": "795c2f970f267db854756112715d95cbb2390d743017037fb0955fcd690db8aa",
    "accounting_meter_tamper": "a5547b1bd409757b2e037145baecad156c8d76d65cedaea0a99c32889703e79c",
    "accounting_noise_injection": "5d0467d8f267ddf979a7521c35dcc8b5ce996e3cf1f0b14f92ac90dd61712d28",
    "cluster_cap_forge": "9327a392a8f2c504cd645e05fa12e47ecd5cf2ca345cd8291308f6c81a18f311",
    "cluster_gradient_smuggle": "af251e83440a139c57b80df2635891b1e7496937228b600c4aa6ed88cff2e4b3",
    "cluster_manifest_forge": "94c664a04defe49c2f52571308f91ed02e91af2d35f5aa3bee883a4d873deb1b",
    "cluster_pcie_bridge": "2b13abcc20d5edff61135e1f4a172e751b5fe617e9e06f924610f3bd43dc2f3e",
    "cluster_pod_firmware_mod": "ba12c089d410703fd241d93ee33cb1b022a95b429fa843764a4990e3947b0c76",
    "geoloc_delay_slowdown": "2a7e8b840952bd915e132c6c31d2bf1202fad331969eaf37ec6a7543bc76a9c3",
    "geoloc_delay_speedup": "7d9d12b71f479a304a01d5ab72077200934cddaa419da3d2002f7c90f023f50f",
    "geoloc_key_extraction_relay": "17f8398f172ae0b9a797d64314a2ff0f71d35daf82c45515cf221bad9b3f1e88",
    "geoloc_landmark_compromise": "6788de21d06fcd9c219e4dc63abd035248c1fc8f97e0c55dbb563dbc48b2727d",
    "geoloc_landmark_ddos": "b1810c32fe1f0746b437b401d293e70b80b173d28cf58103a0f80759e80d0016",
    "licensing_counterfeit": "4a4935e3bb20986a0513c99e8e2a685d95a3f35c6cbf333498eb7641926aa2b7",
    "licensing_cross_device": "94552a860580fd5639c3a0531d15d38235acc96ab5e45bebaa24e472d8c031a9",
    "licensing_host_clock_rollback": "c4199b7de53e157a02ce849d188593c92d69f13aace3908d04bd732fec20e7ed",
    "licensing_meter_rollback": "ee16254ce6532261119a7d9c9523b486ddc46da5886ae1b989db61fc1c1872b1",
    "licensing_power_cut_rollback": "ef9f46222f12af3dcd2306260b7b9a72d17eb9298229bd8b59c68c5d5a0a90c0",
    "licensing_replay": "173bbdfa9e8c3605773837c3254b27505c39a5c10cf0a0a0cd89cf722581944e",
    "licensing_throttle_bypass": "f8021214fed6662f3dda1d2a4e3cb10b064d0a82d32dec634b0534e7b42d72bf",
}


class TestTierStructure:
    def test_tiers_strictly_nested(self):
        minimal = TIER_CAPABILITIES[Tier.MINIMAL]
        covert = TIER_CAPABILITIES[Tier.COVERT]
        open_ = TIER_CAPABILITIES[Tier.OPEN]
        assert minimal < covert < open_

    def test_key_extraction_only_in_open_tier(self):
        assert Capability.KEY_EXTRACTION not in TIER_CAPABILITIES[Tier.MINIMAL]
        assert Capability.KEY_EXTRACTION not in TIER_CAPABILITIES[Tier.COVERT]
        assert Capability.KEY_EXTRACTION in TIER_CAPABILITIES[Tier.OPEN]

    def test_missing_capability_is_config_error(self):
        minimal = profile_for_tier(Tier.MINIMAL, latency_factor=0.5, counterfeit_trials=2000)
        with pytest.raises(ScenarioConfigError):
            run_attack("geoloc_key_extraction_relay", minimal, seed=1)

    def test_rows_reaching_a_gated_helper_require_its_capability(self, monkeypatch):
        # The helpers trust their caller, so `required` is all that gates them.
        gated = {"bridge_transfer": Capability.PCIE_BRIDGE,
                 "extract_signing_oracle": Capability.KEY_EXTRACTION}
        reached, seen, ungated = set(), set(), []
        for helper in gated:
            def spy(*args, _helper=helper, _original=getattr(hemsim.adversary, helper),
                    **kwargs):
                reached.add(_helper)
                return _original(*args, **kwargs)
            monkeypatch.setattr(hemsim.adversary, helper, spy)
        for name, spec in sorted(ATTACKS.items()):
            reached.clear()
            run_attack(name, OPEN, seed=7)
            seen |= reached
            ungated += [(name, h) for h in sorted(reached) if gated[h] not in spec.required]
        assert seen == set(gated)
        assert not ungated, ungated


class TestMatrixCompleteness:
    def test_every_inventory_row_has_a_scenario(self):
        assert unexercised_rows() == []

    def test_registry_matches_inventory_exactly(self):
        inventory_names = {name for names in ATTACK_INVENTORY.values() for name in names}
        assert inventory_names == set(ATTACKS)

    @pytest.mark.parametrize("name, message", [
        ("licensing_counterfeit", "registered twice"),
        ("licensing_wormhole", "not in ATTACK_INVENTORY"),
    ])
    def test_decorator_rejects_duplicate_and_uninventoried_names(self, name, message):
        before = dict(ATTACKS)
        with pytest.raises(ValueError, match=message):
            attack(name, expect=(False, True))(lambda profile, rng: {})
        assert ATTACKS == before

    def test_matrix_report_has_one_row_per_attack(self):
        outcomes = run_matrix(OPEN, seed=7)
        report = matrix_report(outcomes)
        lines = report.strip().split("\n")
        assert len(lines) == len(ATTACKS) + 1  # header


class TestExpectedOutcomes:
    """Both directions: defenses hold where claimed, fail where conceded."""

    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_outcome_matches_expectation(self, name):
        outcome = run_attack(name, OPEN, seed=20_000)
        spec = ATTACKS[name]
        assert outcome.succeeded == spec.expected_succeeded, outcome.evidence
        assert outcome.detected == spec.expected_detected, outcome.evidence

    def test_compromise_flags_exactly_its_liars(self):
        for seed in range(50):
            evidence = run_attack("geoloc_landmark_compromise", OPEN, seed=seed).evidence
            assert set(evidence["flagged_outliers"]) == set(evidence["compromised"]), seed

    def test_relay_documents_the_conceded_spoof(self):
        outcome = run_attack("geoloc_key_extraction_relay", OPEN, seed=5)
        assert outcome.succeeded and not outcome.detected
        assert outcome.evidence["relay_site_in_region"]
        assert not outcome.evidence["truth_in_region"]

    def test_slowdown_grows_uncertainty_without_success(self):
        outcome = run_attack("geoloc_delay_slowdown", OPEN, seed=6)
        assert not outcome.succeeded
        assert outcome.evidence["uncertainty_grew"]

    def test_fragmentation_union_total_still_exceeds_threshold(self):
        outcome = run_attack("accounting_fragmentation", OPEN, seed=8)
        assert outcome.succeeded
        assert outcome.evidence["union_exceeds_threshold"]

    def test_meter_rollback_asymmetry(self):
        # Local license enforcement is fooled; chain verification catches it.
        outcome = run_attack("licensing_meter_rollback", OPEN, seed=9)
        assert outcome.succeeded and outcome.detected
        assert outcome.evidence["overdraft"] > 0
        assert outcome.evidence["verifier_status"] == "meter_rollback"


class TestEvidencePins:
    @pytest.mark.parametrize("name", sorted(ATTACKS))
    def test_outcome_and_evidence_match_pin(self, name):
        digest = hashlib.sha256()
        for seed in range(12):
            o = run_attack(name, PIN_PROFILE, seed=seed)
            row = [o.attack, o.succeeded, o.detected, o.evidence]
            digest.update(json.dumps(row, sort_keys=True).encode())
        assert digest.hexdigest() == EVIDENCE_SHA256.get(name)
