"""Attack matrix tests: coverage, tier structure, and both-direction claims."""

import hashlib
import json

import pytest

import hemsim.adversary
from hemsim.adversary import (
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
)

OPEN = profile_for_tier(Tier.OPEN, latency_factor=0.5, counterfeit_trials=2000)

# Reports keep only each row's verdict, so these digests are what holds its
# evidence still: sha256 over seeds 0-11 of
# json.dumps([attack, succeeded, detected, evidence], sort_keys=True).
PIN_PROFILE = profile_for_tier(Tier.OPEN, latency_factor=0.5, counterfeit_trials=20)
EVIDENCE_SHA256 = {
    "accounting_fragmentation": "cfa2f6acb6dc63a4a97f399acf3f889f4a3d4a557bdd271cecd034c081bbf7ed",
    "accounting_meter_tamper": "a5547b1bd409757b2e037145baecad156c8d76d65cedaea0a99c32889703e79c",
    "accounting_noise_injection": "5d0467d8f267ddf979a7521c35dcc8b5ce996e3cf1f0b14f92ac90dd61712d28",
    "accounting_rollback_withhold":
        "95249b0b0ced2c37ef0a7c4f3b4b1ea8c360a9ca9521f5a8e2b82144873539bf",
    "cluster_cap_forge": "9327a392a8f2c504cd645e05fa12e47ecd5cf2ca345cd8291308f6c81a18f311",
    "cluster_cap_overadmission": "8ab0f9268c7d4b3645da714a6a5695c45a9457242d089469e868ed0bd9adc572",
    "cluster_gradient_smuggle": "af251e83440a139c57b80df2635891b1e7496937228b600c4aa6ed88cff2e4b3",
    "cluster_manifest_forge": "94c664a04defe49c2f52571308f91ed02e91af2d35f5aa3bee883a4d873deb1b",
    "cluster_pcie_bridge": "2b13abcc20d5edff61135e1f4a172e751b5fe617e9e06f924610f3bd43dc2f3e",
    "cluster_pod_firmware_mod": "ba12c089d410703fd241d93ee33cb1b022a95b429fa843764a4990e3947b0c76",
    "cluster_self_disable_relicense":
        "c68b3dd004227635bea293c9cbb1576fcc2bf35fd269e2ae1c6a5aa69e26d98d",
    "geoloc_delay_slowdown": "6db384bf0f2aeb130372ae3f3cb54b7d38ca188baa4c1060d8a9699cf063d9a9",
    "geoloc_delay_speedup": "7d9d12b71f479a304a01d5ab72077200934cddaa419da3d2002f7c90f023f50f",
    "geoloc_key_extraction_relay": "17f8398f172ae0b9a797d64314a2ff0f71d35daf82c45515cf221bad9b3f1e88",
    "geoloc_landmark_compromise": "6788de21d06fcd9c219e4dc63abd035248c1fc8f97e0c55dbb563dbc48b2727d",
    "geoloc_landmark_ddos": "fa819e2ea24f2cea86f84de5f8fb02e3afa4393f096ed8f7a186e0708b65fe75",
    "licensing_counterfeit": "870b226304fdacb32b40a57dfebdf5a96ba26c80afa531b429c13e5cdf6b49fe",
    "licensing_cross_device": "94552a860580fd5639c3a0531d15d38235acc96ab5e45bebaa24e472d8c031a9",
    "licensing_host_clock_rollback": "c4199b7de53e157a02ce849d188593c92d69f13aace3908d04bd732fec20e7ed",
    "licensing_meter_rollback": "ee16254ce6532261119a7d9c9523b486ddc46da5886ae1b989db61fc1c1872b1",
    "licensing_power_cut_rollback": "ef9f46222f12af3dcd2306260b7b9a72d17eb9298229bd8b59c68c5d5a0a90c0",
    "licensing_quota_overrun": "9bca7b68442099a698767e5b7b5e8182fbc056063cfbe027453157d941e46b03",
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
    def test_registry_matches_inventory_exactly(self):
        # The pin table is the test-side list of rows: a row added, dropped or
        # renamed in src/ must be pinned, unpinned or renamed here too.
        assert set(ATTACKS) == set(EVIDENCE_SHA256)

    def test_mechanism_is_the_first_word_of_the_row_name(self):
        assert {spec.mechanism for spec in ATTACKS.values()} == {
            "accounting", "cluster", "geoloc", "licensing"}
        for name, spec in ATTACKS.items():
            assert name.startswith(spec.mechanism + "_"), name
            assert spec.run_fn is getattr(hemsim.adversary, name), name

    def test_decorator_refuses_a_second_def_of_a_row(self):
        before = dict(ATTACKS)

        def licensing_counterfeit(profile, rng):
            return {}

        with pytest.raises(ValueError, match="registered twice: licensing_counterfeit"):
            attack(expect=(True, False))(licensing_counterfeit)
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
