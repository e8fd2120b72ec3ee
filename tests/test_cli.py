"""Config schema and CLI behavior tests, including golden reports."""

import functools
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hemsim
from hemsim import canon, cli
from hemsim.cli import main
from hemsim.config import JITTER_SIGMA_MAX, SCHEMA, SchemaError, render_config, validate_config
from hemsim.scenarios import BUNDLED_SCENARIOS, execute_scenario

GOLDEN_DIR = Path(__file__).parent / "goldens"
SMALL_GEOLOC = {"trials": 3, "speedup_trials": 2, "descent_trials": 1, "bft": {"trials": 2}}

# sha256 of each bundled scenario's resolved config, `render_config` text.
BUNDLED_CONFIG_SHA256 = {
    "attack_matrix": "abe3fa530e2c7e411be5116b065b6336e1980ef1a2696dac4c87861035475f85",
    "attest_accounting": "0bc1a94c34e0418a031dff8fd6625da632f162eabc43e81ecf87fadbbdb44cd4",
    "cluster_caps": "0dbc201dd3fee26738904ed138239f07b13f59bbd166ca33b83f440a1417cb54",
    "geoloc_cbg": "537ab26bbd05047f26179592017c73357c6582f36916e650f359c630523d25f3",
    "licensing_basic": "da21e3de603d729afa068b49033ea7d9688ab823f8c7847c66726437a7a4ba1a",
}

THREE_NODES = [{"id": "a", "lat": 0, "lon": 0}, {"id": "b", "lat": 10, "lon": 10},
               {"id": "c", "lat": -10, "lon": 40}]


def _run_cli_process(args: list[str], hash_seed: str = "0", flags: tuple[str, ...] = (),
                     env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    """`python FLAGS -m hemsim.cli ARGS` in a fresh interpreter, killed after 120 s;
    `env` adds variables to the inherited environment."""
    src = str(Path(hemsim.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           **(env or {})}
    return subprocess.run([sys.executable, *flags, "-m", "hemsim.cli", *args], env=env,
                          timeout=120, capture_output=True, text=True)


# numpy's SIMD kernels beyond its build baseline, as numpy chose them for this
# CPU at import; a child prints the ones still enabled under its environment.
_ENABLED_DISPATCH = ("import numpy as np; "
                     "umath = (getattr(np, '_core', None) or np.core)._multiarray_umath; "
                     "print(','.join(f for f in umath.__cpu_dispatch__ "
                     "if umath.__cpu_features__.get(f)))")


class TestSchema:
    def test_minimal_config_resolves_defaults(self):
        resolved = validate_config({"name": "x", "seed": 1, "geoloc": {}})
        assert resolved["geoloc"]["trials"] == 60
        assert resolved["geoloc"]["region"]["resolution_deg"] == 0.25

    def test_negative_cap_names_the_field(self):
        with pytest.raises(SchemaError, match=r"config\.cluster\.cap: must be >= 0"):
            validate_config({"name": "x", "seed": 1, "cluster": {"cap": -1}})

    def test_unknown_key_rejected(self):
        raw = {"name": "x", "seed": 1, "licensing": {"quotas": 5}}
        with pytest.raises(SchemaError, match=r"config\.licensing\.quotas: unknown key"):
            validate_config(raw)

    def test_missing_seed_rejected(self):
        with pytest.raises(SchemaError, match=r"config\.seed: is required"):
            validate_config({"name": "x"})

    def test_bad_resource_name_rejected(self):
        with pytest.raises(SchemaError, match=r"config\.licensing\.resource"):
            validate_config({"name": "x", "seed": 1,
                             "licensing": {"resource": "gpu_seconds"}})

    def test_region_bounds_checked(self):
        with pytest.raises(SchemaError, match=r"config\.geoloc\.region\.lat_max"):
            validate_config({"name": "x", "seed": 1,
                             "geoloc": {"region": {"lat_min": 10.0, "lat_max": 5.0}}})

    def test_grid_cap_admits_the_whole_globe_at_the_default_resolution(self):
        globe = {"lat_min": -90, "lat_max": 90, "lon_min": -180, "lon_max": 180}
        validate_config({"name": "x", "seed": 1, "geoloc": {"region": globe}})
        with pytest.raises(SchemaError, match=r"region\.resolution_deg: must give at most"):
            validate_config({"name": "x", "seed": 1,
                             "geoloc": {"region": {**globe, "resolution_deg": 0.2}}})

    def test_sections_resolve_the_defaults_they_run_with(self):
        resolved = validate_config({"name": "x", "seed": 1, "licensing": {},
                                    "attack_matrix": {}})
        assert resolved["fleet"] == validate_config(
            {"name": "x", "seed": 1, "fleet": {}})["fleet"]
        assert resolved["fleet"]["count"] == 4
        assert resolved["adversary"] == {"tier": "open", "latency_factor": 0.5}

    def test_config_imports_no_section_module(self):
        # Validating a config needs the schema, not the simulator behind it.
        sections = ["adversary", "cluster", "geoloc", "licensing", "attest", "netsim"]
        src = str(Path(hemsim.__file__).resolve().parents[1])
        probe = ("import sys, hemsim.config; "
                 f"print([m for m in {sections!r} if 'hemsim.' + m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                             timeout=60, capture_output=True, text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_bundled_scenarios_resolve_to_pinned_configs(self):
        digests = {name: hashlib.sha256(render_config(validate_config(raw)).encode()).hexdigest()
                   for name, raw in BUNDLED_SCENARIOS.items()}
        assert digests == BUNDLED_CONFIG_SHA256

    def test_bundled_scenarios_state_only_what_differs_from_the_schema(self):
        def restated(raw, key, path):
            for name, value in raw.items():
                sub = key.fields[name]
                if sub.kind is dict and sub.fields:
                    yield from restated(value, sub, f"{path}.{name}")
                elif value == sub.default:
                    yield f"{path}.{name}"

        assert [path for name, raw in sorted(BUNDLED_SCENARIOS.items())
                for path in restated(raw, SCHEMA, name)] == []

    def test_bundled_scenarios_round_trip_strict(self):
        for name, raw in BUNDLED_SCENARIOS.items():
            resolved = validate_config(raw)
            again = validate_config(resolved)
            assert again == resolved, name


class TestCli:
    def test_list_names_all_bundled(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in BUNDLED_SCENARIOS:
            assert name in out

    def test_describe_prints_valid_resolved_config(self, capsys):
        assert main(["describe", "geoloc_cbg"]) == 0
        out = capsys.readouterr().out
        parsed = json.loads(out)
        assert validate_config(parsed) == parsed

    def test_describe_unknown_errors_with_catalog(self, capsys):
        assert main(["describe", "no_such_scenario"]) == 2
        err = capsys.readouterr().err
        assert "licensing_basic" in err

    def test_run_writes_reports_and_exits_zero(self, tmp_path, capsys):
        code = main(["run", "licensing_basic", "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.txt").exists()
        assert (tmp_path / "licensing.jsonl").exists()
        for line in (tmp_path / "licensing.jsonl").read_text().splitlines():
            json.loads(line)

    def test_run_schema_error_exits_two(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"name": "bad", "seed": 1,
                                      "cluster": {"cap": -3}}))
        code = main(["run", str(config), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "config.cluster.cap" in capsys.readouterr().err

    def test_unknown_key_in_a_file_exits_two(self, tmp_path, capsys):
        config = tmp_path / "extra.json"
        config.write_text(json.dumps({"name": "x", "seed": 1, "licensing": {"quotas": 5}}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config.licensing.quotas: unknown key" in capsys.readouterr().err
        assert main(["describe", str(config)]) == 2

    def test_repeated_key_exits_two_naming_key_and_file(self, tmp_path, capsys):
        config = tmp_path / "twice.json"
        config.write_text('{"name": "x", "seed": 1, "geoloc": {"trials": 2, "trials": 1}}')
        for argv in (["run", str(config), "--out", str(tmp_path / "out")],
                     ["describe", str(config)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert "repeated key 'trials'" in err and str(config) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "describe"])
    @pytest.mark.parametrize("unreadable", ["directory", "utf-16"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, command, unreadable):
        config = tmp_path / "config.json"
        if unreadable == "directory":
            config.mkdir()
        else:
            config.write_bytes(b"\xff\xfe" + '{"name": "x", "seed": 1}'.encode("utf-16-le"))
        extra = ["--out", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(config), *extra]) == 2
        assert capsys.readouterr().err.startswith(f"error: config: cannot read {config}")

    @pytest.mark.parametrize("command", ["run", "describe"])
    def test_strict_flag_is_gone(self, tmp_path, command):
        extra = ["--out", str(tmp_path)] if command == "run" else []
        with pytest.raises(SystemExit) as exc:
            main([command, "licensing_basic", *extra, "--strict"])
        assert exc.value.code == 2  # argparse's usage error

    def test_run_failed_expectation_exits_one(self, tmp_path, capsys):
        config = tmp_path / "expect.json"
        config.write_text(json.dumps({
            "name": "expect_flip", "seed": 7,
            "licensing": {"honest_licenses": 5, "fuzz_licenses": 10},
            "expect": {"licensing_soundness": False},
        }))
        code = main(["run", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "FAIL licensing_soundness" in capsys.readouterr().out

    @pytest.mark.parametrize("tier, code", [("minimal", 2), ("covert", 2), ("open", 0)])
    def test_attack_matrix_tier_must_grant_every_attack(self, tmp_path, capsys, tier, code):
        config = tmp_path / "tier.json"
        config.write_text(json.dumps({
            "name": "tier", "seed": 3, "adversary": {"tier": tier},
            "attack_matrix": {"enabled": True, "counterfeit_trials": 10},
        }))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == code
        assert ("config.adversary.tier" in capsys.readouterr().err) == (code == 2)

    def test_bft_without_byzantine_quorum_is_a_schema_error(self, tmp_path, capsys):
        config = tmp_path / "bft.json"
        config.write_text(json.dumps({
            "name": "bft", "seed": 1,
            "geoloc": {"trials": 2, "speedup_trials": 0, "descent_trials": 0,
                       "bft": {"n": 4, "f": 2, "trials": 1}},
        }))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config.geoloc.bft.n" in capsys.readouterr().err
        validate_config({"name": "x", "seed": 1, "geoloc": {"bft": {"n": 7, "f": 2}}})

    @pytest.mark.parametrize("period", ["inf", "nan", "1e308"])
    def test_unbounded_check_period_is_a_schema_error(self, tmp_path, capsys, period):
        config = tmp_path / "period.json"
        config.write_text(json.dumps({  # json writes inf and nan as Infinity, NaN
            "name": "p", "seed": 1,
            "cluster": {"chips": 4, "churn_events": 50, "check_period_ms": float(period)},
        }))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert "config.cluster.check_period_ms" in capsys.readouterr().err

    def test_check_period_below_float_spacing_is_a_schema_error(self, tmp_path):
        # Such a period once hung the churn loop, so the run gets a timeout.
        config = tmp_path / "period.json"
        config.write_text(json.dumps({
            "name": "p", "seed": 1,
            "cluster": {"chips": 4, "churn_events": 50, "check_period_ms": 1e-9},
        }))
        proc = _run_cli_process(["run", str(config), "--out", str(tmp_path / "out")])
        assert proc.returncode == 2
        assert "config.cluster.check_period_ms" in proc.stderr
        validate_config({"name": "x", "seed": 1, "cluster": {"check_period_ms": 5.0}})

    @pytest.mark.parametrize("sections, path", [
        ({"licensing": {"honest_licenses": 2, "fuzz_licenses": 2, "quota": 10**23}},
         "config.licensing.quota"),
        ({"attest": {"chips": 1, "snapshots": 6, "ops_per_interval": 10**19,
                     "classifier_traces": 0}},
         "config.attest.ops_per_interval"),
        ({"geoloc": {"trials": 1, "speedup_trials": 0, "descent_trials": 0,
                     "bft": {"trials": 1}, "region": {"lon_max": 400}}},
         "config.geoloc.region.lon_max"),
        ({"geoloc": {"trials": 20, "speedup_trials": 0, "descent_trials": 0,
                     "bft": {"trials": 1},
                     "region": {"lat_min": 0, "lat_max": 14, "lon_min": 0, "lon_max": 14,
                                "resolution_deg": 10}}},  # one 10-degree cell: truths off it
         "config.geoloc.region.resolution_deg"),
        ({"geoloc": {**SMALL_GEOLOC, "jitter_sigma": 1000}}, "config.geoloc.jitter_sigma"),
        ({"network": {"nodes": THREE_NODES, "default_latency": {"jitter_median_ms": 1,
                                                            "jitter_sigma": 50.001}}},
         "config.network.default_latency.jitter_sigma"),
        # Each case below once got past the schema and exited 3, or wrote a
        # bare NaN or Infinity token into cluster.jsonl.
        ({"cluster": {"chips": 2, "churn_events": 1,
                      "bridge_multiplier_sweep": [1.0, float("nan"), 2.0]}},
         "config.cluster.bridge_multiplier_sweep[1]"),
        ({"cluster": {"chips": 2, "churn_events": 1,
                      "bridge_multiplier_sweep": [1.0, float("inf"), 2.0]}},
         "config.cluster.bridge_multiplier_sweep[1]"),
        ({"geoloc": {**SMALL_GEOLOC, "region": {"resolution_deg": 1e-320}}},
         "config.geoloc.region.resolution_deg"),  # OverflowError in round()
        ({"geoloc": {**SMALL_GEOLOC, "region": {"resolution_deg": 0.0001}}},
         "config.geoloc.region.resolution_deg"),  # MemoryError: 300,000**2 cells
        ({"geoloc": {**SMALL_GEOLOC, "landmarks_min": 1, "landmarks_max": 2}},
         "config.geoloc.landmarks_max"),  # speedup trials draw from [3, 2]
        ({"cluster": {"chips": 2, "churn_events": 1, "cap": 2**32}},
         "config.cluster.cap"),  # signed as u32
        ({"cluster": {"chips": 2, "churn_events": 1, "check_period_ms": 10**400}},
         "config.cluster.check_period_ms"),  # an integer past the float range
        ({"name": "r\ud800", "attest": {"chips": 1, "classifier_traces": 0}},
         "config.name"),  # a lone surrogate, which no UTF-8 report can hold
        # Each of these wrote a bare Infinity token into cluster.jsonl or
        # network.jsonl: the transit or delay overflowed.
        ({"cluster": {"chips": 2, "churn_events": 1, "cap_lowerings": 0,
                      "bridge_multiplier_sweep": [1e308]}},
         "config.cluster.bridge_multiplier_sweep[0]"),
        ({"network": {"nodes": THREE_NODES, "default_latency": {"rho": 1e308}}},
         "config.network.default_latency.rho"),
        ({"network": {"nodes": THREE_NODES, "default_latency": {"kappa": 5e-324}}},
         "config.network.default_latency.kappa"),
        ({"network": {"nodes": THREE_NODES, "default_latency": {"jitter_median_ms": 1e308,
                                                            "jitter_sigma": 1}}},
         "config.network.default_latency.jitter_median_ms"),
        # Unbounded counts: 10**8 fragments exited 3 with MemoryError, and more
        # cap lowerings than churn events only built repeated instants.
        ({"attest": {"chips": 1, "classifier_traces": 0, "fragmentation_k": 100_000_000}},
         "config.attest.fragmentation_k"),
        ({"attest": {"chips": 1, "classifier_traces": 0, "fragmentation_k": 129}},
         "config.attest.fragmentation_k"),
        ({"cluster": {"chips": 2, "churn_events": 2, "cap_lowerings": 3}},
         "config.cluster.cap_lowerings"),
        # One past each count's maximum: the schema states what a run may cost.
        ({"fleet": {"count": 10_001}, "licensing": {"honest_licenses": 1, "fuzz_licenses": 0}},
         "config.fleet.count"),
        ({"licensing": {"honest_licenses": 100_001, "fuzz_licenses": 0}},
         "config.licensing.honest_licenses"),
        ({"licensing": {"honest_licenses": 1, "fuzz_licenses": 100_001}},
         "config.licensing.fuzz_licenses"),
        ({"cluster": {"chips": 2049, "churn_events": 1, "cap_lowerings": 0}},
         "config.cluster.chips"),
        ({"cluster": {"chips": 2, "churn_events": 20_001}}, "config.cluster.churn_events"),
        ({"attack_matrix": {"counterfeit_trials": 100_001}},
         "config.attack_matrix.counterfeit_trials"),
        ({"geoloc": {**SMALL_GEOLOC, "trials": 10_001}}, "config.geoloc.trials"),
        ({"geoloc": {**SMALL_GEOLOC, "speedup_trials": 10_001}},
         "config.geoloc.speedup_trials"),
        ({"geoloc": {**SMALL_GEOLOC, "descent_trials": 2_001}}, "config.geoloc.descent_trials"),
        ({"geoloc": {**SMALL_GEOLOC, "landmarks_min": 65, "landmarks_max": 65}},
         "config.geoloc.landmarks_min"),
        ({"geoloc": {**SMALL_GEOLOC, "landmarks_max": 65}}, "config.geoloc.landmarks_max"),
        ({"geoloc": {**SMALL_GEOLOC, "bft": {"n": 65, "f": 2, "trials": 2}}},
         "config.geoloc.bft.n"),
        ({"geoloc": {**SMALL_GEOLOC, "bft": {"n": 64, "f": 22, "trials": 2}}},
         "config.geoloc.bft.f"),
        ({"geoloc": {**SMALL_GEOLOC, "bft": {"trials": 501}}}, "config.geoloc.bft.trials"),
        ({"attest": {"chips": 1_025, "classifier_traces": 0}}, "config.attest.chips"),
        ({"attest": {"chips": 1, "snapshots": 129, "classifier_traces": 0}},
         "config.attest.snapshots"),
        ({"attest": {"chips": 1, "classifier_traces": 10_001}},
         "config.attest.classifier_traces"),
        ({"network": {"nodes": [{"id": f"n{i}", "lat": 0, "lon": i} for i in range(257)]}},
         "config.network.nodes"),
        # rtt / 2 - overhead cancels the propagation term: at 1e16 ms only 2
        # of 20 honest trials contained the truth.
        ({"geoloc": {**SMALL_GEOLOC, "fixed_overhead_ms": 1e16}},
         "config.geoloc.fixed_overhead_ms"),
    ])
    def test_out_of_domain_value_is_a_schema_error(self, tmp_path, capsys, sections, path):
        config = tmp_path / "range.json"
        config.write_text(json.dumps({"name": "r", "seed": 1, **sections}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("sections", [
        {"licensing": {"honest_licenses": 2, "fuzz_licenses": 2, "quota": canon.U64_MAX}},
        {"attest": {"chips": 1, "snapshots": 6, "ops_per_interval": canon.U64_MAX // 5,
                    "classifier_traces": 0}},
    ])
    def test_u64_edge_values_reach_a_verdict(self, tmp_path, sections):
        config = tmp_path / "edge.json"
        config.write_text(json.dumps({"name": "e", "seed": 1, **sections}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0

    def test_fixed_overhead_at_its_maximum_passes(self, tmp_path):
        config = tmp_path / "overhead.json"
        config.write_text(json.dumps({"name": "o", "seed": 1, "geoloc": {
            "trials": 20, "speedup_trials": 6, "descent_trials": 5, "bft": {"trials": 5},
            "fixed_overhead_ms": 1e6}}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("sections", [
        {"geoloc": {**SMALL_GEOLOC, "jitter_sigma": JITTER_SIGMA_MAX}},
        {"network": {"nodes": THREE_NODES, "default_latency": {"jitter_median_ms": 1,
                                                           "jitter_sigma": JITTER_SIGMA_MAX}}},
    ])
    def test_jitter_sigma_at_the_cap_reaches_a_verdict(self, tmp_path, sections):
        config = tmp_path / "sigma.json"
        config.write_text(json.dumps({"name": "j", "seed": 1, **sections}))
        assert main(["run", str(config), "--out", str(tmp_path / "out")]) in (0, 1)

    def test_uncaught_exception_exits_three_with_one_line(self, tmp_path, capsys,
                                                          monkeypatch):
        def fail(config):
            raise RuntimeError("simulated fault\nsecond line")

        monkeypatch.setattr(cli, "execute_scenario", fail)
        assert main(["run", "attest_accounting", "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: RuntimeError(")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_negative_seed_override_is_a_schema_error(self, tmp_path, capsys):
        code = main(["run", "attest_accounting", "--out", str(tmp_path), "--seed", "-5"])
        assert code == 2
        assert "config.seed" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_run_twice_same_seed_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "licensing_basic", "--out", str(out_a)]) == 0
        assert main(["run", "licensing_basic", "--out", str(out_b)]) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_seed_override_changes_outputs_deterministically(self, tmp_path):
        out = {}
        for label, seed in (("a", "1"), ("b", "1"), ("c", "2")):
            path = tmp_path / label
            assert main(["run", "geoloc_cbg", "--out", str(path), "--seed", seed]) == 0
            out[label] = (path / "geoloc.jsonl").read_bytes()
        assert out["a"] == out["b"]
        assert out["a"] != out["c"]

    def test_verify_determinism_mode_passes(self, tmp_path):
        code = main(["run", "attest_accounting", "--out", str(tmp_path),
                     "--verify-determinism"])
        assert code == 0

    def test_reports_identical_across_hash_seeds(self, tmp_path):
        outputs = []
        for hash_seed in ("0", "123"):
            out = tmp_path / hash_seed
            _run_cli_process(["run", "cluster_caps", "--out", str(out)],
                             hash_seed=hash_seed).check_returncode()
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert "cluster.jsonl" in outputs[0]


@functools.lru_cache(maxsize=None)
def _bundled_reports(name: str) -> dict:
    return execute_scenario(validate_config(BUNDLED_SCENARIOS[name])).reports


class TestGoldenReports:
    """Report stability: frozen bytes for bundled scenarios."""

    @pytest.mark.parametrize("report", ["licensing.jsonl", "summary.txt", "summary.json"])
    def test_licensing_basic_matches_golden(self, report):
        config = validate_config(BUNDLED_SCENARIOS["licensing_basic"])
        outcome = execute_scenario(config)
        golden = (GOLDEN_DIR / f"licensing_basic.{report}").read_text(encoding="utf-8")
        assert outcome.reports[report] == golden

    @pytest.mark.parametrize("scenario, report", [
        ("geoloc_cbg", "geoloc.jsonl"),
        ("geoloc_cbg", "summary.txt"),
        ("geoloc_cbg", "summary.json"),
        ("attack_matrix", "attacks.jsonl"),
        ("attack_matrix", "attack_matrix.txt"),
        ("attack_matrix", "summary.txt"),
        ("attack_matrix", "summary.json"),
        ("cluster_caps", "cluster.jsonl"),
        ("cluster_caps", "summary.txt"),
        ("cluster_caps", "summary.json"),
        ("attest_accounting", "attest.jsonl"),
        ("attest_accounting", "summary.txt"),
        ("attest_accounting", "summary.json"),
    ])
    def test_bundled_scenario_matches_golden(self, scenario, report):
        golden = (GOLDEN_DIR / f"{scenario}.{report}").read_text(encoding="utf-8")
        assert _bundled_reports(scenario)[report] == golden

    @pytest.mark.parametrize("scenario", ["geoloc_cbg", "attest_accounting"])
    def test_numpy_scenario_matches_golden_on_baseline_kernels(self, scenario, tmp_path):
        # numpy picks its SIMD kernels by CPU at run time, so reports must
        # not depend on which it picked: with every dispatched feature off,
        # only the baseline kernels run, and the bytes must not move.
        umath = (getattr(np, "_core", None) or np.core)._multiarray_umath
        env = {"NPY_DISABLE_CPU_FEATURES": ",".join(umath.__cpu_dispatch__)}
        probe = subprocess.run([sys.executable, "-c", _ENABLED_DISPATCH],
                               env={**os.environ, **env}, timeout=60,
                               capture_output=True, text=True, check=True)
        assert probe.stdout.strip() == "", probe.stdout + probe.stderr
        run = _run_cli_process(["run", scenario, "--out", str(tmp_path)], env=env)
        assert run.returncode == 0, run.stdout + run.stderr
        goldens = {p.name[len(scenario) + 1:]: p for p in GOLDEN_DIR.glob(f"{scenario}.*")}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(goldens)
        for name, golden in goldens.items():
            assert (tmp_path / name).read_bytes() == golden.read_bytes(), name

    def test_attack_matrix_matches_golden_under_python_O(self, tmp_path):
        # -O strips assert statements, so no attack may do its set-up in one.
        run = _run_cli_process(["run", "attack_matrix", "--out", str(tmp_path)],
                               flags=("-O",))
        assert run.returncode == 0, run.stdout + run.stderr
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == sorted(p.name[len("attack_matrix."):]
                                 for p in GOLDEN_DIR.glob("attack_matrix.*"))
        for name in written:
            golden = (GOLDEN_DIR / f"attack_matrix.{name}").read_bytes()
            assert (tmp_path / name).read_bytes() == golden, name
