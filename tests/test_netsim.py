"""Geometry, delay model, and event-loop tests."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hemsim.netsim import (
    EARTH_RADIUS_KM,
    CausalityError,
    Event,
    GeoPoint,
    LatencyModel,
    Network,
    Node,
    Simulator,
    geodesic_distance,
)

# Pinned with an independent haversine oracle before the build (R = 6371.0).
QUARTER_CIRCLE_KM = 10007.543398010286
PARIS_NYC_KM = 5837.24  # 6 significant figures

latitudes = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
longitudes = st.floats(min_value=-179.999, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitudes, longitudes)


class TestGeoPoint:
    def test_longitude_normalized_into_half_open_range(self):
        assert GeoPoint(0.0, -180.0).longitude == 180.0
        assert GeoPoint(0.0, 270.0).longitude == -90.0
        assert GeoPoint(0.0, 540.0).longitude == 180.0

    def test_latitude_bounds_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(90.5, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(-91.0, 0.0)

    @given(points)
    def test_normalization_idempotent(self, p):
        assert -180.0 < p.longitude <= 180.0


class TestGeodesicDistance:
    def test_identity_is_zero(self):
        p = GeoPoint(12.5, -33.25)
        assert geodesic_distance(p, p) == 0.0

    def test_quarter_great_circle(self):
        d = geodesic_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 90.0))
        assert math.isclose(d, QUARTER_CIRCLE_KM, rel_tol=1e-12)

    def test_paris_to_new_york_matches_oracle(self):
        d = geodesic_distance(GeoPoint(48.8566, 2.3522), GeoPoint(40.7128, -74.0060))
        assert math.isclose(d, PARIS_NYC_KM, rel_tol=1e-6)

    @given(points, points)
    def test_symmetric_nonnegative_bounded(self, a, b):
        d_ab = geodesic_distance(a, b)
        d_ba = geodesic_distance(b, a)
        assert d_ab >= 0.0
        assert d_ab <= math.pi * EARTH_RADIUS_KM + 1e-6
        assert math.isclose(d_ab, d_ba, rel_tol=1e-12, abs_tol=1e-9)

    def test_separated_points_have_positive_distance(self):
        assert geodesic_distance(GeoPoint(0.0, 0.0), GeoPoint(1e-5, 0.0)) > 0.0


class TestLatencyModel:
    def test_zero_distance_zero_jitter_is_zero(self):
        model = LatencyModel(kappa=0.67, rho=1.0, jitter_median_ms=0.0, fixed_overhead_ms=0.0)
        assert model.sample_one_way_delay(0.0, random.Random(1)) == 0.0

    def test_thousand_km_fiber_delay(self):
        model = LatencyModel(kappa=0.67, rho=1.0, jitter_median_ms=0.0, fixed_overhead_ms=0.0)
        d = model.sample_one_way_delay(1000.0, random.Random(1))
        assert math.isclose(d, 4.978568585047046, rel_tol=1e-12)

    def test_samples_never_beat_physical_floor(self):
        model = LatencyModel(kappa=0.67, rho=1.3, jitter_median_ms=2.0, jitter_sigma=1.0,
                             fixed_overhead_ms=0.5)
        rng = random.Random(42)
        floor = model.propagation_floor_ms(800.0)
        for _ in range(10_000):
            assert model.sample_one_way_delay(800.0, rng) >= floor

    def test_path_stretch_scales_base_delay(self):
        straight = LatencyModel(kappa=0.67, rho=1.0)
        stretched = LatencyModel(kappa=0.67, rho=2.0)
        rng = random.Random(0)
        assert math.isclose(
            stretched.sample_one_way_delay(500.0, rng),
            2.0 * straight.sample_one_way_delay(500.0, rng),
            rel_tol=1e-12,
        )

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(kappa=0.0)
        with pytest.raises(ValueError):
            LatencyModel(kappa=1.5)
        with pytest.raises(ValueError):
            LatencyModel(rho=0.5)
        with pytest.raises(ValueError):
            LatencyModel(jitter_median_ms=-1.0)


class TestSimulator:
    def test_empty_schedule_empty_log(self):
        sim = Simulator(seed=7)
        assert sim.run_until(100.0) == []
        assert sim.now == 100.0

    def test_equal_times_ordered_by_delivery_id(self):
        sim = Simulator(seed=7)
        sim.schedule(10.0, "a", "b", b"first")
        sim.schedule(10.0, "a", "b", b"second")
        processed = sim.run_until(10.0)
        assert [e.payload for e in processed] == [b"first", b"second"]
        assert processed[0].delivery_id < processed[1].delivery_id

    def test_scheduling_into_the_past_rejected(self):
        sim = Simulator(seed=7)
        sim.run_until(50.0)
        with pytest.raises(CausalityError):
            sim.schedule(49.9, "a", "b", b"late")

    def test_clock_never_decreases(self):
        sim = Simulator(seed=7)
        sim.run_until(50.0)
        sim.run_until(10.0)
        assert sim.now == 50.0

    def test_replay_with_same_seed_identical_logs(self):
        def run(seed: int) -> list[Event]:
            sim = Simulator(seed=seed)
            schedule_rng = random.Random(seed + 1)
            for i in range(1000):
                t = schedule_rng.uniform(0.0, 500.0)
                sim.schedule(t, f"n{schedule_rng.randrange(8)}",
                             f"n{schedule_rng.randrange(8)}",
                             schedule_rng.randbytes(4))
            return sim.run_until(600.0)

        assert run(99) == run(99)
        assert run(99) != run(100)


class TestNetworkTransit:
    def _network(self, **model_kwargs) -> Network:
        nodes = [
            Node("a", GeoPoint(0.0, 0.0)),
            Node("b", GeoPoint(0.0, 9.0)),  # ~1000 km apart on the equator
        ]
        return Network(nodes, default_latency=LatencyModel(**model_kwargs))

    def test_transit_time_at_least_floor(self):
        net = self._network(kappa=0.67, jitter_median_ms=1.0)
        sim = Simulator(seed=3)
        floor = net.default_latency.propagation_floor_ms(net.distance_km("a", "b"))
        for _ in range(200):
            ev = sim.send(net, "a", "b", b"x")
            assert ev.time - sim.now >= floor - 1e-9
            assert ev.marks == ()

    def test_speedup_hook_marks_event(self):
        net = self._network(kappa=0.67)
        net.delay_hooks.append(lambda src, dst, delay, floor: delay * 0.25)
        sim = Simulator(seed=3)
        ev = sim.send(net, "a", "b", b"x")
        assert "speedup" in ev.marks

    def test_slowdown_hook_leaves_no_mark(self):
        net = self._network(kappa=0.67)
        net.delay_hooks.append(lambda src, dst, delay, floor: delay + 25.0)
        sim = Simulator(seed=3)
        ev = sim.send(net, "a", "b", b"x")
        assert ev.marks == ()
