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

    @pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
    def test_non_finite_longitude_is_refused(self, lon):
        # fmod passes NaN through and fails on an infinity with a bare domain error.
        with pytest.raises(ValueError, match=f"longitude not finite: {lon}"):
            GeoPoint(8.0, lon)

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

    def test_many_equal_times_and_handler_sends_delivered_in_key_order(self):
        sim = Simulator(seed=7)
        rng = random.Random(11)
        times = [0.0, 0.5, 1.0, 1.0 + 1e-12, 2.0, 7.25]

        def handler(s, event):
            if event.payload % 3 == 0:  # a follow-up, often at the same time
                s.schedule(s.now + rng.choice((0.0, 0.0, 0.5, 2.0)),
                           event.destination, f"n{rng.randrange(4)}", event.payload + 1)

        for i in range(4):
            sim.register(f"n{i}", handler)
        scheduled = [sim.schedule(rng.choice(times), "src", f"n{rng.randrange(5)}", i)
                     for i in range(3000)]
        processed = sim.run_until(20.0)
        keys = [(e.time, e.delivery_id) for e in processed]
        assert keys == sorted(keys)
        assert len(set(e.delivery_id for e in processed)) == len(processed) > len(scheduled)
        assert processed[:1] == [min(scheduled, key=lambda e: (e.time, e.delivery_id))]
        assert sum(e.time == 1.0 for e in processed) > 400  # ties are common
        assert sim.run_until(30.0) == []


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

    def test_distance_is_the_geodesic_of_every_ordered_pair_on_every_call(self):
        positions = [GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0), GeoPoint(90.0, 0.0),
                     GeoPoint(-33.9, 151.2), GeoPoint(48.8566, 2.3522),
                     GeoPoint(48.8566, 2.3522)]  # two nodes at one place
        nodes = [Node(f"n{i}", pos) for i, pos in enumerate(positions)]
        net = Network(nodes)
        for _ in range(3):
            for a in nodes:
                for b in nodes:
                    want = geodesic_distance(a.position, b.position)
                    assert net.distance_km(a.id, b.id) == want, (a.id, b.id)
        with pytest.raises(KeyError):
            net.distance_km("n0", "missing")

    def test_nodes_are_read_only(self):
        net = self._network()
        with pytest.raises(TypeError):
            net.nodes["a"] = Node("a", GeoPoint(45.0, 45.0))
        with pytest.raises(TypeError):
            net.nodes["c"] = Node("c", GeoPoint(45.0, 45.0))
        with pytest.raises(TypeError):
            del net.nodes["b"]
        assert sorted(net.nodes) == ["a", "b"]
        assert net.nodes["a"].position == GeoPoint(0.0, 0.0)

    def test_unreachable_destination_drops(self):
        net = self._network()
        sim = Simulator(seed=3)
        assert sim.send(net, "a", "b", b"kept") is not None
        net.unreachable.add("b")
        assert sim.send(net, "a", "b", b"lost") is None
        assert sim.send(net, "b", "a", b"back") is not None
        assert [e.payload for e in sim.run_until(1000.0)] == [b"kept", b"back"]
        net.unreachable.clear()
        assert sim.send(net, "a", "b", b"again") is not None
