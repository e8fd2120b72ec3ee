"""Deterministic discrete-event network simulator.

Nodes sit at geographic positions; links carry a latency model built from
a propagation fraction of light speed, a path-stretch factor, a lognormal
jitter term, and a fixed per-hop overhead. Message transit times never
fall below the straight-line propagation floor unless an adversary delay
hook explicitly rewrites them, in which case the delivered event is marked.

A `Simulator` instance owns one seeded RNG and one event heap; replaying
the same scenario with the same seed delivers the same events in the same
order.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional

SPEED_OF_LIGHT_KM_S = 299792.458
EARTH_RADIUS_KM = 6371.0


class CausalityError(ValueError):
    """Raised when an event is scheduled before the current simulation time."""


def _normalize_longitude(lon: float) -> float:
    """Normalize into the half-open range (-180, 180]."""
    lon = math.fmod(lon, 360.0)
    if lon <= -180.0:
        lon += 360.0
    elif lon > 180.0:
        lon -= 360.0
    return lon


@dataclass(frozen=True)
class GeoPoint:
    """Position on a spherical Earth, degrees."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        object.__setattr__(self, "longitude", _normalize_longitude(self.longitude))


def geodesic_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance in km (haversine, R = 6371.0)."""
    p1 = math.radians(a.latitude)
    p2 = math.radians(b.latitude)
    dp = math.radians(b.latitude - a.latitude)
    dl = math.radians(b.longitude - a.longitude)
    h = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    h = min(1.0, h)
    return 2.0 * EARTH_RADIUS_KM * math.asin(math.sqrt(h))


@dataclass(frozen=True)
class LatencyModel:
    """One-way delay model for a link.

    kappa: propagation speed as a fraction of vacuum light speed.
    rho: multiplicative routing path stretch (>= 1, geodesics are shortest).
    jitter_median_ms / jitter_sigma: lognormal extra delay; the heavy right
        tail makes slow outliers common while nothing beats the floor.
    fixed_overhead_ms: per-message processing/forwarding cost.
    """

    kappa: float = 0.67
    rho: float = 1.0
    jitter_median_ms: float = 0.0
    jitter_sigma: float = 0.5
    fixed_overhead_ms: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError(f"kappa must be in (0, 1]: {self.kappa}")
        if self.rho < 1.0:
            raise ValueError(f"rho must be >= 1: {self.rho}")
        if self.jitter_median_ms < 0.0:
            raise ValueError("jitter median must be nonnegative")
        if self.fixed_overhead_ms < 0.0:
            raise ValueError("fixed overhead must be nonnegative")

    def propagation_floor_ms(self, distance_km: float) -> float:
        """Fastest physically possible transit for this medium."""
        return distance_km / (SPEED_OF_LIGHT_KM_S * self.kappa) * 1000.0

    def sample_one_way_delay(self, distance_km: float, rng: random.Random) -> float:
        """Draw a one-way delay in ms; always >= the propagation floor."""
        if distance_km < 0.0:
            raise ValueError("distance must be nonnegative")
        base = self.propagation_floor_ms(distance_km) * self.rho
        jitter = 0.0
        if self.jitter_median_ms > 0.0:
            jitter = self.jitter_median_ms * math.exp(self.jitter_sigma * rng.gauss(0.0, 1.0))
        return base + self.fixed_overhead_ms + jitter


# Adversary delay hook: (src, dst, sampled_delay_ms, floor_ms) -> new delay.
# Returning a delay below the floor is how a speedup capability manifests;
# the simulator marks the resulting event so the invariant stays auditable.
DelayHook = Callable[[str, str, float, float], float]


@dataclass(frozen=True)
class Node:
    id: str
    position: GeoPoint
    role: str = "chip"


class Network:
    """Topology: nodes whose links all share one latency model."""

    def __init__(self, nodes: Iterable[Node], default_latency: LatencyModel | None = None):
        self.nodes: dict[str, Node] = {}
        for node in nodes:
            if node.id in self.nodes:
                raise ValueError(f"duplicate node id: {node.id}")
            self.nodes[node.id] = node
        self.default_latency = default_latency or LatencyModel()
        self.delay_hooks: list[DelayHook] = []
        # Drop hooks model denial of service: any hook returning True for a
        # (src, dst) pair silently discards the message (seen as a timeout).
        self.drop_hooks: list[Callable[[str, str], bool]] = []

    def dropped(self, src: str, dst: str) -> bool:
        return any(hook(src, dst) for hook in self.drop_hooks)

    def distance_km(self, src: str, dst: str) -> float:
        return geodesic_distance(self.nodes[src].position, self.nodes[dst].position)

    def sample_transit(self, src: str, dst: str, rng: random.Random) -> tuple[float, bool]:
        """One-way delay and whether a hook pushed it below the physical floor."""
        model = self.default_latency
        distance = self.distance_km(src, dst)
        delay = model.sample_one_way_delay(distance, rng)
        floor = model.propagation_floor_ms(distance)
        below_floor = False
        for hook in self.delay_hooks:
            delay = hook(src, dst, delay, floor)
            if delay < floor:
                below_floor = True
        return delay, below_floor


@dataclass(frozen=True)
class Event:
    """A delivered message; ordering key is (time, delivery_id)."""

    time: float
    source: str
    destination: str
    payload: Any
    delivery_id: int
    marks: tuple[str, ...] = ()


Handler = Callable[["Simulator", Event], None]


@dataclass(order=True)
class _Scheduled:
    time: float
    delivery_id: int
    event: Event = field(compare=False)


class Simulator:
    """Single-threaded event loop with a seeded RNG.

    One instance per scenario; instances share no mutable state, so
    independent scenarios may run in parallel processes or threads.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[_Scheduled] = []
        self._next_delivery_id = 0
        self._handlers: dict[str, Handler] = {}

    def register(self, node_id: str, handler: Handler) -> None:
        self._handlers[node_id] = handler

    def schedule(
        self,
        time: float,
        source: str,
        destination: str,
        payload: Any,
        marks: tuple[str, ...] = (),
    ) -> Event:
        if time < self.now:
            raise CausalityError(f"cannot schedule at t={time} before now={self.now}")
        event = Event(
            time=time,
            source=source,
            destination=destination,
            payload=payload,
            delivery_id=self._next_delivery_id,
            marks=marks,
        )
        self._next_delivery_id += 1
        heapq.heappush(self._heap, _Scheduled(time, event.delivery_id, event))
        return event

    def send(
        self, network: Network, source: str, destination: str, payload: Any
    ) -> Optional[Event]:
        """Schedule delivery after a sampled transit time over `network`.

        Returns None when a drop hook discards the message.
        """
        if network.dropped(source, destination):
            return None
        delay, below_floor = network.sample_transit(source, destination, self.rng)
        marks = ("speedup",) if below_floor else ()
        return self.schedule(self.now + delay, source, destination, payload, marks=marks)

    def run_until(self, time: float) -> list[Event]:
        """Process all events with event.time <= time; returns those processed."""
        processed: list[Event] = []
        while self._heap and self._heap[0].time <= time:
            item = heapq.heappop(self._heap)
            self.now = max(self.now, item.time)
            processed.append(item.event)
            handler = self._handlers.get(item.event.destination)
            if handler is not None:
                handler(self, item.event)
        self.now = max(self.now, time)
        return processed
