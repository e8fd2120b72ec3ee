"""Deterministic discrete-event network simulator.

Nodes sit at geographic positions; links carry a latency model built from
a propagation fraction of light speed, a path-stretch factor, a lognormal
jitter term, and a fixed per-hop overhead. Message transit times never
fall below the straight-line propagation floor; a speedup attack is
modelled on the measurements (`geoloc.synthesize_round(speedup=)`), not
here. Drop hooks model landmarks taken down by denial of service.

A `Simulator` instance owns one seeded RNG and one event heap ordered by
`(time, delivery_id)`; replaying the same scenario with the same seed
delivers the same events in the same order.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Iterable, Mapping, Optional

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
        if not math.isfinite(self.longitude):
            raise ValueError(f"longitude not finite: {self.longitude}")
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


@dataclass(frozen=True)
class Node:
    id: str
    position: GeoPoint


class Network:
    """Topology: nodes whose links all share one latency model.

    `nodes` is read-only, so the distance cached for each ordered pair of
    node ids holds for the life of the network.
    """

    def __init__(self, nodes: Iterable[Node], default_latency: LatencyModel | None = None):
        table: dict[str, Node] = {}
        for node in nodes:
            if node.id in table:
                raise ValueError(f"duplicate node id: {node.id}")
            table[node.id] = node
        self.nodes: Mapping[str, Node] = MappingProxyType(table)
        self.default_latency = default_latency or LatencyModel()
        # Drop hooks model denial of service: any hook returning True for a
        # (src, dst) pair silently discards the message (seen as a timeout).
        self.drop_hooks: list[Callable[[str, str], bool]] = []
        self._distances: dict[tuple[str, str], float] = {}

    def dropped(self, src: str, dst: str) -> bool:
        if not self.drop_hooks:
            return False
        return any(hook(src, dst) for hook in self.drop_hooks)

    def distance_km(self, src: str, dst: str) -> float:
        """Geodesic km from `src` to `dst`, computed once per ordered pair."""
        distance = self._distances.get((src, dst))
        if distance is None:
            distance = self._distances[src, dst] = geodesic_distance(
                self.nodes[src].position, self.nodes[dst].position)
        return distance


@dataclass(frozen=True)
class Event:
    """A delivered message; ordering key is (time, delivery_id)."""

    time: float
    source: str
    destination: str
    payload: Any
    delivery_id: int


Handler = Callable[["Simulator", Event], None]


class Simulator:
    """Single-threaded event loop with a seeded RNG.

    The heap holds `(time, delivery_id, event)` tuples. Delivery ids are
    unique, so tuple order is `(time, delivery_id)` and never reaches the
    event. One instance per scenario; instances share no mutable state, so
    independent scenarios may run in parallel processes or threads.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self._heap: list[tuple[float, int, Event]] = []
        self._next_delivery_id = 0
        self._handlers: dict[str, Handler] = {}

    def register(self, node_id: str, handler: Handler) -> None:
        self._handlers[node_id] = handler

    def schedule(self, time: float, source: str, destination: str, payload: Any) -> Event:
        if time < self.now:
            raise CausalityError(f"cannot schedule at t={time} before now={self.now}")
        event = Event(
            time=time,
            source=source,
            destination=destination,
            payload=payload,
            delivery_id=self._next_delivery_id,
        )
        self._next_delivery_id += 1
        heapq.heappush(self._heap, (time, event.delivery_id, event))
        return event

    def send(
        self, network: Network, source: str, destination: str, payload: Any
    ) -> Optional[Event]:
        """Schedule delivery after a sampled transit time over `network`.

        Returns None when a drop hook discards the message.
        """
        if network.dropped(source, destination):
            return None
        delay = network.default_latency.sample_one_way_delay(
            network.distance_km(source, destination), self.rng)
        return self.schedule(self.now + delay, source, destination, payload)

    def run_until(self, time: float) -> list[Event]:
        """Process all events with event.time <= time; returns those processed."""
        processed: list[Event] = []
        heap, handlers = self._heap, self._handlers
        while heap and heap[0][0] <= time:
            at, _, event = heapq.heappop(heap)
            if at > self.now:  # max(self.now, at), without the call
                self.now = at
            processed.append(event)
            handler = handlers.get(event.destination)
            if handler is not None:
                handler(self, event)
        self.now = max(self.now, time)
        return processed
