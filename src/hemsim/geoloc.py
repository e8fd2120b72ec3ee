"""Challenge-response location verification.

Landmark servers at known positions send nonce challenges to a chip over
the simulated network and time the signed responses on their own clocks.
Each `Measurement` carries the `Landmark` that took it, and each landmark
the `LatencyModel` of the link it was calibrated on, so the estimators take
measurements alone. A verified round-trip time converts to a distance upper
bound at that link's speed (nothing rides the wire faster than the
propagation floor); a round must run over the landmarks' own link. Two
region estimators turn bounds into location regions: disk intersection
(CBG) and a fault-tolerant intersection that survives a bounded number of
lying landmarks. A Levenberg-Marquardt descent on the distance residuals,
stepping in east/north km around its current point, gives a point estimate.

Measurements whose response signature fails verification never influence
any estimate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import canon
from .chipmodel import Registry, ZeroizedError
from .netsim import (
    EARTH_RADIUS_KM,
    SPEED_OF_LIGHT_KM_S,
    GeoPoint,
    LatencyModel,
    Network,
    Simulator,
    geodesic_distance,
)

GEOLOC_RESPONSE = canon.Doc("geoloc-response.v1", device_id=canon.U128, nonce=canon.BLOB)

DEFAULT_GRID_RESOLUTION_DEG = 0.25
KM_PER_DEGREE = 111.32  # equatorial worst case, used for grid-cell slack


@dataclass(frozen=True)
class Landmark:
    """A timing server at a known location, with the link (medium speed and
    per-leg processing delay) it was calibrated on."""

    id: str
    position: GeoPoint
    link: LatencyModel = LatencyModel()


@dataclass
class Measurement:
    """One landmark's timing of the chip; `rtt_ms` is None when no response
    arrived in time."""

    landmark: Landmark
    rtt_ms: Optional[float]
    verified: bool


@dataclass(frozen=True)
class _Response:
    nonce: bytes
    signature: bytes


def challenge_round(
    sim: Simulator,
    net: Network,
    landmarks: Sequence[Landmark],
    device_id: int,
    chip_node_id: str,
    sign_fn: Callable[[bytes], bytes],
    registry: Registry,
    timeout_ms: float = 5000.0,
) -> list[Measurement]:
    """One synchronized round: every landmark challenges the chip once.

    A challenge is the landmark's nonce; the chip answers whoever sent it.
    Each landmark times, on its own clock (simulation time), the first
    response delivered to it that carries the nonce it sent, so no other
    message can stand in for it. A landmark with no such response within the
    timeout yields a measurement with no RTT; responses signed by anything
    but the registered device key are retained but flagged unverified. Each
    landmark's `link` must be the network's: a bound is sound only over the
    medium it was calibrated on.
    """
    for lm in landmarks:
        if lm.link != net.default_latency:
            raise ValueError(f"landmark {lm.id} was calibrated on another link")
    t_start = sim.now
    nonces: dict[str, bytes] = {}
    arrivals: dict[str, tuple[float, _Response]] = {}

    def chip_handler(s: Simulator, event) -> None:
        nonce = event.payload
        if not isinstance(nonce, bytes):
            return
        try:
            signature = sign_fn(GEOLOC_RESPONSE.signed(device_id=device_id, nonce=nonce))
        except ZeroizedError:
            return
        s.send(net, chip_node_id, event.source, _Response(nonce, signature))

    def landmark_handler(s: Simulator, event) -> None:
        response = event.payload
        if (isinstance(response, _Response) and event.destination not in arrivals
                and response.nonce == nonces[event.destination]):
            arrivals[event.destination] = (s.now, response)

    sim.register(chip_node_id, chip_handler)
    for lm in landmarks:
        sim.register(lm.id, landmark_handler)

    for lm in landmarks:
        nonces[lm.id] = sim.rng.randbytes(16)
        sim.send(net, lm.id, chip_node_id, nonces[lm.id])
    sim.run_until(t_start + timeout_ms)

    key = registry.get(device_id)
    measurements = []
    for lm in landmarks:
        arrived = arrivals.get(lm.id)
        if arrived is None or arrived[0] - t_start > timeout_ms:
            measurements.append(Measurement(lm, None, verified=False))
            continue
        arrival_time, response = arrived
        expected = GEOLOC_RESPONSE.signed(device_id=device_id, nonce=nonces[lm.id])
        verified = key is not None and canon.verify(key, expected, response.signature)
        measurements.append(Measurement(lm, arrival_time - t_start, verified=verified))
    return measurements


def delay_to_distance(measurement: Measurement) -> Optional[float]:
    """Sound upper bound, in km, on chip-landmark distance from a verified RTT.

    Takes light at the landmark's link kappa and unit path stretch (no route
    is shorter than the geodesic), so any added congestion or detour only
    inflates the bound. An RTT below twice the link's fixed overhead is
    physically impossible and yields None instead: the telltale of a
    response-speedup attack.
    """
    if not measurement.verified:
        raise ValueError("delay_to_distance requires a verified measurement")
    link = measurement.landmark.link
    one_way_ms = measurement.rtt_ms / 2.0 - link.fixed_overhead_ms
    if one_way_ms < 0.0:
        return None
    return one_way_ms * (SPEED_OF_LIGHT_KM_S * link.kappa / 1000.0)


@dataclass(frozen=True)
class GridSpec:
    """Discretized search region; containment claims are per grid cell."""

    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float
    resolution_deg: float = DEFAULT_GRID_RESOLUTION_DEG

    def __post_init__(self):
        if self.lat_max <= self.lat_min or self.lon_max <= self.lon_min:
            raise ValueError("grid bounds must be nonempty")
        if self.resolution_deg <= 0.0:
            raise ValueError("grid resolution must be positive")

    @property
    def n_lat(self) -> int:
        return max(1, int(round((self.lat_max - self.lat_min) / self.resolution_deg)))

    @property
    def n_lon(self) -> int:
        return max(1, int(round((self.lon_max - self.lon_min) / self.resolution_deg)))

    def lat_centers(self) -> np.ndarray:
        return self.lat_min + (np.arange(self.n_lat) + 0.5) * self.resolution_deg

    def lon_centers(self) -> np.ndarray:
        return self.lon_min + (np.arange(self.n_lon) + 0.5) * self.resolution_deg

    @cached_property
    def _axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cell-center latitude radians, their cosines and longitude radians,
        computed once per grid (kept in the instance dict, outside the
        dataclass fields, so equality and hashing are unchanged)."""
        lats = np.radians(self.lat_centers())
        return lats, np.cos(lats), np.radians(self.lon_centers())

    def cell_of(self, point: GeoPoint) -> Optional[tuple[int, int]]:
        """The half-open cell holding `point`, or None off the grid."""
        i = math.floor((point.latitude - self.lat_min) / self.resolution_deg)
        j = math.floor((point.longitude - self.lon_min) / self.resolution_deg)
        if 0 <= i < self.n_lat and 0 <= j < self.n_lon:
            return i, j
        return None

    def half_diagonal_km(self) -> float:
        """Worst-case distance from a cell center to its corner."""
        return self.resolution_deg * KM_PER_DEGREE * math.sqrt(2.0) / 2.0

    def distances_km(
        self, landmark_position: GeoPoint, rows: slice = slice(None), cols: slice = slice(None)
    ) -> np.ndarray:
        """Haversine distance from the cell centers in a row/column window (by
        default the whole grid) to one landmark. Recomputes the grid axes on
        every call: it is the reference that `within_km` is tested against."""
        lats = np.radians(self.lat_centers()[rows])[:, None]
        lons = np.radians(self.lon_centers()[cols])[None, :]
        p2 = math.radians(landmark_position.latitude)
        return _arc_km(_haversine_h(lats, np.cos(lats), lons, p2,
                                    math.radians(landmark_position.longitude), math.cos(p2)))

    def within_km(
        self,
        disks: Sequence[tuple[GeoPoint, float]],
        rows: slice = slice(None),
        cols: slice = slice(None),
    ) -> np.ndarray:
        """A `(k, rows, cols)` stack with plane n equal to
        `distances_km(position_n, rows, cols) <= radius_n`, bit for bit, for
        the k `(position, radius_km)` pairs in `disks`.

        Builds each disk's scalars with `math`, as `distances_km` does for
        one position, reads the grid's cached axes and takes the same
        haversine steps in the same order, broadcast over the whole stack,
        so every h has the bits `distances_km` computes. Decided on h, which
        grows with distance: cells with h below sin^2(radius / 2R) by a
        relative 1e-9 are inside, cells above it by as much are outside, and
        only cells in that band take the exact arcsin comparison. The band is millions of
        times wider than the few-ulp rounding of sin, sqrt and arcsin, so no
        cell outside it can compare differently. Disks whose half-angle is
        not in (1e-150, 1.5] rad (sin^2 would underflow, or flatten short of
        pi*R) take the exact comparison on their whole plane. The callers
        pass windows only: `_intersection` a group of disks over the live
        box; a quorum region's `contains` every disk over the 1x1 window of
        one cell, and its mask one disk at a time over its `disk_window`.
        """
        lats, cos_lats, lons = self._axes
        terms = []
        exact = []
        for n, (position, radius_km) in enumerate(disks):
            half_angle = radius_km / (2.0 * EARTH_RADIUS_KM)
            if 1e-150 < half_angle <= 1.5:
                s = math.sin(half_angle) ** 2
                upper, lower = s * (1.0 + 1e-9), s * (1.0 - 1e-9)
            else:  # no cell passes or is in the band; the plane is decided below
                upper, lower = -1.0, 2.0
                exact.append(n)
            p2 = math.radians(position.latitude)
            terms.append((p2, math.radians(position.longitude), math.cos(p2),
                          upper, lower, radius_km))
        if len(terms) == 1:  # floats: a lone disk costs what a scalar kernel would
            p2, l2, cos_p2, upper, lower, radii = terms[0]
        else:  # one (k, 1, 1) array per column, to broadcast over the cells
            p2, l2, cos_p2, upper, lower, radii = \
                np.array(terms, dtype=float).reshape(-1, 6).T[:, :, None, None]
        h = _haversine_h(lats[rows, None], cos_lats[rows, None], lons[cols], p2, l2, cos_p2)
        h = h.reshape(len(terms), *h.shape[-2:])
        mask = h <= upper
        band = mask & (h >= lower)
        if band.any():
            mask[band] = _arc_km(h[band]) <= np.broadcast_to(radii, h.shape)[band]
        for n in exact:
            mask[n] = _arc_km(h[n]) <= disks[n][1]
        return mask

    def disk_window(self, position: GeoPoint, radius_km: float) -> tuple[int, int, int, int]:
        """Row and column bounds `(i0, i1, j0, j1)` of a box that holds every
        cell whose center `distances_km` puts within `radius_km` of `position`.

        With theta = radius / R, such a center has |dlat| <= theta, and,
        while theta + |lat| stays clear of 90 degrees, |dlon| <= asin(sin
        theta / cos lat). The box is padded by one whole cell and by
        `_WINDOW_MARGIN_DEG` on every side, far more than the rounding of the
        haversine. Columns fall back to the whole grid near a pole and when
        the lon span reaches the grid across the 180-degree seam; rows and
        columns both do within `_ANTIPODE_CLEARANCE_RAD` of pi, past it, or
        when theta is not a number.
        """
        theta = radius_km / EARTH_RADIUS_KM
        if not theta < math.pi - _ANTIPODE_CLEARANCE_RAD:
            return 0, self.n_lat, 0, self.n_lon
        res = self.resolution_deg
        lat, lon = position.latitude, position.longitude
        dlat = math.degrees(theta) + _WINDOW_MARGIN_DEG
        i0, i1 = _cell_span(lat - dlat, lat + dlat, self.lat_min, res, self.n_lat)
        phi = math.radians(lat)
        if theta + abs(phi) >= _POLE_CLEARANCE_RAD:
            return i0, i1, 0, self.n_lon
        dlon = math.degrees(math.asin(math.sin(theta) / math.cos(phi))) + _WINDOW_MARGIN_DEG
        if lon - dlon + 360.0 <= self.lon_max + res or lon + dlon - 360.0 >= self.lon_min - res:
            return i0, i1, 0, self.n_lon  # a copy of the span 360 degrees over meets the grid
        j0, j1 = _cell_span(lon - dlon, lon + dlon, self.lon_min, res, self.n_lon)
        return i0, i1, j0, j1


# Absolute pad of each disk window: ~0.1 mm, thousands of times the few-ulp
# rounding of a haversine angle, for grids whose cells are smaller than that.
_WINDOW_MARGIN_DEG = 1e-9
# Near the antipode arcsin(sqrt(h)) is ill-conditioned: a rounding of h moves
# the angle by ~4e-16 / sin(theta) rad, which this keeps under 1e-13 rad.
_ANTIPODE_CLEARANCE_RAD = 0.01
# No haversine distance exceeds 2R asin(1), half the circumference; a radius
# past it by this relative margin, far beyond the rounding of arcsin and
# sqrt, holds every cell.
_WHOLE_GLOBE_KM = 2.0 * EARTH_RADIUS_KM * math.asin(1.0) * (1.0 + 1e-9)
# Below this, asin(sin theta / cos lat) is well conditioned and its argument
# stays under 1; past it the disk may hold a pole and spans every longitude.
_POLE_CLEARANCE_RAD = math.radians(89.0)
# Most disk-cells an `estimate_cbg` group of two or more disks hands
# `within_km`: its float haversine stack is then at most 2 MiB, a quarter of
# one plane over a 2**20-cell grid. It bounds memory; it is not a setting.
_GROUP_CELLS = 2**18


def _cell_span(lo: float, hi: float, origin: float, res: float, n: int) -> tuple[int, int]:
    """`[start, stop)` of the cells whose centers `origin + (k + 0.5) * res`
    lie in `[lo, hi]`, padded by one cell on each side and clamped to
    `[0, n]`. Fractional indices are clamped before `floor`, so a span far
    off a grid of tiny cells (an infinite quotient) clamps too."""
    start = math.floor(min(max((lo - origin) / res - 0.5, -2.0), n + 1.0)) - 1
    stop = math.floor(min(max((hi - origin) / res - 0.5, -2.0), n + 1.0)) + 2
    return min(max(start, 0), n), min(max(stop, 0), n)


def _haversine_h(
    lats_rad: np.ndarray,
    cos_lats: np.ndarray,
    lons_rad: np.ndarray,
    p2: float | np.ndarray,
    l2: float | np.ndarray,
    cos_p2: float | np.ndarray,
) -> np.ndarray:
    """Haversine term sin^2(dlat/2) + cos(lat1) cos(lat2) sin^2(dlon/2) from
    broadcast (lat, lon) radians, with `cos_lats` = cos(lat1), to positions
    at latitude `p2` and longitude `l2` radians with `cos_p2` = cos(p2), as a
    fresh array. The position terms are floats for one position, or arrays
    that broadcast against the cells for a stack of them."""
    h = cos_lats * cos_p2 * np.sin((l2 - lons_rad) / 2.0) ** 2
    h += np.sin((p2 - lats_rad) / 2.0) ** 2  # a + b == b + a exactly, one temporary fewer
    return h


def _arc_km(h: np.ndarray) -> np.ndarray:
    """Great-circle km from haversine terms, computed in place in `h` (with
    no temporary as large) and returned: h is clipped to [0, 1], then each
    step of 2R arcsin(sqrt(h)) overwrites it."""
    np.clip(h, 0.0, 1.0, out=h)
    np.sqrt(h, out=h)
    np.arcsin(h, out=h)
    h *= 2.0 * EARTH_RADIUS_KM
    return h


@dataclass
class GeoEstimate:
    """A location region: the grid cells that lie in at least `need` of
    `disks`, the `(position, radius km)` pairs of the usable bounds, smallest
    first, widened by the grid's cell slack, with every disk wider than
    `_WHOLE_GLOBE_KM` dropped (it holds every cell). `floor_violations` are
    the landmarks whose RTT is below the propagation floor.

    An intersection region (`need` is every disk: CBG, or a fault-tolerant
    region whose f equals its floor violations) is built once, on first use,
    as the live box of `_intersection`, and `contains`, `empty` and
    `cell_count` read that box. A quorum region (any other `need`) answers
    `contains` by testing the one cell asked about and builds its mask of
    windowed counts only when read."""

    grid: GridSpec
    disks: list[tuple[GeoPoint, float]]
    need: int
    floor_violations: tuple[str, ...] = ()

    @property
    def _every_disk(self) -> bool:
        return self.need == len(self.disks)

    @cached_property
    def _box(self) -> tuple[int, int, np.ndarray]:
        return _intersection(self.grid, self.disks)

    def contains(self, point: GeoPoint) -> bool:
        """Whether the region holds the cell of `point`; False off the grid.
        Never reads `mask`: an intersection region looks the cell up in its
        box, and a quorum region tests that one cell with `within_km` over a
        1x1 window, whose value at a cell does not depend on the window."""
        cell = self.grid.cell_of(point)
        if cell is None:
            return False
        i, j = cell
        if self._every_disk:
            i0, j0, live = self._box
            i, j = i - i0, j - j0
            return 0 <= i < live.shape[0] and 0 <= j < live.shape[1] and bool(live[i, j])
        planes = self.grid.within_km(self.disks, slice(i, i + 1), slice(j, j + 1))
        return int(planes.sum()) >= self.need

    @cached_property
    def mask(self) -> np.ndarray:
        """The whole region over the grid, built on first read: the box
        placed on an empty grid, or the windowed counts of a quorum region."""
        if not self._every_disk:
            return _counts(self.grid, self.disks) >= self.need
        i0, j0, live = self._box
        mask = np.zeros((self.grid.n_lat, self.grid.n_lon), dtype=bool)
        mask[i0:i0 + live.shape[0], j0:j0 + live.shape[1]] = live
        return mask

    @property
    def _cells(self) -> np.ndarray:
        return self._box[2] if self._every_disk else self.mask

    @property
    def empty(self) -> bool:
        return not self._cells.any()

    def cell_count(self) -> int:
        return int(np.count_nonzero(self._cells))

    @property
    def inconsistent(self) -> bool:
        """The assume-the-worst alarm: impossible timing or an empty region."""
        return bool(self.floor_violations) or self.empty


def _intersection(grid: GridSpec,
                  disks: Sequence[tuple[GeoPoint, float]]) -> tuple[int, int, np.ndarray]:
    """The cells in every disk, as `(row0, col0, live)`: `live` is their
    bounding box, whose cell (0, 0) is grid cell (row0, col0), and is empty
    when no cell is left; with no disk it is the whole grid.

    The disks are taken smallest first and in groups: a group grows while
    its size times the cells of the live box cut by all of its disks'
    `disk_window`s stays within `_GROUP_CELLS`, and a lone disk over a
    larger box is a group of its own. One `within_km` call tests the whole
    group on that box, its planes are ANDed into the live cells there, and
    the box shrinks to the cells left. It returns with no further call once
    the windows leave no cell or no cell is left. Cells outside the box lie
    outside a disk or are already excluded, and AND does not depend on
    order, so the region equals the full-grid intersection of every disk,
    bit for bit. The window of the disk that ends a group is carried into
    the next group, which it starts.
    """
    if not disks:
        return 0, 0, np.ones((grid.n_lat, grid.n_lon), dtype=bool)
    nothing = 0, 0, np.zeros((0, 0), dtype=bool)
    i0, i1, j0, j1 = 0, grid.n_lat, 0, grid.n_lon
    live = None  # every cell of the box, until the first group has run
    start = 0
    carried = None  # the window of the disk that ended the last group
    while start < len(disks):
        a0, a1, b0, b1 = i0, i1, j0, j1
        stop = start
        for position, radius in disks[start:]:
            box = carried or grid.disk_window(position, radius)
            carried = None
            w0, w1, v0, v1 = box
            w0, v0 = max(w0, a0), max(v0, b0)
            w1, v1 = max(min(w1, a1), w0), max(min(v1, b1), v0)
            cells = (w1 - w0) * (v1 - v0)
            if cells == 0:
                return nothing
            if stop > start and (stop + 1 - start) * cells > _GROUP_CELLS:
                carried = box
                break
            a0, a1, b0, b1 = w0, w1, v0, v1
            stop += 1
        planes = grid.within_km(disks[start:stop], slice(a0, a1), slice(b0, b1)).all(axis=0)
        if live is not None:
            planes &= live[a0 - i0:a1 - i0, b0 - j0:b1 - j0]
        rows = np.flatnonzero(planes.any(axis=1))
        if rows.size == 0:
            return nothing
        cols = np.flatnonzero(planes.any(axis=0))
        r0, r1, c0, c1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
        live = planes[r0:r1, c0:c1]
        i0, i1, j0, j1 = a0 + r0, a0 + r1, b0 + c0, b0 + c1
        start = stop
    return i0, j0, live


def _counts(grid: GridSpec, disks: Sequence[tuple[GeoPoint, float]]) -> np.ndarray:
    """How many of the disks hold each cell. Each disk adds its count only
    inside its `disk_window`; no cell outside that box is in the disk, so
    the counts equal the full-grid counts bit for bit."""
    counts = np.zeros((grid.n_lat, grid.n_lon), dtype=np.int32)
    for position, radius in disks:
        i0, i1, j0, j1 = grid.disk_window(position, radius)
        counts[i0:i1, j0:j1] += grid.within_km([(position, radius)],
                                               slice(i0, i1), slice(j0, j1))[0]
    return counts


def _usable(measurements: Iterable[Measurement]) -> list[Measurement]:
    """Key-binding gate: only verified measurements count (a measurement with
    no RTT is never verified)."""
    return [m for m in measurements if m.verified]


def _bounds_for(
    measurements: Sequence[Measurement],
) -> tuple[list[tuple[GeoPoint, float]], tuple[str, ...]]:
    """`(landmark position, bound km)` of each usable measurement, and the ids
    of the landmarks whose RTT is below the propagation floor."""
    bounds = []
    violations = []
    for m in _usable(measurements):
        bound_km = delay_to_distance(m)
        if bound_km is None:
            violations.append(m.landmark.id)
        else:
            bounds.append((m.landmark.position, bound_km))
    return bounds, tuple(violations)


def _estimate(grid: GridSpec, bounds: Sequence[tuple[GeoPoint, float]],
              violations: tuple[str, ...], votes: int) -> GeoEstimate:
    """The region of cells that lie in at least `votes` of the disks of
    `bounds`, each widened by the grid's half-diagonal slack. A disk wider
    than `_WHOLE_GLOBE_KM` holds every cell: it is dropped and counted as a
    vote every cell has."""
    slack = grid.half_diagonal_km()
    disks = [(position, bound_km + slack)
             for position, bound_km in sorted(bounds, key=lambda item: item[1])]
    kept = [disk for disk in disks if not disk[1] > _WHOLE_GLOBE_KM]
    return GeoEstimate(grid, kept, votes - (len(disks) - len(kept)), violations)


def estimate_cbg(measurements: Sequence[Measurement], grid: GridSpec) -> GeoEstimate:
    """Constraint-based geolocation: intersect distance-bound disks.

    A cell must lie in every disk, and with no bound at all there is no
    cell. An empty intersection is an explicit inconsistency signal, not an
    answer; callers treat it as an alarm.
    """
    bounds, violations = _bounds_for(measurements)
    return _estimate(grid, bounds, violations, max(len(bounds), 1))


def estimate_bft(measurements: Sequence[Measurement], grid: GridSpec, f: int) -> GeoEstimate:
    """Fault-tolerant region: cells consistent with at least n - f bounds.

    Requires n >= 3f + 1 landmarks; both argument checks run here, before
    any region exists. With at most f landmarks reporting arbitrarily, the
    true cell still satisfies all n - f honest bounds, so it stays in the
    region no matter what the liars say. A floor violation is one of the n
    but fits no cell, and a disk wider than `_WHOLE_GLOBE_KM` is a vote
    every cell has, so a cell must lie in n - f - whole_globe of the other
    disks. Unless that is every disk (f equals the floor violations), the
    region is a quorum region: `contains` tests one cell, and the mask is
    built only when read.
    """
    if f < 0:
        raise ValueError("f must be nonnegative")
    usable = _usable(measurements)
    n = len(usable)
    if n < 3 * f + 1:
        raise InsufficientLandmarksError(f"need at least {3 * f + 1} landmarks, have {n}")
    bounds, violations = _bounds_for(usable)  # violations fit no cell
    return _estimate(grid, bounds, violations, n - f)


class InsufficientLandmarksError(ValueError):
    """BFT estimation needs n >= 3f + 1 landmarks."""


# -- descent ------------------------------------------------------------------

DESCENT_MAX_ITERATIONS = 500
DESCENT_STEP_TOLERANCE_KM = 1e-4
# Closer than this (in sines of the central angle, ~6 um) to a landmark or its
# antipode, the bearing toward it is rounding noise: d has a cusp there and no
# gradient, so the landmark's Jacobian row is zero.
_BEARING_FLOOR = 1e-12
# Initial damping mu, relative to the largest diagonal entry of H. The
# starts are not near the minimum (a caller's guess, a centroid, a coarse
# cell), for which Madsen, Nielsen & Tingleff advise a tau as large as 1.
_DAMPING_TAU = 1.0


@dataclass(frozen=True)
class DescentResult:
    point: GeoPoint
    objective_km2: float
    iterations: int
    converged: bool
    status: str
    start: str = "init"


# Per landmark: (lat radians, lon radians, cos lat, target km), fixed for a
# whole descent.
DescentTerms = Sequence[tuple[float, float, float, float]]


def descent_terms(targets: Sequence[tuple[GeoPoint, float]]) -> DescentTerms:
    """The landmark terms the descent objective reads, built once per
    descent from `(landmark position, target km)` pairs."""
    terms = []
    for position, target_km in targets:
        p2 = math.radians(position.latitude)
        terms.append((p2, math.radians(position.longitude), math.cos(p2), target_km))
    return terms


def descent_objective_and_gradient(
    lat_deg: float, lon_deg: float, terms: DescentTerms
) -> tuple[float, float, float, float, float, float]:
    """Sum f of squared residuals r_i = d_i - target_i at (lat, lon), with its
    gradient and Gauss-Newton Hessian in east/north km around the point.

    Returns `(f, g_east, g_north, h_ee, h_en, h_nn)`: g = 2 J^T r and
    H = 2 J^T J. d_i is the haversine distance to landmark i, and row i of J
    is minus the unit initial bearing toward it (a move of s km along bearing
    b changes d_i by -s cos(b - bearing_i)). Within `_BEARING_FLOOR` of the
    landmark or its antipode the row is zero. At a pole the frame is the limit
    along meridian `lon_deg`, the frame `_move` steps in. f takes the
    haversine steps of the original degree-space objective in the same
    order, so it is the same float.
    """
    p1 = math.radians(lat_deg)
    l1 = math.radians(lon_deg)
    cos_p1 = math.cos(p1)
    sin_p1 = math.sin(p1)
    sin, asin, sqrt, hypot = math.sin, math.asin, math.sqrt, math.hypot
    f = g_e = g_n = h_ee = h_en = h_nn = 0.0
    for p2, l2, cos_p2, target_km in terms:
        dphi = p2 - p1
        dlam = l2 - l1
        s_half = sin(dlam / 2.0) ** 2
        a = sin(dphi / 2.0) ** 2 + cos_p1 * cos_p2 * s_half
        # Clamps as comparisons that, like min/max calls, pass NaN and -0.0
        # through unchanged.
        a = 0.0 if a < 0.0 else 1.0 if a > 1.0 else a
        residual = 2.0 * EARTH_RADIUS_KM * asin(sqrt(a)) - target_km
        f += residual * residual
        # Bearing components, each sin(central angle) times the unit vector;
        # north is cos p1 sin p2 - sin p1 cos p2 cos dlam without cancellation.
        east = cos_p2 * sin(dlam)
        north = sin(dphi) + 2.0 * sin_p1 * cos_p2 * s_half
        norm = hypot(east, north)
        if norm > _BEARING_FLOOR:
            east /= norm
            north /= norm
            g_e -= residual * east
            g_n -= residual * north
            h_ee += east * east
            h_en += east * north
            h_nn += north * north
    return f, 2.0 * g_e, 2.0 * g_n, 2.0 * h_ee, 2.0 * h_en, 2.0 * h_nn


def _move(lat_deg: float, lon_deg: float, east_km: float, north_km: float) -> tuple[float, float]:
    """The point `hypot(east, north)` km from (lat, lon) along the great circle
    leaving it in that east/north direction.

    Computed on unit vectors in a frame turned to meridian `lon_deg`, so it
    holds at a pole (north there points along that meridian, as in
    `descent_objective_and_gradient`), never leaves [-90, 90] latitude, and
    adds the longitude change to `lon_deg`: longitude stays continuous across
    the 180-degree seam and over a pole.
    """
    s = math.hypot(east_km, north_km)
    phi = math.radians(lat_deg)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    cos_d = math.cos(s / EARTH_RADIUS_KM)
    k = math.sin(s / EARTH_RADIUS_KM) / s
    x = cos_d * cos_p - k * north_km * sin_p
    y = k * east_km
    z = cos_d * sin_p + k * north_km * cos_p
    return (math.degrees(math.atan2(z, math.hypot(x, y))),
            lon_deg + math.degrees(math.atan2(y, x)))


def _descend_from(start: GeoPoint, terms: DescentTerms, label: str) -> DescentResult:
    """One Levenberg-Marquardt descent from `start` in the local east/north
    km frame.

    Each iteration solves the 2x2 damped normal equations (H + mu I) step =
    -g, moves the point along that step with `_move` and keeps the move only
    if f falls, so f never rises. The damping follows the gain ratio
    (Nielsen's rule): it shrinks after a step the model predicted well and
    doubles, then quadruples and so on, after each refused step. The run
    stops, before evaluating, at a step under `DESCENT_STEP_TOLERANCE_KM`:
    `step_tolerance` after an accepted step, `no_descent_step` after a
    refused one (damping alone shrank it). Each evaluated point is one
    `descent_objective_and_gradient` call.
    """
    lat, lon = start.latitude, start.longitude
    f, g_e, g_n, h_ee, h_en, h_nn = descent_objective_and_gradient(lat, lon, terms)
    mu = _DAMPING_TAU * max(h_ee, h_nn)
    nu = 2.0
    accepted = True
    status = "max_iterations"
    converged = False
    iterations = 0
    for iterations in range(1, DESCENT_MAX_ITERATIONS + 1):
        if g_e == 0.0 and g_n == 0.0:
            status, converged = "stationary", True
            break
        a, c = h_ee + mu, h_nn + mu
        det = a * c - h_en * h_en
        d_e = (h_en * g_n - c * g_e) / det
        d_n = (h_en * g_e - a * g_n) / det
        step = math.hypot(d_e, d_n)
        if step < DESCENT_STEP_TOLERANCE_KM:
            if accepted:
                status, converged = "step_tolerance", True
            else:
                status = "no_descent_step"
                converged = f < 1e-9 or math.hypot(g_e, g_n) * DESCENT_STEP_TOLERANCE_KM < 1e-9
            break
        new_lat, new_lon = _move(lat, lon, d_e, d_n)
        trial = descent_objective_and_gradient(new_lat, new_lon, terms)
        accepted = trial[0] < f
        if accepted:
            predicted = 0.5 * (mu * step * step - g_e * d_e - g_n * d_n)
            rho = (f - trial[0]) / predicted
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
            nu = 2.0
            lat, lon = new_lat, new_lon
            f, g_e, g_n, h_ee, h_en, h_nn = trial
        else:
            mu *= nu
            nu *= 2.0
    return DescentResult(
        point=GeoPoint(lat, lon),
        objective_km2=f,
        iterations=iterations,
        converged=converged,
        status=status,
        start=label,
    )


def _unwrapped_longitudes(targets: Sequence[tuple[GeoPoint, float]]) -> list[float]:
    """Landmark longitudes, unwrapped across the 180-degree seam when that
    gathers the landmarks into 180 degrees of longitude.

    Unwrapping moves each longitude more than 180 degrees from the first
    landmark's by 360 degrees toward it. A landmark on a pole says nothing
    by its longitude, so the first is the first off the poles, and only
    those count toward the span. Sets that span at most 180 degrees as they
    are, and sets spread too wide for any unwrapping to gather, keep every
    value's bits.
    """
    lons = [pos.longitude for pos, _ in targets]
    placed = [pos.longitude for pos, _ in targets if abs(pos.latitude) != 90.0] or lons
    lon0 = placed[0]

    def unwrap(lon: float) -> float:
        return lon - 360.0 if lon - lon0 > 180.0 else lon + 360.0 if lon - lon0 < -180.0 else lon

    moved = [unwrap(lon) for lon in placed]
    if max(placed) - min(placed) > 180.0 and max(moved) - min(moved) <= 180.0:
        return [unwrap(lon) for lon in lons]
    return lons


def _centroid_start(targets: Sequence[tuple[GeoPoint, float]]) -> GeoPoint:
    """Mean landmark latitude and mean unwrapped longitude."""
    lons = _unwrapped_longitudes(targets)
    return GeoPoint(sum(pos.latitude for pos, _ in targets) / len(targets), sum(lons) / len(lons))


# Cells per side of the coarse objective scan.
_COARSE_SCAN_CELLS = 24


def _coarse_scan_start(targets: Sequence[tuple[GeoPoint, float]], terms: DescentTerms) -> GeoPoint:
    """Cheapest cell of a coarse objective scan over the landmark extent,
    in `_unwrapped_longitudes`.

    The objective is scored on all cells at once: one `_haversine_h` over a
    `(landmarks, cells, cells)` stack built from `terms` (those of
    `targets`), as `within_km` stacks disks, whose squared residual planes
    are added in landmark order. Numpy's sin and arcsin may differ from
    libm's in the last bit, so every near-tie cell (objective within a
    relative 1e-9 plus 1e-9 km^2 of the least) is re-scored in row-major
    order with the scalar f of `descent_objective_and_gradient`, keeping the
    first strict minimum: the same cell, at the same coordinates, as a
    scalar scan of every cell.
    """
    lats = [pos.latitude for pos, _ in targets]
    lons = _unwrapped_longitudes(targets)
    pad = 5.0
    lat_lo, lat_hi = max(min(lats) - pad, -90.0), min(max(lats) + pad, 90.0)
    lon_lo, lon_hi = min(lons) - pad, max(lons) + pad
    cells = _COARSE_SCAN_CELLS
    k = np.arange(cells) + 0.5
    lat_c = lat_lo + k * (lat_hi - lat_lo) / cells
    lon_c = lon_lo + k * (lon_hi - lon_lo) / cells
    lats_rad = np.radians(lat_c)[:, None]
    p2, l2, cos_p2, target_km = np.array(terms, dtype=float).T[:, :, None, None]
    residual = _arc_km(_haversine_h(lats_rad, np.cos(lats_rad), np.radians(lon_c), p2, l2, cos_p2))
    residual -= target_km
    residual *= residual
    f = residual.sum(axis=0)  # a sum over the outer axis adds the planes in order
    best = None
    for i, j in np.argwhere(f <= f.min() * (1.0 + 1e-9) + 1e-9):
        lat, lon = float(lat_c[i]), float(lon_c[j])
        value = descent_objective_and_gradient(lat, lon, terms)[0]
        if best is None or value < best[0]:
            best = (value, lat, lon)
    return GeoPoint(best[1], best[2])


def estimate_descent(measurements: Sequence[Measurement], init: GeoPoint) -> DescentResult:
    """Minimize squared distance residuals by Levenberg-Marquardt descent in
    the local east/north km frame (`_descend_from`).

    The squared-residual surface has spurious local minima, so in addition
    to the caller's init the descent is seeded from the landmark centroid
    and the best cell of a coarse objective scan (both in
    `_unwrapped_longitudes`, so landmarks that straddle the 180-degree seam
    seed near them), keeping whichever run ends lowest (deterministic; the
    init run wins ties). Each run accepts
    only steps that lower the objective, so the result's objective never
    exceeds the objective at the init point. A run ends at a step under
    `DESCENT_STEP_TOLERANCE_KM` or at `DESCENT_MAX_ITERATIONS`, and its
    status says which (`no_descent_step` when damping alone shrank the
    step), instead of a silent wrong answer.

    The landmark terms are built once, by `descent_terms`, and shared by
    all three runs and the coarse scan.
    """
    usable = _usable(measurements)
    if len(usable) < 3:
        raise ValueError("descent needs at least 3 verified measurements")
    # A landmark timed below the propagation floor targets 0 km.
    targets = [(m.landmark.position, delay_to_distance(m) or 0.0) for m in usable]
    terms = descent_terms(targets)

    best = _descend_from(init, terms, "init")
    for start, label in ((_centroid_start(targets), "centroid"),
                         (_coarse_scan_start(targets, terms), "coarse_scan")):
        candidate = _descend_from(start, terms, label)
        if candidate.objective_km2 < best.objective_km2 - 1e-12:
            best = candidate
    return best


# -- scenario helpers ----------------------------------------------------------


def synthesize_round(
    rng: random.Random,
    landmarks: Sequence[Landmark],
    truth: GeoPoint,
    speedup: Optional[dict[str, float]] = None,
) -> list[Measurement]:
    """Closed-form honest measurements for estimator studies.

    Same physics as the event-driven path without simulator bookkeeping:
    each leg of the round trip is one `LatencyModel.sample_one_way_delay`
    draw from the landmark's own link. `speedup` maps landmark ids to a
    round-trip multiplier for response-time attacks.
    """
    measurements = []
    for lm in landmarks:
        distance, link = geodesic_distance(truth, lm.position), lm.link
        rtt = link.sample_one_way_delay(distance, rng) + link.sample_one_way_delay(distance, rng)
        if speedup and lm.id in speedup:
            rtt *= speedup[lm.id]
        measurements.append(Measurement(lm, rtt, verified=True))
    return measurements
