"""Hexagonal lattice in axial coordinates and the bounded service region.

Grids are hexagons addressed by axial (q, r).  Adjacency and distances are
computed on the infinite lattice; the service region only restricts which
grids exist as order origins/destinations, so travel between two region grids
may legally cut across non-region hexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

# Canonical neighbor offsets, slot order 0..5.  All neighbor enumeration must
# use this order.
AXIAL_DIRECTIONS: Tuple[Tuple[int, int], ...] = (
    (1, 0),
    (1, -1),
    (0, -1),
    (-1, 0),
    (-1, 1),
    (0, 1),
)

# One unit of hex distance costs three minutes of courier travel.
MINUTES_PER_UNIT = 3


@dataclass(frozen=True, order=True)
class HexCoord:
    """Axial hex coordinate."""

    q: int
    r: int

    def neighbor(self, slot: int) -> "HexCoord":
        dq, dr = AXIAL_DIRECTIONS[slot]
        return HexCoord(self.q + dq, self.r + dr)


def hex_distance(a: HexCoord, b: HexCoord) -> int:
    """Lattice distance: (|dq| + |dr| + |dq+dr|) / 2."""
    dq = a.q - b.q
    dr = a.r - b.r
    return (abs(dq) + abs(dr) + abs(dq + dr)) // 2


@dataclass(frozen=True)
class ServiceRegion:
    """Ordered collection of grids with stable integer ids and restaurant flags."""

    grids: Tuple[HexCoord, ...]
    restaurant_flags: Tuple[bool, ...]
    layout_name: str = "custom"
    _neighbor_ids: Tuple[Tuple[Optional[int], ...], ...] = field(
        default=(), repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.grids) != len(self.restaurant_flags):
            raise ValueError("restaurant_flags length must match grids")
        index: Dict[HexCoord, int] = {}
        for gid, coord in enumerate(self.grids):
            if coord in index:
                raise ValueError(f"duplicate grid coordinate {coord}")
            index[coord] = gid
        neighbor_ids = tuple(
            tuple(index.get(coord.neighbor(slot)) for slot in range(6))
            for coord in self.grids
        )
        object.__setattr__(self, "_neighbor_ids", neighbor_ids)
        if self.grids and not self._connected():
            raise ValueError("service region must be connected")

    def _connected(self) -> bool:
        seen = {0}
        frontier = deque([0])
        while frontier:
            gid = frontier.popleft()
            for nid in self._neighbor_ids[gid]:
                if nid is not None and nid not in seen:
                    seen.add(nid)
                    frontier.append(nid)
        return len(seen) == len(self.grids)

    def __len__(self) -> int:
        return len(self.grids)

    @property
    def restaurant_ids(self) -> Tuple[int, ...]:
        return tuple(g for g, flag in enumerate(self.restaurant_flags) if flag)

    def neighbor_ids(self, gid: int) -> Tuple[Optional[int], ...]:
        """Slot-ordered neighbor grid ids; None where the slot falls outside."""
        self._check(gid)
        return self._neighbor_ids[gid]

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return hex_distance(self.grids[a], self.grids[b])

    def _check(self, gid: int) -> None:
        if not 0 <= gid < len(self.grids):
            raise ValueError(f"grid id {gid} outside region (0..{len(self.grids) - 1})")


def offset_rect_region(
    cols: int,
    rows: int,
    restaurant_ids: Tuple[int, ...],
    layout_name: str = "rect",
) -> ServiceRegion:
    """Rectangle of hexes in odd-row offset layout, converted to axial coordinates.

    Ids run row-major, so id = row * cols + col.
    """
    if cols < 1 or rows < 1:
        raise ValueError("region dimensions must be positive")
    grids = []
    for row in range(rows):
        for col in range(cols):
            q = col - (row - (row & 1)) // 2
            grids.append(HexCoord(q, row))
    n = cols * rows
    for gid in restaurant_ids:
        if not 0 <= gid < n:
            raise ValueError(f"restaurant id {gid} outside region")
    flags = tuple(gid in set(restaurant_ids) for gid in range(n))
    return ServiceRegion(tuple(grids), flags, layout_name)


# The sample service region: a 5x5 block whose central-column ids carry both
# restaurants and households, matching the published grid labels.
DEFAULT_RESTAURANT_IDS: Tuple[int, ...] = (7, 8, 9, 12, 13, 14, 17, 18, 19)


def default_region() -> ServiceRegion:
    return offset_rect_region(5, 5, DEFAULT_RESTAURANT_IDS, layout_name="5x5")
