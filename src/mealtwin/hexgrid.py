"""Hexagonal lattice in axial coordinates and the bounded service region.

Grids are hexagons addressed by axial (q, r).  Adjacency and distances are
computed on the infinite lattice; the service region only restricts which
grids exist as order origins/destinations, so travel between two region grids
may legally cut across non-region hexes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

import numpy as np

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
        # Keyed by plain (q, r) so that no HexCoord is built per neighbor.
        index: Dict[Tuple[int, int], int] = {}
        for gid, coord in enumerate(self.grids):
            key = (coord.q, coord.r)
            if key in index:
                raise ValueError(f"duplicate grid coordinate {coord}")
            index[key] = gid
        neighbor_ids = tuple(
            tuple(index.get((c.q + dq, c.r + dr)) for dq, dr in AXIAL_DIRECTIONS)
            for c in self.grids
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

    # The tables below are built on first use, once per region, so that
    # loading a scenario does not pay for them.

    @cached_property
    def neighborhoods(self) -> Tuple[Tuple[int, ...], ...]:
        """Each grid followed by its in-region neighbors in slot order (7
        grids inside the region, fewer at its edges), indexed by grid id."""
        return tuple(
            (gid,) + tuple(nid for nid in nids if nid is not None)
            for gid, nids in enumerate(self._neighbor_ids)
        )

    @cached_property
    def neighborhood_matrix(self) -> np.ndarray:
        """Read-only int64 matrix with a 1 at [g, h] when h is in g's
        neighborhood, so row g times an integer field sums the field over
        that neighborhood exactly.  Adjacency is symmetric, so row g dotted
        with row h counts the grids the two neighborhoods share."""
        n = len(self.grids)
        matrix = np.zeros((n, n), dtype=np.int64)
        for gid, hood in enumerate(self.neighborhoods):
            matrix[gid, list(hood)] = 1
        matrix.flags.writeable = False
        return matrix

    @cached_property
    def slot_stencils(self) -> np.ndarray:
        """Read-only int64 array of shape (grids, 14, grids).  For grid g,
        rows 2k and 2k+1 belong to slot k (0 is g itself, 1..6 its neighbor
        slots): row 2k picks the slot's grid and row 2k+1 is that grid's
        `neighborhood_matrix` row.  Rows of a slot outside the region are
        zero.  So `slot_stencils[g] @ field` interleaves each slot's value and
        neighborhood sum of an integer field."""
        n = len(self.grids)
        stencils = np.zeros((n, 2 * (1 + len(AXIAL_DIRECTIONS)), n), dtype=np.int64)
        for gid, nids in enumerate(self._neighbor_ids):
            for slot, nid in enumerate((gid,) + nids):
                if nid is not None:
                    stencils[gid, 2 * slot, nid] = 1
                    stencils[gid, 2 * slot + 1] = self.neighborhood_matrix[nid]
        stencils.flags.writeable = False
        return stencils

    @cached_property
    def slot_mask(self) -> np.ndarray:
        """Read-only (grids, 7) bool matrix: slot 0 (the grid itself) and the
        neighbor slots that fall inside the region."""
        mask = self.slot_stencils[:, 0::2].any(axis=2)
        mask.flags.writeable = False
        return mask

    @cached_property
    def neighborhood_overlaps(self) -> Tuple[Tuple[int, ...], ...]:
        """[g][h] is the number of grids the neighborhoods of g and h share:
        `neighborhood_matrix` times its transpose, as nested tuples of
        plain ints."""
        matrix = self.neighborhood_matrix
        return tuple(map(tuple, (matrix @ matrix.T).tolist()))

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only lattice distance (|dq| + |dr| + |dq+dr|) / 2 between
        every pair of grids, indexed by grid id."""
        q = np.array([c.q for c in self.grids], dtype=np.int64)
        r = np.array([c.r for c in self.grids], dtype=np.int64)
        dq = q[:, None] - q[None, :]
        dr = r[:, None] - r[None, :]
        distances = (np.abs(dq) + np.abs(dr) + np.abs(dq + dr)) // 2
        distances.flags.writeable = False
        return distances

    @cached_property
    def distance_rows(self) -> Tuple[Tuple[int, ...], ...]:
        """`distances` as nested tuples of plain ints, for scalar lookups
        (`distance_rows[a][b]`) without numpy indexing or range checks."""
        return tuple(map(tuple, self.distances.tolist()))

    @cached_property
    def restaurant_ids(self) -> Tuple[int, ...]:
        return tuple(g for g, flag in enumerate(self.restaurant_flags) if flag)

    def neighbor_ids(self, gid: int) -> Tuple[Optional[int], ...]:
        """Slot-ordered neighbor grid ids; None where the slot falls outside."""
        self._check(gid)
        return self._neighbor_ids[gid]

    def distance(self, a: int, b: int) -> int:
        self._check(a)
        self._check(b)
        return self.distance_rows[a][b]  # a plain int, so event details stay JSON-safe

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
