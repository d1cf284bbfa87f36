"""Hex lattice geometry and service region tests."""

from collections import deque

import pytest
from hypothesis import given, strategies as st

from mealtwin.hexgrid import (
    AXIAL_DIRECTIONS,
    DEFAULT_RESTAURANT_IDS,
    HexCoord,
    MINUTES_PER_UNIT,
    ServiceRegion,
    default_region,
    offset_rect_region,
)

from oracles import hex_distance

coords = st.builds(
    HexCoord, st.integers(min_value=-20, max_value=20), st.integers(min_value=-20, max_value=20)
)


def neighbor(c: HexCoord, slot: int) -> HexCoord:
    dq, dr = AXIAL_DIRECTIONS[slot]
    return HexCoord(c.q + dq, c.r + dr)


def bfs_distance(a: HexCoord, b: HexCoord, limit: int = 100) -> int:
    """Breadth-first lattice distance, the independent oracle."""
    if a == b:
        return 0
    seen = {a}
    frontier = deque([(a, 0)])
    while frontier:
        cur, d = frontier.popleft()
        for slot in range(6):
            nxt = neighbor(cur, slot)
            if nxt == b:
                return d + 1
            if nxt not in seen and d + 1 < limit:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    raise AssertionError("bfs limit hit")


def test_direction_order_is_canonical():
    assert AXIAL_DIRECTIONS == ((1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def test_distance_worked_examples():
    assert hex_distance(HexCoord(0, 0), HexCoord(0, 0)) == 0
    assert hex_distance(HexCoord(0, 0), HexCoord(1, 0)) == 1
    assert hex_distance(HexCoord(0, 0), HexCoord(1, -1)) == 1
    assert hex_distance(HexCoord(0, 0), HexCoord(2, -1)) == 2
    assert hex_distance(HexCoord(0, 0), HexCoord(-2, 2)) == 2
    assert hex_distance(HexCoord(-1, -1), HexCoord(1, 1)) == 4


def test_travel_minutes_is_three_per_unit():
    assert MINUTES_PER_UNIT == 3


@given(coords, coords)
def test_distance_symmetry(a, b):
    assert hex_distance(a, b) == hex_distance(b, a)


@given(coords, coords, coords)
def test_triangle_inequality(a, b, c):
    assert hex_distance(a, c) <= hex_distance(a, b) + hex_distance(b, c)


@given(coords)
def test_all_neighbors_at_distance_one(a):
    for slot in range(6):
        assert hex_distance(a, neighbor(a, slot)) == 1


def test_distance_matches_bfs_small_ball():
    origin = HexCoord(0, 0)
    for q in range(-4, 5):
        for r in range(-4, 5):
            target = HexCoord(q, r)
            assert hex_distance(origin, target) == bfs_distance(origin, target)


def test_offset_rect_ids_row_major():
    region = offset_rect_region(5, 5, DEFAULT_RESTAURANT_IDS)
    assert len(region) == 25
    # Row 0 is the axial axis itself; odd rows shift left in q.
    assert region.grids[0] == HexCoord(0, 0)
    assert region.grids[4] == HexCoord(4, 0)
    assert region.grids[5] == HexCoord(0, 1)
    assert region.grids[12] == HexCoord(1, 2)
    assert region.grids[24] == HexCoord(2, 4)


def test_default_region_restaurants():
    region = default_region()
    assert region.restaurant_ids == (7, 8, 9, 12, 13, 14, 17, 18, 19)
    assert region.restaurant_flags[13]
    assert not region.restaurant_flags[0]


def test_region_neighbor_ids_against_coords():
    region = default_region()
    for gid in range(len(region)):
        for slot, nid in enumerate(region.neighbor_ids(gid)):
            coord = neighbor(region.grids[gid], slot)
            if nid is None:
                assert coord not in region.grids
            else:
                assert region.grids[nid] == coord


def test_region_distance_and_path():
    region = default_region()
    assert region.distance(7, 7) == 0
    assert region.distance(0, 4) == 4


def test_distance_matrix_matches_formula():
    for region in (default_region(), offset_rect_region(10, 7, ())):
        matrix = region.distances
        assert matrix.shape == (len(region), len(region))
        assert not matrix.flags.writeable
        for a, ca in enumerate(region.grids):
            for b, cb in enumerate(region.grids):
                assert matrix[a, b] == hex_distance(ca, cb)
    # A plain int, so that event details holding it stay JSON-serialisable.
    assert type(default_region().distance(0, 24)) is int


def test_region_rejects_bad_ids():
    region = default_region()
    with pytest.raises(ValueError):
        region.neighbor_ids(25)
    with pytest.raises(ValueError):
        region.distance(-1, 0)
    with pytest.raises(ValueError):
        offset_rect_region(5, 5, (25,))
    with pytest.raises(ValueError):
        offset_rect_region(0, 5, ())


def test_region_rejects_duplicates_and_disconnection():
    with pytest.raises(ValueError):
        ServiceRegion((HexCoord(0, 0), HexCoord(0, 0)), (False, False))
    with pytest.raises(ValueError):
        ServiceRegion((HexCoord(0, 0), HexCoord(5, 5)), (False, False))
