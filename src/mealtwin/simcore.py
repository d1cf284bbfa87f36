"""Per-minute shift simulation of couriers, orders and supply-demand state.

The decision loop ticks in whole minutes, but courier task milestones
(restaurant arrival, meal pickup, delivery, reallocation arrival) live on a
continuous clock: prep times are real-valued, pickup happens at
max(arrival, actual ready), and chained tasks start exactly when the previous
one completes.  Each step advances the clock by one minute and realizes every
milestone that falls inside it, so decision-time state is always consistent
with the milestones already in the past.

Policies read the fleet through held courier rows (`SimState.courier_rows`):
each courier's projected idle grid and minutes until idle, and the dispatch
action mask, which holds whether each courier is below the delivery-task
cap.  The rows live from one minute to the next.  At the first query of a
minute only two groups are projected again: couriers marked stale (every
courier starts stale, every status change marks one, and so do
`apply_dispatch` and `apply_reallocation`), and couriers waiting at a
restaurant whose order's estimated ready minute is already past.  Waiting
is the one status whose projection reads the clock, through pickup at
max(now, estimated ready); until the estimate is past, that max is the
estimate itself.  So for every other courier the projected idle minute is
fixed: idle rows stay at 0 minutes and every other row counts down with the
clock, which is exact because the clock is integral and never later than a
busy courier's idle minute.

The idle couriers and the pending orders per grid are held too.  Orders
enter the book only through `place_order`, so the pending counts start at
zero and are kept from there.  The idle counts are taken once, at the first
action on a courier or the first count query (`_count_idle`), so that
set-up code may still place couriers before then; every later status change
keeps them.

The gap field is held as well.  In strategic mode one `bincount` over the
rows builds it at its first query after each minute's row refresh and after
each `refresh_predictions`; a row rebuilt within the minute moves its unit
of anticipated supply in place.  In myopic mode it is the held idle counts
minus the held pending counts.

A shift's orders and its demand forecasts come from the config's
`ShiftBook` for the seed key, which every simulation of that shift shares.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .errors import ConfigError, ContractError
from .hexgrid import MINUTES_PER_UNIT
from .scenario import Order, ScenarioConfig, make_rng

EVENTS_HEADER = ("minute", "entity", "event", "detail")

IDLE = "idle"
TO_PICKUP = "to_pickup"
WAITING = "waiting_at_restaurant"
TO_DELIVERY = "to_delivery"
REALLOCATING = "reallocating"
STATUSES = (IDLE, TO_PICKUP, WAITING, TO_DELIVERY, REALLOCATING)

# Statuses a courier may move to from each status; the event log is checked
# against this machine in tests.
LEGAL_TRANSITIONS = {
    IDLE: {TO_PICKUP, REALLOCATING},
    TO_PICKUP: {WAITING, TO_DELIVERY},
    WAITING: {TO_DELIVERY},
    TO_DELIVERY: {IDLE, TO_PICKUP},
    REALLOCATING: {IDLE, TO_PICKUP},
}

MODE_STRATEGIC = "strategic"
MODE_MYOPIC = "myopic"

ANTICIPATION_MIN = 15  # couriers becoming idle within this window count as supply

DELIVERY = "delivery"
REALLOCATE = "reallocate"


@dataclass
class Task:
    kind: str
    order_id: Optional[int] = None
    target: Optional[int] = None


@dataclass
class Courier:
    id: int
    grid: int
    status: str = IDLE
    queue: List[Task] = field(default_factory=list)
    idle_since: Optional[float] = 0.0
    active_from: Optional[int] = None
    arrive_time: Optional[float] = None
    pickup_time: Optional[float] = None
    done_time: Optional[float] = None
    status_since: float = 0.0
    minutes: Dict[str, float] = field(default_factory=lambda: {s: 0.0 for s in STATUSES})
    distance: int = 0
    served: int = 0

    def delivery_task_count(self) -> int:
        """Delivery tasks in the queue.  Only an idle courier, whose queue is
        empty, is given a reallocation, so a reallocation task is only ever
        at the head of a queue."""
        queue = self.queue
        return len(queue) - (1 if queue and queue[0].kind == REALLOCATE else 0)


@dataclass
class CourierRows:
    """The fleet's projection as arrays indexed by courier id: the grid where
    each courier's queued work ends and the minutes until then (kitchen
    estimates).  `mask` holds the valid dispatch actions: the couriers below
    the delivery-task cap, then postponing, which is always valid."""

    grid: np.ndarray
    eta: np.ndarray
    mask: np.ndarray


@dataclass
class Event:
    minute: int
    entity: str
    event: str
    detail: dict


class SimState:
    """One simulated shift: fleet, order book, event log and RNG streams."""

    def __init__(
        self,
        config: ScenarioConfig,
        mode: str = MODE_STRATEGIC,
        predictor=None,
        seed_key: Sequence[int] = (0,),
        ):
        if mode not in (MODE_STRATEGIC, MODE_MYOPIC):
            raise ConfigError(f"unknown framework mode {mode!r}")
        self.config = config
        self.region = config.region
        self.mode = mode
        self.predictor = predictor
        self.clock = 0
        self.book = config.shift_book(seed_key)
        self.rng_policy = make_rng(*seed_key, 1)
        self.rng_setup = make_rng(*seed_key, 2)
        n = len(self.region)
        self.couriers = [
            Courier(id=i, grid=int(self.rng_setup.integers(n)))
            for i in range(config.fleet_size)
        ]
        self.orders: Dict[int, Order] = {}
        self.pending: List[int] = []
        self.sampled = 0
        self.delivered = 0
        self.overdue = 0
        # Predicted 15-minute demand per grid in whole orders, held from one
        # refresh_predictions to the next.
        self.rounded_demand = np.zeros(n, dtype=np.int64)
        # Courier rows, the minute they were last brought up to date at, the
        # couriers whose rows must be projected again (at first, all), and
        # the estimated ready minute each waiting courier's order has; see
        # courier_rows.
        fleet = config.fleet_size
        self._rows = CourierRows(np.zeros(fleet, np.int64), np.zeros(fleet), np.ones(fleet + 1, bool))
        self._rows_minute = -1
        self._stale: Set[int] = set(range(fleet))
        self._waiting: Dict[int, float] = {}
        # Idle couriers per grid (taken by _count_idle), pending orders per
        # grid, and the gap field, which in strategic mode _field_ok says is
        # in step with this minute's rows.  Each is read through a read-only
        # view.
        held = np.zeros((3, n), dtype=np.int64)
        self._idle_counts, self._pending_counts, self._field = held
        view = held.view()
        view.flags.writeable = False
        self._idle_view, self._pending_view, self._field_view = view
        self._idle_counted = False
        self._field_ok = False
        # Bumped by every change to what a decision reads: each apply_*,
        # refresh_predictions and the advance of the clock.
        self.revision = 0
        self.events: List[Event] = []
        self._finished = False
        self.log(
            "system", "shift_start", {"couriers": [c.grid for c in self.couriers]}
        )

    # ------------------------------------------------------------------ logging

    def log(self, entity: str, event: str, detail: dict) -> None:
        self.events.append(Event(self.clock, entity, event, detail))

    # ------------------------------------------------------------ order queries

    def pending_orders_ranked(self) -> List[int]:
        """Pending order ids, most urgent first: ascending estimated-ready
        time (equivalently est_ready - clock), ties broken by order id."""
        return sorted(self.pending, key=lambda oid: (self.orders[oid].est_ready, oid))

    def idle_counts(self) -> np.ndarray:
        """Idle couriers per grid: a read-only view of the held counts."""
        self._count_idle()
        return self._idle_view

    def pending_counts(self) -> np.ndarray:
        """Pending orders per restaurant grid: a read-only view of the held
        counts."""
        return self._pending_view

    def _count_idle(self) -> None:
        """Take the idle counts, once.  apply_dispatch and apply_reallocation
        call this before they change a courier; after that, _set_status
        keeps the counts."""
        if not self._idle_counted:
            self._idle_counted = True
            for c in self.couriers:
                if c.status == IDLE:
                    self._idle_counts[c.grid] += 1

    def place_order(self, o: Order) -> None:
        """Enter a new order into the book as pending.  Orders enter only
        here, so that the order count (`sampled`, also the next order's id)
        and the held pending counts see every one."""
        self.orders[o.id] = o
        self.pending.append(o.id)
        self.sampled += 1
        self._pending_counts[o.restaurant] += 1

    def _drop_pending(self, o: Order) -> None:
        self.pending.remove(o.id)
        self._pending_counts[o.restaurant] -= 1

    # -------------------------------------------------------- courier projection

    def _project(self, c: Courier, use_estimate: bool) -> Tuple[int, float]:
        """Grid and absolute minute at which the courier exhausts queued work.

        With use_estimate the remaining prep waits use the kitchen estimate
        (what a policy may know); without it the exact milestone arithmetic is
        reproduced, so the result matches the times the engine will realize.
        """
        now = float(self.clock)
        if c.status == IDLE:
            return c.grid, now
        dist = self.region.distance_rows
        head = c.queue[0]
        if head.kind == REALLOCATE:
            g, t = head.target, c.done_time
            rest = c.queue[1:]
        else:
            o = self.orders[head.order_id]
            if c.status == TO_DELIVERY or not use_estimate:
                t = c.done_time
            elif c.status == WAITING:
                t = max(now, o.est_ready) + MINUTES_PER_UNIT * dist[o.restaurant][o.household]
            else:  # TO_PICKUP
                t = max(c.arrive_time, o.est_ready) + MINUTES_PER_UNIT * dist[o.restaurant][
                    o.household
                ]
            g = o.household
            rest = c.queue[1:]
        for task in rest:
            o = self.orders[task.order_id]
            arrive = t + MINUTES_PER_UNIT * dist[g][o.restaurant]
            ready = o.est_ready if use_estimate else o.ready_time
            t = max(arrive, ready) + MINUTES_PER_UNIT * dist[o.restaurant][o.household]
            g = o.household
        return g, t

    def courier_eta_idle(self, cid: int) -> Tuple[int, float]:
        """Future idle grid and expected minutes until idle (kitchen estimates)."""
        c = self.couriers[cid]
        g, t = self._project(c, use_estimate=True)
        return g, t - float(self.clock)

    def projected_arrival(self, cid: int, restaurant: int) -> Tuple[int, int, float]:
        """(start grid, pickup distance, arrival minute) if this courier were
        assigned an order at `restaurant` now, after all queued work."""
        c = self.couriers[cid]
        g, t = self._project(c, use_estimate=False)
        d = self.region.distance(g, restaurant)
        return g, d, t + MINUTES_PER_UNIT * d

    def courier_rows(self) -> CourierRows:
        """Every courier's projection at this minute.

        At the first query of each minute, busy rows count down by the
        minutes passed, and the stale couriers and the waiting ones past
        their order's estimated ready minute are projected again (see the
        module docstring).  Every courier starts stale, so the first query
        of the shift projects the whole fleet.  Within a minute only
        apply_dispatch and apply_reallocation change a courier, and each
        rebuilds that courier's row.
        """
        rows = self._rows
        clock = self.clock
        if self._rows_minute != clock:
            # Every row that is not projected again below belongs to an idle
            # courier (0.0, kept there by the clamp) or to a busy one whose
            # idle minute is not before the clock, so no other row is
            # clamped.
            eta = rows.eta
            np.subtract(eta, clock - self._rows_minute, out=eta)
            np.maximum(eta, 0.0, out=eta)
            self._field_ok = False
            stale = self._stale
            stale.update([cid for cid, ready in self._waiting.items() if ready < clock])
            for cid in stale:
                self._project_row(cid)
            stale.clear()
            self._rows_minute = clock
        return rows

    def _project_row(self, cid: int) -> None:
        """Project one courier again, and keep its mask entry and, while it
        is in step with the rows, the strategic gap field with it."""
        rows = self._rows
        field = self._field if self._field_ok else None
        if field is not None and rows.eta[cid] <= ANTICIPATION_MIN:
            field[rows.grid[cid]] -= 1
        g, eta = self.courier_eta_idle(cid)
        rows.grid[cid] = g
        rows.eta[cid] = eta
        rows.mask[cid] = self.couriers[cid].delivery_task_count() < self.config.max_delivery_tasks
        if field is not None and eta <= ANTICIPATION_MIN:
            field[g] += 1

    def _courier_changed(self, cid: int) -> None:
        """Rebuild one courier's row if this minute's rows are up to date;
        otherwise mark it for the next refresh."""
        if self._rows_minute == self.clock:
            self._project_row(cid)
            self._stale.discard(cid)
        else:
            self._stale.add(cid)

    # ------------------------------------------------------------- gap queries

    def refresh_predictions(self) -> None:
        """Read every grid's demand at this minute from the predictor's
        forecasts in the shift's book; zero demand in myopic mode or without
        a predictor."""
        if self.clock >= self.config.shift_minutes:
            raise ContractError("the shift is already over")
        if self.predictor is None or self.mode == MODE_MYOPIC:
            self.rounded_demand = np.zeros(len(self.region), dtype=np.int64)
        else:
            self.rounded_demand = self.book.demand(self.predictor, self.clock)
        self._field_ok = False
        self.revision += 1

    def gap_field(self) -> np.ndarray:
        """Courier supply minus order demand at every grid, indexed by grid id.

        Myopic mode looks at the current minute: idle couriers now on the grid
        minus pending unassigned orders from it.  Strategic mode anticipates:
        couriers turning idle there within 15 minutes minus the predicted
        15-minute order count (rounded half-up).

        The result is a read-only view of the held field, which changes in
        place with the state; copy it to keep it.
        """
        field = self._field
        if self.mode == MODE_MYOPIC:
            np.subtract(self.idle_counts(), self.pending_counts(), out=field)
        else:
            rows = self.courier_rows()
            if not self._field_ok:
                supply = np.bincount(
                    rows.grid[rows.eta <= ANTICIPATION_MIN], minlength=len(self.region)
                )
                np.subtract(supply, self.rounded_demand, out=field)
                self._field_ok = True
        return self._field_view

    # ------------------------------------------------------------ environment ops

    def apply_dispatch(
        self,
        oid: int,
        cid: int,
        audit: Optional[dict] = None,
        projection: Optional[Tuple[int, int, float]] = None,
    ) -> None:
        """Append a delivery task for the order to the courier's queue.
        `projection` is this courier's `projected_arrival` for the order's
        restaurant, when the caller has computed it."""
        o = self.orders[oid]
        if o.status != "pending":
            raise ContractError(f"order {oid} is not pending")
        c = self.couriers[cid]
        if c.delivery_task_count() >= self.config.max_delivery_tasks:
            raise ContractError(f"courier {cid} already holds the delivery task cap")
        if projection is None:
            projection = self.projected_arrival(cid, o.restaurant)
        _, d, arrival = projection
        self._count_idle()
        o.status = "assigned"
        o.assigned_courier = cid
        o.courier_arrival = arrival
        o.pickup_distance = d
        self._drop_pending(o)
        self.revision += 1
        c.queue.append(Task(DELIVERY, order_id=oid))
        if c.status == IDLE:
            c.idle_since = None
            self._start_task(c, float(self.clock))
        self._courier_changed(cid)
        detail = {
            "order": oid,
            "courier": cid,
            "pickup_distance": d,
            "arrival": arrival,
            "ready": o.ready_time,
        }
        if audit:
            detail.update(audit)
        self.log(f"order:{oid}", "assigned", detail)

    def apply_postpone(self, oid: int, remove_overdue: bool) -> None:
        o = self.orders[oid]
        if o.status != "pending":
            raise ContractError(f"order {oid} is not pending")
        self.revision += 1
        if remove_overdue:
            o.status = "overdue"
            self._drop_pending(o)
            self.overdue += 1
            self.log(f"order:{oid}", "overdue", {"order": oid})
        else:
            self.log(f"order:{oid}", "postponed", {"order": oid})

    def apply_reallocation(self, cid: int, target: int) -> None:
        c = self.couriers[cid]
        if c.status != IDLE:
            raise ContractError(f"courier {cid} is not idle")
        if target is None or target not in self.region.neighbor_ids(c.grid):
            raise ContractError(
                f"grid {target} is not adjacent to courier {cid} at {c.grid}"
            )
        origin = c.grid
        self._count_idle()
        self.revision += 1
        c.idle_since = None
        c.queue.append(Task(REALLOCATE, target=target))
        self._start_task(c, float(self.clock))
        self._courier_changed(cid)
        self.log(f"courier:{cid}", "realloc", {"courier": cid, "from": origin, "to": target})

    def steering_eligible(self, cid: int) -> bool:
        """Whether the courier is idle strictly longer than the idle threshold."""
        c = self.couriers[cid]
        return c.status == IDLE and (self.clock - c.idle_since) > self.config.idle_threshold_min

    def eligible_steering_ids(self) -> List[int]:
        """Couriers eligible for steering, in id order."""
        return [c.id for c in self.couriers if self.steering_eligible(c.id)]

    # ---------------------------------------------------------------- the loop

    def step(
        self,
        dispatch_fn: Callable[["SimState", int, List[int]], None],
        steer_fn: Optional[Callable[["SimState", int], None]] = None,
    ) -> None:
        """One simulated minute: place the book's orders, forecast, dispatch,
        steer, advance."""
        if self.clock >= self.config.shift_minutes:
            raise ContractError("the shift is already over")
        for o in self.book.orders(self.clock, self.sampled):
            self.place_order(o)
            self.log(
                f"order:{o.id}",
                "placed",
                {
                    "order": o.id,
                    "restaurant": o.restaurant,
                    "household": o.household,
                    "est_prep": o.est_prep,
                    "actual_prep": o.actual_prep,
                },
            )
        if self.mode == MODE_STRATEGIC:
            self.refresh_predictions()
        ranked = self.pending_orders_ranked()
        for i, oid in enumerate(ranked):
            if self.orders[oid].status != "pending":
                continue
            dispatch_fn(self, oid, ranked[i + 1 :])
        if steer_fn is not None:
            for cid in self.eligible_steering_ids():
                steer_fn(self, cid)
        idle, pending = self.idle_counts(), self.pending_counts()
        self.log(
            "system",
            "snapshot",
            {"idle": idle.tolist(), "pending": pending.tolist(), "gap": (idle - pending).tolist()},
        )
        self._advance()

    def run(
        self,
        dispatch_fn: Callable[["SimState", int, List[int]], None],
        steer_fn: Optional[Callable[["SimState", int], None]] = None,
    ) -> None:
        while self.clock < self.config.shift_minutes:
            self.step(dispatch_fn, steer_fn)
        self.finish()

    def finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        end = float(self.config.shift_minutes)
        for c in self.couriers:
            c.minutes[c.status] += end - c.status_since
            c.status_since = end
            self.log(
                f"courier:{c.id}",
                "courier_summary",
                {
                    "courier": c.id,
                    "delivery_minutes": c.minutes[TO_PICKUP]
                    + c.minutes[WAITING]
                    + c.minutes[TO_DELIVERY],
                    "idle_minutes": c.minutes[IDLE],
                    "realloc_minutes": c.minutes[REALLOCATING],
                    "distance": c.distance,
                    "served": c.served,
                },
            )
        self.log(
            "system",
            "shift_summary",
            {
                "sampled": self.sampled,
                "delivered": self.delivered,
                "overdue": self.overdue,
                "active": self.sampled - self.delivered - self.overdue,
            },
        )

    # ------------------------------------------------------------- task engine

    def _set_status(self, c: Courier, status: str, at: float) -> None:
        if status == c.status:
            return
        if status not in LEGAL_TRANSITIONS[c.status]:
            raise ContractError(f"illegal transition {c.status} -> {status}")
        self._stale.add(c.id)
        if status == WAITING:
            self._waiting[c.id] = self.orders[c.queue[0].order_id].est_ready
        elif c.status == WAITING:
            del self._waiting[c.id]
        if status == IDLE:
            self._idle_counts[c.grid] += 1
        elif c.status == IDLE:
            self._idle_counts[c.grid] -= 1
        c.minutes[c.status] += at - c.status_since
        self.log(
            f"courier:{c.id}",
            "status",
            {"courier": c.id, "from": c.status, "to": status, "time": at},
        )
        c.status = status
        c.status_since = at

    def _start_task(self, c: Courier, at: float) -> None:
        task = c.queue[0]
        c.active_from = c.grid
        if task.kind == REALLOCATE:
            c.arrive_time = c.pickup_time = None
            c.done_time = at + MINUTES_PER_UNIT  # targets are always adjacent
            self._set_status(c, REALLOCATING, at)
        else:
            o = self.orders[task.order_id]
            c.arrive_time = at + MINUTES_PER_UNIT * self.region.distance(
                c.grid, o.restaurant
            )
            c.pickup_time = max(c.arrive_time, o.ready_time)
            c.done_time = c.pickup_time + MINUTES_PER_UNIT * self.region.distance(
                o.restaurant, o.household
            )
            self._set_status(c, TO_PICKUP, at)

    def _settle(self, c: Courier, at: float) -> None:
        c.arrive_time = c.pickup_time = c.done_time = None
        c.active_from = None
        if c.queue:
            self._start_task(c, at)
        else:
            self._set_status(c, IDLE, at)
            c.idle_since = at

    def _do_pickup(self, c: Courier, o: Order) -> None:
        o.status = "picked_up"
        o.pickup_time = c.pickup_time
        self.log(
            f"order:{o.id}",
            "pickup",
            {
                "order": o.id,
                "courier": c.id,
                "arrival": c.arrive_time,
                "time": c.pickup_time,
            },
        )
        self._set_status(c, TO_DELIVERY, c.pickup_time)

    def _advance_courier(self, c: Courier, until: float) -> None:
        while c.status != IDLE:
            task = c.queue[0]
            if task.kind == REALLOCATE:
                if c.done_time > until:
                    return
                done = c.done_time
                c.grid = task.target
                c.distance += 1
                c.queue.pop(0)
                self._settle(c, done)
                continue
            o = self.orders[task.order_id]
            if c.status == TO_PICKUP:
                if c.arrive_time > until:
                    return
                c.distance += self.region.distance(c.active_from, o.restaurant)
                if c.pickup_time > c.arrive_time and c.pickup_time > until:
                    self._set_status(c, WAITING, c.arrive_time)
                    return
                if c.pickup_time > c.arrive_time:
                    self._set_status(c, WAITING, c.arrive_time)
                self._do_pickup(c, o)
            elif c.status == WAITING:
                if c.pickup_time > until:
                    return
                self._do_pickup(c, o)
            elif c.status == TO_DELIVERY:
                if c.done_time > until:
                    return
                done = c.done_time
                o.status = "delivered"
                o.delivered_at = done
                c.grid = o.household
                c.served += 1
                c.distance += self.region.distance(o.restaurant, o.household)
                self.delivered += 1
                self.log(
                    f"order:{o.id}",
                    "delivered",
                    {"order": o.id, "courier": c.id, "time": done},
                )
                c.queue.pop(0)
                self._settle(c, done)
            else:
                raise ContractError(f"courier {c.id} in unexpected status {c.status}")

    def _advance(self) -> None:
        until = float(self.clock + 1)
        for c in self.couriers:
            if c.status != IDLE:
                self._advance_courier(c, until)
        self.clock += 1
        self.revision += 1


# ------------------------------------------------------------------- event io


def events_to_csv(events: Sequence[Event], target: Union[Path, io.TextIOBase]) -> None:
    own = isinstance(target, (str, Path))
    fh = open(target, "w", newline="") if own else target
    try:
        writer = csv.writer(fh)
        writer.writerow(EVENTS_HEADER)
        for ev in events:
            writer.writerow(
                (
                    ev.minute,
                    ev.entity,
                    ev.event,
                    json.dumps(ev.detail, sort_keys=True, separators=(",", ":")),
                )
            )
    finally:
        if own:
            fh.close()


def events_from_csv(source: Union[Path, io.TextIOBase]) -> List[Event]:
    own = isinstance(source, (str, Path))
    fh = open(source, newline="") if own else source
    try:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != EVENTS_HEADER:
            raise ConfigError(f"unexpected event log header: {header}")
        events = []
        for line, row in enumerate(reader, start=2):
            try:
                events.append(Event(int(row[0]), row[1], row[2], json.loads(row[3])))
            except (ValueError, IndexError, json.JSONDecodeError) as exc:
                raise ConfigError(f"malformed event at line {line}: {exc}") from exc
        return events
    finally:
        if own:
            fh.close()
