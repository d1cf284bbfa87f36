"""Demand scenario: service region, arrival rates, OD draws and prep times.

Order arrivals follow an inhomogeneous Poisson process per restaurant grid
(rate lambda_g(hour)/60 per simulated minute).  Destinations are drawn from a
per-origin OD probability vector, and prep times from the two-stage normal
model (estimated prep, then actual prep = estimate + noise, both clamped at
zero).

A shift's orders are exogenous: they depend on the config and the shift's
seed key alone, whatever the policies do.  So a `ShiftBook` draws them once
per seed key, and every simulation of that shift (every framework variant,
both training modes) reads its orders and its demand forecasts from the
book.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from .errors import ConfigError, ContractError, load_document, number, whole
from .hexgrid import DEFAULT_RESTAURANT_IDS, HexCoord, ServiceRegion, default_region

SCENARIO_SCHEMA = "mealtwin-scenario/1"
TRANSACTIONS_HEADER = ("timestamp", "restaurant_grid", "household_grid")

# Default Saturday dinner shift: 19:00-21:00, about 63 orders per hour overall.
DEFAULT_SHIFT_START_HOUR = 19
DEFAULT_SHIFT_MINUTES = 120
DEFAULT_FLEET_SIZE = 25
DEFAULT_FULL_RATE = 8.4  # orders/hour at a full-weight restaurant grid
DEFAULT_HALF_RATE = 4.2  # orders/hour at the three half-weight grids
HALF_RATE_GRIDS = (8, 14, 18)
DEFAULT_SHIFT_WEEKDAY = 5  # Saturday; shifts in synthetic history land on it
# The highest arrival rate a grid may have, in orders per hour: about 16,700
# orders a minute, far beyond any kitchen and far inside the range of the
# Poisson sampler, which refuses a mean above about 9.2e18.
MAX_HOURLY_RATE = 1e6
_SYNTH_BASE_DATE = date(2024, 1, 6)  # a Saturday
# Shift books a config holds before it clears them; see ScenarioConfig.shift_book.
BOOK_MEMO = 32
# One order's draws in a ShiftBook: 24 bytes.
DRAW = np.dtype(
    [
        ("restaurant", np.int32),
        ("household", np.int32),
        ("est_prep", np.float64),
        ("actual_prep", np.float64),
    ]
)


@dataclass
class Order:
    """A single meal order and its lifecycle bookkeeping."""

    id: int
    placed_at: int  # minute within the shift
    restaurant: int
    household: int
    est_prep: float  # kitchen's estimated prep minutes
    actual_prep: float  # realized prep minutes (hidden from policies)
    status: str = "pending"  # pending | assigned | picked_up | delivered | overdue
    assigned_courier: Optional[int] = None
    courier_arrival: Optional[float] = None  # arrival at the restaurant, minutes
    pickup_distance: Optional[int] = None
    pickup_time: Optional[float] = None
    delivered_at: Optional[float] = None

    @property
    def est_ready(self) -> float:
        return self.placed_at + self.est_prep

    @property
    def ready_time(self) -> float:
        return self.placed_at + self.actual_prep


@dataclass(frozen=True)
class TransactionRecord:
    """One historical order: timestamp at minute precision plus OD grids."""

    when: datetime
    restaurant: int
    household: int


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to instantiate reproducible simulation shifts."""

    region: ServiceRegion
    hourly_rates: Mapping[int, Mapping[int, float]]  # grid -> hour -> orders/hour
    od_probs: Mapping[int, Mapping[int, float]]  # origin grid -> dest grid -> prob
    fleet_size: int = DEFAULT_FLEET_SIZE
    shift_start_hour: int = DEFAULT_SHIFT_START_HOUR
    shift_minutes: int = DEFAULT_SHIFT_MINUTES
    prep_mean_min: float = 10.0
    prep_var: float = 2.0
    prep_noise_var: float = 1.0
    overdue_limit_min: float = 10.0
    idle_threshold_min: float = 5.0
    max_delivery_tasks: int = 2
    seed: int = 0
    # origin -> (destinations, cumulative probabilities), built at load.
    _od_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # seed key -> the shift's book; see shift_book.
    _books: Dict[Tuple[int, ...], "ShiftBook"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ConfigError("fleet_size must be >= 1")
        if self.shift_minutes < 1:
            raise ConfigError("shift_minutes must be >= 1")
        if not 0 <= self.shift_start_hour <= 23:
            raise ConfigError(f"shift start hour {self.shift_start_hour} is not in 0..23")
        if self.hour_at(self.shift_minutes - 1) > 23:
            raise ConfigError(
                f"a {self.shift_minutes}-minute shift from hour {self.shift_start_hour} "
                "runs past midnight"
            )
        if self.max_delivery_tasks < 1:
            raise ConfigError("max_delivery_tasks must be >= 1")
        if self.seed < 0:  # numpy seeds only from integers >= 0
            raise ConfigError(f"seed {self.seed} is not >= 0")
        if not math.isfinite(self.prep_mean_min):  # a negative mean is clamped in sample_prep
            raise ConfigError(f"prep_mean_min {self.prep_mean_min} is not finite")
        for name in ("prep_var", "prep_noise_var", "overdue_limit_min", "idle_threshold_min"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # also rejects NaN
                raise ConfigError(f"{name} {value} is not a finite number >= 0")
        for gid, by_hour in self.hourly_rates.items():
            if gid not in range(len(self.region)):
                raise ConfigError(f"rate table references unknown grid {gid}")
            for hour, rate in by_hour.items():
                if not rate >= 0:  # also rejects NaN
                    raise ConfigError(f"rate {rate} for grid {gid} hour {hour} is not >= 0")
                if rate > MAX_HOURLY_RATE:
                    raise ConfigError(
                        f"rate {rate} for grid {gid} hour {hour} is above {MAX_HOURLY_RATE:g}"
                    )
        for origin, row in self.od_probs.items():
            if origin not in range(len(self.region)):
                raise ConfigError(f"od table references unknown grid {origin}")
            if not all(p >= 0 for p in row.values()):  # also rejects NaN
                raise ConfigError(f"od probabilities for grid {origin} must be >= 0")
            total = sum(row.values())
            if row and abs(total - 1.0) > 1e-9:
                raise ConfigError(
                    f"od probabilities for grid {origin} sum to {total}, expected 1"
                )
            # Pre-split into aligned destination/cumulative-probability arrays
            # for sampling.
            dests = np.array(sorted(row), dtype=np.int64)
            if len(dests) and (dests[0] < 0 or dests[-1] >= len(self.region)):
                raise ConfigError(f"od row of grid {origin} references a grid outside the region")
            probs = np.array([row[d] for d in sorted(row)], dtype=np.float64)
            self._od_cache[origin] = (dests, np.cumsum(probs))
        # Every restaurant grid must be able to sample each minute of the shift.
        hours = range(self.shift_start_hour, self.hour_at(self.shift_minutes - 1) + 1)
        for gid in self.region.restaurant_ids:
            by_hour = self.hourly_rates.get(gid, {})
            missing = [h for h in hours if h not in by_hour]
            if missing:
                raise ConfigError(f"restaurant grid {gid} has no arrival rate for hours {missing}")
            if not self.od_probs.get(gid) and any(by_hour[h] > 0 for h in hours):
                raise ConfigError(f"restaurant grid {gid} has orders but no od probabilities")

    def hour_at(self, minute: int) -> int:
        return self.shift_start_hour + minute // 60

    def rate_for(self, gid: int, hour: int) -> float:
        try:
            return self.hourly_rates[gid][hour]
        except KeyError:
            raise ConfigError(f"no arrival rate configured for grid {gid} hour {hour}")

    def shift_book(self, seed_key: Sequence[int]) -> "ShiftBook":
        """The book of the shift under this seed key, drawn on the key's first
        use.  The config holds at most BOOK_MEMO books and clears them when
        full, so callers that replay a shift should replay it soon: a study
        runs every variant of a shift before the next shift."""
        key = tuple(seed_key)
        book = self._books.get(key)
        if book is None:
            if len(self._books) >= BOOK_MEMO:
                self._books.clear()
            book = self._books[key] = ShiftBook(self, key)
        return book


def sample_prep(config: ScenarioConfig, rng: np.random.Generator) -> Tuple[float, float]:
    """Draw (estimated, actual) prep minutes; both clamped at zero."""
    est = max(float(rng.normal(config.prep_mean_min, math.sqrt(config.prep_var))), 0.0)
    actual = max(est + float(rng.normal(0.0, math.sqrt(config.prep_noise_var))), 0.0)
    return est, actual


def _sample_arrivals(
    config: ScenarioConfig, minute: int, rng: np.random.Generator
) -> List[Tuple[int, int]]:
    """Poisson arrival (origin, destination) pairs for one simulated minute."""
    hour = config.hour_at(minute)
    pairs: List[Tuple[int, int]] = []
    for gid in config.region.restaurant_ids:
        lam = config.rate_for(gid, hour) / 60.0
        if not lam > 0:
            continue
        dests, cum = config._od_cache[gid]
        for _ in range(int(rng.poisson(lam))):
            household = int(dests[int(np.searchsorted(cum, rng.random(), side="right"))])
            pairs.append((gid, household))
    return pairs


def sample_orders(
    config: ScenarioConfig, minute: int, rng: np.random.Generator
) -> List[Tuple[int, int, float, float]]:
    """The draws of the orders arriving during one minute of the shift:
    (restaurant, household, estimated prep, actual prep) per order.  Every
    arrival of the minute is drawn before the first prep time."""
    return [
        (origin, household, *sample_prep(config, rng))
        for origin, household in _sample_arrivals(config, minute, rng)
    ]


class ShiftBook:
    """The orders of one shift, drawn once, and the demand forecasts of
    every predictor asked about it.

    The draws are those of `sample_orders`, called minute by minute on the
    order stream `make_rng(*seed_key, 0)`, held in one read-only `DRAW`
    array: each order's restaurant, household, estimated and actual prep,
    with minute t holding draws[starts[t]:starts[t+1]].  Each simulation of
    the shift makes fresh `Order` objects from them (`orders`).

    A predictor's forecast at minute t may depend only on t and the counts
    of minutes 0..t.  So `demand` asks each predictor once per minute of
    the shift, on a read-only view of counts[:, :t+1], and every simulation
    of the shift with that predictor reads the same forecasts.
    """

    def __init__(self, config: ScenarioConfig, seed_key: Sequence[int]):
        rng = make_rng(*seed_key, 0)
        draws: List[Tuple[int, int, float, float]] = []
        starts = [0]
        for minute in range(config.shift_minutes):
            draws += sample_orders(config, minute, rng)
            starts.append(len(draws))
        self.grids = len(config.region)
        self.starts = tuple(starts)
        self.draws = np.array(draws, dtype=DRAW)
        self.draws.flags.writeable = False
        # id(predictor) -> (predictor, its rounded forecast per minute); the
        # entry holds the predictor, so no other object takes its id.
        self._demand: Dict[int, Tuple[object, np.ndarray]] = {}

    def orders(self, minute: int, first_id: int) -> List[Order]:
        """Fresh orders placed in this minute, with ids from first_id."""
        lo, hi = self.starts[minute], self.starts[minute + 1]
        return [
            Order(first_id + i, minute, *draw)
            for i, draw in enumerate(self.draws[lo:hi].tolist())
        ]

    def counts(self) -> np.ndarray:
        """Orders placed per grid and minute of the shift, shape (grids,
        minutes), as the float64 matrix that predictors read."""
        minutes = np.repeat(np.arange(len(self.starts) - 1), np.diff(self.starts))
        counts = np.zeros((self.grids, len(self.starts) - 1), dtype=np.float64)
        np.add.at(counts, (self.draws["restaurant"], minutes), 1.0)
        return counts

    def demand(self, predictor, minute: int) -> np.ndarray:
        """The predictor's 15-minute demand forecast at this minute, one
        whole number of orders per grid id (int64): clamped at zero and
        rounded half up.  The first call for a predictor forecasts every
        minute of the shift, and the book keeps the table in the narrowest
        integer type that holds it, one byte a grid and minute on the default
        scenario."""
        held = self._demand.get(id(predictor))
        if held is None:
            counts = self.counts()
            counts.flags.writeable = False
            table = np.empty((counts.shape[1], self.grids), dtype=np.int64)
            for t in range(len(table)):
                raw = np.asarray(predictor.predict(t, counts[:, : t + 1]))
                if raw.shape != (self.grids,):
                    raise ContractError(
                        f"predictor returned shape {raw.shape}, expected ({self.grids},)"
                    )
                table[t] = round_half_up(np.maximum(raw, 0.0, dtype=np.float64))
            narrow = np.result_type(*map(np.min_scalar_type, (table.min(), table.max())))
            held = self._demand[id(predictor)] = (predictor, table.astype(narrow))
        return held[1][minute].astype(np.int64)


def round_half_up(x: np.ndarray) -> np.ndarray:
    """Nearest whole number as int64, halves rounded up."""
    return np.floor(x + 0.5).astype(np.int64)


def synth_history(
    config: ScenarioConfig, num_weeks: int, rng: np.random.Generator
) -> List[TransactionRecord]:
    """Generate num_weeks of weekly Saturday shifts from the configured rates."""
    if num_weeks < 0:
        raise ConfigError("num_weeks must be >= 0")
    records: List[TransactionRecord] = []
    for week in range(num_weeks):
        day = _SYNTH_BASE_DATE + timedelta(weeks=week)
        for minute in range(config.shift_minutes):
            hour = config.hour_at(minute)
            stamp = datetime(day.year, day.month, day.day, hour, minute % 60)
            for origin, household in _sample_arrivals(config, minute, rng):
                records.append(TransactionRecord(stamp, origin, household))
    return records


def write_transactions(path: Path, records: Sequence[TransactionRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRANSACTIONS_HEADER)
        for rec in records:
            writer.writerow(
                (rec.when.strftime("%Y-%m-%dT%H:%M"), rec.restaurant, rec.household)
            )


def read_transactions(path: Path) -> List[TransactionRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != TRANSACTIONS_HEADER:
            raise ConfigError(f"unexpected transactions header in {path}: {header}")
        for line, row in enumerate(reader, start=2):
            try:
                when = datetime.strptime(row[0], "%Y-%m-%dT%H:%M")
                records.append(TransactionRecord(when, int(row[1]), int(row[2])))
            except (ValueError, IndexError):
                raise ConfigError(f"malformed transaction at {path}:{line}: {row}")
    return records


def default_scenario(seed: int = 0, fleet_size: int = DEFAULT_FLEET_SIZE) -> ScenarioConfig:
    """The published sample setup: 5x5 region, 9 restaurant grids, 25 couriers."""
    region = default_region()
    rates: Dict[int, Dict[int, float]] = {}
    for gid in DEFAULT_RESTAURANT_IDS:
        rate = DEFAULT_HALF_RATE if gid in HALF_RATE_GRIDS else DEFAULT_FULL_RATE
        rates[gid] = {19: rate, 20: rate}
    n = len(region)
    uniform = {dest: 1.0 / n for dest in range(n)}
    od = {gid: dict(uniform) for gid in DEFAULT_RESTAURANT_IDS}
    return ScenarioConfig(
        region=region, hourly_rates=rates, od_probs=od, fleet_size=fleet_size, seed=seed
    )


def scenario_to_dict(config: ScenarioConfig) -> dict:
    return {
        "schema": SCENARIO_SCHEMA,
        "layout": {
            "name": config.region.layout_name,
            "grids": [
                [gid, coord.q, coord.r, bool(config.region.restaurant_flags[gid])]
                for gid, coord in enumerate(config.region.grids)
            ],
        },
        "hourly_rates": {
            str(gid): {str(h): rate for h, rate in sorted(row.items())}
            for gid, row in sorted(config.hourly_rates.items())
        },
        "od_probs": {
            str(gid): {str(d): p for d, p in sorted(row.items())}
            for gid, row in sorted(config.od_probs.items())
        },
        "fleet_size": config.fleet_size,
        "shift_start_hour": config.shift_start_hour,
        "shift_minutes": config.shift_minutes,
        "prep_mean_min": config.prep_mean_min,
        "prep_var": config.prep_var,
        "prep_noise_var": config.prep_noise_var,
        "overdue_limit_min": config.overdue_limit_min,
        "idle_threshold_min": config.idle_threshold_min,
        "max_delivery_tasks": config.max_delivery_tasks,
        "seed": config.seed,
    }


def scenario_from_dict(doc: dict) -> ScenarioConfig:
    """The scenario of a document `scenario_to_dict` wrote; see load_scenario."""
    layout = doc["layout"]
    rows = sorted(
        (whole(gid, "grid id"), whole(q, "q"), whole(r, "r"), flag)
        for gid, q, r, flag in layout["grids"]
    )
    if [row[0] for row in rows] != list(range(len(rows))):
        raise ConfigError(f"layout grid ids must be 0..{len(rows) - 1}, each once")
    for gid, _, _, flag in rows:
        if not isinstance(flag, bool):
            raise ConfigError(f"restaurant flag {flag!r} of grid {gid} is not true or false")
    grids = tuple(HexCoord(q, r) for _, q, r, _ in rows)
    region = ServiceRegion(grids, tuple(row[3] for row in rows), layout.get("name", "custom"))
    rates = {
        int(gid): {int(h): number(rate, "hourly rate") for h, rate in row.items()}
        for gid, row in doc["hourly_rates"].items()
    }
    od = {
        int(gid): {int(d): number(p, "od probability") for d, p in row.items()}
        for gid, row in doc["od_probs"].items()
    }
    return ScenarioConfig(
        region=region,
        hourly_rates=rates,
        od_probs=od,
        fleet_size=whole(doc["fleet_size"], "fleet_size"),
        shift_start_hour=whole(doc["shift_start_hour"], "shift_start_hour"),
        shift_minutes=whole(doc["shift_minutes"], "shift_minutes"),
        prep_mean_min=number(doc["prep_mean_min"], "prep_mean_min"),
        prep_var=number(doc["prep_var"], "prep_var"),
        prep_noise_var=number(doc["prep_noise_var"], "prep_noise_var"),
        overdue_limit_min=number(doc["overdue_limit_min"], "overdue_limit_min"),
        idle_threshold_min=number(doc["idle_threshold_min"], "idle_threshold_min"),
        max_delivery_tasks=whole(doc["max_delivery_tasks"], "max_delivery_tasks"),
        seed=whole(doc.get("seed", 0), "seed"),
    )


def save_scenario(path: Path, config: ScenarioConfig) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: Path) -> ScenarioConfig:
    return load_document(path, SCENARIO_SCHEMA, "scenario", scenario_from_dict)


def make_rng(*keys: int) -> np.random.Generator:
    """Independent deterministic stream keyed by a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))


T = TypeVar("T")
_fork_fn: Optional[Callable[[int], object]] = None


def _set_fork_fn(fn: Callable[[int], object]) -> None:
    global _fork_fn
    _fork_fn = fn


def _call_fork_fn(i: int):
    return _fork_fn(i)


def fork_map(fn: Callable[[int], T], n: int) -> List[T]:
    """[fn(0), ..., fn(n-1)], on a fork process pool of min(n, usable CPUs)
    workers, or in this process when one CPU is usable or the platform cannot
    fork.  A forked worker inherits `fn`, and the modules and data it reads,
    so only indices and results are pickled; `fn` must not depend on the
    process it runs in for its result to be the same for any worker count."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(n, cpus)
    if workers >= 2:
        # Imported here: the pool's modules cost RSS that runs without a pool
        # (every training run) should not carry.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            context = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(
                workers, mp_context=context, initializer=_set_fork_fn, initargs=(fn,)
            ) as pool:
                return list(pool.map(_call_fork_fn, range(n)))
    return [fn(i) for i in range(n)]
