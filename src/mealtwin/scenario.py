"""Demand scenario: service region, arrival rates, OD draws and prep times.

Order arrivals follow an inhomogeneous Poisson process per restaurant grid
(rate lambda_g(hour)/60 per simulated minute).  Destinations are drawn from a
per-origin OD probability vector, and prep times from the two-stage normal
model (estimated prep, then actual prep = estimate + noise, both clamped at
zero).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError
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
_SYNTH_BASE_DATE = date(2024, 1, 6)  # a Saturday


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
    _od_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ConfigError("fleet_size must be >= 1")
        if self.shift_minutes < 1:
            raise ConfigError("shift_minutes must be >= 1")
        for gid, by_hour in self.hourly_rates.items():
            if gid not in range(len(self.region)):
                raise ConfigError(f"rate table references unknown grid {gid}")
            for hour, rate in by_hour.items():
                if not rate >= 0:  # also rejects NaN
                    raise ConfigError(f"rate {rate} for grid {gid} hour {hour} is not >= 0")
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
            # Pre-split into aligned destination/probability arrays for sampling.
            dests = np.array(sorted(row), dtype=np.int64)
            if len(dests) and (dests[0] < 0 or dests[-1] >= len(self.region)):
                raise ConfigError(f"od row of grid {origin} references a grid outside the region")
            probs = np.array([row[d] for d in sorted(row)], dtype=np.float64)
            self._od_cache[origin] = (dests, probs)
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
        count = int(rng.poisson(lam)) if lam > 0 else 0
        if count == 0:
            continue
        dests, probs = config._od_cache.get(gid, (None, None))
        if dests is None or len(dests) == 0:
            raise ConfigError(f"no od probabilities configured for grid {gid}")
        cum = np.cumsum(probs)
        for _ in range(count):
            household = int(dests[int(np.searchsorted(cum, rng.random(), side="right"))])
            pairs.append((gid, household))
    return pairs


def sample_orders(
    config: ScenarioConfig,
    minute: int,
    rng: np.random.Generator,
    id_start: int = 0,
) -> List[Order]:
    """Sample the orders arriving during one minute of the shift.

    Order ids continue from id_start, so successive calls with the running
    counter yield strictly increasing ids.
    """
    orders = []
    for origin, household in _sample_arrivals(config, minute, rng):
        est, actual = sample_prep(config, rng)
        orders.append(
            Order(
                id=id_start + len(orders),
                placed_at=minute,
                restaurant=origin,
                household=household,
                est_prep=est,
                actual_prep=actual,
            )
        )
    return orders


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
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ConfigError(f"unsupported scenario schema: {doc.get('schema')!r}")
    try:
        layout = doc["layout"]
        rows = layout["grids"]
        grids = [HexCoord(0, 0)] * len(rows)
        flags = [False] * len(rows)
        for gid, q, r, is_rest in rows:
            grids[int(gid)] = HexCoord(int(q), int(r))
            flags[int(gid)] = bool(is_rest)
        region = ServiceRegion(tuple(grids), tuple(flags), layout.get("name", "custom"))
        rates = {
            int(gid): {int(h): float(rate) for h, rate in row.items()}
            for gid, row in doc["hourly_rates"].items()
        }
        od = {
            int(gid): {int(d): float(p) for d, p in row.items()}
            for gid, row in doc["od_probs"].items()
        }
        return ScenarioConfig(
            region=region,
            hourly_rates=rates,
            od_probs=od,
            fleet_size=int(doc["fleet_size"]),
            shift_start_hour=int(doc["shift_start_hour"]),
            shift_minutes=int(doc["shift_minutes"]),
            prep_mean_min=float(doc["prep_mean_min"]),
            prep_var=float(doc["prep_var"]),
            prep_noise_var=float(doc["prep_noise_var"]),
            overdue_limit_min=float(doc["overdue_limit_min"]),
            idle_threshold_min=float(doc["idle_threshold_min"]),
            max_delivery_tasks=int(doc["max_delivery_tasks"]),
            seed=int(doc.get("seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed scenario document: {exc}") from exc


def save_scenario(path: Path, config: ScenarioConfig) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_scenario(path: Path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file {path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def make_rng(*keys: int) -> np.random.Generator:
    """Independent deterministic stream keyed by a tuple of integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(list(keys))))
