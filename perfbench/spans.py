"""Outside-in layer tracing: wrap the program's public functions in spans.

A span wraps one function or method of the program and accumulates its call
count and self time (its wall time minus the time of the spans it called).
Spans are aggregated per name in memory rather than kept one by one: a
training unit makes about a million calls into hex distance and courier
projection, far too many to store.

Names are patched where they are looked up.  A method is replaced on its
class; a module-level function is replaced in every loaded ``mealtwin``
module that binds it, so ``from .rlcore import learn`` in ``trainer`` is
traced as well as ``rlcore.learn``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import ExitStack, contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

# (span name, "module:qualified name" targets, workloads whose end-to-end
# metrics the span is predicted to move).  The traced run requires at least
# one call of each span on each workload named here.
SPANS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("hexgrid.distance", ("hexgrid:ServiceRegion.distance",), ("city", "train")),
    ("simcore.courier_eta_idle", ("simcore:SimState.courier_eta_idle",), ("city", "train")),
    ("simcore.projected_arrival", ("simcore:SimState.projected_arrival",), ("city", "train")),
    ("simcore.gap_field", ("simcore:SimState.gap_field",), ("city", "train")),
    ("simcore.step", ("simcore:SimState.step",), ("train", "eval", "city")),
    ("scenario.sample_orders", ("scenario:sample_orders",), ("train", "eval", "city")),
    ("simcore.refresh_predictions", ("simcore:SimState.refresh_predictions",), ("train", "eval", "city")),
    ("dispatch.encode_dispatch_state", ("dispatch:encode_dispatch_state",), ("city", "eval")),
    ("dispatch.apply_dispatch_decision", ("dispatch:apply_dispatch_decision",), ("city", "eval")),
    ("steering.encode_steer_state", ("steering:encode_steer_state",), ("city", "eval")),
    ("steering.apply_steer_decision", ("steering:apply_steer_decision",), ("city", "eval")),
    ("rlcore.QNet.forward", ("rlcore:QNet.forward",), ("eval",)),
    ("rlcore.ReplayBuffer.sample", ("rlcore:ReplayBuffer.sample",), ("train",)),
    ("rlcore.learn", ("rlcore:learn",), ("train",)),
    ("forecast.predict", ("forecast:GbtDemand.predict", "forecast:OracleDemand.predict"), ("eval",)),
    ("forecast.train_demand_models", ("forecast:train_demand_models",), ("eval",)),
    ("scenario.synth_history", ("scenario:synth_history",), ("eval",)),
    ("rlcore.load_qnet", ("rlcore:load_qnet",), ("eval", "city")),
    ("evaluate.compute_metrics", ("evaluate:compute_metrics",), ("eval",)),
    ("evaluate.compare_frameworks", ("evaluate:compare_frameworks",), ("eval",)),
    ("simcore.events_to_csv", ("simcore:events_to_csv",), ("eval",)),
    ("simcore.events_from_csv", ("simcore:events_from_csv",), ("eval",)),
    ("trainer.sandwich_train", ("trainer:sandwich_train",), ("train",)),
)

PACKAGE = "mealtwin"


@contextmanager
def patched(owner: object, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace owner.attr with make(original) for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def lookup_sites(target: str) -> List[Tuple[object, str]]:
    """Every (owner, attribute) through which the program reaches a target.

    "module:Class.method" resolves to the class.  "module:function" resolves
    to each loaded package module whose globals bind that same function.
    """
    module_name, qualname = target.split(":")
    module = importlib.import_module(f"{PACKAGE}.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return [(getattr(module, cls_name), attr)]
    fn = getattr(module, qualname)
    sites = []
    for name, mod in sorted(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(mod).items():
            if value is fn:
                sites.append((mod, attr))
    return sites


class Tracer:
    """Per-span call counts and self times."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {name: 0 for name, _, _ in SPANS}
        self.self_s: Dict[str, float] = {name: 0.0 for name, _, _ in SPANS}
        # One accumulator of child-span time per open span; the bottom entry
        # collects time of top-level spans and is never read.
        self._child: List[float] = [0.0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        calls, self_s, child = self.calls, self.self_s, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child.pop()
                child[-1] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - inner

        return span

    @contextmanager
    def active(self) -> Iterator["Tracer"]:
        """Install every span for the duration of the block."""
        with ExitStack() as stack:
            for name, targets, _ in SPANS:
                for target in targets:
                    for owner, attr in lookup_sites(target):
                        stack.enter_context(
                            patched(owner, attr, functools.partial(self.wrap, name))
                        )
            yield self

    def missing(self, workload: str) -> List[str]:
        """Spans predicted to move a metric on the workload that never ran."""
        return [
            name for name, _, workloads in SPANS
            if workload in workloads and self.calls[name] == 0
        ]


class Traffic:
    """Counts what the program did, and checks order conservation per shift.

    Installed on untraced and traced runs alike: it adds one Python call per
    decision and per shift, which is small next to a decision's cost.
    """

    def __init__(self) -> None:
        self.shifts = 0
        self.unbalanced_shifts = 0
        self.events = 0
        self.minutes = 0
        self.dispatch_decisions = 0
        self.assignments = 0
        self.steer_decisions = 0
        self.moves = 0

    @contextmanager
    def active(self) -> Iterator["Traffic"]:
        from mealtwin.simcore import SimState

        with ExitStack() as stack:
            stack.enter_context(patched(SimState, "finish", self._finish))
            for owner, attr in lookup_sites("dispatch:apply_dispatch_decision"):
                stack.enter_context(patched(owner, attr, self._dispatch))
            for owner, attr in lookup_sites("steering:apply_steer_decision"):
                stack.enter_context(patched(owner, attr, self._steer))
            yield self

    def _finish(self, original: Callable) -> Callable:
        def finish(sim):
            original(sim)
            self.shifts += 1
            self.events += len(sim.events)
            self.minutes += sim.clock
            if not orders_conserved(sim):
                self.unbalanced_shifts += 1

        return finish

    def _dispatch(self, original: Callable) -> Callable:
        def apply_dispatch_decision(sim, oid, action, *args, **kwargs):
            self.dispatch_decisions += 1
            if action != sim.config.fleet_size:  # the last action postpones
                self.assignments += 1
            return original(sim, oid, action, *args, **kwargs)

        return apply_dispatch_decision

    def _steer(self, original: Callable) -> Callable:
        def apply_steer_decision(sim, cid, action, *args, **kwargs):
            self.steer_decisions += 1
            if action != 0:  # action 0 stays put
                self.moves += 1
            return original(sim, cid, action, *args, **kwargs)

        return apply_steer_decision


IN_FLIGHT = ("pending", "assigned", "picked_up")


def orders_conserved(sim) -> bool:
    """sampled = delivered + overdue + in flight, with the first three taken
    from the shift summary and in-flight counted from the order book."""
    last = sim.events[-1] if sim.events else None
    if last is None or last.event != "shift_summary":
        return False
    summary = last.detail
    in_flight = sum(1 for o in sim.orders.values() if o.status in IN_FLIGHT)
    return (
        summary["sampled"] == len(sim.orders)
        and summary["sampled"] == summary["delivered"] + summary["overdue"] + in_flight
        and summary["active"] == in_flight
    )
