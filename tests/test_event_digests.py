"""Pinned event-log digests of two seeded shifts on the default scenario.

A speed-up or refactor must leave every artifact byte-identical.  These two
shifts run the nearest-idle policy, so no BLAS call is involved and the
digests hold across machines.  The strategic shift records the projected
supply-demand gap of every assignment (the sd_gap audit), so it exercises
courier projection and the gap field; the myopic one the current-minute
gap.  A digest changes only with a deliberate change of behaviour, and then
the new value is pinned here together with that change.
"""

import hashlib
import io

import pytest

from mealtwin.dispatch import NearestIdlePolicy
from mealtwin.forecast import OracleDemand
from mealtwin.scenario import default_scenario
from mealtwin.simcore import MODE_MYOPIC, MODE_STRATEGIC, SimState, events_to_csv

PINNED = {
    MODE_STRATEGIC: "2f01f69d42338d0b962689eb36b2b4f7fd4563c494c3f96d97a0426b667873cc",
    MODE_MYOPIC: "2dbd005b5d04df222f071d39856a55c539d7c22b6b666302370459cd41481e6e",
}


@pytest.mark.parametrize("mode", [MODE_STRATEGIC, MODE_MYOPIC])
def test_nearest_idle_event_log_digest(mode):
    config = default_scenario(seed=3)
    sim = SimState(config, mode=mode, predictor=OracleDemand(config), seed_key=(7,))
    sim.run(NearestIdlePolicy())
    buf = io.StringIO()
    events_to_csv(sim.events, buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == PINNED[mode]
