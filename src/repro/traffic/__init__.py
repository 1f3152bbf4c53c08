"""Live traffic updates: batched epochs and profiles (post-paper).

The paper prices every edge once and never looks back; an ATIS in the
field re-prices edges continuously. This package is the ingestion side
of that story:

* :mod:`repro.traffic.feed` — :class:`TrafficFeed` turns batches of
  cost readings into versioned :class:`TrafficEpoch` records (one
  fingerprint bump per batch) and fans them out to the serving layers;
* :mod:`repro.traffic.profiles` — time-of-day, rush-hour and incident
  congestion models layered multiplicatively over the paper's static
  cost models.

:func:`repro.faults.run_chaos` drives a mixed query/update workload
through a feed and audits every served answer.
"""

from repro.traffic.feed import TrafficEpoch, TrafficFeed
from repro.traffic.profiles import (
    MINUTES_PER_DAY,
    CompositeProfile,
    ConstantProfile,
    IncidentProfile,
    ProfiledCostModel,
    RushHourProfile,
    TimeOfDayProfile,
    profile_cost_model,
)
from repro.service.metrics import percentile

__all__ = [
    "MINUTES_PER_DAY",
    "CompositeProfile",
    "ConstantProfile",
    "IncidentProfile",
    "ProfiledCostModel",
    "RushHourProfile",
    "TimeOfDayProfile",
    "TrafficEpoch",
    "TrafficFeed",
    "percentile",
    "profile_cost_model",
]
