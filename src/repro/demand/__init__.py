"""repro.demand — batch OD workloads over the CSR tier.

The many-to-many workload class from ROADMAP item 4, in three layers
that feed each other:

* :mod:`repro.demand.skim` — dense OD cost matrices from one
  one-to-all SSSP per distinct origin (:func:`skim`), single-epoch
  guaranteed, with optional path-tree retention;
* :mod:`repro.demand.selectlink` — which OD pairs traverse a link and
  the volume they put on it (:func:`select_link` over retained trees,
  or the route cache's inverted edge index via
  ``RouteService.select_link``), both shapes through one
  :func:`link_flows` inversion;
* :mod:`repro.demand.assignment` — iterative MSA / Frank-Wolfe user
  equilibrium (:func:`assign`) that prices BPR congestion through
  :class:`~repro.traffic.feed.TrafficFeed` epochs and iterates to a
  relative-gap criterion.

Everything is auditable against the independent dict-of-dict
:func:`~repro.kernel.loop.reference_sssp` — `atis-repro bench demand`
runs the full harness and refuses to emit a report that is not
bit-exact and converged.
"""

from __future__ import annotations

from repro.demand.assignment import (
    ASSIGNMENT_METHODS,
    AssignmentIteration,
    AssignmentResult,
    BPRParams,
    assign,
)
from repro.demand.selectlink import (
    LinkFlow,
    SelectLinkResult,
    link_flows,
    select_link,
)
from repro.demand.skim import SkimMatrix, skim

__all__ = [
    "ASSIGNMENT_METHODS",
    "AssignmentIteration",
    "AssignmentResult",
    "BPRParams",
    "LinkFlow",
    "SelectLinkResult",
    "SkimMatrix",
    "assign",
    "link_flows",
    "select_link",
    "skim",
]
