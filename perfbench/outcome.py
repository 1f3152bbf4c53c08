"""What one workload run hands back to ``run.py``."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from audit import AuditReport


@dataclass
class Outcome:
    audit: AuditReport
    #: False when the run itself cannot be trusted (a growing backlog).
    valid: bool = True
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Human-readable report lines, printed before the result.
    lines: List[str] = field(default_factory=list)
    #: The traced run's tracer, whose spans are dumped at the end.
    tracer: Optional[object] = None


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
