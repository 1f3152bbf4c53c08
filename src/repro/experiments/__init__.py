"""Experiment harness regenerating every table and figure of the paper."""

from repro.experiments.runner import (
    ASTAR_VERSION_ALGORITHMS,
    Measurement,
    PAPER_ALGORITHMS,
    measure,
    measure_suite,
    pivot,
)
from repro.experiments.spec import (
    ExperimentResult,
    ExperimentSpec,
    all_experiments,
    get_experiment,
)

__all__ = [
    "Measurement",
    "PAPER_ALGORITHMS",
    "ASTAR_VERSION_ALGORITHMS",
    "measure",
    "measure_suite",
    "pivot",
    "ExperimentResult",
    "ExperimentSpec",
    "all_experiments",
    "get_experiment",
]
