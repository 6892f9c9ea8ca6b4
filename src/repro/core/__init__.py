"""The paper's characterization suite: experiments, observations, reports."""

from . import figures
from .experiments.common import ExperimentConfig
from .observations import OBSERVATION_SUMMARIES, ObservationCheck, check_all
from .recommendations import RECOMMENDATIONS, Recommendation, validate
from .report import table1, table2
from .results import ExperimentResult, render_table

__all__ = [
    "ExperimentConfig",
    "figures",
    "ExperimentResult",
    "OBSERVATION_SUMMARIES",
    "ObservationCheck",
    "RECOMMENDATIONS",
    "Recommendation",
    "check_all",
    "render_table",
    "table1",
    "table2",
    "validate",
]
