"""Statistical analysis of competition results on a single held-out test set.

Bootstrap confidence intervals per system, paired-bootstrap significance of
differences against the winner, multiple-comparison corrections, and
competition-difficulty metrics, with deterministic resampling throughout.
"""

__version__ = "0.3.0"

from .bootstrap import (
    CI,
    SamplingDistribution,
    distributions,
    percentile_ci,
)
from .corrections import PValueFamily, adjust, adjust_all, build_families
from .dataio import RunConfig, load_table, parse_metric
from .errors import (
    BoardstatsError,
    ConfigError,
    DataFormatError,
    MetricError,
    TableValidationError,
)
from .inference import (
    DifferenceMatrix,
    PairedDelta,
    difference_ci,
    p_value,
    significance_stars,
)
from .metrics import score
from .pipeline import PipelineResult, run_pipeline
from .plots import (
    SvgFigure,
    render_delta_histogram,
    render_difference_plot,
    render_forest_plot,
)
from .report import CompetitionReport, build_report, cv, ppi, tie_counts, win_med_gap
from .synth import (
    CalibrationSummary,
    LabelNoise,
    SynthConfig,
    ValueNoise,
    calibrate,
    expected_score,
    generate,
)
from .table import (
    BootstrapPlan,
    PredictionTable,
    ScoreSpec,
    TaskKind,
    Violation,
    validate,
)

__all__ = [
    "BoardstatsError",
    "BootstrapPlan",
    "CI",
    "CalibrationSummary",
    "CompetitionReport",
    "ConfigError",
    "DataFormatError",
    "DifferenceMatrix",
    "LabelNoise",
    "MetricError",
    "PValueFamily",
    "PairedDelta",
    "PipelineResult",
    "PredictionTable",
    "RunConfig",
    "SamplingDistribution",
    "ScoreSpec",
    "SvgFigure",
    "SynthConfig",
    "TableValidationError",
    "TaskKind",
    "ValueNoise",
    "Violation",
    "adjust",
    "adjust_all",
    "build_families",
    "build_report",
    "calibrate",
    "cv",
    "difference_ci",
    "distributions",
    "expected_score",
    "generate",
    "load_table",
    "p_value",
    "parse_metric",
    "percentile_ci",
    "ppi",
    "render_delta_histogram",
    "render_difference_plot",
    "render_forest_plot",
    "run_pipeline",
    "score",
    "significance_stars",
    "tie_counts",
    "validate",
    "win_med_gap",
]
