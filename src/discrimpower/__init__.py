"""Discriminative-power evaluation of candidate relevance judgments.

Given TREC-format runs, trusted ground-truth qrels, and one or more
candidate qrel sets, this package measures how faithfully each candidate
reproduces the ground truth's statistical conclusions about system
differences: significance agreement (Type I / Type II error rates,
balanced accuracy, MCC), label agreement (Cohen's kappa), and ranking
agreement (Kendall's tau).

The HTTP labelling module (:mod:`discrimpower.labeller`) is deliberately
not imported here; the evaluation pipeline never needs it.
"""

from .errors import (
    ConfigurationError,
    DiscrimPowerError,
    ParseError,
    ValidationError,
)
from .measures import (
    EXPONENTIAL,
    LINEAR,
    MeasureSpec,
    ScoreMatrix,
    mean_scores,
    ndcg_at_k,
    score_matrix,
    sequential_row_means,
)
from .metrics import (
    ConfusionCounts,
    DiscrimReport,
    balanced_accuracy,
    cohen_kappa,
    confusion,
    delta_sensitivity,
    full_report,
    kendall_tau,
    mcc,
    nonsig_precision_recall,
    sensitivity,
    sig_precision_recall,
)
from .minicollection import build_mini_collection, write_mini_collection
from .reporting import (
    Comparison,
    SweepResult,
    compare_qrels,
    pair_rows,
    report_row,
    report_to_csv,
    report_to_json,
    run_sweep,
    sweep_summary_to_csv,
    sweep_to_csv,
)
from .significance import (
    EXHAUSTIVE,
    SAMPLED,
    SignificanceSet,
    SigTestConfig,
    significance_partition,
    significance_to_csv,
    tukey_hsd_pvalues,
)
from .svgplot import render_scatter, render_sweep
from .synth import (
    PopularityConfig,
    SamplingConfig,
    percentage_sample,
    popularity_biased,
)
from .trec import (
    Qrels,
    Ranking,
    RunSet,
    load_qrels,
    load_run,
    load_runs,
    load_runs_dir,
    merge_runs,
    parse_qrels,
    parse_run,
    save_qrels,
    serialize_qrels,
    serialize_run,
)

__version__ = "0.4.0"

__all__ = [
    "ConfigurationError",
    "DiscrimPowerError",
    "ParseError",
    "ValidationError",
    "EXPONENTIAL",
    "LINEAR",
    "MeasureSpec",
    "ScoreMatrix",
    "mean_scores",
    "ndcg_at_k",
    "score_matrix",
    "sequential_row_means",
    "ConfusionCounts",
    "DiscrimReport",
    "balanced_accuracy",
    "cohen_kappa",
    "confusion",
    "delta_sensitivity",
    "full_report",
    "kendall_tau",
    "mcc",
    "nonsig_precision_recall",
    "sensitivity",
    "sig_precision_recall",
    "build_mini_collection",
    "write_mini_collection",
    "Comparison",
    "SweepResult",
    "compare_qrels",
    "pair_rows",
    "report_row",
    "report_to_csv",
    "report_to_json",
    "run_sweep",
    "sweep_summary_to_csv",
    "sweep_to_csv",
    "EXHAUSTIVE",
    "SAMPLED",
    "SignificanceSet",
    "SigTestConfig",
    "significance_partition",
    "significance_to_csv",
    "tukey_hsd_pvalues",
    "render_scatter",
    "render_sweep",
    "PopularityConfig",
    "SamplingConfig",
    "percentage_sample",
    "popularity_biased",
    "Qrels",
    "Ranking",
    "RunSet",
    "load_qrels",
    "load_run",
    "load_runs",
    "load_runs_dir",
    "merge_runs",
    "parse_qrels",
    "parse_run",
    "save_qrels",
    "serialize_qrels",
    "serialize_run",
    "__version__",
]
