"""Discriminative-power evaluation of candidate relevance judgments.

Given TREC-format runs, trusted ground-truth qrels, and one or more
candidate qrel sets, this package measures how faithfully each candidate
reproduces the ground truth's statistical conclusions about system
differences: significance agreement (Type I / Type II error rates,
balanced accuracy, MCC), label agreement (Cohen's kappa), and ranking
agreement (Kendall's tau).

Importing the package loads none of its modules. Each name below loads
its defining module on first use, so ``import discrimpower.cli`` and
``discrimpower.ParseError`` do not import numpy. The HTTP labelling
module (:mod:`discrimpower.labeller`) is not listed here; the evaluation
pipeline never needs it.
"""

import importlib

__version__ = "0.7.0"

_EXPORTS = {
    "errors": ("ConfigurationError", "DiscrimPowerError", "ParseError", "ValidationError"),
    "measures": ("EXPONENTIAL", "LINEAR", "MeasureSpec", "ScoreMatrix", "mean_scores",
                 "ndcg_at_k", "score_matrix", "sequential_row_means"),
    "metrics": ("ConfusionCounts", "DiscrimReport", "balanced_accuracy", "cohen_kappa",
                "confusion", "delta_sensitivity", "full_report", "kendall_tau", "mcc",
                "nonsig_precision_recall", "sensitivity", "sig_precision_recall"),
    "minicollection": ("build_mini_collection", "write_mini_collection"),
    "reporting": ("Comparison", "SweepResult", "compare_qrels", "pair_rows", "report_row",
                  "report_to_csv", "report_to_json", "run_sweep", "sweep_summary_to_csv",
                  "sweep_to_csv"),
    "significance": ("EXHAUSTIVE", "SAMPLED", "SignificanceSet", "SigTestConfig",
                     "tukey_hsd_pvalues"),
    "svgplot": ("render_scatter", "render_sweep"),
    "synth": ("PopularityConfig", "SamplingConfig", "percentage_sample", "popularity_biased"),
    "trec": ("Qrels", "Ranking", "RunSet", "load_qrels", "load_run", "load_runs",
             "load_runs_dir", "parse_qrels", "parse_run", "save_qrels", "serialize_qrels",
             "serialize_run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
