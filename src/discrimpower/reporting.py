"""End-to-end comparison pipelines and flat CSV/JSON report rows.

``compare_qrels`` and ``run_sweep`` share one pipeline. ``_scores``
scores the truth and every candidate grade vector on one
``measures._GradeIndex`` of the qrels; then ``_tested`` tests all the
matrices in one batch and builds one agreement report per candidate. The
CLI's ``compare`` drops the runs and qrels in between; its ``sweep`` drops
them once the truth is indexed, before the first cell is sampled, and
passes the index to ``_sweep_scores``. A comparison's candidate is a
second qrels set; a sweep's are the cells of a grid of sampling fractions
and repetitions. The only parallelism is the test's split of its work.

All exports are plain deterministic text so that identical inputs and
seeds give byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterable, Optional

from .errors import ValidationError
from .measures import MeasureSpec, ScoreMatrix, _GradeIndex, mean_scores
from .metrics import DiscrimReport, _error_class, _kappa, _report
from .significance import SignificanceSet, SigTestConfig, _tukey_many
from .trec import Qrels, RunSet, _csv_table, _sweep_summary, _true_false

SWEEP_METRICS = ("kappa", "tau", "delta_sens", "p1", "r1", "p2", "r2", "bac", "mcc")
_COUNTS = (("fp", str), ("fn", str), ("tp", str), ("tn", str))


def _rate(precision: str) -> Callable[[Optional[float]], str]:
    """Cells of a metric: "undefined" for None, else 4 decimals or, at "full", ``repr``."""
    number = repr if precision == "full" else "{:.4f}".format
    return lambda value: "undefined" if value is None else number(value)


def _fraction(value) -> str:
    return repr(float(value))


def _report_columns(precision: str) -> tuple:
    rate = _rate(precision)
    return (
        ("dataset", str), ("qrels", str), *((metric, rate) for metric in SWEEP_METRICS),
        *_COUNTS, ("sens_gt", rate), ("sens_cand", rate),
        ("s_gt", str), ("ns_gt", str), ("total_pairs", str), ("flags", str),
    )


def _pair_columns(precision: str) -> tuple:
    mean = repr if precision == "full" else "{:.6f}".format
    return (
        ("system_a", str), ("system_b", str),
        ("mean_gt_a", mean), ("mean_gt_b", mean), ("mean_cand_a", mean), ("mean_cand_b", mean),
        ("p_gt", repr), ("p_cand", repr),  # exact at every precision
        ("sig_gt", _true_false), ("sig_cand", _true_false), ("error_class", str),
    )


def _sweep_columns(precision: str) -> tuple:
    rate = _rate(precision)
    return (("fraction", _fraction), ("repetition", str),
            *((metric, rate) for metric in SWEEP_METRICS), *_COUNTS, ("flags", str))


REPORT_COLUMNS, PAIR_COLUMNS, SWEEP_COLUMNS = (
    tuple(name for name, _ in columns("4"))
    for columns in (_report_columns, _pair_columns, _sweep_columns)
)


@dataclass
class Comparison:
    """Everything one candidate-vs-ground-truth comparison produced."""

    gt_matrix: ScoreMatrix
    cand_matrix: ScoreMatrix
    means_gt: dict[str, float]
    means_cand: dict[str, float]
    gt_ss: SignificanceSet
    cand_ss: SignificanceSet
    report: DiscrimReport


def compare_qrels(
    runs: RunSet,
    gt_qrels: Qrels,
    cand_qrels: Qrels,
    spec: MeasureSpec = MeasureSpec(),
    sig_cfg: SigTestConfig = SigTestConfig(),
    kappa_threshold: int = 2,
) -> Comparison:
    """Score, test, and compare one candidate qrel set against the truth.

    Both qrel sets must judge the same topics; otherwise the two score
    matrices would not be comparable column for column. They may judge
    different documents there: each scores 0 gain for a document it did
    not judge, and kappa counts the documents both judged.
    """
    (comparison,) = _tested(*_comparison_scores(runs, gt_qrels, cand_qrels, spec,
                                                kappa_threshold), sig_cfg)
    return comparison


def _comparison_scores(runs: RunSet, gt_qrels: Qrels, cand_qrels: Qrels, spec: MeasureSpec,
                       kappa_threshold: int) -> tuple:
    """``_scores`` of a comparison, whose two sets must judge the same topics."""
    gt_topics, cand_topics = set(gt_qrels.topics()), set(cand_qrels.topics())
    if gt_topics != cand_topics:
        raise ValidationError(
            "topic sets differ between qrels: only in ground truth "
            f"{sorted(gt_topics - cand_topics)[:5]}, only in candidate "
            f"{sorted(cand_topics - gt_topics)[:5]}")
    return _scores(_GradeIndex(runs, spec.k, gt_qrels, cand_qrels), lambda index: index.grades[1:],
                   spec, kappa_threshold)


def _scores(index: _GradeIndex, candidates: Callable[[_GradeIndex], Iterable],
            spec: MeasureSpec, kappa_threshold: int) -> tuple[ScoreMatrix, list]:
    """The truth's score matrix, and every candidate's with its kappa against the truth.

    The truth is ``index.grades[0]``; ``candidates(index)`` yields grade
    vectors over its keys, and kappa counts the keys every set judged. Pass
    a new index: it then ends with the call, before the test.
    """
    truth = index.grades[0]
    return index.score(truth, spec.gain), [
        (index.score(grades, spec.gain), _kappa(truth, grades, index.shared, kappa_threshold))
        for grades in candidates(index)]


def _tested(gt_matrix: ScoreMatrix, scored: list, sig_cfg: SigTestConfig) -> list[Comparison]:
    """Test the truth's and every candidate's matrix in one batch; report on each candidate."""
    gt_ss, *cand_sets = _tukey_many([gt_matrix, *(matrix for matrix, _ in scored)], sig_cfg)
    means_gt = mean_scores(gt_matrix)
    return [Comparison(gt_matrix, matrix, means_gt, means := mean_scores(matrix), gt_ss, cand_ss,
                       _report(gt_ss, cand_ss, means_gt, means, kappa))
            for (matrix, kappa), cand_ss in zip(scored, cand_sets)]


def pair_rows(cmp: Comparison) -> list[dict]:
    """One row per system pair: means, p-values, and the error class."""
    gt, cand = cmp.gt_ss, cmp.cand_ss
    return [dict(zip(PAIR_COLUMNS, (a, b, cmp.means_gt[a], cmp.means_gt[b], cmp.means_cand[a],
                                    cmp.means_cand[b], *cells)))
            for (a, b), *cells in zip(gt.pairs, gt.p.tolist(), cand.p.tolist(),
                                      gt.significant.tolist(), cand.significant.tolist(),
                                      _error_class(gt.significant, cand.significant).tolist())]


def report_row(report: DiscrimReport, dataset: str, qrels_name: str) -> dict:
    """Flatten a report into the column layout used by every export."""
    c = report.counts
    return {
        "dataset": dataset,
        "qrels": qrels_name,
        **{metric: getattr(report, metric) for metric in SWEEP_METRICS},
        **{count: getattr(c, count) for count in ("fp", "fn", "tp", "tn")},
        "sens_gt": report.sens_gt,
        "sens_cand": report.sens_cand,
        "s_gt": c.significant_gt,
        "ns_gt": c.nonsignificant_gt,
        "total_pairs": c.total,
        "flags": ";".join(report.flags),
    }


def report_to_csv(rows: list[dict], precision: str = "4") -> str:
    return _csv_table(_report_columns(precision), rows)


def report_to_json(rows: list[dict]) -> str:
    # Full precision; undefined becomes JSON null.
    return json.dumps(rows, indent=2) + "\n"


def pairs_to_csv(rows: list[dict], precision: str = "4") -> str:
    return _csv_table(_pair_columns(precision), rows)


@dataclass
class SweepResult:
    """Per-cell report rows plus per-fraction aggregates of each metric.

    ``summary[fraction][metric]`` is (mean, variance, defined_count);
    undefined cell values are left out of the aggregates, and a metric
    undefined in every repetition aggregates to (None, None, 0).
    """

    fractions: list[float]
    repetitions: int
    rows: list[dict]
    summary: dict[float, dict[str, tuple[Optional[float], Optional[float], int]]]


def summarize_rows(
    rows: list[dict],
    fractions: list[float],
) -> dict[float, dict[str, tuple[Optional[float], Optional[float], int]]]:
    """Aggregate mean/variance (population) per fraction over defined values,
    summed left to right as ``plot --sweep`` sums them."""
    return _sweep_summary([row["fraction"] for row in rows],
                          {metric: [row[metric] for row in rows] for metric in SWEEP_METRICS},
                          fractions)


def run_sweep(
    runs: RunSet,
    gt_qrels: Qrels,
    fractions: list[float],
    repetitions: int = 10,
    master_seed: int = 0,
    spec: MeasureSpec = MeasureSpec(),
    sig_cfg: SigTestConfig = SigTestConfig(),
    kappa_threshold: int = 2,
    relevant_threshold: int = 1,
    stratified: bool = False,
    n_workers: int | None = None,
) -> SweepResult:
    """Compare a percentage sample against the truth for every cell.

    Every cell is sampled and scored first, in (fraction, repetition)
    order; a cell keeps only its score matrix and its kappa. A cell is
    never a ``Qrels``: it is one grade vector over the truth's judgments
    in sorted key order, sampled, scored and compared exactly as
    ``percentage_sample``, ``score_matrix`` and ``cohen_kappa`` would.
    Then one batched significance test covers the ground truth and every
    cell, and the rows are built in the same order. ``n_workers``, when
    given, replaces ``sig_cfg.n_workers`` for that test; it splits its
    iterations across workers on 1024-iteration blocks, so the worker
    count changes only wall time, never results.
    """
    from .synth import _sampling_configs  # compare never loads the sampler

    configs = _sampling_configs(fractions, repetitions, master_seed, relevant_threshold,
                                stratified)
    if n_workers is not None:
        sig_cfg = dataclasses.replace(sig_cfg, n_workers=n_workers)
    scores = _sweep_scores(_GradeIndex(runs, spec.k, gt_qrels), configs, spec, kappa_threshold)
    return _swept(configs, _tested(*scores, sig_cfg))


def _sweep_scores(index: _GradeIndex, configs: list, spec: MeasureSpec,
                  kappa_threshold: int) -> tuple:
    """``_scores`` of every cell of the fractions' ``SamplingConfig`` list, in order.

    ``index`` holds the truth alone. Built by the caller, it lets the
    caller drop the runs and qrels before the first cell is sampled.
    """
    from .synth import _sample_grades

    return _scores(index, lambda index: (
        _sample_grades(index.grades[0], index.bounds, sampling, rep)
        for sampling in configs for rep in range(sampling.repetitions)
    ), spec, kappa_threshold)


def _swept(configs: list, comparisons: list[Comparison]) -> SweepResult:
    rows, comparisons = [], iter(comparisons)
    for sampling in configs:
        for rep in range(sampling.repetitions):
            full = report_row(next(comparisons).report, dataset="", qrels_name="")
            rows.append({"fraction": sampling.fraction, "repetition": rep,
                         **{col: full[col] for col in SWEEP_COLUMNS[2:]}})
    fractions = [sampling.fraction for sampling in configs]
    return SweepResult(fractions=fractions, repetitions=configs[0].repetitions, rows=rows,
                       summary=summarize_rows(rows, fractions))


def sweep_to_csv(sr: SweepResult, precision: str = "4") -> str:
    return _csv_table(_sweep_columns(precision), sr.rows)


def sweep_summary_to_csv(sr: SweepResult, precision: str = "4") -> str:
    rate = _rate(precision)
    columns = [("fraction", _fraction), *chain.from_iterable(
        ((f"{m}_mean", rate), (f"{m}_var", rate), (f"{m}_n", str)) for m in SWEEP_METRICS
    )]
    return _csv_table(columns, (
        [fraction, *chain.from_iterable(sr.summary[fraction][m] for m in SWEEP_METRICS)]
        for fraction in sr.fractions
    ))
