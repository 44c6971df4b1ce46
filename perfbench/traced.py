"""The traced run: each workload's pipeline, assembled by hand from the
public functions the CLI calls, in the CLI's order, with a span around
each call; then side measurements that answer fixed questions.

A layer's figures come from the ``pipeline`` span when the workload's
pipeline calls that layer. Otherwise they come from the workload's side
span: compare-tukey's ``generate`` (the ``generate sample`` step that made
its candidate) and evaluate-deep's ``probe`` (a 30% sample scored and
tested at ``PROBE_PERMUTATIONS`` on its own inputs, because ``evaluate``
never calls synth, significance or metrics).
"""

from __future__ import annotations

import dataclasses
import pickle
import time
import tracemalloc
from pathlib import Path

from spans import Tracer, coverage, layer_totals
from workloads import (
    K,
    SAMPLE_FRACTION,
    SWEEP_FRACTIONS,
    SWEEP_REPETITIONS,
    CompareTukey,
    EvaluateDeep,
    SweepResample,
    Workload,
    accuracy_check,
    sweep,
)

from discrimpower.measures import MeasureSpec, mean_scores, score_matrix
from discrimpower.metrics import full_report
from discrimpower.reporting import (
    SWEEP_METRICS,
    Comparison,
    SweepResult,
    pair_rows,
    pairs_to_csv,
    report_row,
    report_to_csv,
    report_to_json,
    summarize_rows,
    sweep_summary_to_csv,
    sweep_to_csv,
)
from discrimpower.significance import SigTestConfig, tukey_hsd_pvalues
from discrimpower.synth import SamplingConfig, percentage_sample
from discrimpower.trec import CANDIDATE, GROUND_TRUTH, load_qrels, load_runs_dir

PROBE_PERMUTATIONS = 200
MB = 1024.0 * 1024.0
SPEC = MeasureSpec(k=K)


def _write(out_dir: Path, files: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text, encoding="utf-8")


def _compare(w: CompareTukey, tr: Tracer, out_dir: Path) -> list[str]:
    with tr.span("generate"):
        truth = tr.call("trec.load_qrels", load_qrels, w.fx.truth, role=GROUND_TRUTH)
        tr.call("synth.percentage_sample", percentage_sample, truth,
                SamplingConfig(fraction=SAMPLE_FRACTION, repetitions=1,
                               master_seed=w.seeds.sample), 0)
    with tr.span("pipeline"):
        runs = tr.call("trec.load_runs_dir", load_runs_dir, w.fx.runs_dir)
        gt = tr.call("trec.load_qrels", load_qrels, w.fx.truth, role=GROUND_TRUTH)
        cand = tr.call("trec.load_qrels", load_qrels, w.fx.cand, role=CANDIDATE)
        gm = tr.call("measures.score_matrix", score_matrix, runs, gt, SPEC)
        cm = tr.call("measures.score_matrix", score_matrix, runs, cand, SPEC)
        gss = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, gm, w.sig_cfg)
        css = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, cm, w.sig_cfg)
        mg = tr.call("measures.mean_scores", mean_scores, gm)
        mc = tr.call("measures.mean_scores", mean_scores, cm)
        report = tr.call("metrics.full_report", full_report, gss, css, gt, cand, mg, mc,
                         kappa_threshold=2)
        with tr.span("reporting.export"):
            row = report_row(report, w.fx.truth.stem, w.fx.cand.stem)
            pairs = pair_rows(Comparison(gm, cm, mg, mc, gss, css, report))
            _write(out_dir, {"report.csv": report_to_csv([row]),
                             "report.json": report_to_json([row]),
                             "pairs.csv": pairs_to_csv(pairs)})
    problems = []
    if row != w.ref_row:
        problems.append("report row differs from compare_qrels")
    if pairs != w.ref_pairs:
        problems.append("pair rows differ from compare_qrels")
    return problems


def _evaluate(w: EvaluateDeep, tr: Tracer, out_dir: Path) -> list[str]:
    with tr.span("pipeline"):
        runs = tr.call("trec.load_runs_dir", load_runs_dir, w.fx.runs_dir)
        qrels = tr.call("trec.load_qrels", load_qrels, w.fx.truth, role=GROUND_TRUTH)
        sm = tr.call("measures.score_matrix", score_matrix, runs, qrels, SPEC)
        with tr.span("reporting.export"):
            text = sm.to_csv()
            _write(out_dir, {"scores.csv": text})
    cfg = SigTestConfig(permutations=PROBE_PERMUTATIONS, master_seed=w.seeds.permutation)
    with tr.span("probe"):
        cand = tr.call("synth.percentage_sample", percentage_sample, qrels,
                       SamplingConfig(fraction=SAMPLE_FRACTION, repetitions=1,
                                      master_seed=w.seeds.sample), 0)
        cm = tr.call("measures.score_matrix", score_matrix, runs, cand, SPEC)
        gss = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, sm, cfg)
        css = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, cm, cfg)
        tr.call("metrics.full_report", full_report, gss, css, qrels, cand,
                mean_scores(sm), mean_scores(cm), kappa_threshold=2)
    return [] if text.encode() == w.expected["scores.csv"] else ["score CSV differs"]


def _sweep(w: SweepResample, tr: Tracer, out_dir: Path) -> list[str]:
    """Mirrors ``run_sweep`` at one worker, cell by cell."""
    with tr.span("pipeline"):
        runs = tr.call("trec.load_runs_dir", load_runs_dir, w.fx.runs_dir)
        gt = tr.call("trec.load_qrels", load_qrels, w.fx.truth, role=GROUND_TRUTH)
        gm = tr.call("measures.score_matrix", score_matrix, runs, gt, SPEC)
        gss = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, gm, w.sig_cfg)
        mg = tr.call("measures.mean_scores", mean_scores, gm)
        rows = []
        for fraction in SWEEP_FRACTIONS:
            sampling = SamplingConfig(fraction=fraction, repetitions=SWEEP_REPETITIONS,
                                      master_seed=w.seeds.permutation)
            for rep in range(SWEEP_REPETITIONS):
                cand = tr.call("synth.percentage_sample", percentage_sample, gt, sampling, rep)
                cm = tr.call("measures.score_matrix", score_matrix, runs, cand, SPEC)
                css = tr.call("significance.tukey_hsd_pvalues", tukey_hsd_pvalues, cm,
                              w.sig_cfg)
                mc = tr.call("measures.mean_scores", mean_scores, cm)
                report = tr.call("metrics.full_report", full_report, gss, css, gt, cand,
                                 mg, mc, kappa_threshold=2)
                full = tr.call("reporting.report_row", report_row, report, "", "")
                row = {"fraction": fraction, "repetition": rep}
                row.update((c, full[c]) for c in SWEEP_METRICS + ("fp", "fn", "tp", "tn", "flags"))
                rows.append(row)
        summary = tr.call("reporting.summarize_rows", summarize_rows, rows, SWEEP_FRACTIONS)
        with tr.span("reporting.export"):
            result = SweepResult(SWEEP_FRACTIONS, SWEEP_REPETITIONS, rows, summary)
            _write(out_dir, {"sweep.csv": sweep_to_csv(result),
                             "sweep_summary.csv": sweep_summary_to_csv(result)})
    return [] if rows == w.ref_rows else ["sweep rows differ from run_sweep"]


PIPELINES = {CompareTukey.name: _compare, EvaluateDeep.name: _evaluate,
             SweepResample.name: _sweep}


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


def side_measurements(w: Workload, checks: list) -> dict[str, float]:
    """Allocation, pool speed-up, p-value accuracy and sweep-pool figures."""
    out = {}
    tracemalloc.start()
    try:
        load_runs_dir(w.fx.runs_dir)
        out["trec.runset_alloc_mb"] = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()

    permutations = w.permutations or PROBE_PERMUTATIONS
    fx = w.compare_collection()
    runs, gt = load_runs_dir(fx.runs_dir), load_qrels(fx.truth)
    gm = score_matrix(runs, gt, SPEC)
    cfg = SigTestConfig(permutations=permutations, master_seed=w.seeds.permutation)
    one, t1 = _timed(tukey_hsd_pvalues, gm, cfg)
    two, t2 = _timed(tukey_hsd_pvalues, gm, dataclasses.replace(cfg, n_workers=2))
    checks.append(("p-values equal at 1 and 2 test workers",
                   [] if one.p_values == two.p_values else ["p-values differ"]))
    out["significance.pool_speedup"] = t1 / t2

    max_err, max_se, problems = accuracy_check(w.seeds.probe, permutations)
    if w.permutations is None:  # the run-level checks covered the workload's own B
        checks.append((f"monte-carlo accuracy at B={permutations}", problems))
    out["significance.max_abs_p_err"] = max_err
    out["significance.max_err_over_se"] = max_se

    r1, w1 = _timed(sweep, runs, gt, w.seeds, n_workers=1)
    r2, w2 = _timed(sweep, runs, gt, w.seeds, n_workers=2)
    checks.append(("sweep rows equal at 1 and 2 workers",
                   [] if r1.rows == r2.rows else ["rows differ"]))
    # What run_sweep pickles for every cell it submits to the pool; the
    # pickled size does not depend on the p-values' budget.
    sampling = SamplingConfig(fraction=SWEEP_FRACTIONS[0], repetitions=SWEEP_REPETITIONS,
                              master_seed=w.seeds.permutation)
    cell_args = (runs, gt, one, mean_scores(gm), SWEEP_FRACTIONS[0], 0, sampling, SPEC,
                 cfg, 2)
    out["reporting.run_sweep.w1_s"] = w1
    out["reporting.run_sweep.w2_s"] = w2
    out["reporting.run_sweep.parallel_efficiency"] = w1 / (2.0 * w2)
    out["reporting.run_sweep.ipc_mb_per_cell"] = len(pickle.dumps(cell_args)) / MB
    return out


def traced_run(w: Workload, out_dir: Path, trace_path: Path, checks: list) -> tuple[dict, float]:
    """Run the traced pipeline; return per-layer figures and the pipeline's wall time."""
    tr = Tracer()
    checks.append(("traced pipeline equals the library pipeline",
                   PIPELINES[w.name](w, tr, out_dir)))
    tr.dump(trace_path)

    roots = {s.name: i for i, s in enumerate(tr.spans) if s.parent is None}
    pipe = roots.pop("pipeline")
    layers: dict[str, tuple[float, int]] = {}
    for side in roots.values():  # generate (compare-tukey) or probe (evaluate-deep)
        layers.update(layer_totals(tr.spans, side))
    layers.update(layer_totals(tr.spans, pipe))

    def seconds(name):
        return layers[name][0]

    sizes = w.fx.sizes
    load_s = seconds("trec.load_runs_dir")
    score_s, score_calls = layers["measures.score_matrix"]
    test_s, test_calls = layers["significance.tukey_hsd_pvalues"]
    # evaluate-deep's tests run in its probe, at the probe's budget.
    test_b = w.permutations or PROBE_PERMUTATIONS
    metrics = {
        "trec.load_runs_dir.s": load_s,
        "trec.load_runs_dir.lines_per_s": sizes["run_lines"] / load_s,
        "trec.load_runs_dir.mb_per_s": sizes["run_bytes"] / MB / load_s,
        "trec.load_qrels.s": seconds("trec.load_qrels"),
        "measures.score_matrix.s": score_s,
        "measures.score_matrix.calls": score_calls,
        "measures.score_matrix.cells_per_s": score_calls * sizes["cells"] / score_s,
        "significance.tukey_hsd_pvalues.s": test_s,
        "significance.tukey_hsd_pvalues.calls": test_calls,
        "significance.null.iter_topics_per_s": test_b * sizes["topics"] * test_calls / test_s,
        "synth.percentage_sample.s": seconds("synth.percentage_sample"),
        "metrics.full_report.s": seconds("metrics.full_report"),
        "reporting.export.s": seconds("reporting.export"),
        "trace.coverage": coverage(tr.spans, pipe),
    }
    return metrics, tr.spans[pipe].duration
