import dataclasses
import json
import math
import operator
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimpower import reporting, significance
from discrimpower.errors import ConfigurationError, ValidationError
from discrimpower.metrics import ConfusionCounts, confusion, kendall_tau, sensitivity
from discrimpower.reporting import (
    PAIR_COLUMNS,
    Comparison,
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    SWEEP_METRICS,
    compare_qrels,
    pair_rows,
    pairs_to_csv,
    report_row,
    report_to_csv,
    report_to_json,
    run_sweep,
    summarize_rows,
    sweep_summary_to_csv,
    sweep_to_csv,
)
from discrimpower.significance import SigTestConfig, SignificanceSet, _tukey_many
from discrimpower.trec import CANDIDATE, Qrels

FAST_SIG = SigTestConfig(permutations=1500, master_seed=0)


@pytest.fixture(scope="module")
def identity_cmp(mini):
    runs, qrels = mini
    cand = dataclasses.replace(qrels, role=CANDIDATE)
    return compare_qrels(runs, qrels, cand, sig_cfg=FAST_SIG)


def test_identity_comparison_is_perfect(identity_cmp):
    r = identity_cmp.report
    assert r.counts.significant_gt > 0
    assert r.counts.nonsignificant_gt > 0  # both classes present
    assert r.counts.fp == 0 and r.counts.fn == 0
    assert r.kappa == 1.0
    assert r.tau == 1.0
    assert r.delta_sens == 0.0
    assert (r.p1, r.r1, r.p2, r.r2) == (1.0, 1.0, 1.0, 1.0)
    assert r.bac == 1.0
    assert r.mcc == 1.0
    assert r.flags == ()


def test_pair_rows_consistent_with_confusion(identity_cmp):
    rows = pair_rows(identity_cmp)
    counts = identity_cmp.report.counts
    assert len(rows) == counts.total
    by_class = {}
    for row in rows:
        by_class[row["error_class"]] = by_class.get(row["error_class"], 0) + 1
    assert by_class.get("TP", 0) == counts.tp
    assert by_class.get("TN", 0) == counts.tn
    assert by_class.get("FP", 0) == counts.fp
    assert by_class.get("FN", 0) == counts.fn
    gt_ss = identity_cmp.gt_ss
    for row, pair, p, sig in zip(rows, gt_ss.pairs, gt_ss.p, gt_ss.significant):
        assert (row["system_a"], row["system_b"]) == pair
        assert row["p_gt"] == p
        assert row["sig_gt"] == sig
        assert row["mean_gt_a"] == identity_cmp.means_gt[row["system_a"]]


def test_error_class_labels(identity_cmp):
    for row in pair_rows(identity_cmp):
        expected = {
            (True, True): "TP", (True, False): "FN",
            (False, True): "FP", (False, False): "TN",
        }[(row["sig_gt"], row["sig_cand"])]
        assert row["error_class"] == expected


def test_topic_mismatch_rejected(mini):
    runs, qrels = mini
    some_topic = next(iter(qrels.judgments))[0]
    trimmed = Qrels(judgments={
        k: g for k, g in qrels.judgments.items() if k[0] != some_topic
    }, role=CANDIDATE)
    with pytest.raises(ValidationError, match=some_topic):
        compare_qrels(runs, qrels, trimmed, sig_cfg=FAST_SIG)


def test_sweep_full_fraction_is_perfect(mini):
    runs, qrels = mini
    sr = run_sweep(runs, qrels, fractions=[1.0], repetitions=3,
                   sig_cfg=FAST_SIG)
    assert len(sr.rows) == 3
    first = {k: v for k, v in sr.rows[0].items() if k != "repetition"}
    for row in sr.rows[1:]:
        assert {k: v for k, v in row.items() if k != "repetition"} == first
    assert first["fp"] == 0 and first["fn"] == 0
    for metric in ("kappa", "tau", "p1", "r1", "p2", "r2", "bac", "mcc"):
        assert first[metric] == 1.0
        mean, var, n = sr.summary[1.0][metric]
        assert (mean, var, n) == (1.0, 0.0, 3)
    assert sr.summary[1.0]["delta_sens"] == (0.0, 0.0, 3)


def test_sweep_zero_fraction(mini):
    runs, qrels = mini
    sr = run_sweep(runs, qrels, fractions=[0.0], repetitions=2,
                   sig_cfg=FAST_SIG)
    for row in sr.rows:
        # no relevant docs left: every score 0, nothing significant
        assert row["tp"] == 0 and row["fp"] == 0
        assert row["p1"] is None  # no predicted positives at all
        assert row["r1"] == 0.0
        assert row["r2"] == 1.0
        assert row["tau"] is None  # candidate side fully tied
        assert row["kappa"] == 0.0  # constant labeller earns no credit
        assert "p1_undefined" in row["flags"]
    mean, var, n = sr.summary[0.0]["p1"]
    assert (mean, var, n) == (None, None, 0)


def test_summary_matches_manual_recomputation(mini):
    runs, qrels = mini
    sr = run_sweep(runs, qrels, fractions=[0.4, 0.8], repetitions=3,
                   sig_cfg=FAST_SIG)
    assert sr.summary == summarize_rows(sr.rows, [0.4, 0.8])
    for fraction in (0.4, 0.8):
        cells = [r for r in sr.rows if r["fraction"] == fraction]
        assert len(cells) == 3
        for metric in SWEEP_METRICS:
            values = [r[metric] for r in cells if r[metric] is not None]
            mean, var, n = sr.summary[fraction][metric]
            assert n == len(values)
            if values:
                m = sum(values) / len(values)
                assert mean == pytest.approx(m, abs=1e-12)
                assert var == pytest.approx(
                    sum((v - m) ** 2 for v in values) / len(values), abs=1e-12
                )


def test_sweep_worker_invariance(mini):
    runs, qrels = mini
    # More than one 1024-iteration block, so two workers really split the test.
    quick = SigTestConfig(permutations=1500, master_seed=1)
    kw = dict(fractions=[0.5], repetitions=3, master_seed=9, sig_cfg=quick)
    one = run_sweep(runs, qrels, n_workers=1, **kw)
    two = run_sweep(runs, qrels, n_workers=2, **kw)
    assert sweep_to_csv(one) == sweep_to_csv(two)
    assert sweep_to_csv(one, "full") == sweep_to_csv(two, "full")
    assert sweep_summary_to_csv(one) == sweep_summary_to_csv(two)


def test_sweep_hands_its_worker_count_to_every_test(mini, monkeypatch):
    runs, qrels = mini
    seen = []

    def recording(matrices, cfg):
        seen.append((len(matrices), cfg.n_workers))
        return _tukey_many(matrices, cfg)

    monkeypatch.setattr(reporting, "_tukey_many", recording)
    run_sweep(runs, qrels, fractions=[0.5, 1.0], repetitions=2,
              sig_cfg=SigTestConfig(permutations=50, n_workers=3), n_workers=2)
    assert seen == [(5, 2)]  # one test of the ground truth and four cells


def test_sweep_keeps_the_configured_worker_count(mini, monkeypatch):
    runs, qrels = mini
    seen = []

    def recording(gt_matrix, scored, sig_cfg):
        seen.append(sig_cfg.n_workers)
        return real(gt_matrix, scored, sig_cfg)

    real = reporting._tested
    monkeypatch.setattr(reporting, "_tested", recording)
    run_sweep(runs, qrels, fractions=[0.5], repetitions=1,
              sig_cfg=SigTestConfig(permutations=50, n_workers=2))
    assert seen == [2]


def test_compare_draws_each_block_stream_once(mini, monkeypatch):
    runs, qrels = mini
    draws = []
    block_stream = significance._block_stream

    def counting(master_seed, block, topic):
        draws.append((block, topic))
        return block_stream(master_seed, block, topic)

    monkeypatch.setattr(significance, "_block_stream", counting)
    cand = dataclasses.replace(qrels, role=CANDIDATE)
    cmp = compare_qrels(runs, qrels, cand, sig_cfg=SigTestConfig(permutations=2000))
    n = len(cmp.gt_matrix.topic_ids)
    # Two 1024-iteration blocks, one draw per (block, topic) for both matrices.
    assert sorted(draws) == [(block, t) for block in (0, 1) for t in range(n)]


def test_sweep_validation(mini):
    runs, qrels = mini
    with pytest.raises(ConfigurationError):
        run_sweep(runs, qrels, fractions=[])
    with pytest.raises(ConfigurationError):
        run_sweep(runs, qrels, fractions=[0.5], n_workers=0)


def test_cell_formats(identity_cmp):
    row = report_row(identity_cmp.report, "d", "q")
    row.update(p1=None, kappa=0.123456, tau=1 / 3, fp=7)

    def cells(text):
        return dict(zip(REPORT_COLUMNS, text.splitlines()[1].split(",")))

    short, full = cells(report_to_csv([row])), cells(report_to_csv([row], "full"))
    assert short["p1"] == full["p1"] == "undefined"
    assert short["fp"] == full["fp"] == "7"
    assert short["kappa"] == "0.1235"
    assert full["kappa"] == "0.123456"
    assert float(full["tau"]) == 1 / 3
    pair = dict(pair_rows(identity_cmp)[0], sig_gt=True, sig_cand=False)
    pair_cells = dict(zip(PAIR_COLUMNS, pairs_to_csv([pair]).splitlines()[1].split(",")))
    assert (pair_cells["sig_gt"], pair_cells["sig_cand"]) == ("true", "false")


@pytest.mark.parametrize("writer", ["report", "pairs", "sweep"])
def test_row_column_without_a_declared_format_raises(identity_cmp, writer):
    report = report_row(identity_cmp.report, "d", "q")
    sweep_row = {"fraction": 0.5, "repetition": 0, **{c: report[c] for c in SWEEP_COLUMNS[2:]}}
    write, row = {
        "report": (report_to_csv, report),
        "pairs": (pairs_to_csv, pair_rows(identity_cmp)[0]),
        "sweep": (lambda rows: sweep_to_csv(reporting.SweepResult([0.5], 1, rows, {})),
                  sweep_row),
    }[writer]
    assert len(write([row]).splitlines()) == 2
    with pytest.raises(ValidationError, match=r"differ in \['se_gt'\]"):
        write([dict(row, se_gt=0.01)])
    first = next(iter(row))
    del row[first]
    with pytest.raises(ValidationError, match=rf"differ in \['{first}'\]"):
        write([row])


def test_report_row_covers_all_columns(identity_cmp):
    row = report_row(identity_cmp.report, "mini", "cand")
    assert set(row) == set(REPORT_COLUMNS)
    assert row["dataset"] == "mini"
    assert row["qrels"] == "cand"


def test_report_csv_shape(identity_cmp):
    row = report_row(identity_cmp.report, "mini", "cand")
    text = report_to_csv([row])
    lines = text.splitlines()
    assert lines[0] == ",".join(REPORT_COLUMNS)
    assert len(lines) == 2
    assert len(lines[1].split(",")) == len(REPORT_COLUMNS)
    # four-decimal default
    cells = dict(zip(REPORT_COLUMNS, lines[1].split(",")))
    assert cells["kappa"] == "1.0000"
    assert cells["fp"] == "0"


def test_report_csv_undefined_cells(identity_cmp):
    row = report_row(identity_cmp.report, "d", "q")
    row["p1"] = None
    text = report_to_csv([row])
    cells = dict(zip(REPORT_COLUMNS, text.splitlines()[1].split(",")))
    assert cells["p1"] == "undefined"


def test_report_json_nulls_and_full_precision(identity_cmp):
    row = report_row(identity_cmp.report, "d", "q")
    row["p1"] = None
    row["kappa"] = 1 / 3
    parsed = json.loads(report_to_json([row]))
    assert parsed[0]["p1"] is None
    assert parsed[0]["kappa"] == 1 / 3  # JSON round-trips the exact double


def test_a_significance_set_takes_its_p_values_as_a_list():
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    gt = SignificanceSet(0.05, pairs, [0.01, 0.5, 0.05], alpha_inclusive=True)
    cand = SignificanceSet(0.05, pairs, (0.2, 0.01, 0.05))
    assert gt.p_values == {("a", "b"): 0.01, ("a", "c"): 0.5, ("b", "c"): 0.05}
    assert gt.significant.tolist() == [True, False, True]
    assert cand.significant.tolist() == [False, True, False]
    means = {"a": 0.3, "b": 0.2, "c": 0.1}
    rows = pair_rows(Comparison(None, None, means, means, gt, cand, None))
    assert [(row["p_gt"], row["p_cand"], row["error_class"]) for row in rows] == [
        (0.01, 0.2, "FN"), (0.5, 0.01, "FP"), (0.05, 0.05, "FN")]


def test_pairs_csv_keeps_exact_p_values(identity_cmp):
    rows = pair_rows(identity_cmp)
    text = pairs_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == ",".join(PAIR_COLUMNS)
    for line, row in zip(lines[1:], rows):
        cells = dict(zip(PAIR_COLUMNS, line.split(",")))
        assert float(cells["p_gt"]) == row["p_gt"]  # repr survives default mode
        assert float(cells["p_cand"]) == row["p_cand"]
        assert cells["sig_gt"] in ("true", "false")
        assert cells["error_class"] in ("TP", "TN", "FP", "FN")
        assert cells["mean_gt_a"] == f"{row['mean_gt_a']:.6f}"


def test_sweep_csv_layout(mini):
    runs, qrels = mini
    sr = run_sweep(runs, qrels, fractions=[0.1], repetitions=2,
                   sig_cfg=SigTestConfig(permutations=300, master_seed=2))
    lines = sweep_to_csv(sr).splitlines()
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    assert len(lines) == 3
    assert lines[1].startswith("0.1,0,")
    assert lines[2].startswith("0.1,1,")
    summary_lines = sweep_summary_to_csv(sr).splitlines()
    assert summary_lines[0].startswith("fraction,kappa_mean,kappa_var,kappa_n,")
    assert len(summary_lines) == 2


# The dict-based forms that the array form of SignificanceSet replaced, kept
# as references: per-pair dicts keyed by sorted tag pairs, looked up pair by pair.

def dict_significance(tags, counts, total, add, alpha, alpha_inclusive):
    p_values = {}
    for (i, j), count in zip(zip(*np.triu_indices(len(tags), 1)), counts):
        a, b = tags[i], tags[j]
        p_values[(a, b) if a <= b else (b, a)] = (int(count) + add) / (total + add)
    below = operator.le if alpha_inclusive else operator.lt
    return p_values, {pair: below(p, alpha) for pair, p in p_values.items()}


def dict_error_class(sig_gt, sig_cand):
    if sig_gt:
        return "TP" if sig_cand else "FN"
    return "FP" if sig_cand else "TN"


def dict_confusion(sig_gt, sig_cand):
    outcomes = Counter(dict_error_class(sig, sig_cand[pair]) for pair, sig in sig_gt.items())
    return ConfusionCounts(tp=outcomes["TP"], tn=outcomes["TN"], fp=outcomes["FP"],
                           fn=outcomes["FN"])


def dict_pair_rows(gt, cand, means_gt, means_cand):
    (p_gt, sig_gt), (p_cand, sig_cand) = gt, cand
    return [{
        "system_a": a, "system_b": b,
        "mean_gt_a": means_gt[a], "mean_gt_b": means_gt[b],
        "mean_cand_a": means_cand[a], "mean_cand_b": means_cand[b],
        "p_gt": p_gt[(a, b)], "p_cand": p_cand[(a, b)],
        "sig_gt": sig_gt[(a, b)], "sig_cand": sig_cand[(a, b)],
        "error_class": dict_error_class(sig_gt[(a, b)], sig_cand[(a, b)]),
    } for a, b in sorted(p_gt)]


def dict_kendall_tau(means_gt, means_cand):
    tags = sorted(means_gt)
    m = len(tags)
    xs = [means_gt[t] for t in tags]
    ys = [means_cand[t] for t in tags]
    concordant = discordant = ties_x = ties_y = 0
    for i in range(m):
        for j in range(i + 1, m):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            ties_x += dx == 0
            ties_y += dy == 0
            concordant += dx * dy > 0
            discordant += dx * dy < 0
    n0 = m * (m - 1) // 2
    denom_sq = (n0 - ties_x) * (n0 - ties_y)
    if denom_sq == 0:
        return None
    root = math.isqrt(denom_sq)
    denom = root if root * root == denom_sq else math.sqrt(denom_sq)
    return (concordant - discordant) / denom


_MEANS = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_array_form_matches_the_dict_reference(data):
    m = data.draw(st.integers(2, 9))
    tags = data.draw(st.permutations(data.draw(st.lists(st.text(max_size=2), min_size=m,
                                                        max_size=m, unique=True))))
    total = data.draw(st.integers(1, 40))
    add = data.draw(st.integers(0, 1))
    counts = [np.array(data.draw(st.lists(st.integers(0, total), min_size=m * (m - 1) // 2,
                                          max_size=m * (m - 1) // 2))) for _ in "gc"]
    # Half the time alpha is a reachable p-value, on the boundary of both rules.
    on_p = (data.draw(st.integers(0, total)) + add) / (total + add)
    alpha = on_p if 0.0 < on_p < 1.0 and data.draw(st.booleans()) else data.draw(
        st.floats(0.001, 0.999))
    cfg = SigTestConfig(alpha=alpha, alpha_inclusive=data.draw(st.booleans()))
    gt, cand = (significance._significance_set(tags, c, total, add, cfg) for c in counts)
    ref_gt, ref_cand = (dict_significance(tags, c, total, add, alpha, cfg.alpha_inclusive)
                        for c in counts)

    means_gt = dict(zip(tags, data.draw(st.lists(_MEANS, min_size=m, max_size=m))))
    ranking = data.draw(st.sampled_from(["drawn", "same", "reversed"]))
    if ranking == "drawn":
        means_cand = dict(zip(tags, data.draw(st.lists(_MEANS, min_size=m, max_size=m))))
    elif ranking == "same":
        means_cand = dict(means_gt)
    else:
        means_cand = dict(zip(sorted(tags, key=means_gt.get),
                              sorted(means_gt.values(), reverse=True)))

    assert gt.pairs == sorted(ref_gt[0])
    assert gt.p_values == ref_gt[0]
    assert confusion(gt, cand) == dict_confusion(ref_gt[1], ref_cand[1])
    sens = sensitivity(gt)
    assert type(sens) is float and sens == sum(ref_gt[1].values()) / len(ref_gt[1])
    rows = pair_rows(Comparison(None, None, means_gt, means_cand, gt, cand, None))
    ref_rows = dict_pair_rows(ref_gt, ref_cand, means_gt, means_cand)
    assert [list(row.items()) for row in rows] == [list(row.items()) for row in ref_rows]
    assert ([[type(v) for v in row.values()] for row in rows]
            == [[type(v) for v in row.values()] for row in ref_rows])
    assert repr(kendall_tau(means_gt, means_cand)) == repr(dict_kendall_tau(means_gt, means_cand))
    # A NaN mean ties with every other, as the comparisons make it.
    with_nan = {**means_gt, tags[0]: math.nan}
    assert repr(kendall_tau(with_nan, means_cand)) == repr(dict_kendall_tau(with_nan, means_cand))
