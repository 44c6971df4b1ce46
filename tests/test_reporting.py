import dataclasses
import json

import pytest

from discrimpower import reporting, significance
from discrimpower.errors import ConfigurationError, ValidationError
from discrimpower.reporting import (
    PAIR_COLUMNS,
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
from discrimpower.significance import SigTestConfig, _tukey_many
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
    for row in rows:
        key = (row["system_a"], row["system_b"])
        assert row["p_gt"] == identity_cmp.gt_ss.p_values[key]
        assert row["sig_gt"] == identity_cmp.gt_ss.significant[key]
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
