import math

import numpy as np
import pytest
import scipy.stats

from discrimpower.errors import ConfigurationError, ValidationError
from discrimpower.metrics import (
    ConfusionCounts,
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
from discrimpower.significance import SignificanceSet
from discrimpower.trec import CANDIDATE, Qrels


def sigset(significant_pairs, all_pairs, alpha=0.05):
    p = np.array([0.01 if pair in significant_pairs else 0.5 for pair in all_pairs])
    return SignificanceSet(alpha=alpha, pairs=list(all_pairs), p=p)


PAIRS = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]


def test_confusion_counts_from_partitions():
    gt = sigset({("a", "b"), ("a", "c"), ("a", "d")}, PAIRS)
    cand = sigset({("a", "b"), ("b", "c")}, PAIRS)
    c = confusion(gt, cand)
    assert (c.tp, c.fn, c.fp, c.tn) == (1, 2, 1, 2)
    assert c.total == len(PAIRS)
    assert c.significant_gt == 3
    assert c.nonsignificant_gt == 3


def test_confusion_universe_mismatch_lists_difference():
    gt = sigset(set(), PAIRS)
    cand = sigset(set(), PAIRS[:-1])
    with pytest.raises(ValidationError, match=r"\('c', 'd'\)"):
        confusion(gt, cand)


def test_table2_rates_round_to_published_values():
    c10 = ConfusionCounts(tp=443, tn=303, fp=36, fn=929)
    p1, r1 = sig_precision_recall(c10)
    p2, r2 = nonsig_precision_recall(c10)
    assert (round(p1, 4), round(r1, 4)) == (0.9248, 0.3229)
    assert (round(p2, 4), round(r2, 4)) == (0.2459, 0.8938)

    c30 = ConfusionCounts(tp=612, tn=259, fp=80, fn=760)
    p1, r1 = sig_precision_recall(c30)
    p2, r2 = nonsig_precision_recall(c30)
    assert (round(p1, 4), round(r1, 4)) == (0.8844, 0.4461)
    assert (round(p2, 4), round(r2, 4)) == (0.2542, 0.7640)


def test_undefined_rates_are_none_not_zero():
    c = ConfusionCounts(tp=0, tn=5, fp=0, fn=0)
    p1, r1 = sig_precision_recall(c)
    assert p1 is None and r1 is None
    p2, r2 = nonsig_precision_recall(c)
    assert p2 == 1.0 and r2 == 1.0
    assert balanced_accuracy(c) is None


def test_bac_identity_on_random_counts():
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = ConfusionCounts(*(int(v) for v in rng.integers(0, 50, size=4)))
        bac = balanced_accuracy(c)
        _, r1 = sig_precision_recall(c)
        _, r2 = nonsig_precision_recall(c)
        if r1 is None or r2 is None:
            assert bac is None
        else:
            assert bac == (r1 + r2) / 2


def test_swap_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(1, 40, size=4))
        c = ConfusionCounts(tp, tn, fp, fn)
        swapped = ConfusionCounts(tp, tn, fn, fp)  # gt and cand exchanged
        p1, r1 = sig_precision_recall(c)
        p2, r2 = nonsig_precision_recall(c)
        sp1, sr1 = sig_precision_recall(swapped)
        sp2, sr2 = nonsig_precision_recall(swapped)
        assert (sp1, sp2) == (r1, r2)
        assert (sr1, sr2) == (p1, p2)
        assert mcc(c) == mcc(swapped)


def test_mcc_class_relabel_invariance_and_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 40, size=4))
        value, flag = mcc(ConfusionCounts(tp, tn, fp, fn))
        relabeled, rflag = mcc(ConfusionCounts(tn, tp, fn, fp))
        assert value == relabeled and flag == rflag
        assert -1.0 <= value <= 1.0


def test_mcc_boundary_values():
    assert mcc(ConfusionCounts(tp=5, tn=7, fp=0, fn=0)) == (1.0, False)
    assert mcc(ConfusionCounts(tp=0, tn=0, fp=3, fn=9)) == (-1.0, False)
    value, degenerate = mcc(ConfusionCounts(tp=4, tn=0, fp=0, fn=0))
    assert value == 0.0 and degenerate is True


def test_mcc_large_counts_no_overflow():
    # Denominator as float32/64 intermediate products would lose bits;
    # integer arithmetic keeps this exact.
    c = ConfusionCounts(tp=10 ** 8, tn=10 ** 8, fp=1, fn=1)
    value, _ = mcc(c)
    assert value == pytest.approx(1.0, abs=1e-7)


def test_sensitivity_and_delta():
    ss = sigset(set(PAIRS[:2]), PAIRS)
    assert sensitivity(ss) == pytest.approx(2 / 6)
    gt = sigset(set(PAIRS[:3]), PAIRS)
    cand = sigset(set(PAIRS[3:4]), PAIRS)
    # |3/6 - 1/6|, reported as a magnitude either way round
    assert delta_sensitivity(gt, cand) == pytest.approx(2 / 6)
    assert delta_sensitivity(cand, gt) == pytest.approx(2 / 6)
    assert delta_sensitivity(gt, gt) == 0.0


def test_sensitivity_published_headline_value():
    pairs = [(f"s{i}", f"s{j}") for i in range(31) for j in range(i + 1, 31)]
    assert len(pairs) == 465
    ss = sigset(set(pairs[:173]), pairs)
    assert round(sensitivity(ss), 4) == 0.3720


def qrels_from(labels, role=CANDIDATE):
    return Qrels(
        judgments={(f"q", f"d{i}"): g for i, g in enumerate(labels)}, role=role
    )


def test_kappa_identical_labels():
    gt = qrels_from([3, 2, 0, 1])
    cand = qrels_from([3, 2, 0, 1])
    assert cohen_kappa(gt, cand) == 1.0


def test_kappa_hand_example():
    # binarized at >= 1: gt [1,1,0,0], cand [1,0,0,0]
    gt = qrels_from([1, 1, 0, 0])
    cand = qrels_from([1, 0, 0, 0])
    assert cohen_kappa(gt, cand, threshold=1) == pytest.approx(0.5)


def test_kappa_degenerate_marginals():
    gt = qrels_from([2, 3, 2])
    cand = qrels_from([3, 2, 2])
    # everything positive on both sides: p_e = 1, perfect observed agreement
    assert cohen_kappa(gt, cand) == 1.0


def test_kappa_empty_intersection():
    a = Qrels(judgments={("q1", "d1"): 1})
    b = Qrels(judgments={("q2", "d9"): 1}, role=CANDIDATE)
    with pytest.raises(ValidationError):
        cohen_kappa(a, b)


def test_kappa_threshold_matters():
    # Graded labels that agree on "any relevance" but not on "high relevance".
    gt = qrels_from([2, 1, 0, 0])
    cand = qrels_from([1, 2, 0, 0])
    assert cohen_kappa(gt, cand, threshold=1) == 1.0
    assert cohen_kappa(gt, cand, threshold=2) == pytest.approx(-1 / 3)


def test_kappa_independent_labels_near_zero():
    rng = np.random.default_rng(6)
    n = 10_000
    gt = qrels_from([int(v) for v in rng.integers(0, 4, size=n)])
    cand = qrels_from([int(v) for v in rng.integers(0, 4, size=n)])
    assert abs(cohen_kappa(gt, cand)) < 0.05


def test_kappa_only_over_shared_pairs():
    gt = Qrels(judgments={("q", "d1"): 3, ("q", "d2"): 0, ("q", "dx"): 3})
    cand = Qrels(
        judgments={("q", "d1"): 3, ("q", "d2"): 0, ("q", "dy"): 0},
        role=CANDIDATE,
    )
    assert cohen_kappa(gt, cand) == 1.0


def test_tau_boundaries_and_hand_example():
    tags = ["a", "b", "c", "d"]
    up = {t: i / 10 for i, t in enumerate(tags)}
    down = {t: (3 - i) / 10 for i, t in enumerate(tags)}
    assert kendall_tau(up, up) == 1.0
    assert kendall_tau(up, down) == -1.0
    swapped = {"a": 0.0, "b": 0.2, "c": 0.1, "d": 0.3}
    assert kendall_tau(up, swapped) == pytest.approx(1 - 2 * 1 / 6)


def test_tau_matches_scipy_with_ties():
    rng = np.random.default_rng(12)
    for _ in range(200):
        m = int(rng.integers(2, 10))
        xs = rng.choice([0.1, 0.2, 0.3, 0.4], size=m)
        ys = rng.choice([0.1, 0.2, 0.3, 0.4], size=m)
        gx = {f"s{i}": float(v) for i, v in enumerate(xs)}
        gy = {f"s{i}": float(v) for i, v in enumerate(ys)}
        mine = kendall_tau(gx, gy)
        ref = scipy.stats.kendalltau(xs, ys).statistic
        if mine is None:
            assert math.isnan(ref)
        else:
            assert mine == pytest.approx(float(ref), abs=1e-12)


def test_tau_symmetry_and_errors():
    x = {"a": 0.1, "b": 0.5, "c": 0.3}
    y = {"a": 0.2, "b": 0.2, "c": 0.9}
    assert kendall_tau(x, y) == kendall_tau(y, x)
    with pytest.raises(ValidationError):
        kendall_tau(x, {"a": 0.1, "z": 0.2, "c": 0.3})
    with pytest.raises(ConfigurationError):
        kendall_tau({"a": 0.1}, {"a": 0.2})
    # one ranking entirely tied: undefined
    assert kendall_tau({"a": 0.5, "b": 0.5}, {"a": 0.1, "b": 0.9}) is None


def test_full_report_identity_and_recomputation():
    gt = sigset({("a", "b"), ("a", "c")}, PAIRS[:3])
    cand = sigset({("a", "b"), ("a", "d")}, PAIRS[:3])
    gt_q = qrels_from([3, 0, 2, 1])
    cand_q = qrels_from([3, 0, 1, 1])
    means_gt = {"a": 0.9, "b": 0.4, "c": 0.5, "d": 0.2}
    means_cand = {"a": 0.8, "b": 0.5, "c": 0.4, "d": 0.1}
    rep = full_report(gt, cand, gt_q, cand_q, means_gt, means_cand)
    c = confusion(gt, cand)
    assert rep.counts == c
    assert (rep.p1, rep.r1) == sig_precision_recall(c)
    assert (rep.p2, rep.r2) == nonsig_precision_recall(c)
    assert rep.bac == balanced_accuracy(c)
    assert rep.mcc == mcc(c)[0]
    assert rep.kappa == cohen_kappa(gt_q, cand_q)
    assert rep.tau == kendall_tau(means_gt, means_cand)
    assert rep.sens_gt == sensitivity(gt)
    assert rep.delta_sens == delta_sensitivity(gt, cand)

    identity = full_report(gt, gt, gt_q, gt_q, means_gt, means_gt)
    assert identity.kappa == 1.0
    assert identity.tau == 1.0
    assert identity.delta_sens == 0.0
    assert (identity.p1, identity.r1, identity.p2, identity.r2) == (1, 1, 1, 1)
    assert identity.bac == 1.0
    assert identity.mcc == 1.0
    assert identity.counts.fp == identity.counts.fn == 0


def test_full_report_flags_degenerate_cases():
    gt = sigset(set(), PAIRS[:2])  # nothing significant anywhere
    gt_q = qrels_from([1, 0])
    rep = full_report(gt, gt, gt_q, gt_q, {"a": 0.5, "b": 0.5, "c": 0.5},
                      {"a": 0.5, "b": 0.5, "c": 0.5})
    assert "p1_undefined" in rep.flags
    assert "r1_undefined" in rep.flags
    assert "bac_undefined" in rep.flags
    assert "mcc_zero_denominator" in rep.flags
    assert "tau_undefined" in rep.flags
    assert rep.mcc == 0.0
    assert rep.tau is None
