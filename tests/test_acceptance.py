"""Acceptance gate: the externally stated guarantees, one test each.

Every test prints a single PASS line when its guarantee holds, so a
verbose run reads as a checklist. Independent oracles are either defined
here or imported from the unit-test modules that define them.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from test_significance import brute_exhaustive, matrix, paired_randomization_p
from test_synth import brute_popularity

from discrimpower.measures import MeasureSpec, ScoreMatrix, ndcg_at_k
from discrimpower.metrics import (
    ConfusionCounts,
    balanced_accuracy,
    confusion,
    delta_sensitivity,
    mcc,
    nonsig_precision_recall,
    sig_precision_recall,
)
from discrimpower.reporting import compare_qrels, run_sweep, sweep_to_csv
from discrimpower.significance import EXHAUSTIVE, SigTestConfig, tukey_hsd_pvalues
from discrimpower.synth import PopularityConfig, SamplingConfig, percentage_sample, popularity_biased
from discrimpower.trec import (
    CANDIDATE,
    Qrels,
    Ranking,
    RunSet,
    parse_qrels,
    parse_run,
    serialize_qrels,
    serialize_run,
)


def ok(n, text):
    print(f"PASS: criterion {n:02d} - {text}")


def test_criterion_01_error_rate_arithmetic():
    cases = [
        (ConfusionCounts(tp=443, tn=303, fp=36, fn=929),
         (0.9248, 0.3229, 0.2459, 0.8938)),
        (ConfusionCounts(tp=612, tn=259, fp=80, fn=760),
         (0.8844, 0.4461, 0.2542, 0.7640)),
    ]
    for counts, expected in cases:
        p1, r1 = sig_precision_recall(counts)
        p2, r2 = nonsig_precision_recall(counts)
        for got, want in zip((p1, r1, p2, r2), expected):
            assert abs(round(got, 4) - want) <= 0.0001
    ok(1, "published error-rate table reproduced to 1e-4 from raw counts")


def test_criterion_02_bac_identities():
    cases = [
        ((1, 1, 10, 0), 0.500, 1.000, 0.750, 0.0005),
        ((0, 5, 99, 1), 0.000, 0.990, 0.495, 0.0005),
        ((455, 545, 998, 2), 0.455, 0.998, 0.7265, 0.001),
        ((459, 541, 995, 5), 0.459, 0.995, 0.727, 0.001),
    ]
    for (tp, fn, tn, fp), r1_want, r2_want, bac_want, tol in cases:
        c = ConfusionCounts(tp=tp, tn=tn, fp=fp, fn=fn)
        _, r1 = sig_precision_recall(c)
        _, r2 = nonsig_precision_recall(c)
        assert r1 == pytest.approx(r1_want, abs=1e-12)
        assert r2 == pytest.approx(r2_want, abs=1e-12)
        bac = balanced_accuracy(c)
        assert bac == pytest.approx((r1 + r2) / 2, abs=1e-15)
        assert abs(bac - bac_want) <= tol
    ok(2, "balanced accuracy equals the mean of the two recalls")


def test_criterion_03_sampled_matches_exhaustive_everywhere():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for m in (2, 3):
        for n in (2, 3, 4, 5):
            sm = matrix(rng.random((m, n)))
            exact = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE))
            ref = brute_exhaustive(sm.values)
            for (i, j), expected in ref.items():
                pair = (sm.system_tags[i], sm.system_tags[j])
                assert exact.p_values[pair] == expected  # bit-for-bit
            approx = tukey_hsd_pvalues(
                sm, SigTestConfig(permutations=50_000, master_seed=9)
            )
            for pair in exact.pairs:
                assert approx.p_values[pair] == pytest.approx(
                    exact.p_values[pair], abs=0.01
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"grid took {elapsed:.1f}s"
    ok(3, f"sampled p-values within 0.01 of exact enumeration over the "
          f"m x n grid in {elapsed:.1f}s")


def test_criterion_04_two_system_reduction():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sm = matrix(rng.random((2, n)))
        p = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE))
        x = [float(v) for v in sm.values[0]]
        y = [float(v) for v in sm.values[1]]
        assert p.p_values[("a", "b")] == paired_randomization_p(x, y)
    ok(4, "m=2 test equals a paired randomization test exactly, 20/20")


def test_criterion_05_identity_candidate_is_perfect(mini):
    runs, qrels = mini
    cand = dataclasses.replace(qrels, role=CANDIDATE)
    cmp = compare_qrels(
        runs, qrels, cand, sig_cfg=SigTestConfig(permutations=2000, master_seed=0)
    )
    r = cmp.report
    assert r.kappa == 1.0 and r.tau == 1.0 and r.delta_sens == 0.0
    assert (r.p1, r.r1, r.p2, r.r2) == (1.0, 1.0, 1.0, 1.0)
    assert r.bac == 1.0 and r.mcc == 1.0
    assert r.counts.fp == 0 and r.counts.fn == 0
    ok(5, "self-comparison scores perfectly on every agreement metric")


def test_criterion_06_sampling_contracts(mini):
    runs, qrels = mini
    full = percentage_sample(qrels, SamplingConfig(fraction=1.0), 0)
    assert full.judgments == qrels.judgments

    relevant = [k for k, g in qrels.judgments.items() if g >= 1]
    half = percentage_sample(qrels, SamplingConfig(fraction=0.5), 0)
    kept = sum(1 for k in relevant if half.judgments[k] >= 1)
    assert kept == math.floor(0.5 * len(relevant) + 0.5)

    cfg = SamplingConfig(fraction=0.5, repetitions=5, master_seed=3)
    samples = [percentage_sample(qrels, cfg, r) for r in range(5)]
    assert len({tuple(sorted(s.judgments.items())) for s in samples}) > 1

    sweep_kw = dict(
        fractions=[0.3, 0.7], repetitions=2, master_seed=11,
        sig_cfg=SigTestConfig(permutations=1500, master_seed=4),  # two blocks
    )
    a = sweep_to_csv(run_sweep(runs, qrels, n_workers=1, **sweep_kw), "full")
    b = sweep_to_csv(run_sweep(runs, qrels, n_workers=2, **sweep_kw), "full")
    assert a.encode() == b.encode()
    ok(6, "sampling counts, repetition spread, and worker-invariant "
          "sweep bytes all hold")


def test_criterion_07_popularity_matches_oracle():
    rng = np.random.default_rng(404)
    docs = [f"d{i:02d}" for i in range(30)]
    topics = [f"q{t}" for t in range(4)]
    runs = {}
    for s in range(5):
        tag = f"s{s}"
        runs[tag] = {}
        for topic in topics:
            chosen = rng.choice(30, size=15, replace=False)
            scores = rng.normal(size=15)
            order = np.argsort(-scores)
            runs[tag][topic] = Ranking(tuple(docs[chosen[i]] for i in order),
                                       tuple(float(scores[i]) for i in order))
    runset = RunSet(runs=runs)
    judgments = {}
    for topic in topics:
        for d in rng.choice(30, size=12, replace=False):
            judgments[(topic, docs[d])] = int(rng.integers(0, 3))
    gt = Qrels(judgments=judgments)

    out = popularity_biased(gt, runset, PopularityConfig(depth=10))
    n_select = {
        topic: sum(1 for (t, _), g in gt.judgments.items() if t == topic and g >= 1)
        for topic in topics
    }
    assert out.judgments == brute_popularity(gt, runset, 10, n_select)
    for topic in topics:
        n_t = sum(1 for t, _ in gt.judgments if t == topic)
        gt_frac = n_select[topic] / n_t
        out_frac = sum(
            1 for (t, _), g in out.judgments.items() if t == topic and g >= 1
        ) / n_t
        assert abs(out_frac - gt_frac) < 1 / n_t
    ok(7, "popularity labelling equals the count-sort-select oracle with "
          "per-topic fractions preserved")


def brute_ndcg(ranking, judgments, k):
    dcg = sum(
        judgments.get(doc, 0) / math.log2(i + 2)
        for i, doc in enumerate(ranking[:k])
    )
    ideal = sorted(judgments.values(), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 2) for i, g in enumerate(ideal))
    return dcg / idcg if idcg > 0 else 0.0


def test_criterion_08_ndcg_oracle():
    worked = ndcg_at_k(["B", "A"], {"A": 3, "B": 1}, MeasureSpec())
    assert worked == pytest.approx(0.79671, abs=1e-5)

    rng = np.random.default_rng(55)
    for _ in range(200):
        n_docs = int(rng.integers(1, 30))
        ranking = [f"d{i}" for i in range(n_docs)]
        rng.shuffle(ranking)
        judged = {
            f"d{i}": int(rng.integers(0, 4))
            for i in range(n_docs + int(rng.integers(0, 10)))
            if rng.random() < 0.7
        }
        k = int(rng.integers(1, 15))
        got = ndcg_at_k(ranking, judged, MeasureSpec(k=k))
        assert got == pytest.approx(brute_ndcg(ranking, judged, k), abs=1e-9)
    ok(8, "worked nDCG example and 200 random instances match the oracle")


def test_criterion_09_cancelling_errors_still_detected():
    def planted(base, seed, n=50):
        rng = np.random.default_rng(seed)
        vals = np.clip(
            np.asarray(base, dtype=float)[:, None]
            + rng.normal(0.0, 1e-3, size=(len(base), n)),
            0.0, 1.0,
        )
        return ScoreMatrix(
            system_tags=("A", "B", "C", "D"),
            topic_ids=tuple(f"t{i:02d}" for i in range(n)),
            values=vals,
        )

    cfg = SigTestConfig(permutations=4000, master_seed=5)
    gt_ss = tukey_hsd_pvalues(planted([0.85, 0.65, 0.20, 0.20], 101), cfg)
    cand_ss = tukey_hsd_pvalues(planted([0.75, 0.75, 0.30, 0.10], 202), cfg)

    c = confusion(gt_ss, cand_ss)
    assert c.fp == c.fn == 1  # symmetric disagreement
    assert delta_sensitivity(gt_ss, cand_ss) == 0.0  # invisible to Delta-sens
    bac = balanced_accuracy(c)
    mcc_value, degenerate = mcc(c)
    assert bac == pytest.approx(0.4) and bac < 1.0
    assert mcc_value == pytest.approx(-0.2) and mcc_value < 1.0
    assert not degenerate
    ok(9, "equal-and-opposite errors show Delta-sens 0 but BAC 0.4 and MCC -0.2")


def test_criterion_10_round_trip_thousand_files():
    rng = np.random.default_rng(123)
    letters = "abcdefghijklmnopqrstuvwxyz0123456789._-"

    def token():
        return "".join(rng.choice(list(letters), size=int(rng.integers(1, 12))))

    for _ in range(500):
        judgments = {}
        for _ in range(int(rng.integers(1, 40))):
            judgments[(token(), token())] = int(rng.integers(0, 4))
        text = serialize_qrels(Qrels(judgments=judgments))
        first = parse_qrels(text)
        second = parse_qrels(serialize_qrels(first))
        assert first == second
        assert first.judgments == judgments

    for _ in range(500):
        tag = token()
        lines = []
        for _ in range(int(rng.integers(1, 6))):
            topic = token()
            docs = {token() for _ in range(int(rng.integers(1, 20)))}
            for rank, doc in enumerate(docs, start=1):
                score = float(rng.normal())
                lines.append(f"{topic} Q0 {doc} {rank} {score!r} {tag}")
        text = "\n".join(lines) + "\n"
        first = parse_run(text)
        second = parse_run(serialize_run(first))
        assert first == second
    ok(10, "500 qrels and 500 run files survive parse-serialize-parse intact")


def test_criterion_11_pipeline_under_thirty_seconds(tmp_path, capsys):
    from discrimpower.cli import main
    from discrimpower.minicollection import write_mini_collection

    start = time.perf_counter()
    qrels_path, _ = write_mini_collection(tmp_path / "data")
    runs_dir = str(tmp_path / "data" / "runs")
    out = tmp_path / "out"
    assert main(["compare", "--gt", str(qrels_path), "--cand", str(qrels_path),
                 "--runs-dir", runs_dir, "--out-dir", str(out)]) == 0
    assert main(["sweep", "--gt", str(qrels_path), "--runs-dir", runs_dir,
                 "--fractions", "0.5,1.0", "--repetitions", "2",
                 "--out-dir", str(out)]) == 0
    assert main(["plot", "--pairs", str(out / "pairs.csv"),
                 "--out-dir", str(out)]) == 0
    assert main(["plot", "--sweep", str(out / "sweep.csv"),
                 "--out-dir", str(out)]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()

    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 2
    cells = dict(zip(report[0].split(","), report[1].split(",")))
    for column in ("kappa", "tau", "delta_sens", "p1", "r1", "p2", "r2",
                   "bac", "mcc", "fp", "fn"):
        assert cells[column] not in ("",), column
    scatter = (out / "scatter.svg").read_text()
    assert scatter.count('<circle class="system"') == 5
    sweep_svg = (out / "sweep.svg").read_text()
    assert sweep_svg.count("<polyline") == 6
    assert elapsed < 30, f"pipeline took {elapsed:.1f}s"
    ok(11, f"bundled-collection pipeline produced report and both plots "
           f"in {elapsed:.1f}s")
