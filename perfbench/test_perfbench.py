"""Tests of the benchmark's own helpers.

Run from the root of a source checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

import oracle
import run
from harness import Tally, median_with_count
from spans import Span, Tracer, coverage, layer_totals, self_times

from discrimpower.measures import MeasureSpec, ndcg_at_k


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_children():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9].
    tr = Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("root"):
        with tr.span("a"):
            with tr.span("c"):
                pass
        with tr.span("b"):
            pass
    assert [s.name for s in tr.spans] == ["root", "a", "c", "b"]
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert self_times(tr.spans) == [3, 2, 1, 4]
    assert layer_totals(tr.spans, 0) == {"a": (2, 1), "c": (1, 1), "b": (4, 1)}
    assert coverage(tr.spans, 0) == pytest.approx(0.7)


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0, 10, None), Span("x", 1, 6, 0), Span("y", 4, 8, 0),
             Span("z", 9, 12, 0)]  # z runs past its parent's end
    assert self_times(spans)[0] == pytest.approx(10 - 7 - 1)


def test_layer_totals_sum_calls_under_root_only():
    spans = [Span("other", 0, 1, None), Span("f", 0, 1, 0),
             Span("root", 2, 9, None), Span("f", 2, 4, 2), Span("f", 5, 8, 2)]
    assert layer_totals(spans, 2) == {"f": (5, 2)}


def test_span_closes_when_call_raises():
    tr = Tracer(clock=fake_clock([0, 1]))
    with pytest.raises(ZeroDivisionError):
        tr.call("boom", lambda: 1 / 0)
    assert tr.spans[0].duration == 1


def test_median_reports_its_sample_count():
    assert median_with_count([3.0, 1.0, 2.0]) == (2.0, 3)
    assert median_with_count([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        median_with_count([])


def test_tally_counts_each_attempt_once():
    tally = Tally()
    assert tally.record("ok", [])
    assert not tally.record("bad", ["exit 1", "report.csv missing"])
    assert tally.record("ok again", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.fail_ratio == pytest.approx(1 / 3)
    assert tally.failures == ["bad: exit 1; report.csv missing"]
    assert Tally().fail_ratio == 0.0


@pytest.mark.parametrize("seed", range(200))
def test_ndcg_oracle_matches_library(seed):
    rng = np.random.default_rng(seed)
    docs = [f"d{i}" for i in range(int(rng.integers(1, 40)))]
    judged = rng.choice(docs, size=int(rng.integers(0, len(docs) + 1)), replace=False)
    grades = {d: int(g) for d, g in zip(judged, rng.integers(0, 4, size=len(judged)))}
    ranking = list(rng.permutation(docs)[: int(rng.integers(0, len(docs) + 1))])
    want = ndcg_at_k(ranking, grades, MeasureSpec(k=10))
    assert oracle.ndcg_at_10(ranking, grades) == pytest.approx(want, abs=1e-12)


def test_read_rankings_orders_by_score_then_doc_descending(tmp_path):
    path = tmp_path / "s.run"
    path.write_text("q1 Q0 da 9 0.5 s\nq1 Q0 db 3 0.5 s\nq1 Q0 dc 1 0.1 s\n"
                   "q2 Q0 dz 1 0.9 s\nq1 Q0 dd 2 0.7 s\n")
    assert oracle.read_rankings(path, {"q1"}) == {"q1": ["dd", "db", "da", "dc"]}


def test_mc_bound_shrinks_with_permutations():
    bounds = [oracle.mc_bound(0.3, b) for b in (100, 1000, 10000)]
    assert all(a > b for a, b in itertools.pairwise(bounds))
    assert oracle.mc_bound(0.0, 99) == pytest.approx(0.01)


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
