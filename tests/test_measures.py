import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimpower.errors import ConfigurationError, ValidationError
from discrimpower.measures import (
    EXPONENTIAL,
    LINEAR,
    MeasureSpec,
    ScoreMatrix,
    _GradeIndex,
    _score_rows,
    _score_table,
    mean_scores,
    ndcg_at_k,
    score_matrix,
    sequential_row_means,
)
from discrimpower.trec import Qrels, Ranking, RunSet, parse_qrels, parse_run


def brute_ndcg(ranking, judgments, k, gain):
    """Straight-from-the-definition reference implementation."""

    def g(grade):
        return float(2 ** grade - 1) if gain == EXPONENTIAL else float(grade)

    dcg = 0.0
    for i, doc in enumerate(ranking[:k], start=1):
        dcg += g(judgments.get(doc, 0)) / math.log2(i + 1)
    ideal = sorted((g(v) for v in judgments.values()), reverse=True)[:k]
    idcg = sum(val / math.log2(i + 1) for i, val in enumerate(ideal, start=1))
    return dcg / idcg if idcg > 0 else 0.0


def test_worked_example():
    score = ndcg_at_k(["B", "A"], {"A": 3, "B": 1}, MeasureSpec())
    assert score == pytest.approx(0.796708, abs=1e-5)


def test_perfect_ranking_is_one():
    assert ndcg_at_k(["A", "B"], {"A": 3, "B": 1}, MeasureSpec()) == 1.0


def test_no_relevant_judgments_gives_zero():
    assert ndcg_at_k(["A", "B"], {"A": 0, "B": 0}, MeasureSpec()) == 0.0


def test_unjudged_docs_count_as_zero_gain():
    with_unjudged = ndcg_at_k(["X", "A"], {"A": 2}, MeasureSpec())
    alone = ndcg_at_k(["Y", "A"], {"A": 2}, MeasureSpec())
    assert with_unjudged == alone


def test_cutoff_truncates_both_sides():
    # Relevant doc at rank 3 contributes nothing at k=2; ideal also capped.
    judgments = {"A": 3, "B": 2, "C": 1}
    spec = MeasureSpec(k=2)
    got = ndcg_at_k(["B", "C", "A"], judgments, spec)
    assert got == pytest.approx(brute_ndcg(["B", "C", "A"], judgments, 2, "linear"))


def test_exponential_gain():
    judgments = {"A": 3, "B": 1}
    spec = MeasureSpec(gain=EXPONENTIAL)
    got = ndcg_at_k(["B", "A"], judgments, spec)
    assert got == pytest.approx(brute_ndcg(["B", "A"], judgments, 10, EXPONENTIAL))


def test_random_instances_match_brute_force():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n_docs = int(rng.integers(1, 30))
        docs = [f"d{i}" for i in range(n_docs)]
        judgments = {d: int(rng.integers(0, 4)) for d in docs}
        ranked = list(rng.permutation(docs))[: int(rng.integers(1, n_docs + 1))]
        k = int(rng.integers(1, 15))
        gain = EXPONENTIAL if rng.random() < 0.5 else "linear"
        spec = MeasureSpec(k=k, gain=gain)
        assert ndcg_at_k(ranked, judgments, spec) == pytest.approx(
            brute_ndcg(ranked, judgments, k, gain), abs=1e-9
        )


def test_measure_spec_validation():
    with pytest.raises(ConfigurationError):
        MeasureSpec(k=0)
    with pytest.raises(ConfigurationError):
        MeasureSpec(gain="cubic")


def test_sequential_row_means_matches_left_to_right_python_sums():
    rng = np.random.default_rng(5)
    values = rng.random((4, 9))
    means = sequential_row_means(values)
    for i in range(4):
        acc = float(values[i, 0])
        for t in range(1, 9):
            acc += float(values[i, t])
        assert means[i] == acc / 9


RUNS = parse_run(
    "q1 Q0 d1 1 3.0 A\nq1 Q0 d2 2 2.0 A\nq2 Q0 d1 1 1.0 A\n",
)
RUNS_B = parse_run("q1 Q0 d2 1 9.0 B\nq1 Q0 d1 2 8.0 B\n")
QRELS = parse_qrels("q1 0 d1 2\nq1 0 d2 0\nq2 0 d1 1\n")


def test_score_matrix_shapes_and_missing_topic():
    sm = score_matrix(RunSet({**RUNS.runs, **RUNS_B.runs}), QRELS, MeasureSpec())
    assert sm.system_tags == ("A", "B")
    assert sm.topic_ids == ("q1", "q2")
    # B never ran q2: scored 0 there.
    assert sm.row("B")[1] == 0.0
    assert sm.row("A")[0] == 1.0  # perfect ordering on q1
    means = mean_scores(sm)
    assert means["A"] == pytest.approx((1.0 + 1.0) / 2)


def test_score_matrix_requires_overlap():
    with pytest.raises(ConfigurationError):
        score_matrix(RUNS, parse_qrels("q9 0 d1 1\n"), MeasureSpec())
    with pytest.raises(ConfigurationError):
        score_matrix(RunSet(), QRELS, MeasureSpec())


def test_score_matrix_csv_format():
    sm = ScoreMatrix(
        system_tags=("A",),
        topic_ids=("q1", "q2"),
        values=np.array([[0.5, 1.0 / 3.0]]),
    )
    text = sm.to_csv()
    lines = text.splitlines()
    assert lines[0] == "system,q1,q2"
    assert lines[1] == "A,0.500000,0.333333"


def test_score_matrix_validation():
    with pytest.raises(ValidationError):
        ScoreMatrix(system_tags=("A",), topic_ids=("q1",), values=np.zeros((2, 1)))
    with pytest.raises(ValidationError):
        ScoreMatrix(
            system_tags=("A", "A"), topic_ids=("q1",), values=np.zeros((2, 1))
        )
    with pytest.raises(ValidationError):
        ScoreMatrix(
            system_tags=("A",), topic_ids=("q1",), values=np.array([[1.5]])
        )


def test_score_matrix_rejects_nan():
    values = np.full((3, 3), 0.5)
    values[1, 2] = np.nan
    with pytest.raises(ValidationError, match=r"must lie in \[0, 1\]"):
        ScoreMatrix(system_tags=("A", "B", "C"), topic_ids=("q1", "q2", "q3"), values=values)


def test_score_matrix_equality_compares_values(mini):
    runs, qrels = mini
    a, b = score_matrix(runs, qrels), score_matrix(runs, qrels)
    assert a == b
    assert not a != b
    changed = ScoreMatrix(a.system_tags, a.topic_ids, a.values.copy())
    changed.values[0, 0] = 1.0 - changed.values[0, 0] / 2
    assert a != changed
    assert not a == changed
    assert a != ScoreMatrix(a.system_tags[::-1], a.topic_ids, a.values)
    assert a != (a.system_tags, a.topic_ids, a.values)


def test_a_cutoff_beyond_every_ranking_costs_no_more_than_the_rankings(mini):
    # The scoring arrays are as wide as the longest ranking and topic, not k.
    runs, qrels = mini
    deepest = max(len(r.doc_ids) for per_topic in runs.runs.values() for r in per_topic.values())
    widest = max(map(len, qrels.by_topic().values()))
    whole = score_matrix(runs, qrels, MeasureSpec(k=max(deepest, widest)))
    assert score_matrix(runs, qrels, MeasureSpec(k=10**12)) == whole


POOL = [f"d{i:02d}" for i in range(20)]


@st.composite
def collections(draw):
    """(runs, qrels): 1-4 systems; 1-5 judged topics, some judged only 0, with
    tied grades; rankings 1-12 deep that hold unjudged documents, may miss a
    judged topic, and may rank a topic the qrels do not judge."""
    n = draw(st.integers(1, 5))
    judgments = {}
    for t in range(n):
        docs = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=10, unique=True))
        top = draw(st.sampled_from([0, 1, 3]))
        grades = draw(st.lists(st.integers(0, top), min_size=len(docs), max_size=len(docs)))
        judgments.update(((f"q{t}", doc), grade) for doc, grade in zip(docs, grades))
    runs = {}
    for s in range(draw(st.integers(1, 4))):
        per_topic = {}
        for t in range(n + 1):  # q{n} is judged by no one
            if (s, t) != (0, 0) and draw(st.booleans()) and draw(st.booleans()):
                continue  # system s has no ranking for topic t
            depth = draw(st.integers(1, 12))
            per_topic[f"q{t}"] = Ranking(draw(st.permutations(POOL))[:depth], [1.0] * depth)
        runs[f"s{s}"] = per_topic
    return RunSet(runs), Qrels(judgments)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(collection=collections(), k=st.sampled_from([1, 3, 10, 40]),
       gain=st.sampled_from([LINEAR, EXPONENTIAL]))
def test_one_qrels_set_scores_as_on_the_grade_index(collection, k, gain):
    # score_matrix and evaluate score one set in plain floats; compare and
    # sweep score on the index. k = 40 is beyond every ranking and topic.
    runs, qrels = collection
    index = _GradeIndex(runs, k, qrels)
    expected = index.score(index.grades[0], gain)
    got = score_matrix(runs, qrels, MeasureSpec(k=k, gain=gain))
    assert (got.system_tags, got.topic_ids) == (expected.system_tags, expected.topic_ids)
    assert got.values.tobytes() == expected.values.tobytes()
    assert _score_table(*_score_rows(runs, qrels, MeasureSpec(k=k, gain=gain))) \
        == expected.to_csv()


@pytest.mark.parametrize("judged, grade", [
    ("q1 0 d1 2000\n", 2000),
    ("q1 0 d1 1023\nq1 0 d2 1023\nq1 0 d3 1023\n", 1023),  # each gain fits; the sum does not
])
def test_a_grade_whose_gain_overflows_is_named_by_every_scorer(judged, grade):
    runs, qrels = parse_run("q1 Q0 d1 1 3.0 A\nq1 Q0 d2 2 2.0 A\n"), parse_qrels(judged, 5000)
    spec = MeasureSpec(gain=EXPONENTIAL)
    index = _GradeIndex(runs, spec.k, qrels)
    message = rf"^grade {grade} is too large for exponential gain"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning on the way
        for scored in (lambda: score_matrix(runs, qrels, spec),
                       lambda: index.score(index.grades[0], spec.gain),
                       lambda: ndcg_at_k(["d1"], qrels.by_topic()["q1"], spec)):
            with pytest.raises(ValidationError, match=message):
                scored()
    # Linear gain takes the same grades.
    assert score_matrix(runs, qrels, MeasureSpec()).values.shape == (1, 1)


def test_the_largest_exponential_grade_that_fits_still_scores():
    runs, qrels = parse_run("q1 Q0 d1 1 3.0 A\nq1 Q0 d2 2 2.0 A\n"), parse_qrels(
        "q1 0 d1 1023\nq1 0 d2 1000\n", 5000)
    assert score_matrix(runs, qrels, MeasureSpec(gain=EXPONENTIAL)).values.tolist() == [[1.0]]
