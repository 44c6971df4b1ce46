import csv
import dataclasses
import io
import os
import pathlib
import pickle
import tempfile
import threading
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrimpower.errors import ConfigurationError, ParseError, ValidationError
from discrimpower.minicollection import write_mini_collection
from discrimpower.trec import (
    CANDIDATE,
    Qrels,
    Ranking,
    RunSet,
    load_run,
    load_runs,
    load_qrels,
    load_runs_dir,
    parse_qrels,
    parse_run,
    save_qrels,
    serialize_qrels,
    serialize_run,
    _csv_table,
    write_atomic,
)

RUN_TEXT = """\
q1 Q0 d3 1 9.5 sysA
q1 Q0 d1 2 7.25 sysA
q1 Q0 d2 3 7.25 sysA
q2 Q0 d9 1 3.0 sysA
"""

QRELS_TEXT = """\
q1 0 d1 2
q1 0 d2 0
q1 0 d3 3
q2 0 d9 1
"""


def test_parse_run_orders_by_score_then_docid():
    rs = parse_run(RUN_TEXT)
    ranking = rs.runs["sysA"]["q1"]
    assert list(ranking.doc_ids) == ["d3", "d2", "d1"]  # tie broken doc_id desc
    assert [line.split()[3] for line in serialize_run(rs).splitlines()[:3]] == ["1", "2", "3"]
    assert ranking.scores[0] == 9.5


def test_parse_run_rewrites_nonsense_ranks():
    text = "q1 Q0 dA 40 2.0 s\nq1 Q0 dB 1 5.0 s\n"
    lines = serialize_run(parse_run(text)).splitlines()
    assert [tuple(line.split()[2:4]) for line in lines] == [("dB", "1"), ("dA", "2")]


def test_parse_run_column_count_error_names_line():
    with pytest.raises(ParseError, match="line 2"):
        parse_run("q1 Q0 d1 1 2.0 s\nq1 Q0 d2 1 2.0\n")


def test_parse_run_bad_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_run("q1 Q0 d1 x 2.0 s\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_run("q1 Q0 d1 1 notafloat s\n")


def test_parse_run_duplicate_doc_in_topic():
    with pytest.raises(ValidationError, match="d1"):
        parse_run("q1 Q0 d1 1 2.0 s\nq1 Q0 d1 2 1.0 s\n")


def test_parse_run_multiple_tags_needs_override():
    text = "q1 Q0 d1 1 2.0 one\nq1 Q0 d2 2 1.0 two\n"
    with pytest.raises(ValidationError):
        parse_run(text)
    rs = parse_run(text, system_tag_override="merged")
    assert rs.systems() == ["merged"]
    assert len(rs.runs["merged"]["q1"].doc_ids) == 2


def test_parse_run_empty_input():
    rs = parse_run("")
    assert rs.systems() == []


def test_parse_qrels_basic_and_duplicate():
    q = parse_qrels(QRELS_TEXT)
    assert q.grade("q1", "d3") == 3
    assert q.grade("q1", "dZ") == 0  # unjudged
    assert q.topics() == ["q1", "q2"]
    with pytest.raises(ValidationError, match="duplicate"):
        parse_qrels(QRELS_TEXT + "q1 0 d1 1\n")


def test_parse_qrels_negative_clamped_and_counted():
    q = parse_qrels("q1 0 d1 -2\nq1 0 d2 1\n")
    assert q.grade("q1", "d1") == 0
    assert q.clamp_warnings == 1


def test_parse_qrels_grade_above_max():
    with pytest.raises(ValidationError, match="grade"):
        parse_qrels("q1 0 d1 4\n", max_grade=3)
    q = parse_qrels("q1 0 d1 4\n", max_grade=5)
    assert q.grade("q1", "d1") == 4
    # checked before any line is read, so no judgment takes the blame
    with pytest.raises(ConfigurationError, match=r"^max_grade must be >= 0, got -1$"):
        parse_qrels("q1 0 d1 0\n", max_grade=-1)
    # Grades are scored from int64 buffers: the largest one fits, one more does not.
    assert parse_qrels(f"q1 0 d1 {2 ** 63 - 1}\n", max_grade=2 ** 63 - 1).grade("q1", "d1") \
        == 2 ** 63 - 1
    with pytest.raises(ConfigurationError,
                       match=rf"^max_grade must be below 2\^63, got {2 ** 63}$"):
        parse_qrels("q1 0 d1 0\n", max_grade=2 ** 63)


def test_parse_qrels_column_error_names_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_qrels("q1 0 d1 1\nq1 0 d2 0\nq1 0 d3\n")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_text_splits_into_lines_as_a_file_does(tmp_path, end):
    # str.splitlines would also end a line at each of these characters.
    odd = ["\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    run_text = "".join(f"q1 Q0 d{i}{c} {i} {9 - i} s{end}" for i, c in enumerate(odd))
    qrels_text = "".join(f"q1 0 d{i}{c} {i % 4}{end}" for i, c in enumerate(odd))
    run_file, qrels_file = tmp_path / "a.run", tmp_path / "a.qrels"
    run_file.write_bytes(run_text.encode())
    qrels_file.write_bytes(qrels_text.encode())

    run = load_run(run_file)
    assert run.runs["s"]["q1"].doc_ids == tuple(f"d{i}" for i in range(len(odd)))
    assert parse_run(run_text) == run == parse_run(run_text.encode())
    qrels = load_qrels(qrels_file)
    assert len(qrels.judgments) == len(odd)
    assert parse_qrels(qrels_text) == qrels == parse_qrels(qrels_text.encode())

    bad = run_text + f"q1 Q0 d9 9{end}"
    run_file.write_bytes(bad.encode())
    for load in (lambda: parse_run(bad), lambda: load_run(run_file)):
        with pytest.raises(ParseError, match=f"line {len(odd) + 1}: expected 6 columns, got 4$"):
            load()


def test_qrels_equality_ignores_role():
    a = parse_qrels("q1 0 d1 1\n")
    b = parse_qrels("q1 0 d1 1\n", role=CANDIDATE)
    assert a == b


def test_serialize_qrels_sorted_and_round_trip():
    q = parse_qrels(QRELS_TEXT)
    text = serialize_qrels(q)
    assert text.splitlines()[0] == "q1 0 d1 2"
    assert parse_qrels(text) == q


def test_serialize_run_round_trips_exact_scores():
    rs = parse_run("q1 Q0 d1 1 0.1234567890123456789 s\nq1 Q0 d2 2 -3.5e-7 s\n")
    again = parse_run(serialize_run(rs))
    assert again == rs


def test_csv_table_writes_each_column_with_its_format():
    columns = (("name", str), ("score", "{:.2f}".format), ("ok", repr))
    text = "name,score,ok\na,0.50,True\nb,1.00,None\n"
    assert _csv_table(columns, [("a", 0.5, True), {"ok": None, "score": 1, "name": "b"}]) == text
    assert _csv_table(columns, []) == "name,score,ok\n"


def test_csv_table_quotes_only_fields_that_need_it():
    columns = (("name", str), ("note", str))
    rows = [("sys,A", 'say "hi"'), ("cr\rlf\n", "plain")]
    text = 'name,note\n"sys,A","say ""hi"""\n"cr\rlf\n",plain\n'
    assert _csv_table(columns, rows) == text


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rows=st.lists(st.tuples(st.text(), st.text()), max_size=4))
def test_csv_table_reads_back_through_the_csv_module(rows):
    text = _csv_table((("a", str), ("b,c", str)), rows)
    assert list(csv.reader(io.StringIO(text, newline=""))) == [["a", "b,c"], *map(list, rows)]


@pytest.mark.parametrize("row, message", [
    (("a", 0.5, True, "extra"), "row has 4 values for 3 columns"),
    (("a", 0.5), "row has 2 values for 3 columns"),
    ({"name": "a", "score": 0.5, "ok": True, "note": "x"}, r"differ in \['note'\]"),
    ({"name": "a", "ok": True}, r"differ in \['score'\]"),
])
def test_csv_table_rejects_a_value_without_a_column(row, message):
    columns = (("name", str), ("score", "{:.2f}".format), ("ok", repr))
    with pytest.raises(ValidationError, match=message):
        _csv_table(columns, [row])


def test_random_round_trips():
    rng = np.random.default_rng(8)
    for _ in range(50):
        judgments = {}
        for t in range(int(rng.integers(1, 5))):
            for d in rng.choice(40, size=int(rng.integers(1, 10)), replace=False):
                judgments[(f"q{t}", f"d{d}")] = int(rng.integers(0, 4))
        q = Qrels(judgments=judgments)
        assert parse_qrels(serialize_qrels(q)) == q

    for _ in range(50):
        runs = {}
        tag = "sys"
        runs[tag] = {}
        for t in range(int(rng.integers(1, 4))):
            entries = [
                (f"d{d}", float(rng.normal()))
                for d in rng.choice(60, size=int(rng.integers(1, 15)), replace=False)
            ]
            text = "".join(
                f"q{t} Q0 {doc} {i + 1} {score!r} {tag}\n"
                for i, (doc, score) in enumerate(entries)
            )
            runs[tag][f"q{t}"] = parse_run(text).runs[tag][f"q{t}"]
        rs = RunSet(runs=runs)
        assert parse_run(serialize_run(rs)) == rs


def test_load_runs_duplicate_tag(tmp_path):
    for name in ("a.run", "b.run"):
        (tmp_path / name).write_text("q1 Q0 d1 1 1.0 s\n")
    with pytest.raises(ValidationError, match="duplicate system tag 's' across run files"):
        load_runs([tmp_path / "a.run", tmp_path / "b.run"])


def test_load_helpers(tmp_path):
    run_path = tmp_path / "alpha.run"
    run_path.write_text("q1 Q0 d1 1 1.0 tagged\n")
    (tmp_path / "beta.run").write_text("q1 Q0 d2 1 2.0 beta\n")

    assert load_run(run_path).systems() == ["tagged"]
    assert load_run(run_path, tag_from_filename=True).systems() == ["alpha"]

    rs = load_runs([run_path, tmp_path / "beta.run"], tag_from_filename=True)
    assert rs.systems() == ["alpha", "beta"]

    qdir = tmp_path / "runs"
    qdir.mkdir()
    (qdir / "one").write_text("q1 Q0 d1 1 1.0 one\n")
    (qdir / "two").write_text("q1 Q0 d1 1 1.0 two\n")
    assert load_runs_dir(qdir).systems() == ["one", "two"]


def _doc_id_objects(runset):
    """Every doc id of every ranking, as the objects the run set holds."""
    return [doc for per_topic in runset.runs.values()
            for ranking in per_topic.values() for doc in ranking.doc_ids]


def test_runs_loaded_together_share_doc_id_strings(tmp_path):
    qrels_path, run_paths = write_mini_collection(tmp_path, n_systems=4, n_topics=3,
                                                  n_docs=40, run_depth=30)
    for runset in (load_runs_dir(qrels_path.parent / "runs"), load_runs(run_paths)):
        docs = _doc_id_objects(runset)
        assert len(docs) == 4 * 3 * 30 and len(set(docs)) == 40
        first: dict[str, str] = {}
        assert all(first.setdefault(doc, doc) is doc for doc in docs)


def test_parsed_qrels_hold_one_string_per_topic(tmp_path):
    # No doc id repeats across topics, so only the topic strings can be
    # shared; a new topic string per judgment retains about 50 bytes more.
    text = "".join(f"{topic} 0 d{topic}{doc:04d} {doc % 3}\n"
                   for topic in range(401, 451) for doc in range(200))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qrels = parse_qrels(text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(qrels.judgments) == 50 * 200
    assert len({id(topic) for topic, _ in qrels.judgments}) == 50
    assert retained / (50 * 200) < 150, retained / (50 * 200)
    path = tmp_path / "gt.qrels"
    path.write_text(text)
    assert len({id(topic) for topic, _ in load_qrels(path).judgments}) == 50


def test_runs_share_topic_strings(tmp_path):
    _, run_paths = write_mini_collection(tmp_path, n_systems=4, n_topics=3, n_docs=40,
                                         run_depth=30)
    runset = load_runs(run_paths)
    topics = [topic for per_topic in runset.runs.values() for topic in per_topic]
    assert len(topics) == 4 * 3 and len({id(topic) for topic in topics}) == 3


def test_the_run_cache_format_pins_the_code_that_cuts_a_run():
    # The CLI's run cache keys each cut run set by trec._CUT_FORMAT. A change
    # to this code changes the digest: bump _CUT_FORMAT with it, so that no
    # entry written by the old code is read back, and pin the new pair here.
    import hashlib
    import inspect

    from discrimpower import trec

    code = (trec.parse_run, trec._iter_lines, trec._read_run, trec._cut_run,
            trec.serialize_run, trec.Ranking)
    digest = hashlib.sha256("".join(map(inspect.getsource, code)).encode()).hexdigest()
    assert (trec._CUT_FORMAT, digest) == (
        1, "7b2dcde9ecccbab1f6e923b3582d2452966dd23f800181fdff3fa210ff866145")


def test_parse_run_alone_is_unchanged(tmp_path):
    expected = RunSet({"sysA": {
        "q1": Ranking(("d3", "d2", "d1"), (9.5, 7.25, 7.25)),
        "q2": Ranking(("d9",), (3.0,)),
    }})
    assert parse_run(RUN_TEXT) == expected
    path = tmp_path / "a.run"
    path.write_text(RUN_TEXT)
    assert load_run(path) == expected
    assert load_runs_dir(tmp_path) == expected


def test_ranking_is_not_a_sequence():
    ranking = Ranking(("d2", "d1"), (2.0, 1.0))
    assert ranking == Ranking(doc_ids=("d2", "d1"), scores=(2.0, 1.0))
    assert ranking != Ranking(("d1", "d2"), (2.0, 1.0))
    assert [f.name for f in dataclasses.fields(Ranking)] == ["doc_ids", "scores"]
    assert hash(ranking) == hash(Ranking(("d2", "d1"), (2.0, 1.0)))
    with pytest.raises(TypeError):
        len(ranking)
    with pytest.raises(TypeError):
        doc_ids, scores = ranking
    with pytest.raises(dataclasses.FrozenInstanceError):
        ranking.scores = ()


def test_runset_pickle_round_trip(tmp_path):
    _, run_paths = write_mini_collection(tmp_path, n_systems=3, n_topics=2, run_depth=10)
    runset = load_runs(run_paths)
    copy = pickle.loads(pickle.dumps(runset))
    assert copy == runset and copy is not runset
    assert type(copy.runs["sys1"]["q01"]) is Ranking
    docs = _doc_id_objects(copy)
    assert len({id(doc) for doc in docs}) == len(set(docs))  # pickle keeps the sharing


def test_ranking_scores_are_packed_doubles(tmp_path):
    _, run_paths = write_mini_collection(tmp_path, n_systems=3, n_topics=2, run_depth=10)
    loaded = load_runs(run_paths)
    for runset in (parse_run(run_paths[0].read_text()), loaded,
                   pickle.loads(pickle.dumps(loaded))):
        for per_topic in runset.runs.values():
            for ranking in per_topic.values():
                assert type(ranking.scores) is array and ranking.scores.typecode == "d"
    scores = [2.0, 1.0]
    ranking = Ranking(["d2", "d1"], scores)
    scores[0] = 0.0
    assert ranking.scores == array("d", [2.0, 1.0]) and ranking.doc_ids == ("d2", "d1")


def test_loaded_runs_keep_under_24_bytes_per_line(tmp_path):
    # A float object per run line alone costs 24 bytes; a packed score costs 8.
    qrels_path, _ = write_mini_collection(tmp_path, n_systems=8, n_topics=5, n_docs=600,
                                          run_depth=500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runset = load_runs_dir(qrels_path.parent / "runs")
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    lines = sum(len(r.doc_ids) for per_topic in runset.runs.values() for r in per_topic.values())
    assert lines == 8 * 5 * 500
    assert retained / lines < 24, retained / lines


def test_depth_limited_load_retains_under_3_bytes_per_line_read(tmp_path):
    # Only the first 10 of each topic's 500 documents are kept; every line is read.
    qrels_path, _ = write_mini_collection(tmp_path, n_systems=8, n_topics=5, n_docs=600,
                                          run_depth=500)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runset = load_runs_dir(qrels_path.parent / "runs", depth=10)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    kept = sum(len(r.doc_ids) for per_topic in runset.runs.values() for r in per_topic.values())
    assert kept == 8 * 5 * 10
    assert retained / (8 * 5 * 500) < 3, retained / (8 * 5 * 500)


def _prefix(runset, depth):
    return RunSet({tag: {topic: Ranking(r.doc_ids[:depth], r.scores[:depth])
                         for topic, r in per_topic.items()}
                   for tag, per_topic in runset.runs.items()})


def test_depth_limited_load_keeps_one_string_per_kept_id(tmp_path):
    qrels_path, run_paths = write_mini_collection(tmp_path, n_systems=4, n_topics=3,
                                                  n_docs=40, run_depth=30)
    full = load_runs(run_paths)
    for runset in (load_runs_dir(qrels_path.parent / "runs", depth=5),
                   load_runs(run_paths, depth=5)):
        assert runset == _prefix(full, 5)
        docs = _doc_id_objects(runset)
        assert len(docs) == 4 * 3 * 5
        assert len({id(doc) for doc in docs}) == len(set(docs))


@pytest.mark.parametrize("depth", [0, -1])
def test_depth_below_one_is_a_configuration_error(tmp_path, depth):
    (tmp_path / "a.run").write_text(RUN_TEXT)
    message = f"^depth must be >= 1, got {depth}$"
    with pytest.raises(ConfigurationError, match=message):
        load_runs([tmp_path / "a.run"], depth=depth)
    with pytest.raises(ConfigurationError, match=message):
        load_runs_dir(tmp_path, depth=depth)
    with pytest.raises(ConfigurationError, match=message):  # options before inputs
        load_runs_dir(tmp_path / "nowhere", depth=depth)


# Each topic's first line is the one a depth-1 load keeps; the fault comes later.
_TOP = "q1 Q0 d1 1 9.0 s\nq1 Q0 d2 2 8.0 s\nq2 Q0 d5 1 1.0 s\n"


@pytest.mark.parametrize("text, kind, message", [
    (_TOP + "q1 Q0 d2 3 0.5 s\n", ValidationError,
     "duplicate document 'd2' for topic 'q1' in run 's'"),
    (_TOP + "q1 Q0 d3 x 0.5 s\n", ParseError, "line 4: rank is not an integer: 'x'"),
    (_TOP + "q1 Q0 d3 3 nan s\n", ParseError, "line 4: score is not a number: 'nan'"),
    (_TOP + "q1 Q0 d3 3 0.5 t\n", ValidationError,
     "run file mixes system tags 's' and 't'; "
     "pass a system tag override to read it as a single system"),
    (_TOP + "q1 Q0 d3 3 0.5\n", ParseError, "line 4: expected 6 columns, got 5"),
], ids=["duplicate-doc", "rank", "score-nan", "mixed-tags", "columns"])
def test_depth_limited_load_checks_every_line(tmp_path, text, kind, message):
    path = tmp_path / "a.run"
    path.write_text(text)
    for depth in (None, 1):
        with pytest.raises(kind) as info:
            load_runs([path], depth=depth)
        assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("name, content, kind, message", [
    ("bad.run", "q1 Q0 d1 1 1.0 s\nq1 Q0 d2 x 0.5 s\n", ParseError,
     "line 2: rank is not an integer: 'x'"),
    ("dup.run", "q1 Q0 d1 1 1.0 s\nq1 Q0 d1 2 0.5 s\n", ValidationError,
     "duplicate document 'd1' for topic 'q1' in run 's'"),
])
def test_load_runs_dir_errors_name_the_file(tmp_path, name, content, kind, message):
    (tmp_path / "good.run").write_text("q1 Q0 d1 1 1.0 g\n")
    path = tmp_path / name
    path.write_text(content)
    with pytest.raises(kind) as info:
        load_runs_dir(tmp_path)
    assert str(info.value) == f"{path}: {message}"
    if kind is ParseError:
        assert info.value.line_no == 2


def test_load_errors_for_non_utf8_name_the_file(tmp_path):
    run = tmp_path / "latin1.run"
    run.write_bytes(b"q1 Q0 caf\xe9 1 1.0 s\n")
    with pytest.raises(ParseError, match=f"^{run}: line 1: 'utf-8' codec"):
        load_runs([run])
    qrels = tmp_path / "latin1.qrels"
    qrels.write_bytes(b"q1 0 caf\xe9 1\n")
    with pytest.raises(ParseError, match=f"^{qrels}: line 1: 'utf-8' codec"):
        load_qrels(qrels)
    # Past the text reader's first chunk, after lines ended by \n, \r\n and \r.
    good = b"".join(b"q1 0 d%04d 1\n" % i for i in range(2000))
    qrels.write_bytes(good + b"q2 0 d1 1\r\nq2 0 d2 1\rq2 0 caf\xe9 1\n")
    with pytest.raises(ParseError) as info:
        load_qrels(qrels)
    assert info.value.line_no == 2003
    assert str(info.value) == (f"{qrels}: line 2003: 'utf-8' codec can't decode byte 0xe9 "
                               "in position 8: invalid continuation byte")
    qrels.write_text("q1 0 d1 x\n")
    with pytest.raises(ParseError, match=f"^{qrels}: line 1: grade is not an integer"):
        load_qrels(qrels)


def test_write_atomic_failure_leaves_no_partial_file(tmp_path, monkeypatch):
    target = tmp_path / "out.qrels"
    real_write_text = pathlib.Path.write_text

    def disk_full(self, text, encoding=None):
        real_write_text(self, text[: len(text) // 2], encoding=encoding)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
    with pytest.raises(OSError, match="No space"):
        save_qrels(parse_qrels(QRELS_TEXT), target)
    assert list(tmp_path.iterdir()) == []

    monkeypatch.undo()
    target.write_text("old\n")

    def no_space(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", no_space)
    with pytest.raises(OSError, match="No space"):
        write_atomic(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.qrels"]
    assert target.read_text() == "old\n"


def test_write_atomic_temp_names_differ_per_thread(tmp_path, monkeypatch):
    temps = []
    real_replace = os.replace

    def spy(src, dst):
        temps.append(pathlib.Path(src).name)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    write_atomic(tmp_path / "a.txt", "main\n")
    worker = threading.Thread(target=write_atomic, args=(tmp_path / "a.txt", "thread\n"))
    worker.start()
    worker.join()
    assert len(set(temps)) == 2
    assert all(f"-{os.getpid()}-" in name for name in temps)
    assert (tmp_path / "a.txt").read_text() == "thread\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_save_qrels(tmp_path):
    q = parse_qrels(QRELS_TEXT)
    path = tmp_path / "out.qrels"
    save_qrels(q, path)
    assert parse_qrels(path.read_text()) == q


# Parse and validation errors, each with its exact message; a blank line
# still counts towards the line number.
@pytest.mark.parametrize("text, kind, message", [
    ("q1 Q0 d1 1 2.0 s\n\nq1 Q0 d2 1 2.0\n", ParseError,
     "line 3: expected 6 columns, got 5"),
    ("q1 Q0 d1 1 2.0 s x\n", ParseError, "line 1: expected 6 columns, got 7"),
    ("q1 Q0 d1 1 2.0 s\nq1 Q0 d2 x 2.0\n", ParseError,
     "line 2: expected 6 columns, got 5"),
    ("q1 Q0 d1 1 2.0 s\nq1 Q0 d2 1.0 2.0 s\n", ParseError,
     "line 2: rank is not an integer: '1.0'"),
    ("q1 Q0 d1 x notafloat s\n", ParseError, "line 1: rank is not an integer: 'x'"),
    ("\tq1 Q0 d1 1 2,5 s\n", ParseError, "line 1: score is not a number: '2,5'"),
    # A NaN score has no place in the order, which would then follow the input.
    ("q1 Q0 d1 1 1.0 s\nq1 Q0 d2 2 nan s\nq1 Q0 d3 3 0.5 s\n", ParseError,
     "line 2: score is not a number: 'nan'"),
    ("q1 Q0 d2 2 nan s\nq1 Q0 d3 3 0.5 s\nq1 Q0 d1 1 1.0 s\n", ParseError,
     "line 1: score is not a number: 'nan'"),
    ("q1 Q0 d1 1 2.0 one\nq1 Q0 d2 2 1.0 two\n", ValidationError,
     "run file mixes system tags 'one' and 'two'; "
     "pass a system tag override to read it as a single system"),
    ("q1 Q0 d1 1 2.0 s\nq2 Q0 d1 1 2.0 s\nq1 Q0 d1 2 1.0 s\n", ValidationError,
     "duplicate document 'd1' for topic 'q1' in run 's'"),
], ids=["columns-few", "columns-many", "columns-before-rank", "rank-float",
        "rank-before-score", "score", "score-nan-second", "score-nan-first", "mixed-tags",
        "duplicate-doc"])
def test_parse_run_error_messages(text, kind, message):
    with pytest.raises(kind) as info:
        parse_run(text)
    assert type(info.value) is kind
    assert str(info.value) == message
    if kind is ParseError:
        assert info.value.line_no == int(message.split(":")[0].split()[1])


def test_parse_run_override_names_its_tag_in_errors():
    text = "q1 Q0 d1 1 2.0 one\nq1 Q0 d1 2 1.0 two\n"
    with pytest.raises(ValidationError) as info:
        parse_run(text, system_tag_override="merged")
    assert str(info.value) == "duplicate document 'd1' for topic 'q1' in run 'merged'"


def _reference_serialize(text: str, tag: str) -> str:
    # The serialised form of a parsed run, written out independently of
    # the parser: score descending, doc id descending on ties, ranks 1..n,
    # scores as repr.
    topics: dict[str, list[tuple[str, float]]] = {}
    for raw in text.splitlines():
        parts = raw.split()
        if parts:
            topics.setdefault(parts[0], []).append((parts[2], float(parts[4])))
    lines = []
    for topic in sorted(topics):
        ordered = sorted(topics[topic], key=lambda e: (e[1], e[0]), reverse=True)
        lines += [f"{topic} Q0 {doc} {i + 1} {score!r} {tag}\n"
                  for i, (doc, score) in enumerate(ordered)]
    return "".join(lines)


_SCORES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.5e-8, -7e300]),  # ties
    st.floats(allow_nan=True, allow_infinity=True),
)
_SCORE_TEXT = [repr, lambda x: f"{x:e}", lambda x: f"{x:.3E}", lambda x: f"{x:.17g}"]


@st.composite
def _run_texts(draw):
    lines = []
    for topic in draw(st.lists(st.sampled_from(["q1", "q2", "q10", "301"]),
                               min_size=1, max_size=3, unique=True)):
        docs = draw(st.lists(st.sampled_from([f"d{i}" for i in range(12)] + ["D0", "a-1"]),
                             min_size=1, max_size=8, unique=True))
        for doc in docs:
            score = draw(_SCORES)
            form = draw(st.sampled_from(_SCORE_TEXT))
            rank = draw(st.integers(-3, 2000))
            sep = draw(st.sampled_from([" ", "\t", "  ", " \t"]))
            lines.append(sep.join([topic, "Q0", doc, str(rank), form(score), "sys"]))
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(text=_run_texts())
def test_parse_serialize_round_trip(text):
    if "nan" in text.lower():  # every spelling of a NaN score is rejected
        with pytest.raises(ParseError, match="score is not a number: '-?(nan|NAN)'"):
            parse_run(text)
        return
    rs = parse_run(text)
    out = serialize_run(rs)
    assert out == _reference_serialize(text, "sys")
    again = parse_run(out)
    assert serialize_run(again) == out
    assert again == rs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(texts=st.lists(_run_texts(), min_size=1, max_size=3), depth=st.integers(1, 10))
def test_depth_limited_load_is_the_full_load_prefix(texts, depth):
    # Up to 8 documents per topic, so depths 9 and 10 run past every end.
    with tempfile.TemporaryDirectory() as td:
        paths = []
        for i, text in enumerate(texts):
            paths.append(pathlib.Path(td) / f"s{i}.run")
            paths[-1].write_text(text)
        try:
            full = load_runs(paths, tag_from_filename=True)
        except ParseError as exc:
            with pytest.raises(ParseError) as info:
                load_runs(paths, tag_from_filename=True, depth=depth)
            assert str(info.value) == str(exc)
            return
        limited = load_runs(paths, tag_from_filename=True, depth=depth)
    assert limited == _prefix(full, depth)
    first: dict[str, str] = {}
    assert all(first.setdefault(doc, doc) is doc for doc in _doc_id_objects(limited))
