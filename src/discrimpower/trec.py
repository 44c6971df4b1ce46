"""Readers and writers for TREC run and qrels file formats.

Run files are whitespace-separated six-column lines
(``topic Q0 docid rank score tag``); qrels files are four-column lines
(``topic iteration docid grade``). Parsed collections are plain
dataclasses and are treated as immutable after construction, so they can
be shared freely between threads and processes.

A :class:`Ranking` keeps its scores as one packed ``array('d')``, eight
bytes per run line, rather than a Python ``float`` object per line. The
``load_runs*`` functions take a ``depth``: every line is still read and
checked, but each topic keeps only its first ``depth`` documents after
sorting. The files one command loads share one ``str`` per distinct
topic id and kept document id, and ``compare`` and ``sweep`` drop them
once scored, before the test; a library call shares the strings across
the files it loads. That saves memory when ids repeat across files,
systems and topics, and costs a dict lookup per id, plus a pool entry
per distinct id, when they do not.
The ``load_*`` functions name the file in every error they raise for its
contents, and the line of the first byte that is not UTF-8.
"""

from __future__ import annotations

import io
import os
import re
import threading
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .errors import ConfigurationError, DiscrimPowerError, ParseError, ValidationError

GROUND_TRUTH = "ground_truth"
CANDIDATE = "candidate"


@dataclass(frozen=True, slots=True)
class Ranking:
    """One topic's ranking: ``doc_ids[i]`` has ``scores[i]`` and rank ``i + 1``.

    Any iterables may be passed: ``doc_ids`` is stored as a tuple and
    ``scores`` as a new ``array('d')``, so rankings built from tuples
    equal parsed ones. ``tuple(ranking.scores)`` gives the scores as
    Python floats.
    """

    doc_ids: tuple[str, ...]
    scores: array

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", tuple(self.doc_ids))
        object.__setattr__(self, "scores", array("d", self.scores))

    def __hash__(self):
        return hash((self.doc_ids, tuple(self.scores)))


@dataclass
class RunSet:
    """Per-system, per-topic rankings.

    ``runs[system_tag][topic_id]`` is a :class:`Ranking` sorted by (score
    descending, doc_id descending), the dominant evaluation-tool
    convention for tie-breaking.
    """

    runs: dict[str, dict[str, Ranking]] = field(default_factory=dict)

    def systems(self) -> list[str]:
        return sorted(self.runs)

    def topics(self) -> list[str]:
        seen: set[str] = set()
        for per_topic in self.runs.values():
            seen.update(per_topic)
        return sorted(seen)


@dataclass
class Qrels:
    """Relevance judgments: ``(topic_id, doc_id) -> integer grade``.

    ``role`` records whether the set is used as ground truth or as a
    candidate under evaluation; it is metadata and does not take part in
    equality. ``clamp_warnings`` counts negative input grades that were
    clamped to 0 during parsing.
    """

    judgments: dict[tuple[str, str], int] = field(default_factory=dict)
    role: str = field(default=GROUND_TRUTH, compare=False)
    clamp_warnings: int = field(default=0, compare=False)

    def topics(self) -> list[str]:
        return sorted({topic for topic, _ in self.judgments})

    def by_topic(self) -> dict[str, dict[str, int]]:
        """Group judgments as ``topic_id -> {doc_id: grade}``."""
        grouped: dict[str, dict[str, int]] = {}
        for (topic, doc), grade in self.judgments.items():
            grouped.setdefault(topic, {})[doc] = grade
        return grouped

    def grade(self, topic_id: str, doc_id: str, default: int = 0) -> int:
        return self.judgments.get((topic_id, doc_id), default)


def _iter_lines(source) -> Iterator[str]:
    # Text is split as a text-mode file is: at \n, \r\n and \r only.
    # str.splitlines would also split at \x0c, \x85, \u2028 and others.
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    if isinstance(source, str):
        return iter(io.StringIO(source, newline=None))
    return iter(source)  # file object or any iterable of lines


def parse_run(source, system_tag_override: str | None = None, *,
              _ids: dict[str, str] | None = None, _depth: int | None = None) -> RunSet:
    """Parse one system's TREC run file.

    The tag column (or ``system_tag_override``) becomes the system tag.
    Input order and the rank column are ignored: every topic becomes a
    :class:`Ranking` sorted by (score descending, doc_id descending).

    Raises :class:`ParseError` for malformed lines, NaN scores included, and
    :class:`ValidationError` for duplicate documents within a topic or
    for files mixing several system tags without an override.
    """
    # ``_ids`` maps each topic and kept doc id to the one string kept for it
    # across a load; None starts a new pool. Every line is checked; only the
    # first ``_depth`` of each sorted topic are kept.
    return _cut_run(*_read_run(source, system_tag_override), _ids, _depth)


def _read_run(source, system_tag_override: str | None) -> tuple[str | None, dict]:
    """The run's tag (None if it has no lines) and each topic's scores by doc id."""
    tag_seen: str | None = None
    topics: dict[str, dict[str, float]] = {}
    topic_seen: str | None = None
    docs: dict[str, float]
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise ParseError(line_no, f"expected 6 columns, got {len(parts)}")
        topic, _iteration, doc_id, rank_s, score_s, tag = parts
        try:
            int(rank_s)
        except ValueError:
            raise ParseError(line_no, f"rank is not an integer: {rank_s!r}") from None
        try:
            score = float(score_s)
        except ValueError:
            score = float("nan")
        if score != score:  # a NaN would leave the order to the input order
            raise ParseError(line_no, f"score is not a number: {score_s!r}")
        if system_tag_override is not None:
            tag = system_tag_override
        if tag_seen is None:
            tag_seen = tag
        elif tag != tag_seen:
            raise ValidationError(
                f"run file mixes system tags {tag_seen!r} and {tag!r}; "
                "pass a system tag override to read it as a single system"
            )
        if topic != topic_seen:  # rare: run files group their lines by topic
            docs = topics.setdefault(topic, {})
            topic_seen = topic
        if doc_id in docs:
            raise ValidationError(
                f"duplicate document {doc_id!r} for topic {topic!r} in run {tag!r}"
            )
        docs[doc_id] = score
    return tag_seen, topics


def _cut_run(tag: str | None, topics: dict[str, dict[str, float]],
             ids: dict[str, str] | None, depth: int | None) -> RunSet:
    """The run set of ``_read_run``'s output, each topic sorted and cut to ``depth``."""
    if tag is None:
        return RunSet()
    ids = {} if ids is None else ids
    rankings = {}
    for topic, docs in topics.items():
        # Sorting (score, doc_id) pairs descending breaks ties on doc_id.
        scores, doc_ids = zip(*sorted(zip(docs.values(), docs.keys()), reverse=True)[:depth])
        rankings[ids.setdefault(topic, topic)] = Ranking(map(ids.setdefault, doc_ids, doc_ids),
                                                         scores)
    return RunSet({tag: rankings})


def _check_max_grade(max_grade: int) -> int:
    # Grades are scored from int64 buffers (``measures._union_judgments``).
    if max_grade < 0:
        raise ConfigurationError(f"max_grade must be >= 0, got {max_grade}")
    if max_grade >= 2 ** 63:
        raise ConfigurationError(f"max_grade must be below 2^63, got {max_grade}")
    return max_grade


def parse_qrels(source, max_grade: int = 3, role: str = GROUND_TRUTH, *,
                _ids: dict[str, str] | None = None) -> Qrels:
    """Parse a TREC qrels file.

    The second (iteration) column is ignored. Negative grades are clamped
    to 0 and counted in ``clamp_warnings``; grades above ``max_grade``
    are rejected, and a ``max_grade`` below 0 or of 2^63 or more is a
    :class:`ConfigurationError`.
    """
    # ``_ids`` maps each topic and doc id to the one string kept for it in a
    # load; None starts a new pool.
    ids = {} if _ids is None else _ids
    _check_max_grade(max_grade)
    judgments: dict[tuple[str, str], int] = {}
    clamped = 0
    for line_no, raw in enumerate(_iter_lines(source), start=1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 4:
            raise ParseError(line_no, f"expected 4 columns, got {len(parts)}")
        topic, _iteration, doc_id, grade_s = parts
        try:
            grade = int(grade_s)
        except ValueError:
            raise ParseError(line_no, f"grade is not an integer: {grade_s!r}") from None
        key = (ids.setdefault(topic, topic), ids.setdefault(doc_id, doc_id))
        if key in judgments:
            raise ValidationError(
                f"duplicate judgment for topic {topic!r}, document {doc_id!r}"
            )
        if grade < 0:
            grade = 0
            clamped += 1
        if grade > max_grade:
            raise ValidationError(
                f"grade {grade} for topic {topic!r}, document {doc_id!r} "
                f"exceeds the maximum grade {max_grade}"
            )
        judgments[key] = grade
    return Qrels(judgments=judgments, role=role, clamp_warnings=clamped)


def serialize_qrels(qrels: Qrels) -> str:
    """Emit the four-column qrels format, sorted by (topic, doc)."""
    return "".join(
        f"{topic} 0 {doc} {grade}\n"
        for (topic, doc), grade in sorted(qrels.judgments.items())
    )


# The CLI's run cache keeps cut run sets as serialize_run writes them, keyed
# by this number among others. Bump it whenever a change to parse_run,
# _iter_lines, _read_run, _cut_run, serialize_run or Ranking could change
# what a cached cut holds; tests/test_trec.py pins their source to it.
_CUT_FORMAT = 1


def serialize_run(runset: RunSet) -> str:
    """Emit the six-column run format.

    Scores are written with ``repr`` so that parsing the output
    reproduces the exact same floats.
    """
    lines: list[str] = []
    for tag in runset.systems():
        per_topic = runset.runs[tag]
        for topic in sorted(per_topic):
            ranking = per_topic[topic]
            for i, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores)):
                lines.append(f"{topic} Q0 {doc_id} {i + 1} {score!r} {tag}\n")
    return "".join(lines)


def _true_false(value) -> str:
    return "true" if value else "false"


_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _csv_cell(text: str) -> str:
    """``text`` as one CSV field, quoted as the ``csv`` module quotes by default."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(columns: Sequence[tuple[str, Callable]], rows: Iterable) -> str:
    """Comma-separated text: the column names, then one line per row.

    ``columns`` pairs each column name with the function that writes its
    cells. A row is a dict with exactly those keys or a sequence of one
    value per column, so no value is written without a declared format.
    Only a field holding a comma, a double quote, CR or LF is quoted.
    """
    names = [name for name, _ in columns]
    declared = set(names)
    lines = [",".join(map(_csv_cell, names))]
    for row in rows:
        if isinstance(row, dict):
            if row.keys() != declared:
                raise ValidationError(f"row and columns differ in {sorted(row.keys() ^ declared)}")
            row = [row[name] for name in names]
        elif len(row) != len(names):
            raise ValidationError(f"row has {len(row)} values for {len(names)} columns")
        lines.append(",".join(_csv_cell(write(value)) for (_, write), value in zip(columns, row)))
    return "\n".join(lines) + "\n"


def _sweep_summary(cell_fractions: Sequence[float], columns: dict, fractions) -> dict:
    """``summary[fraction][name]``: the population (mean, variance, defined
    count) of column ``name``'s defined (not None) cells of that fraction, or
    (None, None, 0) where none is defined. Both sums add left to right, as
    ``sequential_row_means`` does; ``sum()`` is compensated from Python 3.12 on."""
    summary = {fraction: dict.fromkeys(columns, (None, None, 0)) for fraction in fractions}
    for name, cells in columns.items():
        for fraction, per_column in summary.items():
            values = [v for f, v in zip(cell_fractions, cells) if f == fraction and v is not None]
            if values:
                n = len(values)
                total = squares = 0.0
                for v in values:
                    total += v
                mean = total / n
                for v in values:
                    squares += (v - mean) ** 2
                per_column[name] = (mean, squares / n, n)
    return summary


def _undecodable_line(path) -> ParseError | None:
    # The text reader reports a position inside its current chunk, so the
    # error path reads the file again as bytes to find the line. Lines end
    # where universal newlines end them, and no UTF-8 sequence spans a
    # line end, so the first line that fails is the one at fault.
    for line_no, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(line_no, str(exc))
    return None


@contextmanager
def _naming(path):
    # A parse error keeps its type; undecodable text becomes a ParseError
    # on the line that holds the bad byte.
    try:
        yield
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except UnicodeDecodeError as exc:
        error = _undecodable_line(path) or DiscrimPowerError(str(exc))
        error.args = (f"{path}: {error}",)
        raise error from exc


def load_run(path, system_tag_override: str | None = None, tag_from_filename: bool = False,
             *, _ids: dict[str, str] | None = None, _depth: int | None = None,
             _cache: Path | None = None) -> RunSet:
    """Load one run file; errors name the file."""
    # With ``_cache`` and ``_depth``, ``_runcache`` reads the cut run set from
    # the directory ``_cache`` or parses the file and keeps its cut there.
    path = Path(path)
    tag = path.stem if tag_from_filename else system_tag_override
    if _cache is not None and _depth is not None:
        try:
            from ._runcache import load_cached
        except ImportError:  # a Python built without BLAKE2b loads uncached
            pass
        else:
            return load_cached(path, tag, _cache, _depth, _ids)
    with _naming(path), open(path, encoding="utf-8") as fh:
        return parse_run(fh, tag, _ids=_ids, _depth=_depth)


def _check_depth(depth: int | None) -> None:
    if depth is not None and depth < 1:
        raise ConfigurationError(f"depth must be >= 1, got {depth}")


def load_runs(paths, tag_from_filename: bool = False, depth: int | None = None, *,
              _ids: dict[str, str] | None = None, _cache: Path | None = None) -> RunSet:
    """Load an explicit list of run files, one system per file.

    With ``depth``, each topic keeps only its first ``depth`` documents
    after sorting; every line is still read and checked. A tag found in
    two files is a :class:`ValidationError`.
    """
    _check_depth(depth)
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValidationError("no run files given")
    ids = {} if _ids is None else _ids
    combined: dict[str, dict[str, Ranking]] = {}
    for runset in (load_run(p, tag_from_filename=tag_from_filename, _ids=ids, _depth=depth,
                            _cache=_cache)
                   for p in paths):
        for tag, topics in runset.runs.items():
            if tag in combined:
                raise ValidationError(f"duplicate system tag {tag!r} across run files")
            combined[tag] = topics
    return RunSet(combined)


def load_runs_dir(directory, tag_from_filename: bool = False, depth: int | None = None, *,
                  _ids: dict[str, str] | None = None, _cache: Path | None = None) -> RunSet:
    """Load every regular file in ``directory`` as one run each."""
    _check_depth(depth)
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if p.is_file())
    if not paths:
        raise ValidationError(f"no run files in {directory}")
    return load_runs(paths, tag_from_filename, depth, _ids=_ids, _cache=_cache)


def load_qrels(path, max_grade: int = 3, role: str = GROUND_TRUTH, *,
               _ids: dict[str, str] | None = None) -> Qrels:
    """Load one qrels file; errors name the file."""
    with _naming(path), open(path, encoding="utf-8") as fh:
        return parse_qrels(fh, max_grade, role, _ids=_ids)


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 through a temporary file.

    The temporary file sits next to ``path`` under a name unique to this
    process and thread, and ``os.replace`` moves it into place, so
    readers see the old file or the whole new one. A failed write
    removes the temporary file and leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_qrels(qrels: Qrels, path) -> None:
    write_atomic(path, serialize_qrels(qrels))
