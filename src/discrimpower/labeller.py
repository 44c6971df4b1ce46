"""Zero-shot relevance labelling through a chat-completion endpoint.

Each (query, document) pair is rendered into a grading prompt and sent
to an OpenAI-compatible ``/chat/completions`` endpoint at temperature 0;
the first integer on the grading scale found in the reply becomes the
grade. Replies are cached on disk keyed by a hash of (model, prompt), so
re-running a labelling job only pays for pairs it has not seen.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import os
import re
import ssl
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence
from urllib.parse import urlsplit

from .errors import ConfigurationError, DiscrimPowerError
from .trec import CANDIDATE, Qrels, write_atomic

log = logging.getLogger(__name__)

_INT_RE = re.compile(r"-?\d+")

DEFAULT_PROMPT_TEMPLATE = """\
You are a search relevance assessor. Given a query and a document, \
assign a relevance grade on this scale:

3: perfectly relevant, the document is dedicated to the query and answers it
2: highly relevant, substantial parts of the document answer the query
1: related, the document mentions the topic but does not answer the query
0: irrelevant, the document has nothing to do with the query

Query: {query}

Document: {document}

Answer with a single integer grade and nothing else."""


class TransportError(DiscrimPowerError):
    """The endpoint could not be reached or kept failing."""


class ResponseParseError(DiscrimPowerError):
    """The endpoint replied, but no grade could be extracted."""

    def __init__(self, message: str, raw_response: str = ""):
        super().__init__(message)
        self.raw_response = raw_response


class LabellingError(DiscrimPowerError):
    """One or more pairs failed after retries; carries the failures.

    The message names the first failure's cause on the same line, so a
    wrong scheme, a refused connection and a rejected request read apart.
    """

    def __init__(self, failures: list):
        keys = ", ".join(f"({t}, {d})" for t, d, _ in failures[:5])
        more = f" and {len(failures) - 5} more" if len(failures) > 5 else ""
        first = " ".join(str(failures[0][2]).split())  # a rejection body may span lines
        super().__init__(f"{len(failures)} pair(s) failed: {keys}{more}; first: {first}")
        self.failures = failures


@dataclass(frozen=True)
class LabellerConfig:
    endpoint: str
    model: str
    prompt_template: str = DEFAULT_PROMPT_TEMPLATE
    scale_max: int = 3
    timeout: float = 60.0
    max_retries: int = 3
    cache_dir: Optional[Path] = None
    rate_limit: Optional[float] = None  # requests per second
    concurrency: int = 4
    api_key_env: str = "LLM_API_KEY"

    def __post_init__(self):
        try:  # urlsplit and .port raise ValueError for a malformed host or port
            parts = urlsplit(self.endpoint)
            bad_endpoint = parts.scheme not in ("http", "https") or not parts.hostname
            parts.port
        except ValueError:
            bad_endpoint = True
        if bad_endpoint:
            raise ConfigurationError(
                f"endpoint must look like http(s)://host[:port]/path, got {self.endpoint!r}")
        for slot in ("{query}", "{document}"):
            if slot not in self.prompt_template:
                raise ConfigurationError(f"prompt template is missing the {slot} slot")
        if self.scale_max < 1:
            raise ConfigurationError("scale_max must be >= 1")
        if not 0 < self.timeout <= threading.TIMEOUT_MAX:  # a socket overflows above the max
            bound = f"at most {threading.TIMEOUT_MAX:.0f}" if self.timeout > 0 else "> 0"
            raise ConfigurationError(f"timeout must be {bound} seconds, got {self.timeout}")
        if self.max_retries < 1:
            raise ConfigurationError("max_retries must be >= 1")
        if self.rate_limit is not None and not self.rate_limit > 0:  # NaN fails too
            raise ConfigurationError("rate_limit must be positive when set")
        if self.concurrency < 1:
            raise ConfigurationError("concurrency must be >= 1")


class LabelledPair(NamedTuple):
    topic_id: str
    doc_id: str
    grade: int
    raw_response: str
    cached: bool
    clamped: bool = False


def extract_grade(text: str, scale_max: int) -> tuple[int, bool]:
    """Pull a grade from a model reply.

    Returns (grade, clamped). The first integer within [0, scale_max]
    wins; if every integer is out of range the first one is clamped into
    range instead of discarded, since an over-enthusiastic "10/10" style
    reply still carries signal. No integer at all is an error.
    """
    found = [int(m) for m in _INT_RE.findall(text)]
    if not found:
        raise ResponseParseError("no integer grade in model reply", raw_response=text)
    for value in found:
        if 0 <= value <= scale_max:
            return value, False
    clamped = min(max(found[0], 0), scale_max)
    log.warning("grade %d outside [0, %d]; clamped to %d", found[0], scale_max, clamped)
    return clamped, True


class _RateLimiter:
    """Hands out send times at most ``rate`` per second, thread-safe."""

    def __init__(self, rate: float):
        self._interval = 1.0 / rate
        self._lock = threading.Lock()
        self._next_allowed = 0.0

    def wait(self):
        with self._lock:
            now = time.monotonic()
            slot = max(now, self._next_allowed)
            self._next_allowed = slot + self._interval
        delay = slot - now
        if delay > 0:
            time.sleep(delay)


def _cache_path(cfg: LabellerConfig, prompt: str) -> Optional[Path]:
    if cfg.cache_dir is None:
        return None
    digest = hashlib.sha256(
        cfg.model.encode() + b"\x00" + prompt.encode()
    ).hexdigest()
    return Path(cfg.cache_dir) / f"{digest}.json"


# A 3xx is the reply: urllib would re-send a 301-303 POST as a GET, API key and all.
class _NoRedirects(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args):
        return None


_OPENER = urllib.request.build_opener(_NoRedirects)


def _post_completion(cfg: LabellerConfig, prompt: str) -> str:
    """POST the prompt; return the reply text. Retries 5xx, 429 and non-TLS connection errors."""
    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(cfg.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    body = json.dumps({
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": 0,
    }).encode()
    last_error: Exception | None = None
    for attempt in range(cfg.max_retries):
        if attempt > 0:
            time.sleep(min(wait, 8))
        wait = 2 ** attempt  # before the next attempt, unless a 429 names the seconds
        request = urllib.request.Request(cfg.endpoint, body, headers)  # a proxy rewrites it
        try:  # a body cut short or a timeout while reading is a failed attempt too
            try:
                resp = _OPENER.open(request, timeout=cfg.timeout)
            except urllib.request.HTTPError as reply:  # any status outside 2xx
                resp = reply
            with resp:
                status, reply_headers, raw = resp.status, resp.headers, resp.read()
        except (OSError, http.client.HTTPException) as exc:
            reason = getattr(exc, "reason", None)  # an EOF in the handshake may be transient
            if isinstance(reason, ssl.SSLError) and not isinstance(reason, ssl.SSLEOFError):
                raise TransportError(f"TLS handshake failed: {reason}") from None
            last_error = exc
            continue
        except ValueError:  # http.client refused the URL or a header; do not echo the key
            raise TransportError(f"request not sent: the endpoint or ${cfg.api_key_env} "
                                 "holds a character HTTP forbids") from None
        text = raw.decode("utf-8", errors="replace")
        if status == 429:  # an HTTP-date Retry-After keeps the back-off
            value = reply_headers.get("Retry-After", "").strip()
            wait = int(value) if value.isascii() and value.isdigit() else wait
            last_error = TransportError("rate limited: 429")
            continue
        if status >= 500:
            last_error = TransportError(f"server error {status}")
            continue
        if status != 200:  # a 3xx is not followed: name where it pointed instead
            location = reply_headers["Location"] if 300 <= status < 400 else None
            detail = f"redirect to {location}" if location else text[:200].strip()
            raise TransportError(" ".join(filter(None, (f"request rejected: {status}", detail))))
        try:
            return json.loads(raw)["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            raise ResponseParseError("malformed completion response", raw_response=text[:1000])
    raise TransportError(f"gave up after {cfg.max_retries} attempts: {last_error}")


def label_pair(
    query_text: str,
    doc_text: str,
    cfg: LabellerConfig,
    topic_id: str = "",
    doc_id: str = "",
    _limiter: Optional[_RateLimiter] = None,
) -> LabelledPair:
    """Grade one (query, document) pair, via the cache when possible."""
    prompt = cfg.prompt_template.format(query=query_text, document=doc_text)
    cache_file = _cache_path(cfg, prompt)
    if cache_file is not None and cache_file.exists():
        try:
            entry = json.loads(cache_file.read_text(encoding="utf-8"))
            grade = entry["grade"]
            if type(grade) is not int or not 0 <= grade <= cfg.scale_max:
                raise ValueError(f"cached grade {grade!r} is not in 0..{cfg.scale_max}")
            return LabelledPair(
                topic_id, doc_id, grade, entry["raw_response"], True,
                entry.get("clamped", False),
            )
        except (ValueError, KeyError, TypeError):
            # Not UTF-8, not JSON, not an object with both fields, or a
            # grade that is not an int on the scale: a miss, and the write
            # below replaces the entry.
            log.warning("ignoring corrupt cache entry %s", cache_file)

    if _limiter is not None:
        _limiter.wait()
    reply = _post_completion(cfg, prompt)
    grade, clamped = extract_grade(reply, cfg.scale_max)

    if cache_file is not None:
        cache_file.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(cache_file, json.dumps(
            {"grade": grade, "raw_response": reply, "clamped": clamped}
        ))
    return LabelledPair(topic_id, doc_id, grade, reply, False, clamped)


def label_qrels(
    pairs: Sequence[tuple[str, str, str, str]],
    cfg: LabellerConfig,
    skip_failures: bool = False,
) -> tuple[Qrels, list[LabelledPair]]:
    """Grade (topic_id, doc_id, query_text, doc_text) pairs concurrently.

    Returns the assembled candidate qrels and the per-pair detail list,
    ordered by (topic_id, doc_id). Failures abort the whole job unless
    ``skip_failures`` is set, in which case failed pairs are dropped.
    """
    seen = set()
    for topic_id, doc_id, _, _ in pairs:
        if (topic_id, doc_id) in seen:
            raise ConfigurationError(f"duplicate pair ({topic_id}, {doc_id})")
        seen.add((topic_id, doc_id))

    limiter = _RateLimiter(cfg.rate_limit) if cfg.rate_limit else None
    results: list[LabelledPair] = []
    failures: list[tuple[str, str, Exception]] = []
    with ThreadPoolExecutor(max_workers=cfg.concurrency) as pool:
        futures = {
            pool.submit(
                label_pair, query, doc, cfg,
                topic_id=tid, doc_id=did, _limiter=limiter,
            ): (tid, did)
            for tid, did, query, doc in pairs
        }
        done = 0
        for fut in as_completed(futures):
            tid, did = futures[fut]
            try:
                results.append(fut.result())
            except DiscrimPowerError as exc:
                failures.append((tid, did, exc))
            done += 1
            if done % 50 == 0 or done == len(futures):
                log.info("labelled %d/%d pairs", done, len(futures))

    if failures and not skip_failures:
        raise LabellingError(sorted(failures, key=lambda failure: failure[:2]))
    results.sort(key=lambda r: (r.topic_id, r.doc_id))
    judgments = {(r.topic_id, r.doc_id): r.grade for r in results}
    return Qrels(judgments=judgments, role=CANDIDATE), results


def _read_tsv(path: Path, n_cols: int, what: str) -> list[tuple]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t", n_cols - 1)
            if len(parts) != n_cols:
                raise ConfigurationError(
                    f"{path}: line {line_no}: expected {n_cols} tab-separated "
                    f"{what} fields, got {len(parts)}"
                )
            rows.append(tuple(parts))
    return rows


def load_query_texts(path: Path) -> dict[str, str]:
    """Read a ``topic_id <TAB> query text`` file."""
    return dict(_read_tsv(Path(path), 2, "query"))


def load_pair_texts(path: Path) -> dict[tuple[str, str], str]:
    """Read a ``topic_id <TAB> doc_id <TAB> document text`` file."""
    return {(t, d): text for t, d, text in _read_tsv(Path(path), 3, "pair text")}


def assemble_pairs(
    gt: Qrels,
    queries: dict[str, str],
    pair_texts: dict[tuple[str, str], str],
) -> list[tuple[str, str, str, str]]:
    """Turn a judged universe plus text lookups into labelling inputs.

    Every judged (topic, document) pair must have both texts; anything
    missing is a data error, not something to silently skip.
    """
    missing_q = sorted({t for t, _ in gt.judgments if t not in queries})
    missing_p = sorted(key for key in gt.judgments if key not in pair_texts)
    if missing_q or missing_p:
        raise ConfigurationError(
            f"missing texts for topics {missing_q[:5]} and pairs {missing_p[:5]}"
        )
    return [
        (topic, doc, queries[topic], pair_texts[(topic, doc)])
        for topic, doc in sorted(gt.judgments)
    ]
