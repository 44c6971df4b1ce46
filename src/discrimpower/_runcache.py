"""The CLI's run cache: each run file cut to a depth, kept under a digest
of the file's bytes, the depth and the tag. See ``trec.load_run``."""

from __future__ import annotations

# _blake2 is the module behind hashlib.blake2b. Importing hashlib loads
# OpenSSL, about 3.6 MB of peak RSS in evaluate, which needs no hashlib.
import _blake2
import io
import os
from pathlib import Path

from . import __version__
from .trec import (_CUT_FORMAT, RunSet, _cut_run, _naming, _read_run, parse_run, serialize_run,
                   write_atomic)


def _cache_key(fh, depth: int, tag: str | None) -> str:
    """The cache key of the rest of the binary file ``fh``, cut to ``depth``
    and read with ``tag``."""
    # A tag has no whitespace, so this first line is read one way only.
    key = _blake2.blake2b(f"{__version__} {_CUT_FORMAT} {depth} {tag or ''}\n".encode(),
                          digest_size=32)
    buf = bytearray(1 << 16)
    while n := fh.readinto(buf):
        key.update(memoryview(buf)[:n])
    return key.hexdigest()


def _stamp(fh) -> tuple[int, int, int]:
    stat = os.fstat(fh.fileno())
    return stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns


def _entry_check(body: bytes) -> str:
    return _blake2.blake2b(body, digest_size=16).hexdigest()


def _read_entry(entry: Path, ids: dict[str, str] | None) -> RunSet | None:
    # An entry is its body's digest on one line, then the run set as
    # serialize_run wrote it. A missing, unreadable or damaged entry is a miss.
    try:
        check, _, body = entry.read_bytes().partition(b"\n")
    except OSError:
        return None
    return parse_run(body, _ids=ids) if check == _entry_check(body).encode() else None


def load_cached(path: Path, tag: str | None, cache: Path, depth: int,
                ids: dict[str, str] | None) -> RunSet:
    """``path`` cut to ``depth``, from its entry in ``cache`` or parsed.

    Errors only ever come from the file, and a file that fails to parse
    leaves no entry. An entry is written only for a cut that drops lines,
    and only if the file did not change while it was read.
    """
    # A tag holding whitespace or a character UTF-8 cannot encode would not
    # survive serialize_run and write_atomic.
    use_cache = tag is None or (tag.split() == [tag] and tag.isprintable())
    with _naming(path), open(path, "rb") as fh:
        if use_cache:
            stamp = _stamp(fh)
            key = _cache_key(fh, depth, tag)
            runset = _read_entry(cache / key, ids)
            if runset is not None:
                return runset
            fh.seek(0)
        # A miss reads the file a second time, through the same descriptor:
        # a write in between changes its size or its times.
        text = io.TextIOWrapper(fh, encoding="utf-8")
        found_tag, topics = _read_run(text, tag)
        use_cache = (use_cache and _stamp(fh) == stamp
                     and any(len(docs) > depth for docs in topics.values()))
    runset = _cut_run(found_tag, topics, ids, depth)
    del topics  # the uncut run goes before the entry is built
    if use_cache:
        body = serialize_run(runset)
        try:
            write_atomic(cache / key, f"{_entry_check(body.encode())}\n{body}")
        except OSError:
            pass  # the cache is never an error
    return runset
