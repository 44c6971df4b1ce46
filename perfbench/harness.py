"""Timed child processes, medians and the attempted/failed tally."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

CLI = "import sys; from discrimpower.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "import discrimpower.cli as cli; cli.build_parser()"
FIXTURE = ("import json, sys; from discrimpower.minicollection import write_mini_collection; "
           "write_mini_collection(sys.argv[1], **json.loads(sys.argv[2]))")


@dataclass(frozen=True)
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


def run_timed(argv: list[str], env: dict, log_path: Path, timeout_s: float) -> Invocation:
    """Run ``argv`` to completion; CPU and peak RSS include reaped descendants."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=log)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                      proc.returncode)


def median_with_count(values: list[float]) -> tuple[float, int]:
    if not values:
        raise ValueError("no samples")
    return statistics.median(values), len(values)


@dataclass
class Tally:
    """Every invocation and every run-level check is one attempt."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{name}: " + "; ".join(problems))
        return not problems

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, src: Path, seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "git_sha": git_sha(root),
        "src_sha256": source_digest(src),
        "seed": seed,
    }
