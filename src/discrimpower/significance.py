"""Paired randomised Tukey HSD test over all unordered system pairs.

The test controls the family-wise error rate by using a single null
distribution for every pair: in each iteration the scores inside every
topic column are independently permuted across systems, and the honestly
significant difference statistic ``HSD* = max(mean*) - min(mean*)`` of
the permuted per-system means is recorded. A pair's p-value is the
fraction of iterations whose HSD* reaches its observed absolute mean
difference.

Determinism contract: iterations are grouped in blocks of ``_BLOCK`` =
1024, and the permutations of topic ``t`` for every iteration in block
``k`` come from one counter-based stream keyed on ``(master_seed, k, t)``.
Workers split the run on block boundaries only, so p-values are
bit-identical for a fixed seed regardless of execution order or worker
count. A short last block draws only the rows it uses; numpy's
``Generator.permuted`` shuffles rows in order, so these are the first
rows of the full block, and the first ``B'`` iterations of a run with
``B > B'`` iterations are the run with ``B'``. Sampled p-values for a
given seed differ from version 0.1.0, which keyed one stream on each
(seed, iteration, topic).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .measures import ScoreMatrix, sequential_row_means
from .trec import _csv_table, _true_false

SAMPLED = "sampled"
EXHAUSTIVE = "exhaustive"

_CHUNK = 65536  # assignments vectorised per block in exhaustive mode
_BLOCK = 1024  # sampled iterations per (block, topic) stream


@dataclass(frozen=True)
class SigTestConfig:
    """Significance-test parameters.

    ``alpha_inclusive`` switches the significance rule from the default
    strict ``p < alpha`` to ``p <= alpha``.
    """

    alpha: float = 0.05
    permutations: int = 10_000
    master_seed: int = 0
    mode: str = SAMPLED
    exhaustive_cap: int = 10_000_000
    alpha_inclusive: bool = False
    n_workers: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.permutations < 1:
            raise ConfigurationError("permutation count must be >= 1")
        if self.mode not in (SAMPLED, EXHAUSTIVE):
            raise ConfigurationError(f"unknown test mode {self.mode!r}")
        if self.master_seed < 0:
            raise ConfigurationError("master_seed must be a non-negative integer")
        if self.n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")


@dataclass
class SignificanceSet:
    """P-values and the significant / non-significant pair partition.

    Pairs are unordered and stored with lexicographically sorted tags.
    """

    alpha: float
    p_values: dict[tuple[str, str], float]
    significant: dict[tuple[str, str], bool] = field(default_factory=dict)

    def __post_init__(self):
        if not self.significant:
            self.significant = {p: v < self.alpha for p, v in self.p_values.items()}

    @property
    def pairs(self) -> list[tuple[str, str]]:
        return sorted(self.p_values)

    @property
    def S(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for p, sig in self.significant.items() if sig)

    @property
    def NS(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for p, sig in self.significant.items() if not sig)


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _block_stream(master_seed: int, block: int, topic: int) -> np.random.Generator:
    # Philox counter layout: block in bits 128+, topic in bits 64..127,
    # leaving the low 64 bits for in-stream draws.
    counter = (block << 128) | (topic << 64)
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


def _null_blocks(values: np.ndarray, master_seed: int, first: int, last: int,
                 permutations: int) -> np.ndarray:
    """HSD* for the iterations of blocks [first, last), capped at ``permutations``."""
    m, n = values.shape
    identity = np.broadcast_to(np.arange(m), (_BLOCK, m))
    out = []
    for block in range(first, last):
        size = min(_BLOCK, permutations - block * _BLOCK)
        # acc[k, s] adds, in topic order as sequential_row_means does, the
        # score of the system that iteration k places in slot s. Fancy
        # indexing copies, so topic 0's gather can start the sum.
        for t in range(n):
            perms = _block_stream(master_seed, block, t).permuted(identity[:size], axis=1)
            col = values[perms, t]
            if t == 0:
                acc = col
            else:
                acc += col
        means = acc / n
        out.append(means.max(axis=1) - means.min(axis=1))
    return np.concatenate(out)


def _sampled_null(values: np.ndarray, cfg: SigTestConfig) -> np.ndarray:
    n_blocks = -(-cfg.permutations // _BLOCK)
    workers = min(cfg.n_workers, n_blocks)
    if workers == 1:
        return _null_blocks(values, cfg.master_seed, 0, n_blocks, cfg.permutations)
    from concurrent.futures import ProcessPoolExecutor  # one worker never loads multiprocessing

    bounds = [w * n_blocks // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(
            _null_blocks,
            [values] * workers,
            [cfg.master_seed] * workers,
            bounds[:-1],
            bounds[1:],
            [cfg.permutations] * workers,
        )
        return np.concatenate(list(parts))


def _exhaustive_null(values: np.ndarray, cap: int) -> np.ndarray:
    """HSD* for every one of the (m!)^n within-topic assignments."""
    m, n = values.shape
    fact = math.factorial(m)
    total = fact ** n
    if total > cap:
        raise ConfigurationError(
            f"exhaustive enumeration needs {total} assignments, above the cap "
            f"of {cap}; use sampled mode"
        )
    perm_rows = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    # col_perms[t][k] is topic t's column under the k-th permutation.
    col_perms = [values[perm_rows, t] for t in range(n)]
    null = np.empty(total)
    combos = itertools.product(range(fact), repeat=n)
    pos = 0
    while True:
        chunk = list(itertools.islice(combos, _CHUNK))
        if not chunk:
            break
        ci = np.asarray(chunk, dtype=np.intp)
        # Accumulate in topic order to match sequential_row_means exactly.
        acc = col_perms[0][ci[:, 0]].copy()
        for t in range(1, n):
            acc += col_perms[t][ci[:, t]]
        means = acc / n
        null[pos:pos + len(chunk)] = means.max(axis=1) - means.min(axis=1)
        pos += len(chunk)
    return null


def tukey_hsd_pvalues(sm: ScoreMatrix, cfg: SigTestConfig = SigTestConfig()) -> SignificanceSet:
    """Run the test on a score matrix and return all pairwise p-values.

    Sampled mode uses the add-one Monte-Carlo convention
    ``p = (1 + #{HSD* >= |diff|}) / (1 + B)``, which keeps p-values in
    (0, 1]. Exhaustive mode enumerates every assignment and returns the
    exact ratio.
    """
    values = np.asarray(sm.values, dtype=float)
    m, n = values.shape
    if m < 2:
        raise ConfigurationError("significance testing needs at least two systems")
    if n < 1:
        raise ConfigurationError("significance testing needs at least one topic")

    if cfg.mode == EXHAUSTIVE:
        null = _exhaustive_null(values, cfg.exhaustive_cap)
        add, denom = 0, null.size
    else:
        null = _sampled_null(values, cfg)
        add, denom = 1, cfg.permutations + 1
    null_sorted = np.sort(null)

    means = sequential_row_means(values)
    p_values: dict[tuple[str, str], float] = {}
    for i in range(m):
        for j in range(i + 1, m):
            diff = abs(means[i] - means[j])
            count = null.size - int(np.searchsorted(null_sorted, diff, side="left"))
            key = _pair_key(sm.system_tags[i], sm.system_tags[j])
            p_values[key] = (count + add) / denom

    if cfg.alpha_inclusive:
        significant = {p: v <= cfg.alpha for p, v in p_values.items()}
    else:
        significant = {p: v < cfg.alpha for p, v in p_values.items()}
    return SignificanceSet(alpha=cfg.alpha, p_values=p_values, significant=significant)


def significance_partition(ss: SignificanceSet) -> tuple[set, set]:
    """Split all pairs into (significant, non-significant)."""
    return set(ss.S), set(ss.NS)


def significance_to_csv(ss: SignificanceSet) -> str:
    columns = (("system_a", str), ("system_b", str), ("p_value", repr),
               ("significant", _true_false))
    return _csv_table(columns, ((a, b, ss.p_values[(a, b)], ss.significant[(a, b)])
                                for a, b in ss.pairs))
