"""Paired randomised Tukey HSD test over all unordered system pairs.

The test controls the family-wise error rate by using a single null
distribution for every pair: in each iteration the scores inside every
topic column are independently permuted across systems, and the honestly
significant difference statistic ``HSD* = max(mean*) - min(mean*)`` of
the permuted per-system means is recorded. A pair's p-value is the
fraction of iterations whose HSD* reaches its observed absolute mean
difference.

Both modes run one kernel over blocks of ``_BLOCK`` = 1024 iterations.
Sampled mode draws topic ``t``'s permutations for every iteration of
block ``k`` from one counter-based stream keyed on ``(master_seed, k,
t)``; exhaustive mode takes block ``k``'s slice of the (m!)^n
within-topic assignments in ``itertools.product`` order. Workers split
the run on block boundaries only, so p-values are bit-identical for a
fixed seed regardless of execution order or worker count. A short last
block draws only the rows it uses; numpy's ``Generator.permuted``
shuffles rows in order, so these are the first rows of the full block,
and the first ``B'`` iterations of a run with ``B > B'`` iterations are
the run with ``B'``. Sampled p-values for a given seed differ from
version 0.1.0, which keyed one stream on each (seed, iteration, topic).

Matrices of one shape tested in one call share each block's permutations,
and each still gets exactly the null it gets when tested alone.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .measures import ScoreMatrix, sequential_row_means
from .trec import _csv_table, _true_false

SAMPLED = "sampled"
EXHAUSTIVE = "exhaustive"

_BLOCK = 1024  # iterations per block, the unit of both the draws and the worker split
_ACC_CELLS = 1 << 19  # float64 cells (4 MiB) of one chunk's gather accumulator


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


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _block_stream(master_seed: int, block: int, topic: int) -> np.random.Generator:
    # Philox counter layout: block in bits 128+, topic in bits 64..127,
    # leaving the low 64 bits for in-stream draws.
    counter = (block << 128) | (topic << 64)
    return np.random.Generator(np.random.Philox(key=master_seed, counter=counter))


def _sampled_draw(master_seed: int, m: int, block: int, topic: int, size: int) -> np.ndarray:
    """The first ``size`` rows of the (block, topic) stream's permutations of m slots."""
    identity = np.broadcast_to(np.arange(m), (size, m))
    return _block_stream(master_seed, block, topic).permuted(identity, axis=1)


def _exhaustive_draw(rows: np.ndarray, n: int, block: int, topic: int, size: int) -> np.ndarray:
    """Topic ``topic``'s row of ``rows`` per iteration, in ``itertools.product`` order."""
    i = np.arange(block * _BLOCK, block * _BLOCK + size)
    return rows[i // len(rows) ** (n - 1 - topic) % len(rows)]


def _null_blocks(stack: np.ndarray, draw, first: int, last: int, total: int) -> np.ndarray:
    """HSD* of each (m, n) matrix in ``stack`` for the iterations of blocks
    [first, last), capped at ``total``: one row per matrix.

    ``draw(block, topic, size)`` gives one topic's (size, m) permutations
    for a block. Every matrix of a chunk gathers from one draw of each
    (block, topic). A chunk holds as many matrices as keep its accumulator
    within ``_ACC_CELLS`` cells, so a stack of several chunks draws each
    (block, topic) once per chunk.
    """
    k, m, n = stack.shape
    columns = np.ascontiguousarray(stack.transpose(2, 0, 1))  # columns[t] is (k, m)
    chunk = max(1, _ACC_CELLS // (_BLOCK * m))
    start = first * _BLOCK
    null = np.empty((k, min(last * _BLOCK, total) - start))
    acc_cells = np.empty(min(chunk, k) * min(_BLOCK, total - start) * m)
    col_cells = np.empty_like(acc_cells)
    for block in range(first, last):
        size = min(_BLOCK, total - block * _BLOCK)
        pos = block * _BLOCK - start
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            shape = (hi - lo, size, m)
            acc = acc_cells[:math.prod(shape)].reshape(shape)
            col = col_cells[:acc.size].reshape(shape)
            # acc[j, i, s] adds, in topic order as sequential_row_means does,
            # the score of the system that iteration i places in slot s of
            # matrix lo + j. Every index is in range, and mode="clip" lets
            # np.take write to ``out`` without a buffer.
            for t in range(n):
                np.take(columns[t, lo:hi], draw(block, t, size), axis=1,
                        out=acc if t == 0 else col, mode="clip")
                if t:
                    acc += col
            acc /= n
            np.subtract(acc.max(axis=2), acc.min(axis=2), out=null[lo:hi, pos:pos + size])
    return null


def _split_blocks(stack: np.ndarray, draw, total: int, n_workers: int) -> np.ndarray:
    """``_null_blocks`` over ``total`` iterations, split between ``n_workers`` processes."""
    n_blocks = -(-total // _BLOCK)
    workers = min(n_workers, n_blocks)
    if workers == 1:
        return _null_blocks(stack, draw, 0, n_blocks, total)
    from concurrent.futures import ProcessPoolExecutor  # one worker never loads multiprocessing

    bounds = [w * n_blocks // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(_null_blocks, [stack] * workers, [draw] * workers, bounds[:-1],
                         bounds[1:], [total] * workers)
        return np.concatenate(list(parts), axis=1)


def _sampled_null(stack: np.ndarray, cfg: SigTestConfig) -> np.ndarray:
    """The sampled null of each matrix in the (K, m, n) ``stack``, as (K, B)."""
    draw = functools.partial(_sampled_draw, cfg.master_seed, stack.shape[1])
    return _split_blocks(stack, draw, cfg.permutations, cfg.n_workers)


def _exhaustive_null(stack: np.ndarray, cfg: SigTestConfig) -> np.ndarray:
    """The exact null of each matrix in the (K, m, n) ``stack``, as (K, (m!)^n)."""
    _, m, n = stack.shape
    total = math.factorial(m) ** n
    if total > cfg.exhaustive_cap:
        raise ConfigurationError(
            f"exhaustive enumeration needs {total} assignments, above the cap "
            f"of {cfg.exhaustive_cap}; use sampled mode"
        )
    rows = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    return _split_blocks(stack, functools.partial(_exhaustive_draw, rows, n), total,
                         cfg.n_workers)


def tukey_hsd_pvalues(sm: ScoreMatrix, cfg: SigTestConfig = SigTestConfig()) -> SignificanceSet:
    """Run the test on a score matrix and return all pairwise p-values.

    Sampled mode uses the add-one Monte-Carlo convention
    ``p = (1 + #{HSD* >= |diff|}) / (1 + B)``, which keeps p-values in
    (0, 1]. Exhaustive mode enumerates every assignment and returns the
    exact ratio.
    """
    return _tukey_many([sm], cfg)[0]


def _tukey_many(matrices: Sequence[ScoreMatrix], cfg: SigTestConfig) -> list[SignificanceSet]:
    """``tukey_hsd_pvalues`` of every matrix, in order.

    The matrices of one shape are tested together, so each (block, topic)
    permutation is drawn once for all of them. Each matrix's null, and so
    its p-values, is the one it gets when tested alone.
    """
    values = [np.asarray(sm.values, dtype=float) for sm in matrices]
    for v in values:
        m, n = v.shape
        if m < 2:
            raise ConfigurationError("significance testing needs at least two systems")
        if n < 1:
            raise ConfigurationError("significance testing needs at least one topic")

    null_of = _exhaustive_null if cfg.mode == EXHAUSTIVE else _sampled_null
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, v in enumerate(values):
        by_shape.setdefault(v.shape, []).append(i)
    nulls = [None] * len(values)
    for members in by_shape.values():
        for i, null in zip(members, null_of(np.stack([values[i] for i in members]), cfg)):
            nulls[i] = null
    add = int(cfg.mode == SAMPLED)
    return [_significance_set(sm, v, null, add, cfg)
            for sm, v, null in zip(matrices, values, nulls)]


def _significance_set(sm: ScoreMatrix, values: np.ndarray, null: np.ndarray, add: int,
                      cfg: SigTestConfig) -> SignificanceSet:
    """The p-values of ``sm`` from its ``null``, which is sorted in place."""
    null.sort()
    means = sequential_row_means(values)
    first, second = np.triu_indices(len(means), 1)
    counts = null.size - np.searchsorted(null, np.abs(means[first] - means[second]), side="left")
    denom = null.size + add
    tags = sm.system_tags
    p_values = {_pair_key(tags[i], tags[j]): (count + add) / denom
                for i, j, count in zip(first.tolist(), second.tolist(), counts.tolist())}

    below = operator.le if cfg.alpha_inclusive else operator.lt
    significant = {p: below(v, cfg.alpha) for p, v in p_values.items()}
    return SignificanceSet(alpha=cfg.alpha, p_values=p_values, significant=significant)


def significance_to_csv(ss: SignificanceSet) -> str:
    columns = (("system_a", str), ("system_b", str), ("p_value", repr),
               ("significant", _true_false))
    return _csv_table(columns, ((a, b, ss.p_values[(a, b)], ss.significant[(a, b)])
                                for a, b in ss.pairs))
