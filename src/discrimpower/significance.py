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
t)``; exhaustive mode takes block ``k``'s slice of the (m!)^(n-1)
within-topic assignments that keep topic 0 in place, in
``itertools.product`` order: one relabelling of the slots in every topic
keeps HSD*, so their ratio is that of all (m!)^n. Workers split the run
on block boundaries only and return, per pair, how many of their
iterations reach its observed gap. Integer sums are exact in any order,
so p-values are bit-identical for a fixed seed whatever the execution
order or worker count. A short last block draws only the rows it uses;
numpy's ``Generator.permuted`` shuffles rows in order, so these are the
first rows of the full block, and the first ``B'`` iterations of a run
with ``B > B'`` iterations are the run with ``B'``.

Matrices of one shape tested in one call share each block's permutations,
and each still gets exactly the null it gets when tested alone: each
(block, topic) draw is gathered into one matrix at a time, slot-major, and
added in topic order, so only one matrix's block is gathered beside the
accumulator.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError
from .measures import ScoreMatrix, sequential_row_means

SAMPLED = "sampled"
EXHAUSTIVE = "exhaustive"

_BLOCK = 1024  # iterations per block, the unit of both the draws and the worker split
_ACC_CELLS = 1 << 19  # float64 cells (4 MiB) of one chunk's gather accumulator
_EXHAUSTIVE_CAP = 10_000_000  # assignments exhaustive mode may enumerate


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

    ``pairs`` lists the unordered pairs, each with lexicographically sorted
    tags, in sorted order; ``p[i]`` is the p-value of ``pairs[i]``. A pair
    is significant when ``p < alpha``, or ``p <= alpha`` with
    ``alpha_inclusive``, as ``SigTestConfig`` sets the rule.
    """

    alpha: float
    pairs: list[tuple[str, str]]
    p: np.ndarray
    alpha_inclusive: bool = False
    significant: np.ndarray = field(init=False)

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.significant = (np.less_equal if self.alpha_inclusive else np.less)(self.p, self.alpha)

    def __eq__(self, other):  # the generated one compares ``p`` as an array
        return (isinstance(other, SignificanceSet) and np.array_equal(self.p, other.p)
                and (self.alpha, self.alpha_inclusive, self.pairs)
                == (other.alpha, other.alpha_inclusive, other.pairs))

    @property
    def p_values(self) -> dict[tuple[str, str], float]:
        return dict(zip(self.pairs, self.p.tolist()))


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
    """Topic ``topic``'s row of ``rows`` per iteration, in ``itertools.product``
    order, F-ordered as ``Generator.permuted`` gives sampled draws."""
    i = np.arange(block * _BLOCK, block * _BLOCK + size)
    return rows.T.take(i // len(rows) ** (n - 1 - topic) % len(rows), axis=1).T


def _null_blocks(stack: np.ndarray, draw, first: int, last: int, total: int) -> np.ndarray:
    """HSD* of each (m, n) matrix in ``stack`` for the iterations of blocks
    [first, last), capped at ``total``: one row per matrix.

    ``draw(block, topic, size)`` gives one topic's (size, m) permutations
    for a block, F-ordered. Every matrix of a chunk gathers from one draw
    of each (block, topic), one matrix at a time. A chunk holds as many
    matrices as keep its accumulator within ``_ACC_CELLS`` cells, so a
    stack of several chunks draws each (block, topic) once per chunk.
    """
    k, m, n = stack.shape
    columns = np.ascontiguousarray(stack.transpose(2, 0, 1))  # columns[t] is (k, m)
    chunk = max(1, _ACC_CELLS // (_BLOCK * m))
    start = first * _BLOCK
    null = np.empty((k, min(last * _BLOCK, total) - start))
    col_cells = np.empty(min(_BLOCK, total - start) * m)
    acc_cells = np.empty(min(chunk, k) * col_cells.size)
    for block in range(first, last):
        size = min(_BLOCK, total - block * _BLOCK)
        pos = block * _BLOCK - start
        col = col_cells[:m * size]
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            acc = acc_cells[:(hi - lo) * col.size].reshape(hi - lo, col.size)
            # acc[j, s * size + i] adds, in topic order as sequential_row_means
            # does, the score of the system that iteration i places in slot s
            # of matrix lo + j. Each draw is F-ordered, so its slot-major
            # ravel is a view. Every index is in range, and mode="clip" lets
            # take write to ``out`` without a buffer.
            rows = list(acc)
            for t in range(n):
                slots = draw(block, t, size).T.ravel()
                for scores, row in zip(columns[t, lo:hi], rows):
                    scores.take(slots, out=col if t else row, mode="clip")
                    if t:
                        np.add(row, col, out=row)
            hsd = acc.reshape(hi - lo, m, size)
            hsd /= n
            np.subtract(hsd.max(axis=1), hsd.min(axis=1), out=null[lo:hi, pos:pos + size])
    return null


def _counts(stack: np.ndarray, draw, first: int, last: int, total: int) -> np.ndarray:
    """Per matrix of ``stack`` and pair in ``np.triu_indices`` order, how many
    iterations of blocks [first, last) reach the pair's observed gap: (K, pairs) int64."""
    null = _null_blocks(stack, draw, first, last, total)
    null.sort()
    k, m, n = stack.shape
    means = sequential_row_means(stack.reshape(k * m, n)).reshape(k, m)
    i, j = np.triu_indices(m, 1)
    return np.array([hsd.size - np.searchsorted(hsd, gaps, side="left")
                     for hsd, gaps in zip(null, np.abs(means[:, i] - means[:, j]))])


def _split_blocks(stack: np.ndarray, draw, total: int, n_workers: int) -> np.ndarray:
    """``_counts`` over ``total`` iterations, summed over ``n_workers`` processes."""
    n_blocks = -(-total // _BLOCK)
    workers = min(n_workers, n_blocks)
    if workers == 1:
        return _counts(stack, draw, 0, n_blocks, total)
    from concurrent.futures import ProcessPoolExecutor  # one worker never loads multiprocessing

    bounds = [w * n_blocks // workers for w in range(workers + 1)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return sum(pool.map(_counts, [stack] * workers, [draw] * workers, bounds[:-1],
                            bounds[1:], [total] * workers))


def _draw(m: int, n: int, cfg: SigTestConfig):
    """The draw function and the iteration count of a test of (m, n) matrices."""
    if cfg.mode == SAMPLED:
        return functools.partial(_sampled_draw, cfg.master_seed, m), cfg.permutations
    total = math.factorial(m) ** (n - 1)
    if total > _EXHAUSTIVE_CAP:
        raise ConfigurationError(
            f"exhaustive enumeration needs {total} assignments, above the cap "
            f"of {_EXHAUSTIVE_CAP}; use sampled mode"
        )
    rows = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    return functools.partial(_exhaustive_draw, rows, n), total


def tukey_hsd_pvalues(sm: ScoreMatrix, cfg: SigTestConfig = SigTestConfig()) -> SignificanceSet:
    """Run the test on a score matrix and return all pairwise p-values.

    Sampled mode uses the add-one Monte-Carlo convention
    ``p = (1 + #{HSD* >= |diff|}) / (1 + B)``, which keeps p-values in
    (0, 1]. Exhaustive mode enumerates one assignment per relabelling of
    the systems and returns the exact ratio.
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

    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, v in enumerate(values):
        by_shape.setdefault(v.shape, []).append(i)
    add = int(cfg.mode == SAMPLED)
    results = [None] * len(values)
    for (m, n), members in by_shape.items():
        draw, total = _draw(m, n, cfg)
        counts = _split_blocks(np.stack([values[i] for i in members]), draw, total,
                               cfg.n_workers)
        for i, row in zip(members, counts):
            results[i] = _significance_set(matrices[i].system_tags, row, total, add, cfg)
    return results


def _significance_set(tags: Sequence[str], counts: np.ndarray, total: int, add: int,
                      cfg: SigTestConfig) -> SignificanceSet:
    """The p-values of the pairs of ``tags`` from their exceedance ``counts``."""
    first, second = np.triu_indices(len(tags), 1)
    pairs = [tuple(sorted((tags[i], tags[j]))) for i, j in zip(first.tolist(), second.tolist())]
    order = sorted(range(len(pairs)), key=pairs.__getitem__)
    return SignificanceSet(cfg.alpha, [pairs[k] for k in order],
                           (counts[order] + add) / (total + add), cfg.alpha_inclusive)
