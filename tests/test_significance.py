import concurrent.futures.process  # the pool's modules load before a test traces memory
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discrimpower import significance
from discrimpower.errors import ConfigurationError
from discrimpower.measures import ScoreMatrix, sequential_row_means
from discrimpower.significance import (
    EXHAUSTIVE,
    SignificanceSet,
    SigTestConfig,
    tukey_hsd_pvalues,
    _draw,
    _null_blocks,
    _tukey_many,
)


def matrix(values, seed_tags="abcdefgh"):
    values = np.asarray(values, dtype=float)
    m, n = values.shape
    return ScoreMatrix(
        system_tags=tuple(seed_tags[:m]),
        topic_ids=tuple(f"t{i}" for i in range(n)),
        values=values,
    )


def null_of(stack, cfg, first=0, last=None):
    """The null of each matrix in the (K, m, n) ``stack`` over blocks
    [first, last), in iteration order: (K, iterations)."""
    draw, total = _draw(*stack.shape[1:], cfg)
    return _null_blocks(stack, draw, first, -(-total // BLOCK) if last is None else last, total)


def brute_null(values):
    """HSD* of every assignment in ``itertools.product`` order, and the
    observed means, with identical left-to-right sums."""
    m, n = values.shape
    rows = [[float(values[i, t]) for t in range(n)] for i in range(m)]
    perms = list(itertools.permutations(range(m)))

    def means_for(assignment):
        means = []
        for i in range(m):
            acc = rows[perms[assignment[0]][i]][0]
            for t in range(1, n):
                acc += rows[perms[assignment[t]][i]][t]
            means.append(acc / n)
        return means

    null = []
    for assignment in itertools.product(range(len(perms)), repeat=n):
        ms = means_for(assignment)
        null.append(max(ms) - min(ms))
    return null, means_for(tuple([0] * n))


def brute_exhaustive(values):
    """Independent enumerator with identical left-to-right sums."""
    m = len(values)
    null, observed = brute_null(values)
    out = {}
    for i in range(m):
        for j in range(i + 1, m):
            diff = abs(observed[i] - observed[j])
            out[(i, j)] = sum(1 for h in null if h >= diff) / len(null)
    return out


def test_exhaustive_matches_independent_enumerator_exactly():
    rng = np.random.default_rng(3)
    for _ in range(10):
        m = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        sm = matrix(rng.random((m, n)))
        mine = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE))
        ref = brute_exhaustive(sm.values)
        for (i, j), expected in ref.items():
            assert mine.p_values[(sm.system_tags[i], sm.system_tags[j])] == expected


# Real nDCG matrices are full of exact 0s and ties, which rng.random never gives.
_SCORES = st.one_of(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
                    st.floats(0.0, 1.0, allow_nan=False))


@st.composite
def tied_matrices(draw, max_cells=13_824):
    """An m x n matrix, m and n <= 4 with (m!)^n <= max_cells, that may hold
    an all-zero column and identical rows."""
    m = draw(st.integers(2, 4))
    n = draw(st.integers(1, 4).filter(lambda n: math.factorial(m) ** n <= max_cells))
    values = np.array(draw(st.lists(st.lists(_SCORES, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    if draw(st.booleans()):
        values[:, draw(st.integers(0, n - 1))] = 0.0
    if draw(st.booleans()):
        values[1] = values[0]
    return values


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values=tied_matrices(), other=tied_matrices())
def test_exhaustive_matches_brute_force_on_ties_and_zeros(values, other):
    sm = matrix(values)
    mine = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE))
    for (i, j), expected in brute_exhaustive(values).items():
        assert mine.p_values[(sm.system_tags[i], sm.system_tags[j])] == expected
    # A batch of mixed shapes gives each matrix its own test's result.
    cfg = SigTestConfig(mode=EXHAUSTIVE)
    both = _tukey_many([sm, matrix(other)], cfg)
    assert both == [mine, tukey_hsd_pvalues(matrix(other), cfg)]


def test_exhaustive_batch_of_mixed_shapes_equals_one_matrix_calls():
    # Three 3 x 4 matrices share each block's permutations.
    rng = np.random.default_rng(23)
    shapes = [(3, 4), (2, 5), (3, 4), (4, 2), (2, 1), (3, 4)]
    mats = [matrix(rng.random(shape)) for shape in shapes]
    mats[2].values[:, 0] = 0.0
    cfg = SigTestConfig(mode=EXHAUSTIVE)
    many = _tukey_many(mats, cfg)
    assert many == [tukey_hsd_pvalues(sm, cfg) for sm in mats]
    for sm, ss in zip(mats, many):
        for (i, j), expected in brute_exhaustive(sm.values).items():
            assert ss.p_values[(sm.system_tags[i], sm.system_tags[j])] == expected


def test_exhaustive_null_is_product_order_at_any_worker_count():
    # 3 x 5: the 6**4 = 1,296 assignments that keep topic 0 in place lead the
    # product order and fill two blocks, so two workers split them.
    values = np.random.default_rng(25).random((3, 5))
    cfg = SigTestConfig(mode=EXHAUSTIVE)
    whole = null_of(values[None], cfg)[0]
    split = np.concatenate([null_of(values[None], cfg, 0, 1)[0],
                            null_of(values[None], cfg, 1, 2)[0]])
    prefix = brute_null(values)[0][:6 ** 4]
    assert whole.tobytes() == split.tobytes() == np.array(prefix).tobytes()
    one, two, three = (tukey_hsd_pvalues(matrix(values), dataclasses.replace(cfg, n_workers=w))
                       for w in (1, 2, 3))
    assert one == two == three
    full = brute_exhaustive(values)  # over all 6**5 assignments
    assert one.p.tolist() == [full[pair] for pair in ((0, 1), (0, 2), (1, 2))]


def full_counts(values):
    """Per pair, how many of all (m!)^n assignments reach its observed gap."""
    m, n = values.shape
    rows = np.array(list(itertools.permutations(range(m))), dtype=np.intp)
    total = math.factorial(m) ** n
    draw = functools.partial(significance._exhaustive_draw, rows, n)
    return significance._counts(values[None], draw, 0, -(-total // BLOCK), total)[0]


@st.composite
def enumerable_matrices(draw, max_cells=6 ** 7):
    """An m x n matrix, m <= 5, of tied scores whose (m!)^n assignments are
    at most ``max_cells``."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, max(n for n in range(1, 20) if math.factorial(m) ** n <= max_cells)))
    values = np.array(draw(st.lists(st.lists(_SCORES, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    if draw(st.booleans()):
        values[1] = values[0]
    return values


@settings(max_examples=30, deadline=None, derandomize=True)
@given(values=enumerable_matrices())
def test_full_enumeration_counts_are_m_factorial_times_exhaustive_counts(values):
    m, n = values.shape
    draw, total = _draw(m, n, SigTestConfig(mode=EXHAUSTIVE))
    assert total == math.factorial(m) ** (n - 1)
    counts = significance._counts(values[None], draw, 0, -(-total // BLOCK), total)[0]
    assert full_counts(values).tolist() == (math.factorial(m) * counts).tolist()


def test_workers_send_counts_not_the_null():
    # Exhaustive 3 x 8: 6**7 = 279,936 assignments, a 2.2 MB null that two
    # workers split. The parent holds only their per-pair counts.
    values = np.random.default_rng(27).random((3, 8))
    cfg = SigTestConfig(mode=EXHAUSTIVE, n_workers=2)
    null_bytes = _draw(3, 8, cfg)[1] * 8
    tracemalloc.start()
    try:
        two = _tukey_many([matrix(values)], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < null_bytes / 4
    assert two == _tukey_many([matrix(values)], dataclasses.replace(cfg, n_workers=1))


def paired_randomization_p(x, y):
    """Two-sided paired randomization test over all sign flips."""
    n = len(x)

    def stat(flips):
        sx = y[0] if flips[0] else x[0]
        sy = x[0] if flips[0] else y[0]
        for t in range(1, n):
            if flips[t]:
                sx += y[t]
                sy += x[t]
            else:
                sx += x[t]
                sy += y[t]
        return abs(sx / n - sy / n)

    observed = stat((False,) * n)
    count = sum(
        1
        for flips in itertools.product((False, True), repeat=n)
        if stat(flips) >= observed
    )
    return count / 2 ** n


def test_m2_reduces_to_paired_randomization_exactly():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        sm = matrix(rng.random((2, n)))
        p = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE)).p_values[("a", "b")]
        x = [float(v) for v in sm.values[0]]
        y = [float(v) for v in sm.values[1]]
        assert p == paired_randomization_p(x, y)


def test_sampled_approximates_exhaustive():
    rng = np.random.default_rng(7)
    sm = matrix(rng.random((3, 4)))
    exact = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE))
    approx = tukey_hsd_pvalues(sm, SigTestConfig(permutations=5000, master_seed=1))
    for pair in exact.pairs:
        assert approx.p_values[pair] == pytest.approx(exact.p_values[pair], abs=0.05)


def test_sampled_is_deterministic_and_worker_invariant():
    # Block edges, and more workers than blocks (B <= 1024).
    rng = np.random.default_rng(9)
    sm = matrix(rng.random((4, 6)))
    for permutations in (1, 800, 1023, 1024, 1025, 2500):
        cfgs = [SigTestConfig(permutations=permutations, master_seed=13, n_workers=w)
                for w in (1, 1, 2, 3)]
        results = [tukey_hsd_pvalues(sm, cfg).p_values for cfg in cfgs]
        assert all(r == results[0] for r in results), permutations


BLOCK = 1024  # iterations per stream, part of the determinism contract


def block_perms(seed, block, topic, m):
    """The (BLOCK, m) permutations of one (block, topic) stream."""
    counter = (block << 128) | (topic << 64)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=counter))
    return gen.permuted(np.broadcast_to(np.arange(m), (BLOCK, m)), axis=1)


def reference_null(values, seed, permutations):
    """HSD* one iteration at a time from the documented streams."""
    m, n = values.shape
    null = []
    for block in range(-(-permutations // BLOCK)):
        perms = [block_perms(seed, block, t, m) for t in range(n)]
        for k in range(min(BLOCK, permutations - block * BLOCK)):
            idx = np.stack([perms[t][k] for t in range(n)], axis=1)
            means = sequential_row_means(np.take_along_axis(values, idx, axis=0))
            null.append(means.max() - means.min())
    return np.array(null)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    m=st.integers(2, 6),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
    permutations=st.integers(1, 1300),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_sampled_null_matches_reference_loop_bit_for_bit(m, n, seed, permutations,
                                                          data_seed):
    values = np.random.default_rng(data_seed).random((m, n))
    null = null_of(values[None], SigTestConfig(permutations=permutations,
                                               master_seed=seed))[0]
    ref = reference_null(values, seed, permutations)
    assert null.tobytes() == ref.tobytes()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    k=st.integers(1, 4),
    m=st.integers(2, 5),
    n=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
    permutations=st.one_of(st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]),
                           st.integers(1, 1100)),
    chunk=st.integers(1, 4),
    data_seed=st.integers(0, 2**32 - 1),
)
@example(k=3, m=4, n=3, seed=5, permutations=1, chunk=2, data_seed=0)
@example(k=3, m=4, n=3, seed=5, permutations=BLOCK - 1, chunk=1, data_seed=1)
@example(k=4, m=3, n=2, seed=6, permutations=BLOCK, chunk=3, data_seed=2)
@example(k=4, m=3, n=2, seed=6, permutations=BLOCK + 1, chunk=2, data_seed=3)
def test_batched_null_matches_reference_loop_per_matrix(k, m, n, seed, permutations,
                                                        chunk, data_seed):
    # An accumulator of ``chunk`` matrices splits most stacks in several chunks.
    stack = np.random.default_rng(data_seed).random((k, m, n))
    stack[:, :, 0] = np.round(stack[:, :, 0])  # exact 0s and ties
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(significance, "_ACC_CELLS", chunk * BLOCK * m)
        nulls = null_of(stack, SigTestConfig(permutations=permutations, master_seed=seed))
    assert nulls.shape == (k, permutations)
    for values, null in zip(stack, nulls):
        assert null.tobytes() == reference_null(values, seed, permutations).tobytes()


def test_gather_buffer_is_one_matrix_block():
    # One sampled block of 11 stacked 30 x 50 matrices. The accumulator holds
    # every matrix's block; each topic is gathered one matrix at a time, so
    # the rest (draw, gather buffer, columns, null) stays under five blocks.
    stack = np.random.default_rng(29).random((11, 30, 50))
    one_block = 30 * BLOCK * 8
    tracemalloc.start()
    try:
        null_of(stack, SigTestConfig(permutations=BLOCK))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * one_block + 5 * one_block


def test_batched_test_equals_one_matrix_calls_at_any_worker_count():
    # Mixed shapes: a batch shares draws only between matrices of one shape.
    rng = np.random.default_rng(21)
    shapes = [(4, 6), (3, 6), (4, 6), (4, 5), (2, 1), (4, 6)]
    mats = [matrix(rng.random(shape)) for shape in shapes]
    for permutations in (1, 1024, 2500):
        cfg = SigTestConfig(permutations=permutations, master_seed=17)
        alone = [tukey_hsd_pvalues(sm, cfg) for sm in mats]
        for workers in (1, 2, 3):
            many = _tukey_many(mats, dataclasses.replace(cfg, n_workers=workers))
            assert many == alone, (permutations, workers)
            assert all(type(p) is float for ss in many for p in ss.p_values.values())


def test_sampled_null_is_a_prefix_of_longer_runs():
    values = np.random.default_rng(5).random((5, 9))
    short = null_of(values[None], SigTestConfig(permutations=1500, master_seed=8))[0]
    long = null_of(values[None], SigTestConfig(permutations=2048, master_seed=8))[0]
    assert short.tobytes() == long[:1500].tobytes()


@pytest.mark.parametrize("seed, m, n", [(0, 2, 1), (8, 3, 7), (2**63 + 5, 6, 4),
                                         (123456789, 11, 2)])
def test_short_blocks_are_prefixes_of_a_full_block(seed, m, n):
    # A run shorter than one block shuffles only the rows it uses. That
    # gives the same bits as the full block only because numpy's
    # Generator.permuted(..., axis=1) shuffles rows in order.
    values = np.random.default_rng(seed % 1000).random((m, n))
    full = null_of(values[None], SigTestConfig(permutations=BLOCK, master_seed=seed))[0]
    for permutations in (1, 200, BLOCK - 1):
        short = null_of(values[None], SigTestConfig(permutations=permutations,
                                                    master_seed=seed))[0]
        assert short.tobytes() == full[:permutations].tobytes()


# chi-square upper tail for 5 degrees of freedom at probability 1e-9
_CHI2_5DF_1E9 = 50.69


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), topic=st.integers(0, 60),
       blocks=st.integers(2, 5))
def test_block_permutations_are_uniform(seed, topic, blocks):
    draws = np.concatenate([block_perms(seed, b, topic, 3) for b in range(blocks)])
    assert all(sorted(row) == [0, 1, 2] for row in draws.tolist())
    codes = draws[:, 0] * 3 + draws[:, 1]
    counts = np.array([np.count_nonzero(codes == c) for c in (1, 2, 3, 5, 6, 7)])
    assert counts.sum() == len(draws)
    expected = len(draws) / 6
    assert ((counts - expected) ** 2 / expected).sum() < _CHI2_5DF_1E9


def test_different_seed_changes_null():
    rng = np.random.default_rng(10)
    sm = matrix(rng.random((3, 8)))
    a = tukey_hsd_pvalues(sm, SigTestConfig(permutations=500, master_seed=0))
    b = tukey_hsd_pvalues(sm, SigTestConfig(permutations=500, master_seed=99))
    assert a.p_values != b.p_values


def test_add_one_convention_bounds():
    # Identical rows: every permutation reproduces the observed zero diff,
    # so every pair has p = 1. Distinct rows never reach p = 0.
    sm = matrix(np.tile([[0.5]], (3, 4)))
    ss = tukey_hsd_pvalues(sm, SigTestConfig(permutations=100, master_seed=2))
    assert all(p == 1.0 for p in ss.p_values.values())

    rng = np.random.default_rng(1)
    sm = matrix(rng.random((2, 5)))
    ss = tukey_hsd_pvalues(sm, SigTestConfig(permutations=100, master_seed=2))
    assert all(0.0 < p <= 1.0 for p in ss.p_values.values())
    assert all(p >= 1 / 101 for p in ss.p_values.values())


def test_larger_gap_means_smaller_or_equal_p():
    # One shared null distribution: monotonicity in the observed gap.
    base = np.array([[0.9, 0.8, 0.85, 0.95], [0.5, 0.4, 0.45, 0.55],
                     [0.52, 0.41, 0.44, 0.56]])
    sm = matrix(base)
    ss = tukey_hsd_pvalues(sm, SigTestConfig(permutations=2000, master_seed=3))
    means = {t: float(np.mean(sm.row(t))) for t in sm.system_tags}
    gap_ab = abs(means["a"] - means["b"])
    gap_bc = abs(means["b"] - means["c"])
    assert gap_ab > gap_bc
    assert ss.p_values[("a", "b")] <= ss.p_values[("b", "c")]


def test_alpha_and_partition():
    ss = SignificanceSet(alpha=0.05, pairs=[("a", "b"), ("a", "c")], p=np.array([0.01, 0.5]))
    assert ss.significant.tolist() == [True, False]
    assert ss.p_values == {("a", "b"): 0.01, ("a", "c"): 0.5}


def test_alpha_inclusive_boundary():
    # Find a pair's exact p, then set alpha right on it: the strict rule
    # (p < alpha) excludes it, the inclusive rule (p <= alpha) keeps it.
    rng = np.random.default_rng(1)
    sm = matrix(rng.random((2, 5)))
    first = tukey_hsd_pvalues(sm, SigTestConfig(permutations=200, master_seed=4))
    p = first.p_values[("a", "b")]
    assert 0.0 < p < 1.0
    strict = tukey_hsd_pvalues(
        sm, SigTestConfig(permutations=200, master_seed=4, alpha=p)
    )
    inclusive = tukey_hsd_pvalues(
        sm,
        SigTestConfig(permutations=200, master_seed=4, alpha=p, alpha_inclusive=True),
    )
    assert strict.significant.tolist() == [False]
    assert inclusive.significant.tolist() == [True]

    # Direct construction defaults to the strict rule as well, and follows
    # the inclusive one when asked.
    ss = SignificanceSet(alpha=0.05, pairs=[("a", "b")], p=np.array([0.05]))
    assert ss.significant.tolist() == [False]
    ss = SignificanceSet(0.05, [("a", "b")], np.array([0.05]), alpha_inclusive=True)
    assert ss.significant.tolist() == [True]


def test_exhaustive_cap():
    # 4 x 7: 24**6 assignments, one per relabelling of the 24**7, exceed the
    # 10,000,000 cap; the test refuses before it enumerates any.
    rng = np.random.default_rng(0)
    sm = matrix(rng.random((4, 7)))
    cfg = SigTestConfig(mode=EXHAUSTIVE)
    with pytest.raises(ConfigurationError,
                       match="needs 191102976 assignments, above the cap of 10000000; use "):
        tukey_hsd_pvalues(sm, cfg)
    for m, n in ((4, 6), (3, 9), (5, 4)):  # above the cap on (m!)^n, within it now
        assert _draw(m, n, cfg)[1] == math.factorial(m) ** (n - 1) <= 10_000_000


def test_config_validation():
    with pytest.raises(ConfigurationError):
        SigTestConfig(alpha=0.0)
    with pytest.raises(ConfigurationError):
        SigTestConfig(permutations=0)
    with pytest.raises(ConfigurationError):
        SigTestConfig(mode="bootstrap")
    with pytest.raises(ConfigurationError):
        SigTestConfig(n_workers=0)


def test_needs_two_systems():
    sm = matrix(np.array([[0.1, 0.2]]))
    with pytest.raises(ConfigurationError):
        tukey_hsd_pvalues(sm, SigTestConfig(permutations=10))
