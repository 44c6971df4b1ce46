"""Which system differences are real? Paired randomised Tukey HSD.

The test permutes score columns within each topic and uses the max-min
spread of the permuted system means as a family-wise null statistic, so
all pairs share one null distribution. This demo runs the sampled test
on the bundled collection, then shows on a tiny matrix that sampling
converges to exhaustive enumeration.
"""

import numpy as np

from discrimpower import (
    EXHAUSTIVE,
    MeasureSpec,
    ScoreMatrix,
    SigTestConfig,
    build_mini_collection,
    score_matrix,
    tukey_hsd_pvalues,
)


def main():
    runs, qrels = build_mini_collection()
    sm = score_matrix(runs, qrels, MeasureSpec())

    cfg = SigTestConfig(alpha=0.05, permutations=10_000, master_seed=0)
    ss = tukey_hsd_pvalues(sm, cfg)
    print(f"pairwise p-values (B={cfg.permutations}, alpha={cfg.alpha}):")
    # Pairs are sorted; p and significant are arrays aligned with them.
    for (a, b), p, sig in zip(ss.pairs, ss.p, ss.significant):
        print(f"  {a} vs {b}: p={p:.4f} {'*' if sig else ' '}")

    print(f"\nsignificant pairs:     {[p for p, sig in zip(ss.pairs, ss.significant) if sig]}")
    print(f"non-significant pairs: {[p for p, sig in zip(ss.pairs, ss.significant) if not sig]}")

    # Rerunning with the same seed is bit-identical; a different seed
    # moves sampled p-values slightly but not the conclusions.
    again = tukey_hsd_pvalues(sm, cfg)
    assert again == ss
    print("\nsame seed, same p-values: reproducible by construction")

    rng = np.random.default_rng(1)
    tiny = ScoreMatrix(
        system_tags=("A", "B", "C"),
        topic_ids=tuple(f"t{i}" for i in range(4)),
        values=rng.random((3, 4)),
    )
    exact = tukey_hsd_pvalues(tiny, SigTestConfig(mode=EXHAUSTIVE))
    print("\ntiny 3x4 matrix, exhaustive (6^3 = 216 of the 6^4 = 1296 assignments,"
          " topic 0 held in place) vs sampled:")
    for B in (100, 1000, 10_000, 100_000):
        approx = tukey_hsd_pvalues(tiny, SigTestConfig(permutations=B, master_seed=7))
        worst = np.abs(approx.p - exact.p).max()
        print(f"  B={B:>6}: worst |sampled - exact| = {worst:.5f}")


if __name__ == "__main__":
    main()
