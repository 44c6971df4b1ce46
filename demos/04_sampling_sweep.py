"""How fast does conclusion agreement decay as judgments are removed?

Sweeps the sampling fraction from 20% to 100%, repeating each fraction
with different random samples, and renders the metric curves and a
truth-vs-candidate scatter as SVG files next to this script.
"""

from pathlib import Path

from discrimpower import (
    SigTestConfig,
    build_mini_collection,
    compare_qrels,
    pair_rows,
    percentage_sample,
    render_scatter,
    render_sweep,
    run_sweep,
    sweep_summary_to_csv,
)
from discrimpower.synth import SamplingConfig

OUT = Path(__file__).resolve().parent / "output"
SIG = SigTestConfig(permutations=2000, master_seed=0)


def main():
    runs, truth = build_mini_collection()

    result = run_sweep(
        runs, truth,
        fractions=[0.2, 0.4, 0.6, 0.8, 1.0],
        repetitions=3,
        master_seed=7,
        sig_cfg=SIG,
        n_workers=2,  # processes per significance test; results do not depend on this
    )
    print("per-fraction summary (mean over repetitions):")
    print(sweep_summary_to_csv(result), end="")

    OUT.mkdir(exist_ok=True)
    sweep_svg = OUT / "sweep_curves.svg"
    sweep_svg.write_text(render_sweep(result.rows))
    print(f"\nwrote {sweep_svg}")

    # Scatter for one interesting cell: the half-judgment candidate.
    cand = percentage_sample(
        truth, SamplingConfig(fraction=0.5, master_seed=7), 0
    )
    cmp = compare_qrels(runs, truth, cand, sig_cfg=SIG)
    scatter_svg = OUT / "half_sample_scatter.svg"
    scatter_svg.write_text(render_scatter(pair_rows(cmp)))
    print(f"wrote {scatter_svg}")
    print("open them in any browser; dashed red = false positives, "
          "dashed blue = false negatives")


if __name__ == "__main__":
    main()
