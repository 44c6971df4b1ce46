"""Benchmark of the discrimpower CLI: three workloads, timed end to end
in fresh processes, plus a traced in-process run for per-layer figures.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload compare-tukey --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` times CLI invocations in a closed loop (one client; the
next starts when the previous exits) until ``--seconds`` have passed and
reports end-to-end medians. ``--trace 1`` makes one untraced
invocation plus the traced run and reports per-layer figures. Either
way every output is checked, and the last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import SETUP, Tally, child_env, environment, median_with_count, run_timed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACES = ROOT / ".bench_traces"

SETUP_SAMPLES = 4  # before and again after the timed loop
TRACE_SETUP_SAMPLES = 3
TIMEOUT_S = 150

# wall_s is printed and recorded but not gated: on a shared virtual machine it
# includes CPU time stolen by other guests, and it drifted by more than 20%
# between two sets of the same runs, while cpu_s drifted by less than 10%.
END_TO_END = {"cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PRINTED = {"wall_s": "s", **END_TO_END}
PER_LAYER_UNITS = {
    "trec.load_runs_dir.s": "s",
    "trec.load_runs_dir.lines_per_s": "lines/s",
    "trec.load_runs_dir.mb_per_s": "MB/s",
    "trec.load_qrels.s": "s",
    "trec.runset_alloc_mb": "MB",
    "measures.score_matrix.s": "s",
    "measures.score_matrix.calls": "count",
    "measures.score_matrix.cells_per_s": "cells/s",
    "significance.tukey_hsd_pvalues.s": "s",
    "significance.tukey_hsd_pvalues.calls": "count",
    "significance.null.iter_topics_per_s": "1/s",
    "significance.pool_speedup": "ratio",
    "significance.max_abs_p_err": "p",
    "significance.max_err_over_se": "se",
    "synth.percentage_sample.s": "s",
    "metrics.full_report.s": "s",
    "reporting.export.s": "s",
    "reporting.run_sweep.w1_s": "s",
    "reporting.run_sweep.w2_s": "s",
    "reporting.run_sweep.parallel_efficiency": "ratio",
    "reporting.run_sweep.ipc_mb_per_cell": "MB",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _require_source() -> None:
    """Import the package from this checkout's src/ and nowhere else."""
    if not (SRC / "discrimpower" / "cli.py").is_file():
        sys.exit(f"error: no discrimpower sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import discrimpower

    if Path(discrimpower.__file__).resolve().parent != SRC / "discrimpower":
        sys.exit(f"error: imported discrimpower from {discrimpower.__file__}, not {SRC}")


def _setup_samples(count: int, work: Path, env: dict) -> list:
    samples = []
    for _ in range(count):
        inv = run_timed([sys.executable, "-c", SETUP], env, work / "setup.log", TIMEOUT_S)
        if inv.exit_code != 0:
            raise RuntimeError(f"importing discrimpower.cli exited {inv.exit_code}")
        samples.append(inv)
    return samples


def _invoke(w, out_dir: Path, trace: bool = False):
    log = out_dir.with_suffix(".log")
    inv = run_timed(w.argv(out_dir, trace), w.env, log, TIMEOUT_S)
    problems = [] if inv.exit_code == 0 else [
        f"exit {inv.exit_code}: " + log.read_text(errors="replace").strip()[-300:]]
    return inv, problems


def _timed_loop(w, seconds: float, tally) -> tuple[dict, dict]:
    setup = _setup_samples(SETUP_SAMPLES, w.work, w.env)
    runs = []
    start = time.perf_counter()
    while True:
        out_dir = w.work / f"out{len(runs)}"
        runs.append((out_dir, *_invoke(w, out_dir)))
        elapsed = time.perf_counter() - start
        # Start another only if it should finish near the end of the window.
        if elapsed + runs[-1][1].wall_s / 2 >= seconds:
            break
    setup += _setup_samples(SETUP_SAMPLES, w.work, w.env)

    w.reference()
    for i, (out_dir, inv, problems) in enumerate(runs):
        if not problems:
            problems = w.invocation_problems(out_dir)
        tally.record(f"invocation {i}", problems)
    for name, problems in w.run_checks():
        tally.record(name, problems)

    invs = [inv for _, inv, _ in runs]
    samples = {
        "wall_s": [i.wall_s for i in invs],
        "cpu_s": [i.cpu_s for i in invs],
        "peak_rss_mb": [i.peak_rss_mb for i in invs],
        "setup_s": [i.cpu_s for i in setup],
    }
    metrics = {name: median_with_count(values) for name, values in samples.items()}
    samples["setup_wall_s"] = [i.wall_s for i in setup]
    return metrics, {"samples": samples}


def _traced(w, seed: int, tally) -> tuple[dict, dict]:
    from traced import side_measurements, traced_run

    setup = _setup_samples(TRACE_SETUP_SAMPLES, w.work, w.env)
    cli_dir = w.work / "cli"
    inv, problems = _invoke(w, cli_dir, trace=True)

    w.reference()
    tally.record("invocation 0", problems or w.invocation_problems(cli_dir))
    checks = w.run_checks()
    TRACES.mkdir(exist_ok=True)
    trace_path = TRACES / f"{w.name}-seed{seed}.json"
    layers, traced_wall = traced_run(w, w.work / "traced", trace_path, checks)
    layers.update(side_measurements(w, checks))
    for name, problems in checks:
        tally.record(name, problems)

    setup_wall_s = statistics.median(i.wall_s for i in setup)
    layers["trace.overhead_s"] = traced_wall - (inv.wall_s - setup_wall_s)
    metrics = {name: (value, 1) for name, value in layers.items()}
    return metrics, {"untraced_wall_s": inv.wall_s, "setup_wall_s": setup_wall_s,
                     "traced_wall_s": traced_wall, "spans": str(trace_path.relative_to(ROOT))}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS, Seeds

    work = WORK / f"{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        w = WORKLOADS[name](work, Seeds.derive(seed), child_env(SRC))
        if trace:
            metrics, detail = _traced(w, seed, tally)
            printed = units = PER_LAYER_UNITS
        else:
            metrics, detail = _timed_loop(w, seconds, tally)
            printed, units = PRINTED, END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": name,
        "why": w.why,
        "trace": int(trace),
        "environment": environment(ROOT, SRC, seed),
        "inputs": w.sizes(),
        "fail_ratio": tally.fail_ratio,
        "failures": tally.failures,
        "sample_counts": {m: n for m, (_, n) in metrics.items()},
        **detail,
    }
    print(json.dumps(record, sort_keys=True))
    for metric, unit in printed.items():
        value, count = metrics[metric]
        print(f"{name} {metric} = {value:.6g} {unit} (median of {count})")
    print(f"{name} fail_ratio = {tally.fail_ratio:.6g} "
          f"({tally.failed} failed of {tally.attempted} attempted)")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": metrics[m][0], "unit": units[m]} for m in units},
    }


def _run_all(args, names: list[str]) -> dict:
    """Each workload in its own process, so that no workload's memory shows in
    another's peak RSS."""
    results = {}
    for name in names:
        out = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(out.stdout)
        results[name] = json.loads(out.stdout.strip().splitlines()[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="compare-tukey, evaluate-deep, sweep-resample or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_source()
    from workloads import WORKLOADS

    if args.workload in WORKLOADS:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    elif args.workload == "all":
        result = _run_all(args, list(WORKLOADS))
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
