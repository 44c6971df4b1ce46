"""The three workloads: their inputs, CLI arguments and output checks.

Every input comes from one benchmark seed. ``Seeds.derive`` splits it
into the collection seed (``build_mini_collection``), the sampling seed
(``generate sample``) and the permutation seed (``--seed`` of the test),
plus a probe seed for the checks' own random choices.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

import oracle
from harness import CLI, FIXTURE, run_timed

from discrimpower.measures import MeasureSpec, ScoreMatrix, score_matrix
from discrimpower.reporting import (
    compare_qrels,
    pair_rows,
    pairs_to_csv,
    report_row,
    report_to_csv,
    report_to_json,
    run_sweep,
    sweep_summary_to_csv,
    sweep_to_csv,
)
from discrimpower.significance import EXHAUSTIVE, SigTestConfig, tukey_hsd_pvalues
from discrimpower.trec import CANDIDATE, GROUND_TRUTH, load_qrels, load_runs_dir

K = 10
SAMPLE_FRACTION = 0.3
SWEEP_FRACTIONS = [0.2, 0.4, 0.6, 0.8, 1.0]
SWEEP_REPETITIONS = 2
SELF_CHECK_PERMUTATIONS = 200
GRID_SHAPE = (3, 6)  # (3!)^6 = 46,656 exhaustive assignments
ORACLE_SYSTEMS, ORACLE_TOPICS = 5, 8

COMPARE_COLLECTION = dict(n_systems=30, n_topics=50, n_docs=1000,
                          judged_per_topic=200, run_depth=100)
DEEP_COLLECTION = dict(n_systems=20, n_topics=50, n_docs=2000,
                       judged_per_topic=500, run_depth=1000)


@dataclass(frozen=True)
class Seeds:
    collection: int
    sample: int
    permutation: int
    probe: int

    @classmethod
    def derive(cls, seed: int) -> "Seeds":
        return cls(*(int(s) for s in np.random.SeedSequence(seed).generate_state(4)))


@dataclass
class Fixture:
    truth: Path
    runs_dir: Path
    cand: Optional[Path]
    sizes: dict


def _run_or_raise(argv: list[str], env: dict, log: Path, what: str) -> None:
    inv = run_timed(argv, env, log, timeout_s=120)
    if inv.exit_code != 0:
        raise RuntimeError(f"{what} exited {inv.exit_code}: {log.read_text(errors='replace')[-300:]}")


def build_collection(work: Path, env: dict, shape: dict, seed: int) -> Fixture:
    # A child process builds the collection: a child's ru_maxrss starts at its
    # parent's peak, so the process that times the CLI must never grow large.
    work.mkdir(parents=True, exist_ok=True)
    _run_or_raise([sys.executable, "-c", FIXTURE, str(work / "collection"),
                   json.dumps(dict(shape, seed=seed))], env, work / "fixture.log",
                  "write_mini_collection")
    truth = work / "collection" / "truth.qrels"
    run_paths = sorted((work / "collection" / "runs").iterdir())
    m, n = shape["n_systems"], shape["n_topics"]
    sizes = {
        "systems": m,
        "topics": n,
        "run_lines": m * n * shape["run_depth"],
        "run_bytes": sum(p.stat().st_size for p in run_paths),
        "qrels_lines": n * shape["judged_per_topic"],
        "pairs": m * (m - 1) // 2,
        "cells": m * n,
    }
    return Fixture(truth, work / "collection" / "runs", None, sizes)


def generate_sample(fx: Fixture, work: Path, env: dict, seeds: Seeds) -> Path:
    """Make the candidate with the CLI's own ``generate sample``."""
    out = work / "candidate"
    argv = [sys.executable, "-c", CLI, "generate", "sample", "--gt", str(fx.truth),
            "--fraction", f"{SAMPLE_FRACTION:g}", "--seed", str(seeds.sample),
            "--out-dir", str(out)]
    _run_or_raise(argv, env, work / "generate.log", "generate sample")
    return out / f"sample_{SAMPLE_FRACTION:g}_0.qrels"


def outputs_match(out_dir: Path, expected: dict[str, bytes]) -> list[str]:
    problems = []
    for name, want in expected.items():
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif path.read_bytes() != want:
            problems.append(f"{name} differs from the in-process result")
    return problems


def accuracy_check(seed: int, permutations: int) -> tuple[float, float, list[str]]:
    """Sampled against exhaustive p-values on a generated 3 x 6 matrix.

    Returns (max |p_sampled - p_exact|, max of that error in standard
    errors, breaches of :func:`oracle.mc_bound`).
    """
    rng = np.random.default_rng(seed)
    m, n = GRID_SHAPE
    sm = ScoreMatrix([f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)],
                     rng.random((m, n)))
    exact = tukey_hsd_pvalues(sm, SigTestConfig(mode=EXHAUSTIVE)).p_values
    sampled = tukey_hsd_pvalues(
        sm, SigTestConfig(permutations=permutations, master_seed=seed)).p_values
    max_err = max_se = 0.0
    problems = []
    for pair, p in exact.items():
        err = abs(sampled[pair] - p)
        max_err = max(max_err, err)
        se = (p * (1.0 - p) / permutations) ** 0.5
        if se > 0:
            max_se = max(max_se, err / se)
        if err > oracle.mc_bound(p, permutations):
            problems.append(f"{pair}: |{sampled[pair]} - {p}| > bound at B={permutations}")
    return max_err, max_se, problems


class Workload:
    name: str
    why: str
    permutations: Optional[int] = None

    def __init__(self, work: Path, seeds: Seeds, env: dict):
        self.work = work
        self.seeds = seeds
        self.env = env
        self.fx = self.build()
        # Write the inputs back now, so that flushing them does not overlap the timed loop.
        for path in work.rglob("*"):
            if path.is_file():
                fd = os.open(path, os.O_RDONLY)
                try:
                    os.fsync(fd)
                finally:
                    os.close(fd)

    @property
    def sig_cfg(self) -> SigTestConfig:
        return SigTestConfig(permutations=self.permutations, master_seed=self.seeds.permutation)

    def sizes(self) -> dict:
        return dict(self.fx.sizes, permutations=self.permutations)

    def argv(self, out_dir: Path, trace: bool = False) -> list[str]:
        """The CLI invocation; ``trace`` selects the variant the traced run mirrors."""
        return [sys.executable, "-c", CLI] + self.cli_args(out_dir, trace)

    def run_checks(self) -> list[tuple[str, list[str]]]:
        """Run-level checks, each (name, problems)."""
        checks = []
        if self.permutations:
            _, _, problems = accuracy_check(self.seeds.probe, self.permutations)
            checks.append((f"monte-carlo accuracy at B={self.permutations}", problems))
        return checks

    def compare_collection(self) -> Fixture:
        """The compare-tukey collection at this seed, for the traced run's side measurements."""
        return self.fx

    def invocation_problems(self, out_dir: Path) -> list[str]:
        return outputs_match(out_dir, self.expected)


class CompareTukey(Workload):
    name = "compare-tukey"
    why = "one-shot user comparison: the randomised Tukey HSD kernel does nearly all the work"
    permutations = 2000

    def build(self) -> Fixture:
        fx = build_collection(self.work, self.env, COMPARE_COLLECTION, self.seeds.collection)
        fx.cand = generate_sample(fx, self.work, self.env, self.seeds)
        return fx

    def cli_args(self, out_dir: Path, trace: bool = False) -> list[str]:
        return ["compare", "--runs-dir", str(self.fx.runs_dir), "--gt", str(self.fx.truth),
                "--cand", str(self.fx.cand), "--k", str(K),
                "--permutations", str(self.permutations),
                "--seed", str(self.seeds.permutation), "--out-dir", str(out_dir)]

    def reference(self):
        runs = load_runs_dir(self.fx.runs_dir)
        gt = load_qrels(self.fx.truth, role=GROUND_TRUTH)
        cand = load_qrels(self.fx.cand, role=CANDIDATE)
        cmp = compare_qrels(runs, gt, cand, spec=MeasureSpec(k=K), sig_cfg=self.sig_cfg)
        row = report_row(cmp.report, self.fx.truth.stem, self.fx.cand.stem)
        self.expected = {
            "report.csv": report_to_csv([row]).encode(),
            "report.json": report_to_json([row]).encode(),
            "pairs.csv": pairs_to_csv(pair_rows(cmp)).encode(),
        }
        self.ref_row, self.ref_pairs = row, pair_rows(cmp)
        self.runs, self.gt = runs, gt

    def run_checks(self):
        same = compare_qrels(
            self.runs, self.gt, dataclasses.replace(self.gt, role=CANDIDATE),
            spec=MeasureSpec(k=K),
            sig_cfg=SigTestConfig(permutations=SELF_CHECK_PERMUTATIONS,
                                  master_seed=self.seeds.permutation),
        ).report.counts
        problems = [] if same.fp == same.fn == 0 else [f"fp={same.fp} fn={same.fn}"]
        return super().run_checks() + [("truth against itself", problems)]


class EvaluateDeep(Workload):
    name = "evaluate-deep"
    why = "TREC-depth runs: parsing is nearly all the time and memory; no significance test"

    def build(self) -> Fixture:
        return build_collection(self.work, self.env, DEEP_COLLECTION, self.seeds.collection)

    def compare_collection(self) -> Fixture:
        return build_collection(self.work / "side", self.env, COMPARE_COLLECTION,
                                self.seeds.collection)

    def cli_args(self, out_dir: Path, trace: bool = False) -> list[str]:
        return ["evaluate", "--runs-dir", str(self.fx.runs_dir), "--qrels", str(self.fx.truth),
                "--k", str(K), "--out-dir", str(out_dir)]

    def reference(self):
        sm = score_matrix(load_runs_dir(self.fx.runs_dir), load_qrels(self.fx.truth),
                          MeasureSpec(k=K))
        self.expected = {"scores.csv": sm.to_csv().encode()}

    def run_checks(self):
        """A sample of scores.csv cells against the benchmark's own nDCG@10."""
        rows = list(csv.reader(io.StringIO(self.expected["scores.csv"].decode())))
        topics, table = rows[0][1:], {r[0]: r[1:] for r in rows[1:]}
        rng = np.random.default_rng(self.seeds.probe)
        systems = sorted(rng.choice(sorted(table), ORACLE_SYSTEMS, replace=False))
        picked = sorted(rng.choice(len(topics), ORACLE_TOPICS, replace=False))
        grades = oracle.read_grades(self.fx.truth)
        problems = []
        for system in systems:
            rankings = oracle.read_rankings(self.fx.runs_dir / f"{system}.run",
                                            {topics[j] for j in picked})
            for j in picked:
                want = oracle.ndcg_at_10(rankings.get(topics[j], []), grades[topics[j]], K)
                got = float(table[system][j])
                if abs(got - want) > 1e-6:
                    problems.append(f"{system}/{topics[j]}: csv {got} oracle {want}")
        return super().run_checks() + [("oracle nDCG@10 sample", problems)]


class SweepResample(Workload):
    name = "sweep-resample"
    why = "many rescoring and test cells on parsed runs across the sweep-level process pool"
    permutations = 200
    workers = 2

    def build(self) -> Fixture:
        return build_collection(self.work, self.env, COMPARE_COLLECTION, self.seeds.collection)

    def sizes(self) -> dict:
        return dict(super().sizes(), sweep_cells=len(SWEEP_FRACTIONS) * SWEEP_REPETITIONS)

    def cli_args(self, out_dir: Path, trace: bool = False) -> list[str]:
        # The traced pipeline runs the cells in order, so it mirrors --workers 1.
        workers = 1 if trace else self.workers
        return ["sweep", "--runs-dir", str(self.fx.runs_dir), "--gt", str(self.fx.truth),
                "--k", str(K), "--fractions", ",".join(f"{f:g}" for f in SWEEP_FRACTIONS),
                "--repetitions", str(SWEEP_REPETITIONS),
                "--permutations", str(self.permutations),
                "--seed", str(self.seeds.permutation), "--workers", str(workers),
                "--out-dir", str(out_dir)]

    def reference(self):
        result = sweep(load_runs_dir(self.fx.runs_dir), load_qrels(self.fx.truth),
                       self.seeds, n_workers=1)
        self.expected = {
            "sweep.csv": sweep_to_csv(result).encode(),
            "sweep_summary.csv": sweep_summary_to_csv(result).encode(),
        }
        self.ref_rows = result.rows

    def invocation_problems(self, out_dir: Path) -> list[str]:
        problems = super().invocation_problems(out_dir)
        path = out_dir / "sweep.csv"
        if path.is_file():
            with open(path, newline="", encoding="utf-8") as fh:
                for row in csv.DictReader(fh):
                    if float(row["fraction"]) == 1.0 and (row["fp"], row["fn"]) != ("0", "0"):
                        problems.append(f"fraction 1.0 rep {row['repetition']}: "
                                        f"fp={row['fp']} fn={row['fn']}")
        return problems


def sweep(runs, gt, seeds: Seeds, n_workers: int):
    """``run_sweep`` with the sweep-resample settings."""
    return run_sweep(runs, gt, fractions=SWEEP_FRACTIONS, repetitions=SWEEP_REPETITIONS,
                     master_seed=seeds.permutation, spec=MeasureSpec(k=K),
                     sig_cfg=SigTestConfig(permutations=SweepResample.permutations,
                                           master_seed=seeds.permutation),
                     n_workers=n_workers)


WORKLOADS = {w.name: w for w in (CompareTukey, EvaluateDeep, SweepResample)}
