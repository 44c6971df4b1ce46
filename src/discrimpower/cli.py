"""Command-line front end.

Subcommands:

* ``compare``  — score runs under ground-truth and candidate qrels, test
  significance on both sides, write report.csv / report.json / pairs.csv.
* ``sweep``    — percentage-sampling sweep over fractions x repetitions,
  write sweep.csv and sweep_summary.csv.
* ``generate`` — produce candidate qrels (sample, popularity, llm).
* ``plot``     — render pairs.csv to a scatter SVG or sweep.csv to a
  metric-curve SVG.
* ``evaluate`` — export the per-topic score matrix as CSV.

Option precedence is CLI flag, then ``--config`` file (``key=value``
lines, keys named like the flags with underscores), then the built-in
default. All file outputs are written atomically and deterministically.
"""

from __future__ import annotations

import argparse
import csv
import os
import re
import sys
from pathlib import Path

from .errors import ConfigurationError, DiscrimPowerError
from .trec import (
    CANDIDATE,
    GROUND_TRUTH,
    load_qrels,
    load_runs,
    load_runs_dir,
    serialize_qrels,
    write_atomic,
)

# Each command imports the modules it runs where it first needs them, so
# building the parser, --help and option or config errors never load numpy.
# For the same reason the --gain and --p-mode choices are spelled out; a test
# holds them to the constants in measures and synth.

DEFAULT_FRACTIONS = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0"


def _to_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    lowered = str(raw).strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigurationError(f"not a boolean: {raw!r}")


def _parse_fractions(raw: str) -> list[float]:
    try:
        fractions = [float(part) for part in str(raw).split(",") if part.strip()]
    except ValueError:
        raise ConfigurationError(f"cannot parse fractions list {raw!r}")
    if not fractions:
        raise ConfigurationError("empty fractions list")
    repeated = [f for i, f in enumerate(fractions) if f in fractions[:i]]
    if repeated:
        raise ConfigurationError(f"sampling fraction {repeated[0]!r} is listed twice")
    return fractions


def _load_config(path) -> dict[str, str]:
    config: dict[str, str] = {}
    # Iterating the file splits at \n, \r\n and \r only, as the TREC
    # readers do; str.splitlines would also split inside a value at \x85,
    # \x0c, \u2028 and others.
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigurationError(f"{path}: line {line_no}: expected key=value")
            key, _, value = stripped.partition("=")
            config[key.strip().replace("-", "_")] = value.strip()
    return config


class _Options:
    """Per-invocation option resolution: flag, then config, then default."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config_path = getattr(args, "config", None)
        self.config = _load_config(self.config_path) if self.config_path else {}
        known = set(vars(args)) - {"command", "method", "func", "choices", "config"}
        unknown = sorted(set(self.config) - known)
        if unknown:
            raise ConfigurationError(
                f"{self.config_path}: unknown option {', '.join(unknown)}"
            )

    def get(self, name: str, default, convert=None):
        value = getattr(self.args, name, None)
        if value is not None:
            return value
        if name not in self.config:
            return default
        raw = self.config[name]
        try:
            value = raw if convert is None else convert(raw)
        except ValueError as exc:
            raise ConfigurationError(
                f"{self.config_path}: invalid value for {name}: {raw!r}"
            ) from exc
        except ConfigurationError as exc:  # it says what is wrong with the value
            raise ConfigurationError(
                f"{self.config_path}: invalid value for {name}: {exc}"
            ) from exc
        choices = self.args.choices.get(name)
        if choices is not None and value not in choices:
            raise ConfigurationError(
                f"{self.config_path}: invalid value for {name}: {raw!r} "
                f"(choose from {', '.join(choices)})"
            )
        return value


def _write_text(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text)
    print(f"wrote {path}")


def _load_runset(opts: _Options, depth: int):
    # Each command keeps the ranking prefix it scores: k, or --depth.
    runs_dir = opts.get("runs_dir", None)
    run_list = opts.get("run", None, convert=lambda raw: raw.split(","))
    tag_from_filename = opts.get("tag_from_filename", False, _to_bool)
    if runs_dir and run_list:
        raise ConfigurationError("give either --runs-dir or --run, not both")
    if runs_dir:
        return load_runs_dir(runs_dir, tag_from_filename, depth)
    if run_list:
        return load_runs(run_list, tag_from_filename, depth)
    raise ConfigurationError("no runs given: use --runs-dir or --run")


def _measure_spec(opts: _Options):
    from .measures import LINEAR, MeasureSpec

    return MeasureSpec(
        k=opts.get("k", 10, int),
        gain=opts.get("gain", LINEAR),
    )


def _sig_config(opts: _Options):
    from .significance import SigTestConfig

    return SigTestConfig(
        alpha=opts.get("alpha", 0.05, float),
        permutations=opts.get("permutations", 10_000, int),
        master_seed=opts.get("seed", 0, int),
        alpha_inclusive=opts.get("alpha_inclusive", False, _to_bool),
        n_workers=opts.get("workers", 1, int),
    )


def cmd_compare(args) -> int:
    opts = _Options(args)
    out_dir = Path(opts.get("out_dir", "."))
    precision = opts.get("precision", "4")
    max_grade = opts.get("max_grade", 3, int)
    spec = _measure_spec(opts)

    runs = _load_runset(opts, spec.k)
    gt = load_qrels(args.gt, max_grade, GROUND_TRUTH)
    cand = load_qrels(args.cand, max_grade, CANDIDATE)
    from . import reporting

    cmp = reporting.compare_qrels(
        runs,
        gt,
        cand,
        spec=spec,
        sig_cfg=_sig_config(opts),
        kappa_threshold=opts.get("kappa_threshold", 2, int),
    )
    dataset = opts.get("dataset", Path(args.gt).stem)
    name = opts.get("name", Path(args.cand).stem)
    row = reporting.report_row(cmp.report, dataset, name)
    report_csv = reporting.report_to_csv([row], precision)
    _write_text(out_dir / "report.csv", report_csv)
    _write_text(out_dir / "report.json", reporting.report_to_json([row]))
    _write_text(
        out_dir / "pairs.csv",
        reporting.pairs_to_csv(reporting.pair_rows(cmp), precision),
    )
    print(report_csv, end="")
    return 0


def cmd_sweep(args) -> int:
    opts = _Options(args)
    out_dir = Path(opts.get("out_dir", "."))
    precision = opts.get("precision", "4")
    max_grade = opts.get("max_grade", 3, int)
    spec = _measure_spec(opts)

    runs = _load_runset(opts, spec.k)
    gt = load_qrels(args.gt, max_grade, GROUND_TRUTH)
    sig_cfg = _sig_config(opts)
    from . import reporting

    result = reporting.run_sweep(
        runs,
        gt,
        fractions=opts.get("fractions", _parse_fractions(DEFAULT_FRACTIONS), _parse_fractions),
        repetitions=opts.get("repetitions", 10, int),
        master_seed=opts.get("seed", 0, int),
        spec=spec,
        sig_cfg=sig_cfg,
        kappa_threshold=opts.get("kappa_threshold", 2, int),
        relevant_threshold=opts.get("relevant_threshold", 1, int),
        stratified=opts.get("stratified", False, _to_bool),
        n_workers=sig_cfg.n_workers,
    )
    _write_text(out_dir / "sweep.csv", reporting.sweep_to_csv(result, precision))
    _write_text(
        out_dir / "sweep_summary.csv",
        reporting.sweep_summary_to_csv(result, precision),
    )
    return 0


def cmd_generate_sample(args) -> int:
    opts = _Options(args)
    out_dir = Path(opts.get("out_dir", "."))
    max_grade = opts.get("max_grade", 3, int)
    gt = load_qrels(args.gt, max_grade, GROUND_TRUTH)

    single = opts.get("fraction", None, float)
    listed = opts.get("fractions", None, _parse_fractions)
    if single is not None and listed is not None:
        raise ConfigurationError("give either --fraction or --fractions, not both")
    if single is None and listed is None:
        raise ConfigurationError("give a sampling fraction via --fraction or --fractions")
    fractions = listed if listed is not None else [single]
    from .synth import SamplingConfig, percentage_sample

    repetitions = opts.get("repetitions", 1, int)
    for fraction in fractions:
        cfg = SamplingConfig(
            fraction=fraction,
            repetitions=repetitions,
            master_seed=opts.get("seed", 0, int),
            relevant_threshold=opts.get("relevant_threshold", 1, int),
            stratified=opts.get("stratified", False, _to_bool),
        )
        for rep in range(repetitions):
            sampled = percentage_sample(gt, cfg, rep)
            _write_text(
                out_dir / f"sample_{fraction:g}_{rep}.qrels",
                serialize_qrels(sampled),
            )
    return 0


def cmd_generate_popularity(args) -> int:
    opts = _Options(args)
    out_dir = Path(opts.get("out_dir", "."))
    max_grade = opts.get("max_grade", 3, int)
    gt = load_qrels(args.gt, max_grade, GROUND_TRUTH)
    from .synth import EXPLICIT, PER_TOPIC, PopularityConfig, popularity_biased

    p_mode = opts.get("p_mode", PER_TOPIC)
    explicit_p = opts.get("explicit_p", None, float)
    cfg = PopularityConfig(
        depth=opts.get("depth", 100, int),
        p_mode=p_mode,
        explicit_p=explicit_p,
        relevant_threshold=opts.get("relevant_threshold", 1, int),
    )
    labelled = popularity_biased(gt, _load_runset(opts, cfg.depth), cfg)
    param = f"{explicit_p:g}" if p_mode == EXPLICIT else p_mode
    _write_text(out_dir / f"popularity_{param}_0.qrels", serialize_qrels(labelled))
    return 0


def cmd_generate_llm(args) -> int:
    opts = _Options(args)
    from . import labeller  # the rest of the tool works without requests

    out_dir = Path(opts.get("out_dir", "."))
    max_grade = opts.get("max_grade", 3, int)
    gt = load_qrels(args.gt, max_grade, GROUND_TRUTH)

    endpoint = opts.get("endpoint", None)
    model = opts.get("model", None)
    queries_path = opts.get("queries", None)
    texts_path = opts.get("texts", None)
    for flag, value in (("--endpoint", endpoint), ("--model", model),
                        ("--queries", queries_path), ("--texts", texts_path)):
        if value is None:
            raise ConfigurationError(f"{flag} is required for llm generation")

    prompt_file = opts.get("prompt_file", None)
    template = (
        Path(prompt_file).read_text(encoding="utf-8")
        if prompt_file
        else labeller.DEFAULT_PROMPT_TEMPLATE
    )
    cache_dir = opts.get("cache_dir", None)
    cfg = labeller.LabellerConfig(
        endpoint=endpoint,
        model=model,
        prompt_template=template,
        scale_max=opts.get("scale_max", 3, int),
        timeout=opts.get("timeout", 60.0, float),
        max_retries=opts.get("retries", 3, int),
        cache_dir=Path(cache_dir) if cache_dir else None,
        rate_limit=opts.get("rate_limit", None, float),
        concurrency=opts.get("concurrency", 4, int),
        api_key_env=opts.get("api_key_env", "LLM_API_KEY"),
    )
    pairs = labeller.assemble_pairs(
        gt,
        labeller.load_query_texts(queries_path),
        labeller.load_pair_texts(texts_path),
    )
    qrels, _ = labeller.label_qrels(
        pairs, cfg, skip_failures=opts.get("skip_failures", False, _to_bool)
    )
    safe_model = re.sub(r"[^A-Za-z0-9._-]+", "-", model)
    _write_text(out_dir / f"llm_{safe_model}_0.qrels", serialize_qrels(qrels))
    return 0


def _read_csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cmd_plot(args) -> int:
    opts = _Options(args)
    if bool(args.pairs) == bool(args.sweep):
        raise ConfigurationError("give exactly one of --pairs or --sweep")
    out_dir = Path(opts.get("out_dir", "."))
    from . import svgplot

    if args.pairs:
        svg = svgplot.render_scatter(_read_csv_rows(args.pairs))
        out = Path(args.out) if args.out else out_dir / "scatter.svg"
    else:
        svg = svgplot.render_sweep(_read_csv_rows(args.sweep))
        out = Path(args.out) if args.out else out_dir / "sweep.svg"
    _write_text(out, svg)
    return 0


def cmd_evaluate(args) -> int:
    opts = _Options(args)
    max_grade = opts.get("max_grade", 3, int)
    spec = _measure_spec(opts)
    runs = _load_runset(opts, spec.k)
    qrels = load_qrels(args.qrels, max_grade, GROUND_TRUTH)
    from .measures import score_matrix

    sm = score_matrix(runs, qrels, spec)
    out_dir = opts.get("out_dir", None)
    if out_dir is None:
        sys.stdout.write(sm.to_csv())
    else:
        _write_text(Path(out_dir) / "scores.csv", sm.to_csv())
    return 0


def _add_common_flags(p: argparse.ArgumentParser, out_dir: bool = True):
    p.add_argument("--config", help="key=value option file")
    if out_dir:
        p.add_argument("--out-dir", dest="out_dir", help="output directory")
    p.add_argument("--precision", choices=["4", "full"],
                   help="metric formatting in CSV outputs")


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--runs-dir", dest="runs_dir",
                   help="directory whose every file is one run")
    p.add_argument("--run", action="append",
                   help="one run file (repeatable)")
    p.add_argument("--tag-from-filename", dest="tag_from_filename",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="use the file stem as the system tag")


def _add_measure_flags(p: argparse.ArgumentParser):
    p.add_argument("--k", type=int, help="rank cutoff (default 10)")
    p.add_argument("--gain", choices=["linear", "exponential"],
                   help="gain function (default linear)")
    p.add_argument("--max-grade", dest="max_grade", type=int,
                   help="largest allowed relevance grade (default 3)")


def _add_sig_flags(p: argparse.ArgumentParser):
    p.add_argument("--alpha", type=float, help="significance level (default 0.05)")
    p.add_argument("--permutations", type=int,
                   help="randomisation iterations (default 10000)")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--alpha-inclusive", dest="alpha_inclusive",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="treat p = alpha as significant")
    p.add_argument("--workers", type=int,
                   help="processes for each significance test, split on "
                        "1024-iteration blocks (default 1)")


def _add_sampling_flags(p: argparse.ArgumentParser):
    p.add_argument("--relevant-threshold", dest="relevant_threshold", type=int,
                   help="grade at which a judgment counts as relevant (default 1)")
    p.add_argument("--stratified", action=argparse.BooleanOptionalAction,
                   default=None, help="sample per topic instead of globally")


def _bind(p: argparse.ArgumentParser, func) -> None:
    # A config value is held to the same choices as the flag it stands for.
    p.set_defaults(func=func, choices={a.dest: a.choices for a in p._actions if a.choices})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrimpower",
        description="Quantify how well candidate relevance judgments reproduce "
                    "the significance conclusions of ground-truth judgments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compare", help="compare candidate qrels against ground truth")
    _add_common_flags(p)
    _add_run_flags(p)
    _add_measure_flags(p)
    _add_sig_flags(p)
    p.add_argument("--gt", required=True, help="ground-truth qrels file")
    p.add_argument("--cand", required=True, help="candidate qrels file")
    p.add_argument("--kappa-threshold", dest="kappa_threshold", type=int,
                   help="binarisation grade for label agreement (default 2)")
    p.add_argument("--dataset", help="dataset label for the report row")
    p.add_argument("--name", help="candidate label for the report row")
    _bind(p, cmd_compare)

    p = sub.add_parser("sweep", help="percentage-sampling sweep")
    _add_common_flags(p)
    _add_run_flags(p)
    _add_measure_flags(p)
    _add_sig_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--gt", required=True, help="ground-truth qrels file")
    p.add_argument("--fractions", type=_parse_fractions,
                   help="comma-separated sampling fractions")
    p.add_argument("--repetitions", type=int, help="samples per fraction (default 10)")
    p.add_argument("--kappa-threshold", dest="kappa_threshold", type=int)
    _bind(p, cmd_sweep)

    p = sub.add_parser("generate", help="produce candidate qrels")
    gen_sub = p.add_subparsers(dest="method", required=True)

    g = gen_sub.add_parser("sample", help="percentage sampling of relevant judgments")
    _add_common_flags(g)
    _add_sampling_flags(g)
    g.add_argument("--gt", required=True)
    g.add_argument("--fraction", type=float, help="single sampling fraction")
    g.add_argument("--fractions", type=_parse_fractions,
                   help="comma-separated sampling fractions")
    g.add_argument("--repetitions", type=int, help="samples per fraction (default 1)")
    g.add_argument("--seed", type=int, help="master seed (default 0)")
    g.add_argument("--max-grade", dest="max_grade", type=int)
    _bind(g, cmd_generate_sample)

    g = gen_sub.add_parser("popularity", help="label most-retrieved documents relevant")
    _add_common_flags(g)
    _add_run_flags(g)
    g.add_argument("--gt", required=True)
    g.add_argument("--depth", type=int, help="retrieval-count depth (default 100)")
    g.add_argument("--p-mode", dest="p_mode",
                   choices=["per_topic", "global", "explicit"],
                   help="how many documents per topic to label relevant")
    g.add_argument("--explicit-p", dest="explicit_p", type=float,
                   help="relevant fraction for --p-mode explicit")
    g.add_argument("--relevant-threshold", dest="relevant_threshold", type=int)
    g.add_argument("--max-grade", dest="max_grade", type=int)
    _bind(g, cmd_generate_popularity)

    g = gen_sub.add_parser("llm", help="zero-shot relevance labelling over HTTP")
    _add_common_flags(g)
    g.add_argument("--gt", required=True,
                   help="qrels defining the (topic, doc) pairs to label")
    g.add_argument("--queries", help="TSV: topic_id <TAB> query text")
    g.add_argument("--texts", help="TSV: topic_id <TAB> doc_id <TAB> document text")
    g.add_argument("--endpoint", help="chat-completion endpoint URL")
    g.add_argument("--model", help="model identifier")
    g.add_argument("--prompt-file", dest="prompt_file",
                   help="prompt template with {query} and {document} slots")
    g.add_argument("--scale-max", dest="scale_max", type=int)
    g.add_argument("--timeout", type=float)
    g.add_argument("--retries", type=int)
    g.add_argument("--cache-dir", dest="cache_dir")
    g.add_argument("--rate-limit", dest="rate_limit", type=float,
                   help="max requests per second")
    g.add_argument("--concurrency", type=int)
    g.add_argument("--api-key-env", dest="api_key_env",
                   help="environment variable holding the API key")
    g.add_argument("--skip-failures", dest="skip_failures",
                   action=argparse.BooleanOptionalAction, default=None)
    g.add_argument("--max-grade", dest="max_grade", type=int)
    _bind(g, cmd_generate_llm)

    p = sub.add_parser("plot", help="render a comparison or sweep CSV to SVG")
    _add_common_flags(p)
    p.add_argument("--pairs", help="pairs.csv from compare")
    p.add_argument("--sweep", help="sweep.csv from sweep")
    p.add_argument("--out", help="output SVG path")
    _bind(p, cmd_plot)

    p = sub.add_parser("evaluate", help="export the score matrix as CSV")
    _add_common_flags(p, out_dir=False)
    p.add_argument("--out-dir", dest="out_dir",
                   help="write scores.csv here instead of stdout")
    _add_run_flags(p)
    _add_measure_flags(p)
    p.add_argument("--qrels", required=True, help="qrels file to score against")
    _bind(p, cmd_evaluate)

    return parser


def main(argv=None) -> int:
    # No command calls BLAS, so numpy, imported later by the command, starts
    # no BLAS worker threads. A value already set in the environment wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else exc
        print(f"error: file not found: {name}", file=sys.stderr)
        return 2
    except OSError as exc:
        detail = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
        print(f"error: {detail}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
        return 1
    except DiscrimPowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
