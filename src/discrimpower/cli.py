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

``OPTIONS`` declares every option once. Option precedence is CLI flag,
then ``--config`` file (``key=value`` lines, keys named like the flags
with underscores), then the built-in default. Every option is resolved
and checked before a command reads any input. All file outputs are
written atomically and deterministically.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import os
import re
import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

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


def _max_grade(raw) -> int:
    value = int(raw)
    if value < 0:  # before any input is read; parse_qrels checks it for library callers
        raise ConfigurationError(f"max_grade must be >= 0, got {value}")
    return value


def _split_runs(raw: str) -> list[str]:
    return raw.split(",")


class Option(NamedTuple):
    """One option: its flag, the commands that take it and how to read it.

    ``default`` is written as in a config file and read by ``convert``;
    ``None`` means unset. A row with an ``action`` (a switch or a
    repeatable flag) uses ``convert`` only for config and default text.
    """

    flag: str
    commands: tuple[str, ...]
    help: str
    default: Optional[str] = None
    convert: Callable = str
    choices: Optional[tuple[str, ...]] = None
    action: object = None
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


_SWITCH = argparse.BooleanOptionalAction
_GENERATE = ("generate sample", "generate popularity", "generate llm")
_RUNS = ("compare", "sweep", "generate popularity", "evaluate")
_TESTS = ("compare", "sweep")

OPTIONS = (
    Option("--config", ("compare", "sweep", *_GENERATE, "plot", "evaluate"),
           "key=value option file"),
    Option("--out-dir", ("compare", "sweep", *_GENERATE, "plot"), "output directory",
           ".", Path),
    Option("--out-dir", ("evaluate",), "write scores.csv here; none prints it to stdout",
           convert=Path),
    Option("--precision", _TESTS, "metric formatting in CSV outputs", "4",
           choices=("4", "full")),
    Option("--gt", ("compare", "sweep", "generate sample", "generate popularity"),
           "ground-truth qrels file", required=True),
    Option("--gt", ("generate llm",), "qrels defining the (topic, doc) pairs to label",
           required=True),
    Option("--cand", ("compare",), "candidate qrels file", required=True),
    Option("--qrels", ("evaluate",), "qrels file to score against", required=True),
    Option("--max-grade", ("compare", "sweep", *_GENERATE, "evaluate"),
           "largest allowed relevance grade", "3", _max_grade),
    Option("--runs-dir", _RUNS, "directory whose every file is one run"),
    Option("--run", _RUNS, "one run file (repeatable; comma-separated in a config file)",
           convert=_split_runs, action="append"),
    Option("--tag-from-filename", _RUNS, "use the file stem as the system tag", "false",
           _to_bool, action=_SWITCH),
    Option("--k", ("compare", "sweep", "evaluate"), "rank cutoff", "10", int),
    Option("--gain", ("compare", "sweep", "evaluate"), "gain function", "linear",
           choices=("linear", "exponential")),
    Option("--alpha", _TESTS, "significance level", "0.05", float),
    Option("--permutations", _TESTS, "randomisation iterations", "10000", int),
    Option("--seed", (*_TESTS, "generate sample"), "master seed", "0", int),
    Option("--alpha-inclusive", _TESTS, "treat p = alpha as significant", "false", _to_bool,
           action=_SWITCH),
    Option("--workers", _TESTS,
           "processes for each significance test, split on 1024-iteration blocks", "1", int),
    Option("--kappa-threshold", _TESTS, "binarisation grade for label agreement", "2", int),
    Option("--dataset", ("compare",),
           "dataset label for the report row; none means the --gt file stem"),
    Option("--name", ("compare",),
           "candidate label for the report row; none means the --cand file stem"),
    Option("--relevant-threshold", ("sweep", "generate sample", "generate popularity"),
           "grade at which a judgment counts as relevant", "1", int),
    Option("--stratified", ("sweep", "generate sample"),
           "sample per topic instead of globally", "false", _to_bool, action=_SWITCH),
    Option("--fractions", ("sweep",), "comma-separated sampling fractions",
           "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", _parse_fractions),
    Option("--fractions", ("generate sample",), "comma-separated sampling fractions",
           convert=_parse_fractions),
    Option("--fraction", ("generate sample",), "single sampling fraction", convert=float),
    Option("--repetitions", ("sweep",), "samples per fraction", "10", int),
    Option("--repetitions", ("generate sample",), "samples per fraction", "1", int),
    Option("--depth", ("generate popularity",), "retrieval-count depth", "100", int),
    Option("--p-mode", ("generate popularity",),
           "how many documents per topic to label relevant", "per_topic",
           choices=("per_topic", "global", "explicit")),
    Option("--explicit-p", ("generate popularity",),
           "relevant fraction for --p-mode explicit", convert=float),
    Option("--queries", ("generate llm",), "TSV: topic_id <TAB> query text"),
    Option("--texts", ("generate llm",), "TSV: topic_id <TAB> doc_id <TAB> document text"),
    Option("--endpoint", ("generate llm",), "chat-completion endpoint URL"),
    Option("--model", ("generate llm",), "model identifier"),
    Option("--prompt-file", ("generate llm",),
           "prompt template with {query} and {document} slots; none means the built-in one"),
    Option("--scale-max", ("generate llm",), "highest grade on the prompt's scale", "3", int),
    Option("--timeout", ("generate llm",), "seconds to wait for each reply", "60", float),
    Option("--retries", ("generate llm",), "attempts per request", "3", int),
    Option("--cache-dir", ("generate llm",), "reply cache directory; none caches nothing"),
    Option("--rate-limit", ("generate llm",), "max requests per second; none means no limit",
           convert=float),
    Option("--concurrency", ("generate llm",), "requests in flight at once", "4", int),
    Option("--api-key-env", ("generate llm",), "environment variable holding the API key",
           "LLM_API_KEY"),
    Option("--skip-failures", ("generate llm",),
           "drop pairs that fail instead of failing the job", "false", _to_bool,
           action=_SWITCH),
    Option("--pairs", ("plot",), "pairs.csv from compare"),
    Option("--sweep", ("plot",), "sweep.csv from sweep"),
    Option("--out", ("plot",),
           "output SVG path; none means scatter.svg or sweep.svg in --out-dir"),
)


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
            key = key.strip().replace("-", "_")
            if key in config:
                raise ConfigurationError(f"{path}: line {line_no}: {key} is given twice")
            config[key] = value.strip()
    return config


def _from_config(option: Option, raw: str, path):
    try:
        value = option.convert(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{path}: invalid value for {option.dest}: {raw!r}"
        ) from exc
    except ConfigurationError as exc:  # it says what is wrong with the value
        raise ConfigurationError(
            f"{path}: invalid value for {option.dest}: {exc}"
        ) from exc
    if option.choices is not None and value not in option.choices:
        raise ConfigurationError(
            f"{path}: invalid value for {option.dest}: {raw!r} "
            f"(choose from {', '.join(option.choices)})"
        )
    return value


def _resolve(args: argparse.Namespace) -> dict:
    """Every option of ``args.command``: its flag, else its config value, else its default.

    Every config value is converted and checked, even one a flag
    overrides, before a command imports a domain module or reads input.
    """
    options = {o.dest: o for o in OPTIONS if args.command in o.commands}
    path = args.config
    config = _load_config(path) if path else {}
    unknown = sorted(set(config) - set(options))
    if unknown:
        raise ConfigurationError(f"{path}: unknown option {', '.join(unknown)}")
    values = {}
    for key, raw in config.items():
        if key == "config" or options[key].required:
            raise ConfigurationError(f"{path}: {key} can only be given as a flag")
        values[key] = _from_config(options[key], raw, path)
    for dest, option in options.items():
        flag = getattr(args, dest)
        if flag is not None:
            values[dest] = flag
        elif dest not in values:
            values[dest] = None if option.default is None else option.convert(option.default)
    return values


def _write_text(path: Path, text: str):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(path, text)
    print(f"wrote {path}")


def _run_cache() -> Path | None:
    """The directory that caches each run file cut to a depth, made if missing:
    ``$XDG_CACHE_HOME/discrimpower/runs``, else ``~/.cache/discrimpower/runs``.
    None where it cannot be made; runs then load uncached."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    try:
        cache = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "discrimpower"
        (cache / "runs").mkdir(mode=0o700, parents=True, exist_ok=True)
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    return cache / "runs"


def _load_inputs(opts: dict, depth: int, *qrels: tuple[str, str]) -> tuple:
    """The run set, then the qrels file of each ``(option, role)``.

    A bad pair of run options is reported before any file is opened. Each
    command keeps the ranking prefix it scores: k, or --depth, and reads it
    from the run cache where an entry holds it. The loads share one string
    per id through a pool that ends with this call.
    """
    runs_dir, run_list = opts["runs_dir"], opts["run"]
    if runs_dir and run_list:
        raise ConfigurationError("give either --runs-dir or --run, not both")
    if not runs_dir and not run_list:
        raise ConfigurationError("no runs given: use --runs-dir or --run")
    ids: dict[str, str] = {}
    load = load_runs_dir if runs_dir else load_runs
    return (load(runs_dir or run_list, opts["tag_from_filename"], depth, _ids=ids,
                 _cache=_run_cache()),
            *(load_qrels(opts[key], opts["max_grade"], role, _ids=ids) for key, role in qrels))


def _measure_spec(opts: dict):
    from .measures import MeasureSpec

    return MeasureSpec(k=opts["k"], gain=opts["gain"])


def _sig_config(opts: dict):
    from .significance import SigTestConfig

    return SigTestConfig(
        alpha=opts["alpha"],
        permutations=opts["permutations"],
        master_seed=opts["seed"],
        alpha_inclusive=opts["alpha_inclusive"],
        n_workers=opts["workers"],
    )


def _sampling_configs(opts: dict, fractions) -> list:
    from .synth import _sampling_configs

    return _sampling_configs(fractions, opts["repetitions"], opts["seed"],
                             opts["relevant_threshold"], opts["stratified"])


def cmd_compare(opts: dict) -> int:
    spec = _measure_spec(opts)
    sig_cfg = _sig_config(opts)
    runs, gt, cand = _load_inputs(opts, spec.k, ("gt", GROUND_TRUTH), ("cand", CANDIDATE))
    from . import reporting

    scores = reporting._comparison_scores(runs, gt, cand, spec, opts["kappa_threshold"])
    del runs, gt, cand  # the test runs without the inputs
    (cmp,) = reporting._tested(*scores, sig_cfg)
    dataset = Path(opts["gt"]).stem if opts["dataset"] is None else opts["dataset"]
    name = Path(opts["cand"]).stem if opts["name"] is None else opts["name"]
    row = reporting.report_row(cmp.report, dataset, name)
    precision, out_dir = opts["precision"], opts["out_dir"]
    report_csv = reporting.report_to_csv([row], precision)
    _write_text(out_dir / "report.csv", report_csv)
    _write_text(out_dir / "report.json", reporting.report_to_json([row]))
    _write_text(
        out_dir / "pairs.csv",
        reporting.pairs_to_csv(reporting.pair_rows(cmp), precision),
    )
    print(report_csv, end="")
    return 0


def cmd_sweep(opts: dict) -> int:
    spec = _measure_spec(opts)
    sig_cfg = _sig_config(opts)
    configs = _sampling_configs(opts, opts["fractions"])  # checks each cell's settings up front
    runs, gt = _load_inputs(opts, spec.k, ("gt", GROUND_TRUTH))
    from . import reporting
    from .measures import _GradeIndex

    index = _GradeIndex(runs, spec.k, gt)
    del runs, gt  # sampling, scoring and the test run without the inputs
    scores = reporting._sweep_scores(index, configs, spec, opts["kappa_threshold"])
    del index
    result = reporting._swept(configs, reporting._tested(*scores, sig_cfg))
    precision, out_dir = opts["precision"], opts["out_dir"]
    _write_text(out_dir / "sweep.csv", reporting.sweep_to_csv(result, precision))
    _write_text(
        out_dir / "sweep_summary.csv",
        reporting.sweep_summary_to_csv(result, precision),
    )
    return 0


def cmd_generate_sample(opts: dict) -> int:
    single, listed = opts["fraction"], opts["fractions"]
    if single is not None and listed is not None:
        raise ConfigurationError("give either --fraction or --fractions, not both")
    if single is None and listed is None:
        raise ConfigurationError("give a sampling fraction via --fraction or --fractions")
    configs = _sampling_configs(opts, listed if listed is not None else [single])
    named: dict[str, float] = {}  # file names print fractions as {:g}
    for cfg in configs:
        other = named.setdefault(f"{cfg.fraction:g}", cfg.fraction)
        if other != cfg.fraction:
            raise ConfigurationError(f"sampling fractions {other!r} and {cfg.fraction!r} "
                                     f"would both write sample_{cfg.fraction:g}_0.qrels")
    gt = load_qrels(opts["gt"], opts["max_grade"], GROUND_TRUTH)
    from .synth import percentage_sample

    for cfg in configs:
        for rep in range(cfg.repetitions):
            sampled = percentage_sample(gt, cfg, rep)
            _write_text(
                opts["out_dir"] / f"sample_{cfg.fraction:g}_{rep}.qrels",
                serialize_qrels(sampled),
            )
    return 0


def cmd_generate_popularity(opts: dict) -> int:
    from .synth import EXPLICIT, PopularityConfig, popularity_biased

    cfg = PopularityConfig(
        depth=opts["depth"],
        p_mode=opts["p_mode"],
        explicit_p=opts["explicit_p"],
        relevant_threshold=opts["relevant_threshold"],
    )
    runs, gt = _load_inputs(opts, cfg.depth, ("gt", GROUND_TRUTH))
    labelled = popularity_biased(gt, runs, cfg)
    param = f"{cfg.explicit_p:g}" if cfg.p_mode == EXPLICIT else cfg.p_mode
    _write_text(opts["out_dir"] / f"popularity_{param}_0.qrels", serialize_qrels(labelled))
    return 0


def cmd_generate_llm(opts: dict) -> int:
    for key in ("endpoint", "model", "queries", "texts"):
        if opts[key] is None:
            raise ConfigurationError(f"--{key} is required for llm generation")
    from . import labeller  # only this command loads the HTTP client

    cfg = labeller.LabellerConfig(
        endpoint=opts["endpoint"],
        model=opts["model"],
        scale_max=opts["scale_max"],
        timeout=opts["timeout"],
        max_retries=opts["retries"],
        cache_dir=Path(opts["cache_dir"]) if opts["cache_dir"] else None,
        rate_limit=opts["rate_limit"],
        concurrency=opts["concurrency"],
        api_key_env=opts["api_key_env"],
    )
    if opts["prompt_file"]:  # read only once every option has been checked
        template = Path(opts["prompt_file"]).read_text(encoding="utf-8")
        cfg = dataclasses.replace(cfg, prompt_template=template)
    gt = load_qrels(opts["gt"], opts["max_grade"], GROUND_TRUTH)
    pairs = labeller.assemble_pairs(
        gt,
        labeller.load_query_texts(opts["queries"]),
        labeller.load_pair_texts(opts["texts"]),
    )
    qrels, _ = labeller.label_qrels(pairs, cfg, skip_failures=opts["skip_failures"])
    safe_model = re.sub(r"[^A-Za-z0-9._-]+", "-", cfg.model)
    _write_text(opts["out_dir"] / f"llm_{safe_model}_0.qrels", serialize_qrels(qrels))
    return 0


def _read_csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def cmd_plot(opts: dict) -> int:
    if bool(opts["pairs"]) == bool(opts["sweep"]):
        raise ConfigurationError("give exactly one of --pairs or --sweep")
    from . import svgplot

    if opts["pairs"]:
        svg = svgplot.render_scatter(_read_csv_rows(opts["pairs"]))
        default_name = "scatter.svg"
    else:
        svg = svgplot.render_sweep(_read_csv_rows(opts["sweep"]))
        default_name = "sweep.svg"
    _write_text(Path(opts["out"]) if opts["out"] else opts["out_dir"] / default_name, svg)
    return 0


def cmd_evaluate(opts: dict) -> int:
    spec = _measure_spec(opts)
    runs, qrels = _load_inputs(opts, spec.k, ("qrels", GROUND_TRUTH))
    from .measures import _score_rows, _score_table

    csv_text = _score_table(*_score_rows(runs, qrels, spec))
    if opts["out_dir"] is None:
        sys.stdout.write(csv_text)
    else:
        _write_text(opts["out_dir"] / "scores.csv", csv_text)
    return 0


COMMANDS = {
    "compare": (cmd_compare, "compare candidate qrels against ground truth"),
    "sweep": (cmd_sweep, "percentage-sampling sweep"),
    "generate sample": (cmd_generate_sample, "percentage sampling of relevant judgments"),
    "generate popularity": (cmd_generate_popularity, "label most-retrieved documents relevant"),
    "generate llm": (cmd_generate_llm, "zero-shot relevance labelling over HTTP"),
    "plot": (cmd_plot, "render a comparison or sweep CSV to SVG"),
    "evaluate": (cmd_evaluate, "export the score matrix as CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrimpower",
        description="Quantify how well candidate relevance judgments reproduce "
                    "the significance conclusions of ground-truth judgments.",
    )
    groups = {"": parser.add_subparsers(required=True)}
    for command, (_, command_help) in COMMANDS.items():
        group, _, word = command.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(
                group, help="produce candidate qrels").add_subparsers(required=True)
        p = groups[group].add_parser(word, help=command_help)
        p.set_defaults(command=command)
        # argparse defaults stay None, so a flag that was given is told
        # apart from one that was not; _resolve fills in the rest.
        for o in OPTIONS:
            if command not in o.commands:
                continue
            shown = "" if o.required else f" (default {o.default or 'none'})"
            kind = {"action": o.action} if o.action else {"type": o.convert, "choices": o.choices}
            p.add_argument(o.flag, required=o.required, help=o.help + shown, **kind)
    return parser


def main(argv=None) -> int:
    # No command calls BLAS, so numpy, imported later by the command, starts
    # no BLAS worker threads. A value already set in the environment wins.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](_resolve(args))
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
