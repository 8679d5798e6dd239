"""Command-line front-end.

Stages communicate through the TSV/JSON artifacts defined by the other
modules, so any stage can be re-run or replaced with third-party files.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import csv
import io
import math
import os
import sys
from dataclasses import dataclass, fields

from . import corpus as corpus_mod
from . import dataset as dataset_mod
from . import evaluate as evaluate_mod
from . import experiments as experiments_mod
from . import features as features_mod
from . import model as model_mod
from ._util import atomic_write_json, atomic_write_text, read_tsv, write_tsv
from .errors import DataError, LexevoError, UsageError
from .lexicon import CatVarClusters, SenseId

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

@dataclass
class RunConfig:
    corpus: list = None  # list of unigram file paths
    lexicon: str = None
    catvar: str = None
    syllables: str = None
    out: str = "out"
    cycle_years: int = 50


def _cycle_length(text):
    """Converter of cycle_years, and so the type of --cycle and of each
    --cycles item: an integer from MIN_CYCLE to MAX_CYCLE."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer, got {text!r}") from None
    if not dataset_mod.MIN_CYCLE <= value <= dataset_mod.MAX_CYCLE:
        raise argparse.ArgumentTypeError(
            f"must be in [{dataset_mod.MIN_CYCLE}, {dataset_mod.MAX_CYCLE}], "
            f"got {value}")
    return value


# The converter of each config key that is not a string; cycle_years's is
# also the type of --cycle and of each --cycles item, so a flag and a file
# reject the same values.
_CONVERTERS = {
    "corpus": lambda text: [p.strip() for p in text.split(",") if p.strip()],
    "cycle_years": _cycle_length,
}


def read_config_file(path):
    """Parse a UTF-8 key=value config file; '#' starts a comment.

    A line that is not UTF-8, has no '=', names an unknown or repeated
    key or holds a value its key's converter rejects is the UsageError
    "<file> line N: <reason>".
    """
    values = {}
    known = {f.name for f in fields(RunConfig)}
    with open(path, "rb") as handle:
        for line_number, line in enumerate(handle, start=1):
            try:
                line = line.decode("utf-8").split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError("expected key = value")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in known:
                    raise ValueError(f"unknown key {key!r}")
                if key in values:
                    raise ValueError(f"repeated key {key!r}")
                values[key] = _CONVERTERS.get(key, str)(value)
            except ValueError as exc:  # UnicodeDecodeError too
                raise UsageError(f"{path} line {line_number}: {exc}") from None
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{path} line {line_number}: {key} {exc}") from None
    return values


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _cycle_list(text):
    """--cycles value: comma-separated distinct cycle lengths, at least one."""
    cycles = [_cycle_length(c) for c in text.split(",") if c]
    if not cycles:
        raise argparse.ArgumentTypeError("no cycle lengths given")
    for i, cycle in enumerate(cycles):
        if cycle in cycles[:i]:
            raise argparse.ArgumentTypeError(f"repeated cycle length {cycle}")
    return cycles


def _year_range(text):
    """--years value: inclusive range START:END (or one year), not empty."""
    start, _, end = text.partition(":")
    try:
        years = range(int(start), int(end or start) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:END integer years, got {text!r}") from None
    if not years:
        raise argparse.ArgumentTypeError(f"empty year range {text!r}")
    return years


def _feature_selection(keep):
    """argparse type of --only (keep=True) and --drop (keep=False): the
    selected features in FEATURE_NAMES order, from known names only."""
    def parse(text):
        names = {n for n in text.split(",") if n}
        unknown = names - set(features_mod.FEATURE_NAMES)
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown features: {', '.join(sorted(unknown))}")
        selection = tuple(n for n in features_mod.FEATURE_NAMES
                          if (n in names) == keep)
        if not selection:
            raise argparse.ArgumentTypeError("no features selected")
        return selection
    return parse


def resolve_config(args):
    config = RunConfig()
    if getattr(args, "config", None):
        for key, value in read_config_file(args.config).items():
            setattr(config, key, value)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(config, f.name, value)
    return config


def _require(config, *names):
    """--corpus and --lexicon may come from --config, so argparse cannot
    require them."""
    for name in names:
        if not getattr(config, name):
            raise UsageError(f"missing required input: --{name}")


def _load_inputs(config):
    """Load corpus + lexicon (+ clusters) into PipelineInputs."""
    _require(config, "corpus", "lexicon")
    return experiments_mod.load_pipeline_inputs(
        config.corpus, config.lexicon, config.catvar, config.syllables)


def cmd_ingest(args, config):
    inputs, _, report = _load_inputs(config)
    lines = []
    for lemma, pos in sorted(inputs.corpus.keys()):
        for year, count in inputs.corpus.series((lemma, pos)).items():
            lines.append(f"{lemma}_{pos}\t{year}\t{count}\t0")
    atomic_write_text(os.path.join(config.out, "corpus.tsv"),
                      "\n".join(lines) + "\n")
    atomic_write_json(os.path.join(config.out, "ingest_report.json"), {
        "rows_kept": report.rows_kept,
        "rows_filtered": report.rows_filtered,
        "rows_skipped": report.rows_skipped,
        "keys": len(inputs.corpus),
        "eligible_synsets": len(inputs.synsets),
    })
    if report.rows_skipped:
        print(f"warning: skipped {report.rows_skipped} malformed rows",
              file=sys.stderr)
    return EXIT_OK


def cmd_build_dataset(args, config):
    inputs, _, _ = _load_inputs(config)
    pairs = dataset_mod.schedule_windows(config.cycle_years)
    for window in sorted({w for pair in pairs for w in pair}):
        ds = dataset_mod.build_dataset(inputs.synsets, inputs.corpus, window)
        members = {m.corpus_key() for s in ds.snapshots for m in s.counts}
        ds.clusters = CatVarClusters([cluster for cluster in inputs.clusters.clusters
                                      if cluster & members])
        ds.births = {key: inputs.births.get(key)
                     for key in members.union(ds.clusters.members())}
        dataset_mod.write_dataset(
            ds, os.path.join(config.out, f"dataset_{window.label()}.tsv"))
    return EXIT_OK


def cmd_extract_features(args, config):
    """Features from the dataset and its sidecar's clusters and births;
    --corpus, --lexicon and --catvar are ignored."""
    ds = dataset_mod.read_dataset(args.dataset)
    shapes = features_mod.word_shapes([s.synset for s in ds.snapshots],
                                      experiments_mod.load_syllables(config.syllables))
    vectors = features_mod.extract_features(ds, shapes, ds.clusters, ds.births)
    out = os.path.join(config.out, f"features_{ds.window.label()}.tsv")
    features_mod.write_feature_vectors(vectors, out)
    return EXIT_OK


def cmd_train(args, config):
    vectors = features_mod.read_feature_vectors(args.features)
    fitted = model_mod.fit(vectors, features=args.selection)
    out = args.model or os.path.join(config.out, "model.json")
    model_mod.save_model(fitted, out)
    return EXIT_OK


PROBABILITY_COLUMNS = ("synset_id", "sense_id", "win_probability", "log_odds")


def cmd_predict(args, config):
    vectors = features_mod.read_feature_vectors(args.features)
    fitted = model_mod.load_model(args.model)
    rows = []
    for v in vectors:
        odds = model_mod.win_log_odds(fitted, v)
        rows.append((v.synset_id, str(v.sense), repr(model_mod.logistic(odds)),
                     repr(odds)))
    write_tsv(os.path.join(config.out, "probabilities.tsv"), PROBABILITY_COLUMNS,
              rows)
    return EXIT_OK


def _read_scores(path):
    """SenseId -> log-odds from a predict output file.

    evaluate ranks by log_odds, since the probabilities saturate; a row
    without a parseable sense, a win probability from 0 to 1 and finite
    log-odds, or one repeating a sense, is a DataError naming the file
    and line.
    """
    scores = {}

    def parse(fields):
        if not 0.0 <= float(fields[2]) <= 1.0:
            raise ValueError(f"win probability {fields[2]!r} is not in [0, 1]")
        score = float(fields[3])
        if not math.isfinite(score):
            raise ValueError(f"non-finite score {fields[3]!r}")
        sense = SenseId.parse(fields[1])
        if sense in scores:
            raise ValueError(f"repeated sense {sense}")
        scores[sense] = score

    read_tsv(path, PROBABILITY_COLUMNS, parse)
    return scores


def cmd_evaluate(args, config):
    ds = dataset_mod.read_dataset(args.dataset)
    scores_by_sense = _read_scores(args.probabilities)
    for snapshot in ds.snapshots:
        for sense in snapshot.counts:
            if sense not in scores_by_sense:
                raise DataError(f"{args.probabilities}: no score for sense {sense}")
    counts, scores, outcomes = evaluate_mod.evaluate_predictions(
        ds.snapshots, scores_by_sense
    )
    report = evaluate_mod.evaluation_report(counts, scores)
    report["dataset"] = ds.summary()
    atomic_write_json(os.path.join(config.out, "report.json"), report)
    write_tsv(os.path.join(config.out, "outcomes.tsv"), evaluate_mod.OUTCOME_COLUMNS,
              ([row[c] for c in evaluate_mod.OUTCOME_COLUMNS] for row in outcomes))
    return EXIT_OK


def _report_dir(config, experiment, window):
    return os.path.join(config.out, "reports", experiment,
                        str(config.cycle_years), window.label())


def cmd_ablate(args, config):
    inputs, _, _ = _load_inputs(config)
    train_window, test_window = dataset_mod.schedule_windows(config.cycle_years)[-1]
    specs = [experiments_mod.AblationSpec(args.mode, feature)
             for feature in features_mod.FEATURE_NAMES]
    rows = experiments_mod.run_ablations(specs, train_window, test_window, inputs)
    directory = _report_dir(config, f"ablation_{args.mode}", test_window)
    atomic_write_json(os.path.join(directory, "report.json"), {"rows": rows})
    atomic_write_text(os.path.join(directory, "ablation.csv"),
                      _rows_to_csv(rows))
    return EXIT_OK


def cmd_sweep(args, config):
    inputs, _, _ = _load_inputs(config)
    result = experiments_mod.run_cycle_sweep(args.cycles, inputs)
    directory = os.path.join(config.out, "reports", "sweep")
    atomic_write_json(os.path.join(directory, "report.json"), result)
    atomic_write_text(os.path.join(directory, "sweep.csv"),
                      _rows_to_csv(result["rows"]))
    return EXIT_OK


def cmd_interpret(args, config):
    inputs, _, _ = _load_inputs(config)
    train_window, test_window = dataset_mod.schedule_windows(config.cycle_years)[-1]
    _, vectors = experiments_mod.prepare_window(train_window, inputs)
    tables = experiments_mod.interpretation_tables(model_mod.fit(vectors))
    directory = _report_dir(config, "interpretation", test_window)
    atomic_write_json(os.path.join(directory, "report.json"), tables)
    atomic_write_text(os.path.join(directory, "scalar_features.csv"),
                      _rows_to_csv(tables["scalar_features"]))
    atomic_write_text(os.path.join(directory, "top_trigrams.csv"),
                      _rows_to_csv(tables["top_trigrams"]))
    return EXIT_OK


def cmd_plot_data(args, config):
    inputs, lexicon, _ = _load_inputs(config)
    synset = next((s for s in lexicon.synsets if s.id == args.synset), None)
    if synset is None:
        raise LexevoError(f"synset {args.synset!r} not found in lexicon")
    # the corpus holds only eligible members and their cluster-mates, so
    # any other synset would plot zero shares
    if synset not in inputs.synsets:
        raise DataError(f"synset {args.synset!r} is not eligible: it needs two or "
                        "more members, each a monosemous lowercase lemma of at "
                        "least 3 letters")
    member_series = [inputs.corpus.series(m.corpus_key()) for m in synset.members]
    rows = corpus_mod.synset_annual_shares(member_series, args.years)
    atomic_write_text(
        os.path.join(config.out, f"shares_{synset.id}.csv"),
        _table_csv(["year", *synset.lemmas()],
                   ([year, *(f"{share:.6f}" for share in shares)]
                    for year, shares in rows)),
    )
    return EXIT_OK


def _table_csv(header, rows):
    """CSV text of a header and rows of values, one line each."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _rows_to_csv(rows):
    """CSV text of dict rows, the header taken from the first row's keys;
    no rows give an empty line."""
    return _table_csv(list(rows[0]) if rows else [],
                      (row.values() for row in rows))


def _common_flags():
    """Parent parser of the flags every command accepts."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--corpus", action="append",
                        help="unigram TSV (.tsv or .tsv.gz); repeatable")
    parser.add_argument("--lexicon", help="synset lexicon TSV")
    parser.add_argument("--catvar", help="categorial-variation cluster TSV")
    parser.add_argument("--syllables", help="syllable exceptions TSV")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--cycle", type=_cycle_length, dest="cycle_years",
                        help="cycle length in years")
    return parser


def build_parser():
    """The evocli parser: each command, its own flags and its handler."""
    parser = _Parser(prog="evocli", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(metavar="COMMAND", required=True)
    common = [_common_flags()]

    p = sub.add_parser("ingest", parents=common,
                       help="filter the corpus to the lexicon's words")
    p.set_defaults(handler=cmd_ingest)

    p = sub.add_parser("build-dataset", parents=common,
                       help="write each window's synset counts")
    p.set_defaults(handler=cmd_build_dataset)

    p = sub.add_parser("extract-features", parents=common,
                       help="write the feature vectors of one dataset")
    p.add_argument("--dataset", required=True, help="dataset TSV from build-dataset")
    p.set_defaults(handler=cmd_extract_features)

    p = sub.add_parser("train", parents=common,
                       help="fit the naive Bayes model on one feature file")
    p.add_argument("--features", required=True,
                   help="feature TSV from extract-features")
    p.add_argument("--model", help="output model JSON path")
    subset = p.add_mutually_exclusive_group()
    subset.add_argument("--only", dest="selection", metavar="NAMES",
                        type=_feature_selection(True),
                        help="comma-separated feature subset")
    subset.add_argument("--drop", dest="selection", metavar="NAMES",
                        type=_feature_selection(False),
                        help="comma-separated features to exclude")
    p.set_defaults(handler=cmd_train, selection=features_mod.FEATURE_NAMES)

    p = sub.add_parser("predict", parents=common,
                       help="score a feature file with a fitted model")
    p.add_argument("--features", required=True, help="feature TSV to score")
    p.add_argument("--model", required=True, help="fitted model JSON")
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", parents=common,
                       help="score predictions at the synset level")
    p.add_argument("--dataset", required=True, help="dataset TSV with future counts")
    p.add_argument("--probabilities", required=True,
                   help="probability TSV from predict")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("ablate", parents=common,
                       help="compare feature subsets on the last window pair")
    p.add_argument("--mode", choices=experiments_mod.ABLATION_MODES,
                   default="drop_one")
    p.set_defaults(handler=cmd_ablate)

    p = sub.add_parser("sweep", parents=common,
                       help="run every window pair of several cycle lengths")
    p.add_argument("--cycles", type=_cycle_list, default="30,40,50,60",
                   help="comma-separated cycle lengths")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("interpret", parents=common,
                       help="test each feature of the last training window")
    p.set_defaults(handler=cmd_interpret)

    p = sub.add_parser("plot-data", parents=common,
                       help="write one synset's annual member shares")
    p.add_argument("--synset", required=True, help="synset id to plot")
    p.add_argument("--years", type=_year_range, default="1800:2000",
                   help="inclusive year range, START:END")
    p.set_defaults(handler=cmd_plot_data)
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        config = resolve_config(args)
        return args.handler(args, config)
    except (LexevoError, OSError, ValueError) as exc:
        print(f"evocli: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
