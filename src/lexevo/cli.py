"""Command-line front-end.

Stages communicate through the TSV/JSON artifacts defined by the other
modules, so any stage can be re-run or replaced with third-party files.
Exit codes: 0 success, 1 usage error, 2 data error.
"""

import argparse
import csv
import itertools
import math
import os
import sys
from types import SimpleNamespace

from . import corpus as corpus_mod
from . import dataset as dataset_mod
from . import evaluate as evaluate_mod
from . import experiments as experiments_mod
from . import features as features_mod
from . import model as model_mod
from ._util import atomic_write_json, atomic_write_lines, read_tsv, write_tsv
from .errors import DataError, LexevoError, UsageError
from .lexicon import SenseId

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2


def _cycle_length(text):
    """The type of --cycle and of each --cycles item: an integer from
    MIN_CYCLE to MAX_CYCLE."""
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


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1 (not 2) on usage errors and takes no
    abbreviated flag, so that sweep refuses --cycle, not reads it as
    --cycles."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

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
    """--years value: inclusive range START:END (or one year), not empty,
    of years a corpus row may have (MIN_YEAR to MAX_YEAR)."""
    start, colon, end = text.partition(":")
    try:
        years = range(int(start), int(end if colon else start) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected START:END integer years, got {text!r}") from None
    if not years:
        raise argparse.ArgumentTypeError(f"empty year range {text!r}")
    if years[0] < corpus_mod.MIN_YEAR or years[-1] > corpus_mod.MAX_YEAR:
        raise argparse.ArgumentTypeError(
            f"must be in [{corpus_mod.MIN_YEAR}, {corpus_mod.MAX_YEAR}], "
            f"got {text!r}")
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


def _load_inputs(args):
    """Load corpus + lexicon (+ clusters) into PipelineInputs.

    Two --corpus flags naming one file would count its rows twice, so they
    are a usage error, found before any input is read.
    """
    real = [os.path.realpath(path) for path in args.corpus]
    for i, path in enumerate(args.corpus):
        if real[i] in real[:i]:
            first = args.corpus[real.index(real[i])]
            same = "" if first == path else f" (the same file as {first})"
            raise UsageError(f"repeated corpus file {path}{same}")
    return experiments_mod.load_pipeline_inputs(
        args.corpus, args.lexicon, args.catvar, args.syllables)


def cmd_ingest(args):
    inputs, _, report = _load_inputs(args)
    table = inputs.corpus

    def lines():  # one string of rows per key: the table is never copied whole
        for key in sorted(table.keys()):
            token = corpus_mod.join_token(key)
            yield "".join(f"{token}\t{year}\t{count}\t0\n"
                          for year, count in table.counts(key))

    atomic_write_lines(os.path.join(args.out, "corpus.tsv"), lines())
    atomic_write_json(os.path.join(args.out, "ingest_report.json"), {
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


def cmd_build_dataset(args):
    inputs, _, _ = _load_inputs(args)
    pairs = dataset_mod.schedule_windows(args.cycle_years)
    for window in sorted({w for pair in pairs for w in pair}):
        ds = dataset_mod.build_dataset(inputs.synsets, inputs.corpus, window)
        dataset_mod.write_dataset(
            ds, os.path.join(args.out, f"dataset_{window.label()}.tsv"),
            inputs.clusters, inputs.births)
    return EXIT_OK


def cmd_extract_features(args):
    """Features from the dataset and its sidecar's clusters and births."""
    ds, clusters, births = dataset_mod.read_dataset(args.dataset)
    shapes = features_mod.word_shapes([s.synset for s in ds.snapshots],
                                      experiments_mod.load_syllables(args.syllables))
    vectors = features_mod.extract_features(ds, shapes, clusters, births)
    out = os.path.join(args.out, f"features_{ds.window.label()}.tsv")
    features_mod.write_feature_vectors(vectors, out)
    return EXIT_OK


def cmd_train(args):
    vectors = features_mod.read_feature_vectors(args.features)
    try:
        fitted = model_mod.fit(vectors, features=args.selection)
    except DataError as exc:  # an unlabelled row or an empty class
        raise DataError(f"{args.features}: {exc}") from None
    out = args.model or os.path.join(args.out, "model.json")
    model_mod.save_model(fitted, out)
    return EXIT_OK


PROBABILITY_COLUMNS = ("synset_id", "sense_id", "win_probability", "log_odds")


def cmd_predict(args):
    vectors = features_mod.read_feature_vectors(args.features)
    fitted = model_mod.load_model(args.model)

    def rows():
        for v in vectors:
            odds = model_mod.win_log_odds(fitted, v)
            yield (v.synset_id, str(v.sense), repr(model_mod.logistic(odds)),
                   repr(odds))

    write_tsv(os.path.join(args.out, "probabilities.tsv"), PROBABILITY_COLUMNS,
              rows())
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


def cmd_evaluate(args):
    ds, _, _ = dataset_mod.read_dataset(args.dataset)
    scores_by_sense = _read_scores(args.probabilities)
    try:
        counts, scores, outcomes = evaluate_mod.evaluate_predictions(
            ds.snapshots, scores_by_sense)
    except KeyError as exc:  # the first member without a score
        raise DataError(f"{args.probabilities}: no score for sense "
                        f"{exc.args[0]}") from None
    report = evaluate_mod.evaluation_report(counts, scores)
    report["dataset"] = ds.summary()
    atomic_write_json(os.path.join(args.out, "report.json"), report)
    write_tsv(os.path.join(args.out, "outcomes.tsv"), evaluate_mod.OUTCOME_COLUMNS,
              ([str(row[c]) for c in evaluate_mod.OUTCOME_COLUMNS] for row in outcomes))
    return EXIT_OK


def _report_dir(args, experiment, window):
    return os.path.join(args.out, "reports", experiment,
                        str(args.cycle_years), window.label())


def _write_report(directory, report, **tables):
    """Write report.json, and <name>.csv of each table of dict rows, its
    header the first row's keys."""
    atomic_write_json(os.path.join(directory, "report.json"), report)
    for name, rows in tables.items():
        atomic_write_lines(os.path.join(directory, f"{name}.csv"), _csv_lines(
            list(rows[0]) if rows else [], (row.values() for row in rows)))


def cmd_ablate(args):
    inputs, _, _ = _load_inputs(args)
    train_window, test_window = dataset_mod.schedule_windows(args.cycle_years)[-1]
    specs = [experiments_mod.AblationSpec(args.mode, feature)
             for feature in features_mod.FEATURE_NAMES]
    rows = experiments_mod.run_ablations(specs, train_window, test_window, inputs)
    _write_report(_report_dir(args, f"ablation_{args.mode}", test_window),
                  {"rows": rows}, ablation=rows)
    return EXIT_OK


def cmd_sweep(args):
    inputs, _, _ = _load_inputs(args)
    result = experiments_mod.run_cycle_sweep(args.cycles, inputs)
    _write_report(os.path.join(args.out, "reports", "sweep"), result,
                  sweep=result["rows"])
    return EXIT_OK


def cmd_interpret(args):
    inputs, _, _ = _load_inputs(args)
    train_window, test_window = dataset_mod.schedule_windows(args.cycle_years)[-1]
    _, vectors = experiments_mod.prepare_window(train_window, inputs)
    tables = experiments_mod.interpretation_tables(model_mod.fit(vectors))
    _write_report(_report_dir(args, "interpretation", test_window), tables,
                  **tables)
    return EXIT_OK


def cmd_plot_data(args):
    inputs, lexicon, _ = _load_inputs(args)
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
    atomic_write_lines(
        os.path.join(args.out, f"shares_{synset.id}.csv"),
        _csv_lines(["year", *synset.lemmas()],
                   ([year, *(f"{share:.6f}" for share in shares)]
                    for year, shares in rows)),
    )
    return EXIT_OK


def _csv_lines(header, rows):
    """The CSV lines of a header and rows of values, each formatted as it
    is read: writerow returns what the file's write returns, here (str) the
    line itself.  An empty header gives an empty line."""
    writer = csv.writer(SimpleNamespace(write=str), lineterminator="\n")
    return map(writer.writerow, itertools.chain([header], rows))


def _add_inputs(parser):
    parser.add_argument("--corpus", action="append", required=True,
                        help="unigram TSV (.tsv or .tsv.gz); repeatable")
    parser.add_argument("--lexicon", required=True, help="synset lexicon TSV")
    parser.add_argument("--catvar", help="categorial-variation cluster TSV")


def _add_syllables(parser):
    parser.add_argument("--syllables", help="syllable exceptions TSV")


def _add_out(parser):
    parser.add_argument("--out", default="out", help="output directory")


def _add_cycle(parser):
    parser.add_argument("--cycle", type=_cycle_length, default=50,
                        dest="cycle_years", help="cycle length in years")


def _add_extract_features_flags(parser):
    parser.add_argument("--dataset", required=True,
                        help="dataset TSV from build-dataset")
    # accepted, hidden and ignored: perfbench's staged chain still passes them
    for flag in ("--corpus", "--lexicon", "--catvar"):
        parser.add_argument(flag, help=argparse.SUPPRESS)


def _add_train_flags(parser):
    parser.add_argument("--features", required=True,
                        help="feature TSV from extract-features")
    parser.add_argument("--model", help="output model JSON path")
    subset = parser.add_mutually_exclusive_group()
    subset.add_argument("--only", dest="selection", metavar="NAMES",
                        type=_feature_selection(True),
                        help="comma-separated feature subset")
    subset.add_argument("--drop", dest="selection", metavar="NAMES",
                        type=_feature_selection(False),
                        help="comma-separated features to exclude")
    parser.set_defaults(selection=features_mod.FEATURE_NAMES)


def _add_predict_flags(parser):
    parser.add_argument("--features", required=True, help="feature TSV to score")
    parser.add_argument("--model", required=True, help="fitted model JSON")


def _add_evaluate_flags(parser):
    parser.add_argument("--dataset", required=True,
                        help="dataset TSV with future counts")
    parser.add_argument("--probabilities", required=True,
                        help="probability TSV from predict")


def _add_ablate_flags(parser):
    parser.add_argument("--mode", choices=experiments_mod.ABLATION_MODES,
                        default="drop_one")


def _add_sweep_flags(parser):
    parser.add_argument("--cycles", type=_cycle_list, default="30,40,50,60",
                        help="comma-separated cycle lengths")


def _add_plot_data_flags(parser):
    parser.add_argument("--synset", required=True, help="synset id to plot")
    parser.add_argument("--years", type=_year_range, default="1800:2000",
                        help="inclusive year range, START:END")


_LOADS = (_add_inputs, _add_syllables, _add_out)

# each command: its handler, its help line and the functions that add the
# flags the handler reads, in the order the help lists them
COMMANDS = {
    "ingest": (cmd_ingest, "filter the corpus to the lexicon's words", _LOADS),
    "build-dataset": (cmd_build_dataset, "write each window's synset counts",
                      _LOADS + (_add_cycle,)),
    "extract-features": (cmd_extract_features,
                         "write the feature vectors of one dataset",
                         (_add_syllables, _add_out, _add_extract_features_flags)),
    "train": (cmd_train, "fit the naive Bayes model on one feature file",
              (_add_out, _add_train_flags)),
    "predict": (cmd_predict, "score a feature file with a fitted model",
                (_add_out, _add_predict_flags)),
    "evaluate": (cmd_evaluate, "score predictions at the synset level",
                 (_add_out, _add_evaluate_flags)),
    "ablate": (cmd_ablate, "compare feature subsets on the last window pair",
               _LOADS + (_add_cycle, _add_ablate_flags)),
    "sweep": (cmd_sweep, "run every window pair of several cycle lengths",
              _LOADS + (_add_sweep_flags,)),
    "interpret": (cmd_interpret, "test each feature of the last training window",
                  _LOADS + (_add_cycle,)),
    "plot-data": (cmd_plot_data, "write one synset's annual member shares",
                  _LOADS + (_add_plot_data_flags,)),
}


def build_parser(command=None):
    """The evocli parser: every command, or only `command`, each with the
    flags its handler reads and the handler.

    A parser of one command parses that command's argv as the full parser
    does, with the same help, usage and errors, at a fraction of the cost
    of building all ten.
    """
    parser = _Parser(prog="evocli", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(metavar="COMMAND", required=True)
    for name, (handler, help_line, add_flags) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            p.set_defaults(handler=handler)
            for add in add_flags:
                add(p)
    return parser


def main(argv=None):
    """Run the command argv names (sys.argv[1:] when None) and return its
    exit code.  Only that command's parser is built; with no known command
    first, the full parser reports the usage error or prints the help."""
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.handler(args)
    except (LexevoError, OSError, ValueError) as exc:
        print(f"evocli: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, UsageError) else EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
