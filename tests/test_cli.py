import gzip
import hashlib
import itertools
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from lexevo import cli
from lexevo.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_USAGE,
    _read_scores,
    build_parser,
    main,
)
from lexevo.dataset import summary_path
from lexevo.errors import DataError
from lexevo.features import FEATURE_NAMES


def common_flags(paths, out):
    """The flags of a command that loads the corpus and lexicon."""
    return ["--corpus", paths["corpus"], "--lexicon", paths["lexicon"],
            "--out", str(out)]


def out_flag(out):
    """--out, the one flag every command takes."""
    return ["--out", str(out)]


# the commands that load the corpus and lexicon, and so take their flags
LOADS_INPUTS = ("ingest", "build-dataset", "ablate", "sweep", "interpret",
                "plot-data")


def missing_inputs(command, tmp_path):
    """Input flags naming files that do not exist, for a command that takes
    them: reading either would be a data error."""
    if command not in LOADS_INPUTS:
        return []
    return ["--corpus", str(tmp_path / "nope.tsv"),
            "--lexicon", str(tmp_path / "nope_lexicon.tsv")]


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["ingest", "--bogus-flag"]) == EXIT_USAGE

    def test_missing_inputs_is_usage_error(self, tmp_path, capsys):
        assert main(["ingest", "--out", str(tmp_path)]) == EXIT_USAGE
        assert ("the following arguments are required: --corpus, --lexicon"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--out", "x"], "--features"),
        (["evaluate"], "--dataset"),
        (["extract-features"], "--dataset"),
        (["predict", "--features", "f.tsv"], "--model"),
    ], ids=["train", "evaluate", "extract_features", "predict"])
    def test_missing_required_flag_is_usage_error(self, tmp_path, capsys, argv,
                                                   flag):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert "the following arguments are required: " in err and flag in err
        assert not os.path.exists("x")

    def test_nonexistent_corpus_is_data_error(self, tmp_path, synthetic_paths,
                                              capsys):
        code = main(["ingest", "--corpus", str(tmp_path / "nope.tsv"),
                     "--lexicon", synthetic_paths["lexicon"],
                     "--out", str(tmp_path)])
        assert code == EXIT_DATA

    @pytest.mark.parametrize("argv", [
        ["extract-features"], ["evaluate", "--probabilities", "p.tsv"]],
        ids=["extract_features", "evaluate"])
    def test_nonexistent_dataset_is_named(self, tmp_path, capsys, argv):
        # the TSV is named, not the sidecar read from beside it
        dataset = tmp_path / "none.tsv"
        code = main(argv + ["--dataset", str(dataset)] + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert err == f"evocli: error: [Errno 2] No such file or directory: '{dataset}'\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("damage, message", [
        ("truncated_gzip", "cannot read corpus file {corpus}: "
         "Compressed file ended before the end-of-stream marker"),
        ("corrupt_gzip", "cannot read corpus file {corpus}: "),
        ("not_utf8", "cannot read corpus file {corpus}: "
         "line 3 is not UTF-8 (invalid start byte)"),
        ("not_utf8_gzip", "cannot read corpus file {corpus}: "
         "line 3 is not UTF-8 (invalid start byte)"),
        ("oversize_count", "corpus file {corpus}: the counts of aaquzzz_NOUN "
         "total more than 9223372036854775807"),
    ], ids=["truncated_gzip", "corrupt_gzip", "not_utf8", "not_utf8_gzip",
            "oversize_count"])
    def test_unreadable_corpus_is_data_error(self, tmp_path, synthetic_paths,
                                             capsys, damage, message):
        # a corpus file that cannot be decompressed, decoded or summed in
        # 64 bits names the file (and the line, when it is not UTF-8), with
        # no traceback; how zlib words a corrupt stream depends on its version
        with open(synthetic_paths["corpus"], "rb") as handle:
            text = handle.read()
        if damage.startswith("not_utf8"):
            lines = text.split(b"\n")
            lines[2] = lines[2].replace(b"\t", b"\xff\t", 1)
            text = b"\n".join(lines)
        elif damage == "oversize_count":  # 2**63 as the first row's count
            text = text.replace(b"\t1840\t1\t", b"\t1840\t9223372036854775808\t", 1)
        if damage.endswith("gzip"):
            text = gzip.compress(text, mtime=0)
        if damage == "truncated_gzip":
            text = text[:len(text) // 2]
        elif damage == "corrupt_gzip":
            text = text[:200] + bytes(b ^ 0x5A for b in text[200:260]) + text[260:]
        corpus = tmp_path / ("corpus.tsv.gz" if damage.endswith("gzip")
                             else "corpus.tsv")
        corpus.write_bytes(text)
        code = main(["ingest", "--corpus", str(corpus),
                     "--lexicon", synthetic_paths["lexicon"],
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert message.format(corpus=corpus) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK
        listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
                  if line.strip()}
        assert listed >= {"ingest", "build-dataset", "extract-features", "train",
                          "predict", "evaluate", "ablate", "sweep", "interpret",
                          "plot-data"}

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--cycles", "x"], "--cycles: must be an integer, got 'x'"),
        (["sweep", "--cycles", "50,10"], "--cycles: must be in [30, 60], got 10"),
        (["sweep", "--cycles", "50,50"], "--cycles: repeated cycle length 50"),
        (["build-dataset", "--cycle", "10"], "--cycle: must be in [30, 60], got 10"),
        (["build-dataset", "--cycle", "0"], "--cycle: must be in [30, 60], got 0"),
        (["interpret", "--cycle", "61"], "--cycle: must be in [30, 60], got 61"),
        (["plot-data", "--synset", "a00001", "--years", "1800-2000"],
         "--years: expected START:END integer years, got '1800-2000'"),
        (["plot-data", "--synset", "a00001", "--years", "1800:"],
         "--years: expected START:END integer years, got '1800:'"),
        (["plot-data", "--synset", "a00001", "--years", "2000:1800"],
         "--years: empty year range '2000:1800'"),
        (["plot-data", "--synset", "a00001", "--years", "0:3000"],
         "--years: must be in [1500, 2008], got '0:3000'"),
        (["train", "--features", "f.tsv", "--only", "bogus"],
         "--only: unknown features: bogus"),
        (["train", "--features", "f.tsv", "--drop", "present_agee"],
         "--drop: unknown features: present_agee"),
        (["train", "--features", "f.tsv", "--only", "present_age",
          "--drop", "present_age"], "--drop: not allowed with argument --only"),
        (["train", "--features", "f.tsv", "--only", ","],
         "--only: no features selected"),
        (["train", "--features", "f.tsv", "--drop", ",".join(FEATURE_NAMES)],
         "--drop: no features selected"),
    ], ids=["cycles_not_integers", "cycles_below_30", "cycles_repeated",
            "cycle_below_30", "cycle_zero", "cycle_above_60", "years_not_a_range",
            "years_open_ended", "years_reversed", "years_outside_the_corpus",
            "only_unknown_feature", "drop_unknown_feature", "only_and_drop",
            "only_nothing", "drop_everything"])
    def test_bad_flag_value_is_usage_error(self, tmp_path, capsys, argv, message):
        # the flag is checked before any input is read: the corpus named
        # here does not exist, which would otherwise be a data error
        code = main(argv + missing_inputs(argv[0], tmp_path)
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"error: argument {message}\n" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["flags", "other_spelling"])
    def test_repeated_corpus_is_usage_error(self, tmp_path, synthetic_paths, capsys,
                                            source):
        # one file given twice would double every count; it is refused
        # before any input is read, as the missing lexicon here shows
        corpus = synthetic_paths["corpus"]
        folder, name = os.path.split(corpus)
        again = corpus if source == "flags" else os.path.join(
            folder, "..", os.path.basename(folder), name)
        code = main(["ingest", "--corpus", corpus, "--corpus", again,
                     "--lexicon", str(tmp_path / "nope_lexicon.tsv"),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"repeated corpus file {again}" in err
        assert (f"(the same file as {corpus})" in err) is (again != corpus)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        [command, "--seed", "1"] for command in (
            "ingest", "build-dataset", "ablate", "sweep", "interpret")
    ] + [
        ["extract-features", "--dataset", "d.tsv", "--seed", "1"],
        ["train", "--features", "f.tsv", "--seed", "1"],
        ["predict", "--features", "f.tsv", "--model", "m.json", "--seed", "1"],
        ["evaluate", "--dataset", "d.tsv", "--probabilities", "p.tsv",
         "--seed", "1"],
        ["plot-data", "--synset", "a00001", "--seed", "1"],
        ["ablate", "--feature", "present_age"],
        ["ablate", "--feature", "bogus"],
    ], ids=lambda argv: "_".join(a.strip("-") for a in argv[:1] + argv[-2:]))
    def test_removed_option_is_usage_error(self, tmp_path, capsys, argv):
        # the random baseline is exact, so it takes no seed, and ablate
        # always runs every feature into one report
        code = main(argv + missing_inputs(argv[0], tmp_path)
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--half-width", "5"), ("--anchor-year", "2000"), ("--floor-year", "1800"),
        ("--half-width", "-1"), ("--floor-year", "2100")])
    def test_period_constant_is_not_an_option(self, tmp_path, capsys, flag, value):
        # the paper fixes how periods are sampled, so not even the constant's
        # own value may be given; the corpus named here does not exist, so
        # reading any input would be a data error
        code = main(["sweep", flag, value] + missing_inputs("sweep", tmp_path)
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} {value}" in err
        assert not (tmp_path / "out").exists()


# each command with the flags it requires, so that the only error left is
# the flag under test
COMMANDS = {
    "ingest": [], "build-dataset": [], "ablate": [], "sweep": [], "interpret": [],
    "plot-data": ["--synset", "a00001"],
    "extract-features": ["--dataset", "d.tsv"],
    "train": ["--features", "f.tsv"],
    "predict": ["--features", "f.tsv", "--model", "m.json"],
    "evaluate": ["--dataset", "d.tsv", "--probabilities", "p.tsv"],
}


class TestCommandFlags:
    """Each command takes only the flags its handler reads."""

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--cycle"), ("plot-data", "--cycle"), ("ingest", "--cycle"),
        ("train", "--corpus"), ("predict", "--lexicon"), ("evaluate", "--syllables"),
        ("train", "--feature"),  # no abbreviation either: --features is given
    ] + [(command, "--config") for command in COMMANDS])
    def test_flag_not_read_is_usage_error(self, tmp_path, capsys, command, flag):
        # each value would be valid, and the corpus named here does not
        # exist, so a flag that was accepted would end in a data error
        code = main([command, *COMMANDS[command], flag, "50"]
                    + missing_inputs(command, tmp_path) + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert f"unrecognized arguments: {flag} 50" in err
        assert not (tmp_path / "out").exists()


def parsed(parser, argv, capsys):
    """(Namespace or exit code, stdout, stderr) of parser.parse_args(argv)."""
    try:
        result = parser.parse_args(argv)
    except SystemExit as exc:
        result = exc.code
    captured = capsys.readouterr()
    return result, captured.out, captured.err


class TestParser:
    """main builds the parser of the command it runs, and only that one;
    that parser parses the command's argv as the full parser does."""

    @staticmethod
    def count_parsers(monkeypatch):
        """The prog of each cli._Parser built from now on."""
        built = []
        init = cli._Parser.__init__

        def counted(self, **kwargs):
            built.append(kwargs["prog"])
            init(self, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted)
        return built

    @pytest.mark.parametrize("console_script", [False, True])
    def test_one_command_builds_one_subparser(self, tmp_path, capsys, monkeypatch,
                                              console_script):
        argv = ["train", "--features", str(tmp_path / "f.tsv"),
                *out_flag(tmp_path / "out")]
        built = self.count_parsers(monkeypatch)
        if console_script:  # as the installed evocli calls it
            monkeypatch.setattr(sys, "argv", ["evocli", *argv])
            code = main()
        else:
            code = main(argv)
        assert code == EXIT_DATA  # the features file does not exist
        assert built == ["evocli", "evocli train"]

    @pytest.mark.parametrize("argv", [[], ["--help"], ["bogus"], ["--out", "x"]],
                             ids=["no_command", "help", "unknown", "flag_first"])
    def test_no_known_command_builds_every_subparser(self, capsys, monkeypatch,
                                                     argv):
        # so the help and the usage errors list every command
        built = self.count_parsers(monkeypatch)
        main(argv)
        assert sorted(built) == sorted(
            ["evocli"] + [f"evocli {name}" for name in COMMANDS])

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_one_command_parser_parses_as_the_full_one(self, tmp_path, capsys,
                                                       command):
        # the command's required flags and inputs: an argv that parses
        valid = [command, *COMMANDS[command],
                 *(["--corpus", "c.tsv", "--lexicon", "l.tsv"]
                   if command in LOADS_INPUTS else []),
                 *out_flag(tmp_path / "out")]
        for argv in ([command, "--help"], [command], valid + ["--bogus", "1"],
                     valid):
            one = parsed(build_parser(command), argv, capsys)
            assert one == parsed(build_parser(), argv, capsys)
        assert one[0].handler is cli.COMMANDS[command][0]
        assert not (tmp_path / "out").exists()


class TestIngest:
    def test_report_written(self, tmp_path, synthetic_paths):
        out = tmp_path / "out"
        assert main(["ingest"] + common_flags(synthetic_paths, out)) == EXIT_OK
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["eligible_synsets"] == 50
        assert report["rows_kept"] > 0
        assert (out / "corpus.tsv").exists()

    def test_no_kept_row_writes_an_empty_corpus(self, tmp_path, synthetic_paths):
        # a corpus of no lexicon word: corpus.tsv has no byte, not a blank
        # line, and build-dataset on it removes every synset as dead_word
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("zzzzz_NOUN\t1900\t5\t1\n")
        out = tmp_path / "out"
        flags = ["--lexicon", synthetic_paths["lexicon"], "--out", str(out)]
        assert main(["ingest", "--corpus", str(corpus)] + flags) == EXIT_OK
        assert (out / "corpus.tsv").read_bytes() == b""
        report = json.loads((out / "ingest_report.json").read_text())
        assert (report["rows_kept"], report["keys"]) == (0, 0)
        assert report["eligible_synsets"] == 50
        assert main(["build-dataset", "--corpus", str(out / "corpus.tsv")]
                    + flags) == EXIT_OK
        sidecars = sorted(out.glob("dataset_*.json"))
        assert len(sidecars) == 3  # the windows of cycle 50
        for sidecar in sidecars:
            summary = json.loads(sidecar.read_text())
            assert summary["synsets"] == 0
            assert summary["removals"] == {"dead_word": 50}

    def test_ingest_holds_few_bytes_beyond_the_load(self, tmp_path):
        # 20,000 in-order rows of 100 words: the load alone peaks at about
        # 48 B a row (test_corpus bounds it by 64), and corpus.tsv streams
        # one key at a time, so the whole command stays in the load's
        # bound; building every line first took about 150 B a row
        lemmas = ["w" + "".join(letters) for letters in
                  itertools.product("abcdefghij", repeat=2)]
        lexicon = tmp_path / "lexicon.tsv"
        lexicon.write_text("".join(f"s{i:05d}\tn\t{lemmas[2 * i]},{lemmas[2 * i + 1]}\n"
                                   for i in range(50)))
        corpus = tmp_path / "corpus.tsv"
        corpus.write_text("".join(f"{lemma}_NOUN\t{year}\t{year * 7 % 1000}\t1\n"
                                  for lemma in lemmas for year in range(1800, 2000)))
        out = tmp_path / "out"
        argv = ["ingest", "--corpus", str(corpus), "--lexicon", str(lexicon),
                "--out", str(out)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert json.loads((out / "ingest_report.json").read_text())["rows_kept"] == 20_000
        assert (peak - before) / 20_000 <= 64


def tree_sha256(directory, names=None):
    """sha256 over the sorted file names and contents of a directory, or of
    the named files in it."""
    hasher = hashlib.sha256()
    for name in sorted(names or os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            hasher.update(name.encode() + b"\0" + handle.read())
    return hasher.hexdigest()


class TestPinnedOutputs:
    """Every evocli stage writes these exact bytes on the fixtures."""

    PINNED = {
        ("rapture", "ingest"):
            "cc235a492d0614cedee807e4ab020955d3c17a6e1e66edca915198800e16cb5e",
        ("rapture", "build-dataset"):
            "9008cf74aa10154387ecbfa3e9b16826f96f97ed18e0c51623a464d5d27884f1",
        ("synthetic", "ingest"):
            "0461b26a90d774d8ddd4436e0a3098cf36b201496f2d04170a68681bd2cf5074",
        ("synthetic", "build-dataset"):
            "be94e7dbe242a30651fea80b752a732ff9662d813236b5d29ab4a20e03ad1aa5",
        # 1790 to 1799 are zero-total years: every share is 0
        ("rapture", "plot-data --synset a00001 --years 1790:1810"):
            "7b6137c7f552386e982465c732031a9ec553bbfeefe948789bd3493b85268737",
        ("synthetic", "plot-data --synset s00000"):
            "32a2a0ff4d137dc4314ebd152a86a3adb565bf21ac645089a0b323b6ea9a3acc",
    }

    @pytest.mark.parametrize("bundle, command", sorted(PINNED))
    def test_output_bytes(self, tmp_path, request, bundle, command):
        paths = request.getfixturevalue(f"{bundle}_paths")
        flags = [flag for key in ("corpus", "lexicon", "catvar", "syllables")
                 for flag in (f"--{key}", paths[key])]
        out = tmp_path / "out"
        assert main(command.split() + flags + ["--out", str(out)]) == EXIT_OK
        assert tree_sha256(out) == self.PINNED[bundle, command]

    def test_gzipped_corpus_ingests_to_the_same_bytes(self, tmp_path,
                                                       synthetic_paths):
        corpus = tmp_path / "corpus.tsv.gz"
        with open(synthetic_paths["corpus"], "rb") as handle:
            corpus.write_bytes(gzip.compress(handle.read(), mtime=0))
        flags = [flag for key in ("lexicon", "catvar", "syllables")
                 for flag in (f"--{key}", synthetic_paths[key])]
        out = tmp_path / "out"
        assert main(["ingest", "--corpus", str(corpus)] + flags
                    + ["--out", str(out)]) == EXIT_OK
        assert tree_sha256(out) == self.PINNED["synthetic", "ingest"]

    # what the stages after build-dataset write, each hashed on its own so
    # that a change to one artifact shows which stage moved
    PINNED_STAGES = {
        "rapture": {
            "features":
                "d2f1a9bf4636527d7a10ab0a6ef0b95226f16ad8afad6533b338be0d3c6dea8d",
            "probabilities":
                "3fa99b9a7f520c91cac5dd3358904b9d648ea618fb650fd925db71a8d1ebd5df",
            "evaluate":
                "7b2e024d6855c307529b4f811530dda11616e2f468fed258bbbc5c65545e77d2",
            "interpret":
                "d2e19a53e9ee91ad9c4cc16be0eb6738cdeb34814eb37fd2da19d940988c1c93",
        },
        "synthetic": {
            "features":
                "a0839b9e206a8ada2df86bfa5e5d8a0e678da62b2db9d64f056738f939130cc3",
            "probabilities":
                "be5ae3cd241944eee11d7b275fc4b4418f1673b9e599c4ef70c78c9b04cb75a4",
            "evaluate":
                "552a162f13b6f3aeac5e62d2ee8ff8f9f91e59b92c3fe0aa3db92700b1716d8d",
            "interpret":
                "ec83cf7c10de92c5644eeb2efdd0b81ba7d18247e573125b0b10f7baab8126cd",
        },
    }

    @pytest.mark.parametrize("bundle", sorted(PINNED_STAGES))
    def test_stage_output_bytes(self, tmp_path, request, bundle):
        paths = request.getfixturevalue(f"{bundle}_paths")
        out = tmp_path / "out"
        syllables = ["--syllables", paths["syllables"]]
        inputs = ["--corpus", paths["corpus"], "--lexicon", paths["lexicon"],
                  "--catvar", paths["catvar"]] + syllables
        train, test = "1850_1900_1950", "1900_1950_2000"
        for argv in (
            ["build-dataset"] + inputs,
            ["extract-features", "--dataset", str(out / f"dataset_{train}.tsv")]
            + syllables,
            ["extract-features", "--dataset", str(out / f"dataset_{test}.tsv")]
            + syllables,
            ["train", "--features", str(out / f"features_{train}.tsv")],
            ["predict", "--features", str(out / f"features_{test}.tsv"),
             "--model", str(out / "model.json")],
            ["evaluate", "--dataset", str(out / f"dataset_{test}.tsv"),
             "--probabilities", str(out / "probabilities.tsv")],
            ["interpret"] + inputs,
        ):
            assert main(argv + out_flag(out)) == EXIT_OK
        assert {
            "features": tree_sha256(out, [f"features_{train}.tsv",
                                          f"features_{test}.tsv"]),
            "probabilities": tree_sha256(out, ["probabilities.tsv"]),
            "evaluate": tree_sha256(out, ["report.json", "outcomes.tsv"]),
            "interpret": tree_sha256(out / "reports" / "interpretation" / "50"
                                     / test),
        } == self.PINNED_STAGES[bundle]

    # the experiment commands' report directories (report.json and a csv)
    PINNED_REPORTS = {
        ("rapture", "ablate --mode drop_one"):
            "f652f54a6929579ad2fde03e6badf1dbd94477cedadbb499406c1dfc53c0ac8d",
        ("rapture", "ablate --mode single_only"):
            "55b4cc635d3698eb4889771b74523dd83317400ad2f55ed9ab54f4fa9e613652",
        ("rapture", "sweep"):
            "dbb21b45750d9df9c654817db3eafd0e8f78e89b313819df4fe76f2b0666f7ed",
        ("synthetic", "ablate --mode drop_one"):
            "a35124fff1f9fb42c54f382e929425e73b3f3dfa25331a0441288a905dbff2d5",
        ("synthetic", "ablate --mode single_only"):
            "bcf5921c60b4cb4de2a0c6281b7bdb3509a63d430ec380cf193a5b5cecc20e5e",
        ("synthetic", "sweep"):
            "4c5c8c39e9a5cc8c3ca7077c4af3e180b14043d396ff31008b01cdf9fe205164",
    }

    @pytest.mark.parametrize("bundle, command", sorted(PINNED_REPORTS))
    def test_report_bytes(self, tmp_path, request, bundle, command):
        paths = request.getfixturevalue(f"{bundle}_paths")
        flags = [flag for key in ("corpus", "lexicon", "catvar", "syllables")
                 for flag in (f"--{key}", paths[key])]
        out = tmp_path / "out"
        assert main(command.split() + flags + ["--out", str(out)]) == EXIT_OK
        directory, = {root for root, _, files in os.walk(out / "reports") if files}
        assert tree_sha256(directory) == self.PINNED_REPORTS[bundle, command]


def run_stages(paths, out):
    """build-dataset through evaluate on the 50-year windows, each stage
    reading the files the one before wrote; returns report.json."""
    assert main(["build-dataset"] + common_flags(paths, out)) == EXIT_OK
    flags = out_flag(out)
    train_tsv = str(out / "dataset_1850_1900_1950.tsv")
    test_tsv = str(out / "dataset_1900_1950_2000.tsv")
    assert main(["extract-features", "--dataset", train_tsv] + flags) == EXIT_OK
    assert main(["extract-features", "--dataset", test_tsv] + flags) == EXIT_OK
    train_features = str(out / "features_1850_1900_1950.tsv")
    test_features = str(out / "features_1900_1950_2000.tsv")
    model = str(out / "model.json")
    assert main(["train", "--features", train_features,
                 "--model", model] + flags) == EXIT_OK
    assert main(["predict", "--features", test_features,
                 "--model", model] + flags) == EXIT_OK
    assert main(["evaluate", "--dataset", test_tsv,
                 "--probabilities", str(out / "probabilities.tsv")]
                + flags) == EXIT_OK
    return json.loads((out / "report.json").read_text())


class TestStagePipeline:
    """Run each stage through its file artifacts, end to end."""

    def test_staged_run_matches_monolithic(self, tmp_path, synthetic_paths,
                                           synthetic_inputs):
        from lexevo.dataset import schedule_windows
        from lexevo.experiments import run_nbcp

        report = run_stages(synthetic_paths, tmp_path / "out")
        train_window, test_window = schedule_windows(50)[1]
        direct = run_nbcp(train_window, test_window, synthetic_inputs)
        assert report["counts"] == direct["report"]["counts"]
        assert report["metrics"] == direct["report"]["metrics"]

    def test_probabilities_file_shape(self, tmp_path, synthetic_paths):
        out = tmp_path / "out"
        run_stages(synthetic_paths, out)
        lines = (out / "probabilities.tsv").read_text().splitlines()
        assert lines[0] == "synset_id\tsense_id\twin_probability\tlog_odds"
        for line in lines[1:]:
            fields = line.split("\t")
            assert 0.0 <= float(fields[2]) <= 1.0
            float(fields[3])  # parses

    def evaluate_edited(self, paths, out, edit, capsys):
        """Evaluate against an edited copy of the probabilities file."""
        run_stages(paths, out)
        capsys.readouterr()
        lines = (out / "probabilities.tsv").read_text().splitlines()
        edited = out / "edited.tsv"
        edited.write_text("\n".join(edit(lines)) + "\n")
        code = main(["evaluate", "--dataset", str(out / "dataset_1900_1950_2000.tsv"),
                     "--probabilities", str(edited)] + out_flag(out))
        return code, capsys.readouterr().err

    def test_evaluate_missing_sense_is_data_error(self, tmp_path, synthetic_paths,
                                                  capsys):
        code, err = self.evaluate_edited(synthetic_paths, tmp_path / "out",
                                         lambda lines: lines[:-1], capsys)
        assert code == EXIT_DATA
        assert "no score for sense" in err and "edited.tsv" in err

    def test_evaluate_short_row_is_data_error(self, tmp_path, synthetic_paths,
                                              capsys):
        code, err = self.evaluate_edited(synthetic_paths, tmp_path / "out",
                                         lambda lines: lines[:1] + ["s00000"] + lines[1:],
                                         capsys)
        assert code == EXIT_DATA
        assert "edited.tsv line 2" in err

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_evaluate_non_finite_score_is_data_error(self, tmp_path, synthetic_paths,
                                                     capsys, score):
        def edit(lines):
            fields = lines[1].split("\t")
            fields[3] = score
            return [lines[0], "\t".join(fields)] + lines[2:]

        code, err = self.evaluate_edited(synthetic_paths, tmp_path / "out", edit,
                                         capsys)
        assert code == EXIT_DATA
        assert "edited.tsv line 2" in err and f"non-finite score '{score}'" in err
        assert "Traceback" not in err

    def test_reruns_byte_identical(self, tmp_path, synthetic_paths):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_stages(synthetic_paths, out_a)
        run_stages(synthetic_paths, out_b)
        for name in ("report.json", "outcomes.tsv", "model.json",
                     "probabilities.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_artifacts_follow_the_umask(self, tmp_path, synthetic_paths):
        # every file a stage writes is created as open() creates one
        previous = os.umask(0o022)
        try:
            run_stages(synthetic_paths, tmp_path / "out")
        finally:
            os.umask(previous)
        modes = {path.name: oct(path.stat().st_mode & 0o777)
                 for path in (tmp_path / "out").iterdir()}
        assert "model.json" in modes and "dataset_1850_1900_1950.json" in modes
        assert set(modes.values()) == {"0o644"}, modes

    def test_train_feature_subset_flags(self, tmp_path, synthetic_paths):
        from lexevo.model import load_model

        out = tmp_path / "out"
        assert main(["build-dataset"] + common_flags(synthetic_paths, out)) == EXIT_OK
        flags = out_flag(out)
        train_tsv = str(out / "dataset_1850_1900_1950.tsv")
        assert main(["extract-features", "--dataset", train_tsv] + flags) == EXIT_OK
        features_tsv = str(out / "features_1850_1900_1950.tsv")
        model_path = str(out / "only.json")
        assert main(["train", "--features", features_tsv, "--model", model_path,
                     "--only", "relative_growth,present_age"] + flags) == EXIT_OK
        assert set(load_model(model_path).features) == {
            "relative_growth", "present_age",
        }
        model_path = str(out / "drop.json")
        assert main(["train", "--features", features_tsv, "--model", model_path,
                     "--drop", "unique_ngrams"] + flags) == EXIT_OK
        assert load_model(model_path).trigram_dims == ()


class TestArtifactReaders:
    """Malformed artifacts exit 2 naming the file, with no traceback."""

    @pytest.fixture(scope="class")
    def stage_dir(self, synthetic_paths, tmp_path_factory):
        out = tmp_path_factory.mktemp("stages")
        run_stages(synthetic_paths, out)
        return out

    @staticmethod
    def table_reader(stage_dir, reader):
        """The argv of the stage that reads a table, up to the table's path,
        and the name of the table in stage_dir."""
        return {
            "dataset": (["extract-features", "--dataset"],
                        "dataset_1850_1900_1950.tsv"),
            "features": (["train", "--features"], "features_1850_1900_1950.tsv"),
            "probabilities": (["evaluate", "--dataset",
                               str(stage_dir / "dataset_1900_1950_2000.tsv"),
                               "--probabilities"], "probabilities.tsv"),
        }[reader]

    @pytest.mark.parametrize("reader, fault", [
        (reader, fault) for reader in ("dataset", "features", "probabilities")
        for fault in ("header", "short_row")])
    def test_bad_table(self, tmp_path, synthetic_paths, stage_dir, capsys, reader,
                       fault):
        # per reader: its column count, and the file of the stage before
        # given in its place
        argv, name = self.table_reader(stage_dir, reader)
        width, stand_in = {
            "dataset": (5, None),
            "features": (11, "dataset_1850_1900_1950.tsv"),
            "probabilities": (4, "features_1900_1950_2000.tsv"),
        }[reader]
        lines = (stage_dir / name).read_text().splitlines()
        if fault == "short_row":
            lines[1] = lines[1].rpartition("\t")[0]
        elif stand_in:
            lines = (stage_dir / stand_in).read_text().splitlines()
        else:  # the right first column only
            lines[0] = "synset_id\tfoo"
        edited = tmp_path / name
        edited.write_text("\n".join(lines) + "\n")
        if reader == "dataset":
            shutil.copy(summary_path(str(stage_dir / name)), summary_path(str(edited)))
        code = main(argv + [str(edited)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        if fault == "short_row":
            assert (f"{edited} line 2: expected {width} tab-separated columns, "
                    f"got {width - 1}") in err
        else:
            assert f"{edited}: header {lines[0]!r} is not " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader", ["dataset", "features", "probabilities"])
    def test_non_canonical_sense_id_names_its_line(self, tmp_path, synthetic_paths,
                                                   stage_dir, capsys, reader):
        # line 2's sense written with k as 01 once read as that same sense;
        # only the text str(sense) writes is read
        argv, name = self.table_reader(stage_dir, reader)
        lines = (stage_dir / name).read_text().splitlines()
        fields = lines[1].split("\t")
        assert fields[1].endswith("#1")
        fields[1] = fields[1][:-1] + "01"
        lines[1] = "\t".join(fields)
        edited = tmp_path / name
        edited.write_text("\n".join(lines) + "\n")
        if reader == "dataset":
            shutil.copy(summary_path(str(stage_dir / name)), summary_path(str(edited)))
        code = main(argv + [str(edited)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{edited} line 2: bad sense id {fields[1]!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader", ["dataset", "features", "probabilities"])
    def test_comma_in_lemma_names_its_line(self, tmp_path, stage_dir, capsys, reader):
        # a lemma with a comma, as no lexicon holds: extract-features would
        # write its trigrams into the comma-joined unique_ngrams column, and
        # train would read other trigrams back
        argv, name = self.table_reader(stage_dir, reader)
        lines = (stage_dir / name).read_text().splitlines()
        fields = lines[1].split("\t")
        fields[1] = fields[1][:2] + "," + fields[1][2:]
        lines[1] = "\t".join(fields)
        edited = tmp_path / name
        edited.write_text("\n".join(lines) + "\n")
        if reader == "dataset":
            shutil.copy(summary_path(str(stage_dir / name)), summary_path(str(edited)))
        code = main(argv + [str(edited)] + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert (f"{edited} line 2: bad sense id {fields[1]!r}: a lemma holds no "
                "comma") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reader, late", [
        (reader, late)
        for reader in ("lexicon", "catvar", "syllables", "dataset", "features",
                       "probabilities")
        for late in (False, True)])
    def test_not_utf8_line_is_named(self, tmp_path, synthetic_paths, stage_dir,
                                    capsys, reader, late):
        # the last line of the file gets a byte that is not UTF-8; the late
        # variant puts 10,000 blank lines before it, past the first block
        # the text reader decodes
        argv, source = {
            "lexicon": (["ingest", "--lexicon"], synthetic_paths["lexicon"]),
            "catvar": (["ingest", "--catvar"], synthetic_paths["catvar"]),
            "syllables": (["ingest", "--syllables"], synthetic_paths["syllables"]),
            "dataset": (["extract-features", "--dataset"],
                        stage_dir / "dataset_1850_1900_1950.tsv"),
            "features": (["train", "--features"],
                         stage_dir / "features_1850_1900_1950.tsv"),
            "probabilities": (["evaluate", "--dataset",
                               str(stage_dir / "dataset_1900_1950_2000.tsv"),
                               "--probabilities"], stage_dir / "probabilities.tsv"),
        }[reader]
        with open(source, "rb") as handle:
            lines = handle.read().rstrip(b"\n").split(b"\n")
        lines[-1] = b"\xff" + lines[-1]
        if late:
            lines[-1:-1] = [b""] * 10_000
        edited = tmp_path / os.path.basename(source)
        edited.write_bytes(b"\n".join(lines) + b"\n")
        if reader == "dataset":
            shutil.copy(summary_path(str(source)), summary_path(str(edited)))
        # an ingest flag given last wins over the one common_flags gives
        out = tmp_path / "out"
        flags = (common_flags(synthetic_paths, out) if argv[0] in LOADS_INPUTS
                 else out_flag(out))
        code = main(argv[:1] + flags + argv[1:] + [str(edited)])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert (f"{edited} line {len(lines)} is not UTF-8 (invalid start byte)"
                in err)
        assert "Traceback" not in err

    @pytest.mark.parametrize("reader", ["model", "sidecar"])
    def test_json_not_utf8_line_is_named(self, tmp_path, synthetic_paths, stage_dir,
                                         capsys, reader):
        # line 3 of a JSON file ends in a byte that is not UTF-8; the error
        # names that line, where the codec names an offset in its block
        name, argv = {
            "model": ("model.json",
                      ["predict", "--features",
                       str(stage_dir / "features_1900_1950_2000.tsv"), "--model"]),
            "sidecar": ("dataset_1850_1900_1950.json",
                        ["extract-features", "--dataset"]),
        }[reader]
        lines = (stage_dir / name).read_bytes().split(b"\n")
        lines[2] += b"\xff"
        edited = tmp_path / name
        edited.write_bytes(b"\n".join(lines))
        if reader == "sidecar":
            argument = shutil.copy(stage_dir / "dataset_1850_1900_1950.tsv", tmp_path)
        else:
            argument = edited
        code = main(argv + [str(argument)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{edited} line 3 is not UTF-8 (invalid start byte)" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sidecar_text, message", [
        ('{"synsets": 1}\n', "dataset summary has no key 'window'"),
        ('{"window": [1900, 1950]}\n', "bad key 'window' [1900, 1950]"),
        ("not json\n", "not a JSON dataset summary"),
        ('{"window": [1850, 1900, 1950]}\n', "dataset summary has no key 'births'"),
        ('{"window": [1850, 1900, 1950], "births": {}}\n',
         "dataset summary has no key 'clusters'"),
        ('{"window": [1850, 1900, 1950], "births": {}, "clusters": '
         '[["rapt_ADJ", "rapture_NOUN"], ["rapture_NOUN", "rapt_ADV"]]}\n',
         "bad key 'clusters' entry ['rapture_NOUN', 'rapt_ADV']: rapture_NOUN "
         "appears in more than one cluster"),
        ('{"window": [1850, 1900, 1950], "births": {}, "clusters": []}\n',
         "key 'births' has no "),
    ], ids=["no_window", "short_window", "not_json", "no_births", "no_clusters",
            "overlapping_clusters", "births_lack_a_member"])
    def test_bad_dataset_sidecar(self, tmp_path, synthetic_paths, stage_dir, capsys,
                                 sidecar_text, message):
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text((stage_dir / "dataset_1850_1900_1950.tsv").read_text())
        sidecar = tmp_path / "dataset.json"
        sidecar.write_text(sidecar_text)
        code = main(["extract-features", "--dataset", str(dataset)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{sidecar}: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("stage", ["extract-features", "evaluate"])
    def test_unknown_removal_reason(self, tmp_path, stage_dir, capsys, stage):
        # evaluate would copy the removals into report.json
        name = "dataset_1900_1950_2000"
        dataset = shutil.copy(stage_dir / f"{name}.tsv", tmp_path)
        sidecar = json.loads((stage_dir / f"{name}.json").read_text())
        sidecar["removals"]["bogus"] = 3
        (tmp_path / f"{name}.json").write_text(json.dumps(sidecar))
        argv = {"extract-features": [],
                "evaluate": ["--probabilities", str(stage_dir / "probabilities.tsv")]}
        code = main([stage, "--dataset", str(dataset)] + argv[stage]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert (f"{tmp_path / name}.json: key 'removals' must map reasons dead_word "
                "and tie to counts, got {") in err and "'bogus': 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target, message", [
        ("0", "need vectors in both classes, got "),
        ("", "has no target class"),
    ], ids=["one_class", "unlabelled_row"])
    def test_unfittable_features(self, tmp_path, synthetic_paths, stage_dir, capsys,
                                 target, message):
        # the first row, or every row, gets the target; the error names the file
        name = "features_1850_1900_1950.tsv"
        lines = (stage_dir / name).read_text().splitlines()
        edit = lines[1:] if target == "0" else lines[1:2]
        column = lines[0].split("\t").index("target_class")
        for i, line in enumerate(edit, start=1):
            fields = line.split("\t")
            fields[column] = target
            lines[i] = "\t".join(fields)
        features = tmp_path / name
        features.write_text("\n".join(lines) + "\n")
        code = main(["train", "--features", str(features)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"evocli: error: {features}: " in err and message in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_null_member_birth(self, tmp_path, synthetic_paths, stage_dir, capsys):
        # a sidecar that gives a dataset member no birth year names the
        # sidecar and the member
        name = "dataset_1850_1900_1950"
        dataset = shutil.copy(stage_dir / f"{name}.tsv", tmp_path)
        sidecar = json.loads((stage_dir / f"{name}.json").read_text())
        member = min(sidecar["births"])
        sidecar["births"][member] = None
        (tmp_path / f"{name}.json").write_text(json.dumps(sidecar))
        code = main(["extract-features", "--dataset", str(dataset)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert (f"{tmp_path / name}.json: key 'births' maps dataset member {member} "
                "to null") in err
        assert "Traceback" not in err

    def test_one_member_synset(self, tmp_path, synthetic_paths, stage_dir, capsys):
        # s00000 keeps one of its three members: no sense can compete
        name = "dataset_1900_1950_2000.tsv"
        lines = (stage_dir / name).read_text().splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith("s00000\t")]
        assert len(rows) == 3
        dataset = tmp_path / name
        dataset.write_text("\n".join(line for i, line in enumerate(lines)
                                     if i not in rows[1:]) + "\n")
        shutil.copy(summary_path(str(stage_dir / name)), summary_path(str(dataset)))
        code = main(["extract-features", "--dataset", str(dataset)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{dataset}: synset s00000 has 1 member; need at least 2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_repeated_lemma_in_synset(self, tmp_path, capsys):
        # two senses of one lemma in a synset, which load_lexicon refuses:
        # they would share every trigram and the one corpus key foo_NOUN
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text("synset_id\tsense_id\tpast\tpresent\tfuture\n"
                           "x1\tfoo#n#1\t2\t5\t9\n"
                           "x1\tfoo#n#2\t4\t3\t1\n"
                           "x1\tbar#n#1\t1\t1\t1\n")
        (tmp_path / "dataset.json").write_text(json.dumps({
            "window": [1850, 1900, 1950], "clusters": [],
            "births": {"foo_NOUN": 1850, "bar_NOUN": 1850}}))
        code = main(["extract-features", "--dataset", str(dataset)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{dataset}: synset x1 repeats lemma foo" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_lemma_in_two_synsets(self, tmp_path, capsys):
        # two senses of one lemma in two synsets, a polysemous word that
        # eligible_synsets drops: both would read the one corpus key foo_NOUN
        dataset = tmp_path / "dataset.tsv"
        dataset.write_text("synset_id\tsense_id\tpast\tpresent\tfuture\n"
                           "x1\tfoo#n#1\t2\t5\t9\n"
                           "x1\tbar#n#1\t1\t1\t1\n"
                           "x2\tfoo#n#2\t4\t7\t1\n"
                           "x2\tbaz#n#1\t1\t1\t3\n")
        (tmp_path / "dataset.json").write_text(json.dumps({
            "window": [1850, 1900, 1950], "clusters": [],
            "births": {"foo_NOUN": 1850, "bar_NOUN": 1850, "baz_NOUN": 1850}}))
        code = main(["extract-features", "--dataset", str(dataset)]
                    + out_flag(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{dataset}: corpus key foo_NOUN is in synsets x1 and x2" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("column, value", [
        (2, "1e200"),  # normalized_length
        (8, str(10 ** 200)),  # present_age
    ], ids=["huge_float", "huge_int"])
    def test_huge_feature_value(self, tmp_path, synthetic_paths, stage_dir, capsys,
                                column, value):
        flags = out_flag(tmp_path)
        assert main(["extract-features", "--dataset",
                     str(stage_dir / "dataset_1850_1900_1950.tsv")] + flags) == EXIT_OK
        features = tmp_path / "features_1850_1900_1950.tsv"
        lines = features.read_text().splitlines()
        fields = lines[1].split("\t")
        fields[column] = value
        lines[1] = "\t".join(fields)
        features.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = main(["train", "--features", str(features),
                     "--model", str(tmp_path / "model.json")] + flags)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{features} line 2: " in err
        assert "exceeds the feature magnitude bound" in err
        assert "Traceback" not in err

    def test_bad_syllable_count(self, tmp_path, synthetic_paths, capsys):
        syllables = tmp_path / "syllables.tsv"
        syllables.write_text("# overrides\nrapt\tx\n")
        code = main(["ingest", "--syllables", str(syllables)]
                    + common_flags(synthetic_paths, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert (f"{syllables} line 2: expected lemma<TAB>integer count, "
                "got 'rapt\\tx'") in err
        assert "Traceback" not in err

    def test_member_in_two_clusters(self, tmp_path, synthetic_paths, capsys):
        catvar = tmp_path / "catvar.tsv"
        catvar.write_text("# clusters\nrapt_ADJ,rapture_NOUN\nrapture_NOUN,rapt_ADV\n")
        code = main(["ingest", "--catvar", str(catvar)]
                    + common_flags(synthetic_paths, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{catvar} line 3: rapture_NOUN appears in more than one cluster" in err
        assert "Traceback" not in err


class TestExtractFeaturesFromDataset:
    """extract-features reads the dataset and the clusters and births in its
    sidecar, plus --syllables; no corpus, lexicon or cluster file."""

    @staticmethod
    def build(paths, out, *keys):
        flags = [flag for key in ("corpus", "lexicon") + keys
                 for flag in (f"--{key}", paths[key])]
        assert main(["build-dataset"] + flags + ["--out", str(out)]) == EXIT_OK

    @pytest.mark.parametrize("bundle", ["rapture", "synthetic"])
    def test_matches_in_process_features(self, tmp_path, request, bundle):
        from lexevo.dataset import schedule_windows
        from lexevo.experiments import load_pipeline_inputs, prepare_window
        from lexevo.features import write_feature_vectors

        paths = request.getfixturevalue(f"{bundle}_paths")
        out = tmp_path / "out"
        self.build(paths, out, "catvar", "syllables")
        inputs, _, _ = load_pipeline_inputs([paths["corpus"]], paths["lexicon"],
                                            paths["catvar"], paths["syllables"])
        for window in sorted({w for pair in schedule_windows(50) for w in pair}):
            label = window.label()
            assert main(["extract-features",
                         "--dataset", str(out / f"dataset_{label}.tsv"),
                         "--syllables", paths["syllables"],
                         "--out", str(out)]) == EXIT_OK
            expected = tmp_path / f"expected_{label}.tsv"
            write_feature_vectors(prepare_window(window, inputs)[1], str(expected))
            assert (out / f"features_{label}.tsv").read_bytes() == expected.read_bytes()

    def test_reads_no_corpus(self, tmp_path, rapture_paths, monkeypatch):
        from lexevo import corpus, experiments

        out = tmp_path / "out"
        self.build(rapture_paths, out, "catvar")

        def refuse(*args, **kwargs):
            raise AssertionError("extract-features loaded a corpus")

        monkeypatch.setattr(corpus, "load_corpus", refuse)
        monkeypatch.setattr(experiments, "load_corpus", refuse)
        # --corpus, --lexicon and --catvar are accepted, hidden and ignored
        assert main(["extract-features",
                     "--dataset", str(out / "dataset_1850_1900_1950.tsv"),
                     "--corpus", str(tmp_path / "nope.tsv"),
                     "--lexicon", str(tmp_path / "nope_lexicon.tsv"),
                     "--catvar", rapture_paths["catvar"],
                     "--out", str(out)]) == EXIT_OK
        assert (out / "features_1850_1900_1950.tsv").exists()

    def test_catvar_flag_is_ignored(self, tmp_path, rapture_paths):
        # the clusters come from the sidecar: without --catvar, or with a
        # file that does not exist, the categorial variations stay counted;
        # "inputs" is the call perfbench's staged chain makes
        out = tmp_path / "out"
        self.build(rapture_paths, out, "catvar")
        dataset = str(out / "dataset_1850_1900_1950.tsv")
        features = {}
        for name, flags in (
            ("given", ["--catvar", rapture_paths["catvar"]]), ("absent", []),
            ("missing", ["--catvar", str(tmp_path / "nope.tsv")]),
            ("inputs", [flag for key in ("corpus", "lexicon", "catvar")
                        for flag in (f"--{key}", rapture_paths[key])]),
        ):
            assert main(["extract-features", "--dataset", dataset,
                         "--out", str(tmp_path / name)] + flags) == EXIT_OK
            features[name] = (tmp_path / name
                              / "features_1850_1900_1950.tsv").read_text()
        assert len(set(features.values())) == 1
        rows = [line.split("\t") for line in features["absent"].splitlines()]
        column = rows[0].index("categorial_variations")
        variations = {row[1]: row[column] for row in rows[1:]}
        assert variations["ecstatic#a#1"] == "2"
        assert variations["rapturous#a#1"] == "3"


class TestReadScores:
    ROWS = ["synset_id\tsense_id\twin_probability\tlog_odds",
            "s00001\trapt#a#1\t0.25\t-1.0986122886681098",
            "s00001\tecstatic#a#1\t0.75\t1.0986122886681098"]

    @settings(max_examples=300, deadline=None)
    @example(0, 3, "nan")
    @example(0, 2, "7")
    @given(st.integers(0, 1), st.integers(0, 3),
           st.text(st.characters(codec="utf-8", exclude_characters="\r\n"),
                   max_size=12))
    def test_fuzzed_field_parses_or_names_its_line(self, row, column, text):
        # one field of one row replaced by arbitrary text: the row either
        # parses or is a DataError naming its own line
        lines = list(self.ROWS)
        fields = lines[row + 1].split("\t")
        fields[column] = text
        lines[row + 1] = "\t".join(fields)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "probabilities.tsv")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
            try:
                scores = _read_scores(path)
            except DataError as exc:
                assert str(exc).startswith(f"{path} line {row + 2}: ")
            else:
                assert 1 <= len(scores) <= 2
                assert all(math.isfinite(score) for score in scores.values())

    @pytest.mark.parametrize("text", ["abc", "7", "-0.5", "nan"])
    def test_bad_win_probability_names_its_line(self, tmp_path, text):
        path = tmp_path / "probabilities.tsv"
        rows = list(self.ROWS)
        rows[1] = rows[1].replace("\t0.25\t", f"\t{text}\t")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataError, match=f"{path} line 2: "):
            _read_scores(str(path))

    def test_repeated_sense_names_its_line(self, tmp_path):
        path = tmp_path / "probabilities.tsv"
        path.write_text("\n".join(self.ROWS + ["s00001\trapt#a#1\t0.9\t2.0"]) + "\n")
        with pytest.raises(DataError, match=f"{path} line 4: .*repeated sense rapt#a#1"):
            _read_scores(str(path))


def model_text(mean=0, variance=1, **keys):
    """A valid model file, or one with its scalar parameters or some
    top-level keys replaced."""
    params = {"mean": mean, "variance": variance}
    obj = {"features": ["present_age", "unique_ngrams"], "class_sizes": [2, 2],
           "scalar_features": {"present_age": {"class0": params, "class1": params}},
           "trigram_ones": {"abc": [1, 2]}}
    return json.dumps({**obj, **keys})


class TestPredict:
    def test_one_log_odds_per_vector(self, tmp_path, synthetic_inputs, monkeypatch):
        import lexevo.model as model_mod
        from lexevo.dataset import schedule_windows
        from lexevo.experiments import run_nbcp
        from lexevo.features import write_feature_vectors

        train_window, test_window = schedule_windows(50)[1]
        run = run_nbcp(train_window, test_window, synthetic_inputs)
        features = tmp_path / "features.tsv"
        write_feature_vectors(run["test_vectors"], str(features))
        model = tmp_path / "model.json"
        model_mod.save_model(run["model"], str(model))
        calls = []
        original = model_mod.win_log_odds

        def counted(fitted, vector):
            calls.append(vector.sense)
            return original(fitted, vector)

        monkeypatch.setattr(model_mod, "win_log_odds", counted)
        out = tmp_path / "out"
        assert main(["predict", "--features", str(features), "--model", str(model),
                     "--out", str(out)]) == EXIT_OK
        assert calls == [v.sense for v in run["test_vectors"]]
        rows = [line.split("\t")
                for line in (out / "probabilities.tsv").read_text().splitlines()[1:]]
        for row in rows:
            assert float(row[2]) == model_mod.logistic(float(row[3]))

    @pytest.mark.parametrize("model_text, message", [
        ('{"priors": [0.5, 0.5]}', "has no key 'features'"),
        ("not json\n", "not a JSON model file"),
        ('{"priors": [0.5, 0.5], "features": ["present_age"], "scalar_features": '
         '{"present_age": {"class0": {"mean": 0, "variance": 1, "sample_count": 2}, '
         '"class1": {"mean": 0, "variance": 1, "sample_count": 2}}}, '
         '"trigram_dims": [], "trigram_params": {}}',
         "model file has no key 'class_sizes'"),
        (model_text(mean=math.inf), "need a finite mean"),
        (model_text(variance=1e-300), "a finite variance of at least 1e-09"),
        (model_text(features=["bogus"], scalar_features={}, trigram_ones={}),
         "names unknown features"),
        (model_text(features=["present_age", "relative_growth", "unique_ngrams"]),
         "keys 'features' and 'scalar_features' name different"),
        (model_text(class_sizes=[0, 2]), "bad key 'class_sizes'"),
        (model_text(trigram_ones={"abc": [3, 2]}), "bad key 'trigram_ones'"),
        (model_text(class_sizes=[True, 2]), "bad key 'class_sizes'"),
        (model_text(trigram_ones={"abc": [1.0, 2]}), "bad key 'trigram_ones'"),
        # float() would take both
        (model_text(mean="0.5"), "bad key 'scalar_features': 'present_age': "
                                 "'mean' must be a number, got '0.5'"),
        (model_text(variance=True), "bad key 'scalar_features': 'present_age': "
                                    "'variance' must be a number, got True"),
        # a model of no features ranks every member of a synset alike
        (model_text(features=[], scalar_features={}, trigram_ones={}),
         "bad key 'features'"),
    ], ids=["missing_key", "not_json", "parent_format", "infinite_mean",
            "variance_below_floor", "unknown_feature", "scalar_feature_missing",
            "zero_class_size", "ones_above_class_size", "bool_count", "float_count",
            "string_mean", "bool_variance", "no_features"])
    def test_bad_model_file_is_data_error(self, tmp_path, synthetic_inputs,
                                          capsys, model_text, message):
        from lexevo.dataset import schedule_windows
        from lexevo.experiments import run_nbcp
        from lexevo.features import write_feature_vectors

        train_window, test_window = schedule_windows(50)[1]
        run = run_nbcp(train_window, test_window, synthetic_inputs)
        features = tmp_path / "features.tsv"
        write_feature_vectors(run["test_vectors"], str(features))
        model = tmp_path / "model.json"
        model.write_text(model_text)
        code = main(["predict", "--features", str(features), "--model", str(model),
                     "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert f"{model}: " in err and message in err
        assert "Traceback" not in err


class TestImports:
    def test_cli_import_loads_no_numeric_library(self):
        # evocli needs only the standard library; a fresh interpreter that
        # imports it must not have loaded scipy or numpy
        import lexevo

        src = os.path.dirname(os.path.dirname(lexevo.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        code = ("import sys, lexevo.cli; "
                "print(sorted({'scipy', 'numpy'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"


class TestSweep:
    def test_unfittable_windows_are_skipped(self, tmp_path, synthetic_paths):
        out = tmp_path / "out"
        assert main(["sweep"] + common_flags(synthetic_paths, out)) == EXIT_OK
        report = json.loads((out / "reports" / "sweep" / "report.json").read_text())
        assert [row["cycle"] for row in report["rows"]] == [50, 50]
        assert {"cycle": 60, "window": "1880_1940_2000",
                "reason": "need vectors in both classes, got 0/0"} in report["skipped"]

    def test_sweep_outputs(self, tmp_path, synthetic_paths):
        out = tmp_path / "out"
        flags = common_flags(synthetic_paths, out)
        assert main(["sweep", "--cycles", "50"] + flags) == EXIT_OK
        report = json.loads(
            (out / "reports" / "sweep" / "report.json").read_text()
        )
        assert [row["future"] for row in report["rows"]] == [1950, 2000]
        csv_lines = (out / "reports" / "sweep" / "sweep.csv").read_text().splitlines()
        assert csv_lines[0].startswith("cycle,")
        assert len(csv_lines) == 3


class TestAblate:
    def test_drop_one_fits_one_baseline(self, tmp_path, synthetic_paths, monkeypatch):
        import lexevo.experiments as experiments_mod
        from lexevo.features import FEATURE_NAMES

        fits = []
        original = experiments_mod.fit

        def counted(vectors, *args, **kwargs):
            fits.append(1)
            return original(vectors, *args, **kwargs)

        monkeypatch.setattr(experiments_mod, "fit", counted)
        out = tmp_path / "out"
        assert main(["ablate", "--mode", "drop_one"]
                    + common_flags(synthetic_paths, out)) == EXIT_OK
        # one fit on all features serves every variant and the baseline
        assert len(fits) == 1
        path = (out / "reports" / "ablation_drop_one" / "50"
                / "1900_1950_2000" / "report.json")
        rows = json.loads(path.read_text())["rows"]
        assert [row["feature"] for row in rows] == list(FEATURE_NAMES)
        assert len({row["f_baseline"] for row in rows}) == 1


class TestInterpret:
    def test_interpret_outputs(self, tmp_path, synthetic_paths):
        out = tmp_path / "out"
        flags = common_flags(synthetic_paths, out)
        assert main(["interpret"] + flags) == EXIT_OK
        path = (out / "reports" / "interpretation" / "50"
                / "1900_1950_2000" / "report.json")
        tables = json.loads(path.read_text())
        assert len(tables["scalar_features"]) == 7
        assert len(tables["top_trigrams"]) <= 12


class TestPlotData:
    def test_shares_csv(self, tmp_path, rapture_paths):
        out = tmp_path / "out"
        flags = common_flags(rapture_paths, out)
        flags += ["--catvar", rapture_paths["catvar"],
                  "--syllables", rapture_paths["syllables"]]
        assert main(["plot-data", "--synset", "a00001",
                     "--years", "1850:1860"] + flags) == EXIT_OK
        lines = (out / "shares_a00001.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "year"
        assert set(header[1:]) == {
            "rapturous", "ecstatic", "rapt", "enraptured", "rhapsodic",
        }
        assert len(lines) == 12
        for line in lines[1:]:
            shares = [float(x) for x in line.split(",")[1:]]
            assert sum(shares) == pytest.approx(1.0, abs=1e-6)

    def test_csv_has_six_decimals(self, tmp_path):
        # one member is named like the first column, which a CSV writer of
        # dict rows would take for the same key
        corpus, lexicon = tmp_path / "corpus.tsv", tmp_path / "lexicon.tsv"
        corpus.write_text("year_NOUN\t1900\t1\t1\nyearly_NOUN\t1900\t2\t1\n")
        lexicon.write_text("n00001\tn\tyear,yearly\n")
        flags = common_flags({"corpus": str(corpus), "lexicon": str(lexicon)},
                             tmp_path / "out")
        assert main(["plot-data", "--synset", "n00001", "--years", "1900:1901"]
                    + flags) == EXIT_OK
        assert (tmp_path / "out" / "shares_n00001.csv").read_text() == (
            "year,year,yearly\n1900,0.333333,0.666667\n1901,0.000000,0.000000\n")

    def test_unknown_synset_is_data_error(self, tmp_path, rapture_paths, capsys):
        flags = common_flags(rapture_paths, tmp_path)
        assert main(["plot-data", "--synset", "zzz"] + flags) == EXIT_DATA

    def test_ineligible_synset_is_data_error(self, tmp_path, rapture_paths, capsys):
        # qq is under 3 letters, so no member of z00001 is read from the
        # corpus and its shares would all be 0
        corpus, lexicon = tmp_path / "corpus.tsv", tmp_path / "lexicon.tsv"
        shutil.copy(rapture_paths["corpus"], corpus)
        shutil.copy(rapture_paths["lexicon"], lexicon)
        with open(corpus, "a", encoding="utf-8") as handle:
            handle.write("alpha_ADJ\t1900\t10\t1\nalphaz_ADJ\t1900\t30\t1\n")
        with open(lexicon, "a", encoding="utf-8") as handle:
            handle.write("z00001\ta\talpha,alphaz,qq\n")
        flags = common_flags({"corpus": str(corpus), "lexicon": str(lexicon)},
                             tmp_path / "out")
        code = main(["plot-data", "--synset", "z00001", "--years", "1899:1901"]
                    + flags)
        err = capsys.readouterr().err
        assert code == EXIT_DATA
        assert "synset 'z00001' is not eligible" in err
        assert not (tmp_path / "out" / "shares_z00001.csv").exists()
