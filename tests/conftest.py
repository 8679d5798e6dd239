import io
import os

import pytest

from lexevo import corpus as corpus_mod
from lexevo.corpus import CorpusTable, LoadReport, join_token
from lexevo.dataset import SynsetSnapshot
from lexevo.experiments import load_pipeline_inputs

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def bundle_paths(name):
    base = os.path.join(FIXTURES, name)
    return {
        "corpus": os.path.join(base, "corpus.tsv"),
        "lexicon": os.path.join(base, "lexicon.tsv"),
        "catvar": os.path.join(base, "catvar.tsv"),
        "syllables": os.path.join(base, "syllables.tsv"),
    }


def snapshot_of(synset, counts):
    """The SynsetSnapshot of synset with counts (SenseId -> MemberCounts),
    its leaders found by brute force: the first member with the highest
    present count and the first with the highest future count."""
    return SynsetSnapshot(synset, counts,
                          max(counts, key=lambda sense: counts[sense].present),
                          max(counts, key=lambda sense: counts[sense].future))


def corpus_table(series):
    """The CorpusTable of key -> {year: count} dicts, built as load_corpus
    builds one: their rows, as TSV text in year order, through the reader
    (which refuses an empty vocabulary, so no keys make an empty table)."""
    text = "".join(f"{join_token(key)}\t{year}\t{count}\t1\n"
                   for key, counts in series.items()
                   for year, count in sorted(counts.items()))
    rows = {}
    if series:
        corpus_mod._read_rows(io.StringIO(text), series.keys(), rows, LoadReport())
    return CorpusTable(rows)


def count_period_calls(monkeypatch):
    """Patch corpus.period_count, which CorpusTable sums each stored year
    with, to record the (sums, center) of every call."""
    calls = []
    original = corpus_mod.period_count

    def counted(sums, center):
        calls.append((sums, center))
        return original(sums, center)

    monkeypatch.setattr(corpus_mod, "period_count", counted)
    return calls


@pytest.fixture(scope="session")
def rapture_paths():
    return bundle_paths("rapture")


@pytest.fixture(scope="session")
def synthetic_paths():
    return bundle_paths("synthetic")


@pytest.fixture(scope="session")
def rapture_inputs(rapture_paths):
    inputs, lexicon, _ = load_pipeline_inputs(
        [rapture_paths["corpus"]], rapture_paths["lexicon"],
        rapture_paths["catvar"], rapture_paths["syllables"],
    )
    return inputs


def _load_synthetic(paths):
    inputs, _, _ = load_pipeline_inputs([paths["corpus"]], paths["lexicon"])
    return inputs


@pytest.fixture(scope="session")
def synthetic_inputs(synthetic_paths):
    return _load_synthetic(synthetic_paths)


@pytest.fixture
def fresh_synthetic_inputs(synthetic_paths):
    """synthetic_inputs loaded for one test, so that no window is prepared
    yet: tests that count window builds start from it."""
    return _load_synthetic(synthetic_paths)
