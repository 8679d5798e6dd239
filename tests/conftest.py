import os

import pytest

from lexevo import corpus as corpus_mod
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
