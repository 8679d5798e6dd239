import os

import pytest

from lexevo.fixtures import (
    MAX_SYNTHETIC_SYNSETS,
    write_rapture_fixture,
    write_synthetic_fixture,
)
from lexevo.lexicon import eligible_synsets, load_lexicon
from tests.conftest import FIXTURES


@pytest.mark.parametrize("bundle, write", [
    ("rapture", write_rapture_fixture), ("synthetic", write_synthetic_fixture),
])
def test_bundle_regenerates_byte_identical(tmp_path, bundle, write):
    # the README regenerates fixtures/ with these functions
    write(str(tmp_path))
    committed = os.path.join(FIXTURES, bundle)
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(committed))
    for name in os.listdir(committed):
        with open(os.path.join(committed, name), "rb") as handle:
            assert (tmp_path / name).read_bytes() == handle.read(), name


def test_largest_synthetic_bundle_is_fully_eligible(tmp_path):
    paths = write_synthetic_fixture(str(tmp_path), n_synsets=676)
    with open(paths["lexicon"], encoding="utf-8") as handle:
        lexicon = load_lexicon(handle)
    assert len(lexicon.synsets) == MAX_SYNTHETIC_SYNSETS == 676
    assert len(eligible_synsets(lexicon)) == 676


@pytest.mark.parametrize("n_synsets", [0, 677])
def test_synthetic_size_out_of_range(tmp_path, n_synsets):
    with pytest.raises(ValueError, match="n_synsets"):
        write_synthetic_fixture(str(tmp_path), n_synsets=n_synsets)
    assert not any(tmp_path.iterdir())
