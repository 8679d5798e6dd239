import pytest

from lexevo.fixtures import MAX_SYNTHETIC_SYNSETS, write_synthetic_fixture
from lexevo.lexicon import eligible_synsets, load_lexicon


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
