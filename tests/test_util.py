"""The one atomic writer: lines stream into a temp file that is renamed
into place, or is removed whatever interrupts them; and the lazily
computed attribute."""

import os
from dataclasses import dataclass

import pytest

from lexevo._util import atomic_write_lines, cached_property
from lexevo.errors import DataError


def temp_files(directory):
    return [name for name in os.listdir(directory) if name.startswith(".tmp-")]


@pytest.mark.parametrize("exc", [DataError("bad row"), KeyboardInterrupt()],
                         ids=["DataError", "KeyboardInterrupt"])
@pytest.mark.parametrize("existing", [b"old\tbytes\n", None], ids=["replace", "new"])
def test_interrupted_write_leaves_no_trace(tmp_path, exc, existing):
    # the lines raise after more than a buffer's worth has reached the temp
    # file, which already exists while they are read
    target = tmp_path / "table.tsv"
    if existing is not None:
        target.write_bytes(existing)

    def lines():
        for i in range(20_000):
            yield f"w{i}\t{i}\n"
        assert len(temp_files(tmp_path)) == 1
        assert os.path.getsize(tmp_path / temp_files(tmp_path)[0]) > 0
        raise exc

    with pytest.raises(type(exc)):
        atomic_write_lines(target, lines())
    assert temp_files(tmp_path) == []
    if existing is None:
        assert os.listdir(tmp_path) == []
    else:
        assert target.read_bytes() == existing



@dataclass(frozen=True)
class Lazy:
    value: int
    calls: list

    @cached_property
    def doubled(self):
        """Twice the value."""
        self.calls.append(self.value)
        return 2 * self.value


def test_cached_property_computes_once_out_of_eq_and_repr():
    calls = []
    lazy, fresh = Lazy(3, calls), Lazy(3, calls)
    assert "doubled" not in vars(lazy)
    assert (lazy.doubled, lazy.doubled) == (6, 6)
    assert calls == [3]
    # kept in the instance __dict__, which a frozen dataclass allows
    assert vars(lazy)["doubled"] == 6
    assert lazy == fresh and repr(lazy) == repr(fresh)
    assert "doubled" not in vars(fresh)


def test_cached_property_on_the_class_is_the_descriptor():
    assert isinstance(Lazy.doubled, cached_property)
    assert Lazy.doubled.__doc__ == "Twice the value."
