import os
import runpy
import shutil
import subprocess
import sys

import pytest

from tests.conftest import FIXTURES

# fixtures/make.py is a script, not a module of the package
MAKE = runpy.run_path(os.path.join(FIXTURES, "make.py"))


def assert_same_bundle(written, bundle):
    """The files of directory written equal those of fixtures/<bundle>."""
    committed = os.path.join(FIXTURES, bundle)
    assert sorted(os.listdir(written)) == sorted(os.listdir(committed))
    for name in os.listdir(committed):
        with open(os.path.join(committed, name), "rb") as handle:
            assert (written / name).read_bytes() == handle.read(), name


@pytest.mark.parametrize("bundle, write", [
    ("rapture", MAKE["write_rapture_fixture"]),
    ("synthetic", MAKE["write_synthetic_fixture"]),
])
def test_bundle_regenerates_byte_identical(tmp_path, bundle, write):
    write(str(tmp_path))
    assert_same_bundle(tmp_path, bundle)


def test_script_writes_both_bundles_beside_itself(tmp_path):
    # the README regenerates fixtures/ by running the script
    script = shutil.copy(os.path.join(FIXTURES, "make.py"), tmp_path)
    subprocess.run([sys.executable, script], check=True)
    assert sorted(os.listdir(tmp_path)) == ["make.py", "rapture", "synthetic"]
    for bundle in ("rapture", "synthetic"):
        assert_same_bundle(tmp_path / bundle, bundle)
