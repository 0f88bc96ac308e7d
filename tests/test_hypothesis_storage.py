"""A test run writes nothing into the working tree, not even when a
property fails."""
import os
from pathlib import Path

import posred

pytest_plugins = ("pytester",)

PROPERTIES = """
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_passes(x):
    assert x == x


@given(st.integers())
def test_fails(x):
    assert x < 10
"""


def test_a_failing_property_leaves_no_hypothesis_directory(pytester, monkeypatch):
    # The suite's own conftest, in a fresh directory, with one passing and
    # one failing property: hypothesis collects constants on every run and
    # saves a patch for the failure.
    pytester.makeconftest(Path(__file__).with_name("conftest.py").read_text())
    pytester.makepyfile(test_properties=PROPERTIES)
    src = str(Path(posred.__file__).resolve().parents[1])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, (
        src, os.environ.get("PYTHONPATH")))))
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(passed=1, failed=1)
    assert not (pytester.path / ".hypothesis").exists()
