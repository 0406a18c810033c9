"""The CI workflow tests the Python and numpy floors that pyproject.toml declares.

Both files are read with regexes: Python 3.10 has no ``tomllib``, and the
``[test]`` extra installs no YAML parser.
"""
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEWEST_PYTHON = (3, 13)


def version(text):
    return tuple(int(x) for x in text.split("."))


def test_the_workflow_cannot_drift_from_the_declared_floors():
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    python_floor = re.search(r'^requires-python = ">=(\d+\.\d+)"$', project, re.M)[1]
    dependencies = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S)[1]
    numpy_floor = re.search(r'"numpy>=(\d+\.\d+)"', dependencies)[1]

    # the matrix runs every minor version from the floor through the newest
    matrix = re.search(r"^\s+python-version: \[(.*)\]$", workflow, re.M)[1]
    pythons = [version(v) for v in re.findall(r'"([\d.]+)"', matrix)]
    first = version(python_floor)
    assert first[0] == 3
    assert pythons == [(3, minor) for minor in range(first[1], NEWEST_PYTHON[1] + 1)]

    # the extra leg pins the floor Python to the floor numpy
    legs = re.findall(r'- python-version: "([\d.]+)"\n\s+numpy: "([^"]+)"', workflow)
    assert legs == [(python_floor, f"{numpy_floor}.*")]

    # and checks that the numpy it installed is that floor
    step = re.search(r"- name: Installed numpy is the declared floor\n(?:\s+.*\n)*?\s+run: (.*)",
                     workflow)[1]
    assert re.findall(r"startswith\('([^']*)'\)", step) == [f"{numpy_floor}."]
