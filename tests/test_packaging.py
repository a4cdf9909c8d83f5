"""Every hard dependency declared in pyproject.toml must be importable."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def test_declared_dependencies_import():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    assert deps
    for dep in deps:
        name = re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
        importlib.import_module(name.replace("-", "_"))
