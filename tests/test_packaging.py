"""Every hard dependency and every entry of the ``test`` extra declared in
pyproject.toml must be importable, and the console script must resolve to
the CLI's entry point."""

import importlib
import re
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")


def _project():
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]


def _import_all(deps):
    assert deps
    for dep in deps:
        name = re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0]
        importlib.import_module(name.replace("-", "_"))


def test_declared_dependencies_import():
    _import_all(_project()["dependencies"])


def test_test_extra_imports():
    _import_all(_project()["optional-dependencies"]["test"])


def test_console_script_entry_point(capsys):
    target = _project()["scripts"]["lossgeom"]
    module, _, attr = target.partition(":")
    main = getattr(importlib.import_module(module), attr)
    assert callable(main)
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == importlib.import_module("lossgeom").__version__
