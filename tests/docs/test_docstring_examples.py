"""Docstring examples cannot rot: every ``>>>`` example in ``src/repro``
runs through :mod:`doctest` as written.

The same examples ``pytest --doctest-modules src/repro`` collects, made
part of tier-1 and the CI docs job (one test per module that has any).
"""

from __future__ import annotations

import doctest
import importlib
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent.parent / "src"

#: Modules whose source carries a ``>>>`` prompt (``__main__`` modules
#: run on import, so they are left out, as pytest's doctest collector
#: does).
MODULES = sorted(
    ".".join(
        path.relative_to(SRC).with_suffix("").parts[:-1]
        if path.name == "__init__.py"
        else path.relative_to(SRC).with_suffix("").parts
    )
    for path in (SRC / "repro").rglob("*.py")
    if path.name != "__main__.py" and ">>> " in path.read_text()
)


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_run(name):
    module = importlib.import_module(name)
    tests = [t for t in doctest.DocTestFinder().find(module) if t.examples]
    assert tests, f"{name} has a '>>> ' prompt but no docstring example"
    runner = doctest.DocTestRunner()
    report: list[str] = []
    for test in tests:
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
