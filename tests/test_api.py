"""Every exported name resolves, and so does every function the benchmark traces.

A deletion that breaks a module's __all__ or leaves perfbench/tracer.py
wrapping a function that no longer exists fails here, in the unit tests,
rather than in a benchmark run.  The tracer file is only loaded, never
changed.  The README's Library example runs here too, with each value its
comments give.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import flagcone

MODULES = sorted(m.name for m in pkgutil.iter_modules(flagcone.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
README = Path(__file__).resolve().parents[1] / "README.md"


def test_modules_found():
    assert {"cone", "polyhedra"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"flagcone.{name}")
    for export in getattr(module, "__all__", ()):
        assert hasattr(module, export), f"flagcone.{name}.__all__ lists {export!r}"


def test_traced_functions_exist(monkeypatch):
    # Load the tracer without writing its bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for home, func, span, _ in tracer.TRACED:
        if span in tracer.OPTIONAL:
            continue
        module = importlib.import_module(f"flagcone.{home}")
        assert callable(getattr(module, func, None)), f"flagcone.{home}.{func} is traced"


def test_readme_library_block():
    # Each expression line ends in a comment that starts with the value it
    # prints; the one assignment is checked against its own comment.
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```", text, re.M | re.S)[1]
    lines = block.splitlines()
    ns: dict = {}
    printed = []
    for stmt in ast.parse(block).body:
        source = ast.get_source_segment(block, stmt)
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            printed.append((str(eval(source, ns)), comment.partition(", ")[0]))
        else:
            exec(source, ns)
    assert printed == [
        ("True", "True"), ("2", "2"), ("14", "14"),
        ("f{2} - f{1,2} - f{2,3} + f{1,2,3}", "f{2} - f{1,2} - f{2,3} + f{1,2,3}"),
    ]
    assert "13 rays, tagged" in next(ln for ln in lines if ln.startswith("rep ="))
    assert len(ns["rep"].rays) == 13
    assert all(e.tag in ("lift", "convolution", "new") for e in ns["rep"].rays)
