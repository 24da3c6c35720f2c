"""Every exported name resolves, and so does every function the benchmark traces.

A deletion that breaks a module's __all__ or leaves perfbench/tracer.py
wrapping a function that no longer exists fails here, in the unit tests,
rather than in a benchmark run.  The tracer file is only loaded, never
changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import flagcone

MODULES = sorted(m.name for m in pkgutil.iter_modules(flagcone.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
