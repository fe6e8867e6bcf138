"""Checks on the package source: no assert statements, imports of the
standard library, quintic and numpy alone, numpy by quintic.sweep alone,
fractions by no module, every ``__all__`` entry exists, and every name the
benchmark tracer in perfbench/spans.py looks up still exists; and on the
test configuration: a failing Hypothesis test is reported like any other."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "quintic").glob("*.py"))


def test_package_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "lattice.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # python -O strips assert statements, so checks must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


def _imported(node) -> list[str]:
    """The top-level packages an import node names, quintic for a relative one."""
    if isinstance(node, ast.Import):
        return [a.name.split(".")[0] for a in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["quintic" if node.level else (node.module or "").split(".")[0]]
    return []


def test_only_the_sweep_module_imports_numpy():
    # the exact layer runs on Python integers; the sweep alone runs its
    # walk in numpy.  Every other import is the standard library or
    # quintic itself: numpy is the one declared dependency, and packages that
    # happen to be installed (sympy, scipy) must not be reached for.  No
    # module imports fractions: the exact layer is integer-only
    imports = {
        p.name: {n for node in ast.walk(ast.parse(p.read_text())) for n in _imported(node)}
        for p in SOURCES
    }
    assert [name for name, found in imports.items() if "numpy" in found] == ["sweep.py"]
    assert [name for name, found in imports.items() if "fractions" in found] == []
    allowed = sys.stdlib_module_names | {"quintic", "numpy"}
    foreign = {name: sorted(found - allowed) for name, found in imports.items() if found - allowed}
    assert foreign == {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_all_entries_resolve(path):
    # a stale entry would make `from quintic.<module> import *` raise
    name = "quintic" if path.stem == "__init__" else f"quintic.{path.stem}"
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names missing attributes: {missing}"


def _spans_module() -> types.ModuleType:
    # executed from its source so that nothing is written under perfbench/
    path = ROOT / "perfbench" / "spans.py"
    module = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_benchmark_trace_targets_resolve():
    spans = _spans_module()
    for module_name, attr in [*spans.SPAN_TARGETS, *spans.COUNT_TARGETS]:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"
    for module_name, attr in spans.CACHES.values():
        target = getattr(importlib.import_module(module_name), attr)
        assert callable(getattr(target, "cache_info", None)), f"{module_name}.{attr}"
    # perfbench/child.py checks each bott answer against the uncached function
    from quintic.grassmannian import bott

    assert callable(bott.__wrapped__)


def test_benchmark_suite_names():
    from quintic import suites

    names = ("lattice", "catalog", "mutations", "cohomology", "grassmannian", "chern")
    assert tuple(suites._SUITES) == names == suites.SUITE_NAMES


_FAILING_HYPOTHESIS_TEST = """
import pytest
from hypothesis import given, settings, strategies as st


@pytest.mark.parametrize("k", [1, 2, 3])
@settings(database=None, deadline=None)
@given(x=st.integers())
def test_fails(k, x):
    assert x < 10
"""


def test_a_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # filterwarnings = ["error"] turned the DeprecationWarning that the
    # Hypothesis plugin raises, while it reports a falsifying example, into
    # an INTERNALERROR that ended the run after the first failure
    (tmp_path / "test_fails.py").write_text(_FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    command = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml")]
    command += ["--rootdir", str(tmp_path), "-q", "-p", "no:cacheprovider", "test_fails.py"]
    run = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1, run.stdout[-2000:]
    for k in (1, 2, 3):
        assert f"FAILED test_fails.py::test_fails[{k}]" in run.stdout
    assert "3 failed" in run.stdout
