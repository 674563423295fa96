import ast
import importlib
from pathlib import Path

import pytest

import fracschrod

MODULES = ("grid", "mollifier", "operators", "observables", "solver", "harness")


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"fracschrod.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


def test_package_root_binds_only_version():
    public = {k for k in vars(fracschrod) if not k.startswith("__")}
    # submodules imported anywhere in the process show up as attributes
    assert public <= {"cli", *MODULES}
    assert fracschrod.__version__ == "0.1.0"


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_traced():
    """perfbench's TRACED table, read from tracing.py without importing it."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    table, = (ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TRACED")
    return [(module, name) for module, names in table.items() for name in names]


def perfbench_imports():
    """(module, name) of every `from fracschrod.<module> import name` in perfbench."""
    return [(node.module.removeprefix("fracschrod."), alias.name)
            for path in sorted(PERFBENCH.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracschrod.")
            for alias in node.names]


@pytest.mark.parametrize("bindings", [perfbench_traced, perfbench_imports])
def test_names_perfbench_binds_resolve(bindings):
    # a traced run getattr's every TRACED name, so one gone from its module
    # breaks `run.py --trace 1` while the untraced benchmark still passes
    missing = [f"{module}.{name}" for module, name in bindings()
               if not hasattr(importlib.import_module(f"fracschrod.{module}"), name)]
    assert missing == []


def test_perfbench_bindings_are_read():
    assert {("observables", "energy"), ("observables", "composite_norm"),
            ("grid", "hs_seminorm"), ("solver", "simulate")} <= set(perfbench_traced())
    assert {("solver", "cn_step"), ("solver", "strang_step"), ("solver", "solve_tridiagonal"),
            ("solver", "initial_datum"), ("operators", "FractionalOrder")} <= set(
        perfbench_imports())
