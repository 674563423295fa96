import importlib

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
