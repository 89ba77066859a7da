"""The package namespace: one table of public names, each submodule
imported on the first lookup of one of its names."""

import importlib

import pytest
from conftest import run_python

import intrinsic_time as it

LOADED = ("sorted(m for m in sys.modules"
          " if m.startswith('intrinsic_time.') or m == 'numpy')")


def test_import_loads_no_submodule_and_a_first_process_only_the_engine():
    script = ("import sys\n"
              "import intrinsic_time as it\n"
              f"print({LOADED})\n"
              "it.process([(0, 1.0), (1, 1.01)], it.ThresholdConfig(0.005))\n"
              f"print({LOADED})\n")
    assert run_python(script).splitlines() == [
        "[]", "['intrinsic_time.engine', 'intrinsic_time.errors', 'numpy']"]


def test_from_import_works_in_a_fresh_interpreter():
    script = ("import sys\n"
              "from intrinsic_time import run_grid\n"
              "print(run_grid.__module__, 'intrinsic_time.io' in sys.modules)\n"
              "from intrinsic_time import *\n"
              "print(sorted(n for n in globals() if not n.startswith('_')) ==\n"
              "      sorted(['sys', *sys.modules['intrinsic_time'].__all__]))\n")
    assert run_python(script) == "intrinsic_time.multiscale False\nTrue\n"


def test_every_public_name_is_the_object_of_its_home_module():
    assert len(it.__all__) == len(set(it.__all__)) == 53
    for name in it.__all__:
        home = importlib.import_module(f"intrinsic_time.{it._HOME[name]}")
        assert getattr(it, name) is getattr(home, name), name


@pytest.mark.parametrize("name", sorted(it._EXPORTS))
def test_each_submodule_resolves(name):
    assert getattr(it, name) is importlib.import_module(f"intrinsic_time.{name}")


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(it)
    assert set(it.__all__) <= set(listed) and set(it._EXPORTS) <= set(listed)
    assert listed == sorted(listed) and "__version__" in listed


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="^module 'intrinsic_time' has no attribute"
                                             " 'no_such_name'$"):
        it.no_such_name
    assert not hasattr(it, "cli_main") and it.__version__ == "0.1.0"
