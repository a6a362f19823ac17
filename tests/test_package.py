"""The package's public API and what a process loads.

``__init__`` holds one table from each public name to its submodule and
imports a submodule when one of its names is first used; a CLI process
loads only the layers its command uses.
"""

import ast
import functools
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import alexquandle

SRC = os.path.dirname(os.path.dirname(alexquandle.__file__))


def test_all_names_exactly_the_public_names_init_binds():
    table = alexquandle._SUBMODULE
    names = alexquandle.__all__
    assert len(set(names)) == len(names)
    assert names == list(table)
    for submodule in set(table.values()):
        module = importlib.import_module(f"alexquandle.{submodule}")
        tree = ast.parse(inspect.getsource(module))
        defined = {
            node.name
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        exported = {name for name, sub in table.items() if sub == submodule}
        assert exported <= defined, (submodule, exported - defined)
    namespace: dict = {}
    exec("from alexquandle import *", namespace)  # each name must resolve
    assert set(names) <= namespace.keys()
    with pytest.raises(AttributeError, match="no_such_name"):
        alexquandle.no_such_name


def _modules_after(script: str, **env) -> set:
    """The modules a fresh interpreter holds after running script, less
    those a bare interpreter holds; each prints sys.modules to stderr, so
    a CLI call's stdout does not mix with the list."""
    listing = "\nimport sys\nprint(*sorted(sys.modules), file=sys.stderr)\n"
    run_env = dict(os.environ, **env)
    run_env["PYTHONPATH"] = os.pathsep.join([SRC, run_env.get("PYTHONPATH", "")])
    loaded = []
    for code in ("", script):
        proc = subprocess.run(
            [sys.executable, "-c", code + listing],
            capture_output=True, text=True, env=run_env,
        )
        assert proc.returncode == 0, proc.stderr
        loaded.append(set(proc.stderr.split()))
    bare, after = loaded
    return after - bare


def test_classify_loads_no_table_layer_and_no_json_csv_or_dataclasses():
    new = _modules_after(
        "import alexquandle.cli\n"
        "assert alexquandle.cli.main(['classify', '16']) == 0\n",
        QUANDLE_MAX_ORDER="16",
    )
    assert {"alexquandle.cli", "alexquandle.classify"} <= new
    unwanted = {"dataclasses", "json", "csv", "alexquandle.quandle", "alexquandle.linear"}
    assert not new & unwanted


def test_iso_both_loads_the_table_layer():
    new = _modules_after(
        "import alexquandle.cli\n"
        "argv = ['iso', 'linear:9:4', 'linear:9:7', '--method', 'both']\n"
        "assert alexquandle.cli.main(argv) == 0\n"
    )
    assert "alexquandle.quandle" in new
    assert not new & {"dataclasses", "json", "csv", "alexquandle.linear"}


def test_star_import_binds_each_name_to_its_submodule_object():
    script = (
        "import importlib, alexquandle\n"
        "from alexquandle import *\n"
        "for name, sub in alexquandle._SUBMODULE.items():\n"
        "    value = getattr(importlib.import_module('alexquandle.' + sub), name)\n"
        "    assert globals()[name] is value, name\n"
        "    assert vars(alexquandle)[name] is value, name\n"
    )
    new = _modules_after(script)
    assert "dataclasses" not in new


def test_the_only_process_wide_caches_are_the_basis_memo_and_the_parser():
    # every other memo lives on a module object, as long as the module
    caches = set()
    for info in pkgutil.iter_modules(alexquandle.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"alexquandle.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, functools._lru_cache_wrapper):
                caches.add(f"{value.__module__}.{value.__qualname__}")
    assert caches == {"alexquandle.lambda_module._basis", "alexquandle.cli._build_parser"}
