"""The package's public API: ``__all__`` against what ``__init__`` imports."""

import ast
import inspect

import alexquandle


def test_all_names_exactly_the_public_names_init_binds():
    tree = ast.parse(inspect.getsource(alexquandle))
    bound = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    ]
    public = sorted(name for name in bound if not name.startswith("_"))
    names = alexquandle.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == public
    namespace: dict = {}
    exec("from alexquandle import *", namespace)  # each name must resolve
    assert set(names) <= namespace.keys()
