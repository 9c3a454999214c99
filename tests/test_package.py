"""The package root re-exports each module's public names, and only those."""

import ast
import importlib
import inspect
import itertools
import types

import modbalance

MODULES = [importlib.import_module(f"modbalance.{name}")
           for name in ("model", "metrics", "solver", "oracle", "data")]


def test_root_exports_exactly_the_modules_public_names():
    declared = set().union(*(m.__all__ for m in MODULES))
    exported = {
        name for name, value in vars(modbalance).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared


def test_public_name_lists_are_disjoint():
    # the root star-imports the modules in turn, so a name listed twice would
    # silently bind to the later module's object
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_each_public_name_is_defined_in_its_module():
    for module in MODULES:
        defined = set()
        for node in ast.parse(inspect.getsource(module)).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Assign):
                defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        assert set(module.__all__) <= defined, module.__name__
