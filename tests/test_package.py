"""The package root re-exports each module's public names, and only those."""

import importlib
import types

import modbalance


def test_root_exports_exactly_the_modules_public_names():
    modules = [importlib.import_module(f"modbalance.{name}")
               for name in ("model", "metrics", "solver", "oracle", "data")]
    declared = set().union(*(m.__all__ for m in modules))
    exported = {
        name for name, value in vars(modbalance).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == declared
