"""Every public name a module exports must exist."""

import importlib
import pkgutil

import jumpcompare


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(jumpcompare.__path__):
        module = importlib.import_module(f"jumpcompare.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"jumpcompare.{info.name}.{name}"
