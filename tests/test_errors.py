"""Every exception class the package defines shares one root."""

import importlib
import inspect
import pkgutil

import spinlap
from spinlap.errors import SpinlapError


def test_every_exception_class_is_a_spinlap_error():
    found = {}
    for info in pkgutil.walk_packages(spinlap.__path__, "spinlap."):
        module = importlib.import_module(info.name)
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if issubclass(cls, BaseException) and cls.__module__ == info.name:
                found[f"{info.name}.{name}"] = cls
    found.pop("spinlap.errors.SpinlapError")
    assert len(found) >= 18, sorted(found)
    stray = sorted(name for name, cls in found.items()
                   if not issubclass(cls, SpinlapError))
    assert not stray
    # each keeps its builtin base, so existing `except ValueError` still works
    assert all(issubclass(cls, (ValueError, RuntimeError))
               for cls in found.values())
