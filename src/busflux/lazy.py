"""Modules bound when a module imports them and run on first use.

Each CLI stage is one process, and most stages need only a few of
busflux's modules and no numpy. ``busflux.cli`` imports only what every
stage needs (errors, schema, config, manifest and this module) and holds
each stage function it calls as a module-level name, a stand-in from
``lazy_function`` until the stage binds its modules. Running numpy's
import up front would cost ``--version``, ``aggregate``, ``join`` and
``plot``, which compute nothing with arrays, about a third of their
start-up time and memory. So the modules that use numpy take ``np`` from
here. ``lazy_import`` installs a module through the standard library's
``importlib.util.LazyLoader``, which runs the module's code on its first
attribute access (the Python docs' recipe for lazy imports, and the
mechanism of Scientific Python's SPEC 1).
"""

from __future__ import annotations

import importlib.util
import sys
from types import FunctionType, ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``: the one in ``sys.modules`` when it is there,
    else a new one that runs its code on its first attribute access. A
    module that cannot be found raises ModuleNotFoundError here, as
    ``import`` does."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = _find(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def lazy_function(module: str, name: str) -> FunctionType:
    """A stand-in for the module-level function ``name`` of ``module``.

    It carries the function's ``__module__``, ``__name__`` and
    ``__qualname__``, and on each call imports ``module`` and forwards the
    call, so the module runs on the first call and not before. A caller
    that may hand the function its only reference to an argument binds
    the function itself first: the stand-in's frame holds the arguments
    until the call returns. A module that cannot be found raises
    ModuleNotFoundError here, as ``lazy_import`` does.
    """
    if sys.modules.get(module) is None:
        _find(module)

    def stand_in(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    stand_in.__module__ = module
    stand_in.__name__ = stand_in.__qualname__ = name
    return stand_in


def _find(name: str):
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    return spec


numpy = lazy_import("numpy")
