"""numpy, bound when a module imports it and run on first use.

Each CLI stage is one process, and ``busflux.cli`` imports every stage's
modules at the top, so that every function keeps one module-level name.
Running numpy's import there would cost ``--version``, ``aggregate``,
``join`` and ``plot``, which compute nothing with arrays, about a third of
their start-up time and memory. So the modules that use numpy take ``np``
from here. ``lazy_import`` installs a module through the standard
library's ``importlib.util.LazyLoader``, which runs the module's code on
its first attribute access (the Python docs' recipe for lazy imports, and
the mechanism of Scientific Python's SPEC 1).
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """The module ``name``: the one in ``sys.modules`` when it is there,
    else a new one that runs its code on its first attribute access. A
    module that cannot be found raises ModuleNotFoundError here, as
    ``import`` does."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


numpy = lazy_import("numpy")
