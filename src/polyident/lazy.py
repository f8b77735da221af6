"""Deferred imports: a module bound at import time, loaded on first use.

The exact suites are rational arithmetic and never touch mpmath, yet
importing it was about a third of ``import polyident.suites``.  Each module that
computes with mpmath binds ``mp = lazy_import("mpmath")``, so ``list``,
``eval`` of an exact function and the exact suites never load it.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """Module ``name``, executed when one of its attributes is first read.

    The module enters ``sys.modules`` at once, so every later import of
    ``name`` gets this one object, and a module already imported is
    returned as it is.

    Caveat: before Python 3.12, ``importlib.util.LazyLoader``'s first
    attribute access is not thread-safe; two threads reading the first
    attribute at once may both execute the module.  polyident computes
    only on each process's main thread, and pool workers fork with the
    module not yet loaded, so each worker loads it on its own main thread.
    """
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
