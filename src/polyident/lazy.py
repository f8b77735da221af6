"""Deferred imports: a module bound at import time, loaded on first use.

The exact suites are rational arithmetic and never touch mpmath, and only
a run that forks a process pool needs ``concurrent.futures`` (which pulls
in ``multiprocessing``, ``logging``, ``socket`` and ``pickle``); the two
were most of ``import polyident.suites``.  Each module that computes with
mpmath binds ``mp = lazy_import("mpmath")``, and ``suites`` binds
``futures = lazy_import("concurrent.futures")``, so ``list``, ``eval`` of
an exact function, the exact suites and every run that does not fork
load neither.
"""

from __future__ import annotations

import importlib.util
import sys
from types import ModuleType


def lazy_import(name: str) -> ModuleType:
    """Module ``name``, executed when one of its attributes is first read.

    The module enters ``sys.modules`` at once, and a submodule becomes an
    attribute of its parent package, as ``import`` would make it, so every
    later import of ``name`` gets this one object; a module already
    imported is returned as it is.  So ``name`` is in ``sys.modules``
    before it is executed: whether it was is told by a module it imports.

    Caveat: before Python 3.12, ``importlib.util.LazyLoader``'s first
    attribute access is not thread-safe; two threads reading the first
    attribute at once may both execute the module.  polyident computes
    only on each process's main thread, and pool workers fork with mpmath
    not yet loaded, so each worker loads it on its own main thread.
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
    parent, _, child = name.rpartition(".")
    if parent:
        setattr(sys.modules[parent], child, module)
    return module
