"""scipy's compiled extensions, each loaded alone.

The planner runs on scipy's HiGHS binding, the weight fit on its
L-BFGS-B routine, and the GP on its LAPACK and BLAS routines. Importing
any of them by name first runs the packages above it: ``scipy.optimize``
loads ``scipy.sparse`` and much else in about 0.5 s, and ``scipy.linalg``
takes about 0.2 s. ``load_extension`` reads the extension from its file
instead. These four are:

* ``optimize._highspy._core``, HiGHS (``planner.milp``);
* ``optimize._lbfgsb``, L-BFGS-B's ``setulb`` (``iware._lbfgsb``);
* ``linalg._flapack``, LAPACK (``learners._lapack``);
* ``linalg._fblas``, BLAS (``learners._blas``).
"""

from __future__ import annotations

import importlib
import importlib.machinery
import importlib.util
import sys
from pathlib import Path


def load_extension(name: str):
    """The compiled module ``scipy.<name>``, such as ``"linalg._flapack"``,
    without running ``scipy`` or the packages between.

    It is registered under its own dotted name, so that a later import of
    its package reuses it: an extension module must not be loaded twice.
    Where the package is already imported, the module also becomes its
    attribute, as an import makes it. A package imported later does not
    get that attribute, but its own ``from . import`` finds the module by
    name. Where its file is not found, it falls back to the plain import.
    """
    full_name = "scipy." + name
    if full_name in sys.modules:
        return sys.modules[full_name]
    scipy_spec = importlib.util.find_spec("scipy")  # finds scipy without running it
    dirs = [] if scipy_spec is None else scipy_spec.submodule_search_locations or []
    *packages, leaf = name.split(".")
    files = [Path(d, *packages, leaf + suffix)
             for d in dirs for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        return importlib.import_module(full_name)
    spec = importlib.util.spec_from_file_location(full_name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full_name] = module
    spec.loader.exec_module(module)
    package = sys.modules.get(full_name.rpartition(".")[0])
    if package is not None:
        setattr(package, leaf, module)
    return module
