"""scipy's compiled modules, loaded from their files alone.

``oracle`` needs HiGHS's binding and ``dynamics.pde`` SuperLU's, but not the
Python packages around them: importing ``scipy.optimize`` or
``scipy.sparse.linalg`` costs a CLI command most of its start-up time and
memory.  ``scipy_extension`` finds scipy's folder with ``find_spec``, which
imports nothing, and executes just the extension file.  The module is
registered under its full name, so a later import of the package around it
finds it in ``sys.modules`` and uses the same module object.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

__all__ = ["scipy_extension"]


def scipy_extension(name: str):
    """The compiled module ``scipy.<name>``, e.g. ``"optimize._highspy._core"``.

    Raises ImportError, naming where it looked, if scipy or the file is missing.
    """
    full = f"scipy.{name}"
    if full not in sys.modules:
        scipy = find_spec("scipy")
        if scipy is None:
            raise ImportError(f"{full}: scipy is not installed (this needs scipy>=1.17)")
        stub = Path(scipy.submodule_search_locations[0], *name.split("."))
        location = next((path for suffix in EXTENSION_SUFFIXES
                         if (path := Path(f"{stub}{suffix}")).exists()), None)
        if location is None:
            raise ImportError(f"{full}: no compiled module {stub}{EXTENSION_SUFFIXES[0]} "
                              "(this needs scipy>=1.17)")
        spec = spec_from_file_location(full, location)
        module = module_from_spec(spec)
        sys.modules[full] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:  # leave no half-initialised module for the next call
            del sys.modules[full]
            raise
    return sys.modules[full]
