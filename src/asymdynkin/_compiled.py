"""scipy's compiled modules, loaded from their files alone, and the CSC arrays they take.

``oracle`` needs HiGHS's binding and ``dynamics.pde`` SuperLU's, but not the
Python packages around them: importing ``scipy.optimize`` or
``scipy.sparse.linalg`` costs a CLI command most of its start-up time and
memory.  ``scipy_extension`` finds scipy's folder with ``find_spec``, which
imports nothing, and executes just the extension file.  The module is
registered under its full name, so a later import of the package around it
finds it in ``sys.modules`` and uses the same module object.

Both solvers take a matrix as canonical CSC arrays, which ``csc_arrays``
alone builds, for the PDE's generators and the oracle's sequence-form LP alike.
"""

from __future__ import annotations

import sys
from importlib.machinery import EXTENSION_SUFFIXES
from importlib.util import find_spec, module_from_spec, spec_from_file_location
from pathlib import Path

import numpy as np

__all__ = ["scipy_extension", "csc_arrays"]


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


def csc_arrays(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, n_cols: int):
    """Canonical CSC arrays (indptr, indices, data), int32 indices, of the n_cols-wide triplets:
    sorted by (column, row), the values of a repeated position added up in input
    order from the first, as scipy's sparse constructor does."""
    order = np.lexsort((rows, cols))
    rows, cols, vals = rows[order], cols[order], vals[order]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    data = vals[first]
    np.add.at(data, np.cumsum(first)[~first] - 1, vals[~first])
    indptr = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols[first], minlength=n_cols), out=indptr[1:])
    return indptr, rows[first].astype(np.int32), data
