import ast
import importlib
import os
import subprocess
import sys

import arspec
import arspec.cli

#: The modules whose public names the package re-exports.
LIBRARY_MODULES = ("ar1d", "ar2d", "autocorr", "errors", "linalg", "siggen", "spectrum")


def test_package_exports_the_union_of_the_module_apis():
    modules = [importlib.import_module(f"arspec.{name}") for name in LIBRARY_MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert set(arspec.__all__) == set(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(arspec, name) is getattr(module, name)


def test_codecs_and_cli_stay_out_of_the_package_api():
    from arspec import io

    assert not set(io.__all__) & set(arspec.__all__)
    assert "main" not in arspec.__all__


def test_errors_exports_every_exception_it_defines():
    from arspec import errors

    defined = {n for n, v in vars(errors).items() if isinstance(v, type)}
    assert set(errors.__all__) == defined


def test_cli_imports_no_private_name():
    with open(arspec.cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []


#: Imports arspec, runs each of the six estimators once on a tiny input and
#: prints the top-level packages that were loaded.
_ESTIMATOR_RUN = """
import sys
import numpy as np
import arspec
x = np.exp(0.7j * np.arange(8)) + 0.1 * np.arange(8)
grid = np.outer(x[:5], x[:4]) + np.eye(5, 4)
arspec.levinson(arspec.estimate_autocorr_1d(x, 3), 3)
arspec.burg_classic(x, 3)
arspec.burg_modified(x, 3)
arspec.wwra(arspec.estimate_block_autocorr_2d(grid, 2, 1), 2)
arspec.burg2d_classic(grid, 2, 1)
arspec.burg2d_modified(grid, 2, 1)
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules})))
"""


def test_estimators_never_import_scipy():
    # scipy is not a dependency, though it is often installed alongside numpy.
    src = os.path.dirname(os.path.dirname(arspec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", _ESTIMATOR_RUN], env=env, capture_output=True, text=True, check=True
    )
    loaded = done.stdout.split()
    assert "numpy" in loaded and "arspec" in loaded
    assert "scipy" not in loaded
