import ast
import importlib

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
