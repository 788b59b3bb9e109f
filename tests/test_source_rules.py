"""Rules the source tree keeps, checked on its syntax tree."""

import ast
import importlib
import inspect
from pathlib import Path

import gqtlab

SRC = Path(gqtlab.__file__).parent
MODULES = ("polynomials", "phases", "serialization", "encodings",
           "transforms", "bounds")


def _called_name(call: ast.Call) -> str | None:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return getattr(call.func, "id", None)


def test_tolerance_calls_pass_rtol():
    # numpy's isclose/allclose default to rtol = 1e-5, which has moved
    # angles and accepted unequal isometries; every call names its own.
    missing = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and _called_name(node) in ("isclose", "allclose")
        and "rtol" not in {k.arg for k in node.keywords}
    ]
    assert not missing, f"isclose/allclose without rtol= at {missing}"


def test_package_exports_every_module_surface():
    names = [n for m in MODULES
             for n in importlib.import_module(f"gqtlab.{m}").__all__]
    assert [n for n in names if not hasattr(gqtlab, n)] == []
    assert sorted(gqtlab.__all__) == sorted(names)


def test_no_isinstance_check_on_polycoeffs():
    # A polynomial argument has one form, PolyCoeffs, validated where it is
    # constructed; no function converts whatever else it is given.
    def names(node):
        elts = node.elts if isinstance(node, ast.Tuple) else [node]
        return {getattr(e, "attr", getattr(e, "id", None)) for e in elts}

    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and _called_name(node) == "isinstance"
        and len(node.args) == 2 and "PolyCoeffs" in names(node.args[1])
    ]
    assert not found, f"isinstance(..., PolyCoeffs) at {found}"


def test_no_exported_function_takes_a_parity():
    # The coefficients hold a polynomial's parity, and `definite_parity` is
    # the one function that reads it; a second copy could disagree.
    found = []
    for m in MODULES:
        module = importlib.import_module(f"gqtlab.{m}")
        for name in module.__all__:
            obj = getattr(module, name)
            if (inspect.isfunction(obj) and name != "definite_parity"
                    and "parity" in inspect.signature(obj).parameters):
                found.append(f"{m}.{name}")
    assert not found, f"functions that take a parity: {found}"


# Public names no code in src/ or bench/ refers to, each with its reader.
SURFACE_ALLOWLIST = {
    "phases_from_file": "reads the phase file that `gqtlab phases --out` "
                        "writes",
}


def _reads(tree: ast.AST) -> set[str]:
    """Identifiers read in `tree`: names and attribute names."""
    return {getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}


def _defines(stmt: ast.stmt) -> set[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_exported_name_has_a_reader():
    # The public surface is what the lab runs: each name in a module's
    # __all__ is read by another function or module of src/, or by the
    # benchmark, outside its own definition and its __all__ entry.
    bench = [p for p in sorted((SRC.parents[1] / "bench").glob("*.py"))
             if not p.name.startswith("test_")]
    outside = {path: _reads(ast.parse(path.read_text()))
               for path in sorted(SRC.glob("*.py")) + bench}
    unread = []
    for m in MODULES:
        path = SRC / f"{m}.py"
        body = ast.parse(path.read_text()).body
        for name in importlib.import_module(f"gqtlab.{m}").__all__:
            read = any(name in names for p, names in outside.items()
                       if p != path)
            read = read or any(name in _reads(stmt) for stmt in body
                               if not _defines(stmt) & {name, "__all__"})
            if not read and name not in SURFACE_ALLOWLIST:
                unread.append(f"{m}.{name}")
    assert not unread, f"exported names nothing in src/ or bench/ reads: {unread}"
    assert all(hasattr(gqtlab, name) for name in SURFACE_ALLOWLIST)
