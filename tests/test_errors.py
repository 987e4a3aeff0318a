"""Every exception the package raises is a :class:`mahler.errors.MahlerError`,
so a caller can tell the package's failures from its own bugs."""

import ast
from pathlib import Path

import mahler
from mahler import errors


def _raised_names():
    """``(file, line, name)`` of every ``raise X(...)`` and ``raise X`` in the package."""
    for path in sorted(Path(mahler.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
                yield path.name, node.lineno, name


def test_every_raise_names_a_package_error():
    found = list(_raised_names())
    assert len(found) > 50
    bad = [(f, line, name) for f, line, name in found
           if not (isinstance(getattr(errors, str(name), None), type)
                   and issubclass(getattr(errors, name), errors.MahlerError))]
    assert bad == []
