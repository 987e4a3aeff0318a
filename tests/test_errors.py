"""Every exception the package raises is a :class:`mahler.errors.MahlerError`,
so a caller can tell the package's failures from its own bugs."""

import ast
from pathlib import Path

import numpy as np
import pytest

import mahler
from mahler import errors
from mahler.kernel import EnsembleParams
from mahler.polys import p_eval, pi_pair, s_norm
from mahler.volume import chern_vaaler_f, gram_matrix


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


# each entry point at the degree n; s is above the degree each one needs
_DEGREE_CALLS = {
    "EnsembleParams": lambda n: EnsembleParams(n, 10.0),
    "gram_matrix": lambda n: gram_matrix(n, 9.0).entries.tolist(),
    "chern_vaaler_f": lambda n: chern_vaaler_f(n, 9.0),
    "pi_pair": lambda n: pi_pair(n, 9.0),
    "p_eval": lambda n: p_eval(n, 0.5, -0.5, 0.3),
    "s_norm": lambda n: s_norm(n, 12.0),
}


@pytest.mark.parametrize("name", sorted(_DEGREE_CALLS))
def test_degrees_are_integers(name):
    # EnsembleParams(8.5, 10) failed later with an IndexError, gram_matrix(4.0, 9)
    # with a TypeError, and EnsembleParams(True, 3) was accepted
    call = _DEGREE_CALLS[name]
    for bad in (4.5, 4.0, True, np.float64(4.0), "4"):
        with pytest.raises(errors.DomainError, match="integer"):
            call(bad)
    assert call(np.int64(4)) == call(np.int32(4)) == call(4)
