"""Every exception the package raises is a :class:`mahler.errors.MahlerError`,
so a caller can tell the package's failures from its own bugs."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import mahler
from mahler import errors, kernel, limits, mc, polys
from mahler.kernel import EnsembleParams, expected_in_exact, expected_out_exact
from mahler.mc import SamplerConfig
from mahler.polys import PolyCoeffs, p_eval, pi_pair, s_norm
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
    "gram_matrix": lambda n: gram_matrix(n, 9.0).tolist(),
    "chern_vaaler_f": lambda n: chern_vaaler_f(n, 9.0),
    "pi_pair": lambda n: pi_pair(n, 9.0),
    "p_eval": lambda n: p_eval(n, 0.5, -0.5, 0.3),
    "s_norm": lambda n: s_norm(n, 12.0),
    "SamplerConfig": lambda n: SamplerConfig(n, 10.0),
    "expected_in_exact": lambda n: expected_in_exact(n, 10.0),
    "expected_out_exact": lambda n: expected_out_exact(n, 10.0),
}


@pytest.mark.parametrize("name", sorted(_DEGREE_CALLS))
def test_degrees_are_integers(name):
    # EnsembleParams(8.5, 10) failed later with an IndexError, gram_matrix(4.0, 9)
    # and expected_in_exact(4.0, 9) with a TypeError, and EnsembleParams(True, 3)
    # and SamplerConfig(3.5, 9) were accepted
    call = _DEGREE_CALLS[name]
    for bad in (4.5, 4.0, True, np.float64(4.0), "4"):
        with pytest.raises(errors.DomainError, match="integer"):
            call(bad)
    assert call(np.int64(4)) == call(np.int32(4)) == call(4)


_NAN = complex(np.nan, 1.0)
# each raises a MahlerError with no warning first; before, most of them raised a
# bare TypeError, LinAlgError, ZeroDivisionError or ValueError, or returned NaN
_BAD_CALLS = {
    "eps_monomials_complex": lambda: polys.eps_monomials([0], 9.0, 0.5 + 0j),
    "eps_poly_complex": lambda: polys.eps_poly([1.0, 2.0], 9.0, 1 + 1j),
    "eps_pi_complex": lambda: polys.eps_pi("odd", 1, 9.0, [0.5, 1 + 1j]),
    "b_outside_nan_c": lambda: limits.b_outside(np.nan, 1.5, 2.0),
    "k_zeta_nan_anchor": lambda: limits.k_zeta(1.0, _NAN, 0.1, 0.2),
    "spec_nan_anchor": lambda: limits.LimitKernelSpec("circle_complex", anchor=_NAN),
    "dsn_limit_nan": lambda: limits.dsn_limit(1.0, 1.0, np.nan, 2.0),
    "dsn_limit_inside": lambda: limits.dsn_limit(1.0, 1.0, 0.5, 2.0),
    # these returned NaN (or, for weight, 1.0) at a NaN parameter or point
    "weight_nan_s": lambda: polys.weight(np.nan, 0.5),
    "p_eval_nan_alpha": lambda: p_eval(3, np.nan, 0.5, 0.3),
    "p_eval_nan_beta": lambda: p_eval(3, 0.5, np.nan, 0.3),
    "p_poly_nan_alpha": lambda: polys.p_poly(3, np.nan, 0.5),
    "p_poly_nan_beta": lambda: polys.p_poly(3, 0.5, np.nan),
    "dsn_limit_nan_lam": lambda: limits.dsn_limit(np.nan, 1.0, 2.0, 3.0),
    "dsn_limit_nan_c": lambda: limits.dsn_limit(1.0, np.nan, 2.0, 3.0),
    "sum_inside_nan_z": lambda: limits.sum_inside_limit(0.5, -0.8, 1.5, -1.5, np.nan, 0.2),
    "sum_inside_nan_w": lambda: limits.sum_inside_limit(0.5, -0.8, 1.5, -1.5, 0.3, np.nan),
    "sum_inside_nan_b": lambda: limits.sum_inside_limit(0.5, np.nan, 1.5, -1.5, 0.3, 0.2),
    # k_zeta(1, 2, 0.1, 0.2) returned 0.0397 for an anchor off the unit circle
    "k_zeta_off_circle": lambda: limits.k_zeta(1.0, 2.0, 0.1, 0.2),
    "k_zeta_inside_anchor": lambda: limits.k_zeta(1.0, 0.5j, 0.1, 0.2),
    "ratio_sums_zero": lambda: limits.ratio_sums_report([0]),
    "zero_check_nan": lambda: polys.zero_check(3, np.nan, 0.5),
    "mahler_measure_nan": lambda: mc.mahler_measure(PolyCoeffs((np.nan, 1.0))),
    "matrix_kernel_shapes": lambda: kernel.matrix_kernel(EnsembleParams(4, 9.0),
                                                         np.zeros(3), np.zeros(4)),
    "sampler_steps": lambda: SamplerConfig(2, 5.0, steps=3.5, burn_in=0),
    "sampler_burn_in": lambda: SamplerConfig(2, 5.0, steps=10, burn_in=-1),
    "sampler_thin": lambda: SamplerConfig(2, 5.0, thin=1.5),
    "expected_in_odd": lambda: expected_in_exact(3, 9.0),
    "expected_out_odd": lambda: expected_out_exact(3, math.inf),
    "expected_in_s": lambda: expected_in_exact(4, 4.0),
    "expected_in_zero": lambda: expected_in_exact(0, 9.0),
    "ensemble_complex_s": lambda: EnsembleParams(4, 9.0 + 0j),
    "gram_matrix_str_s": lambda: gram_matrix(4, "9"),
}


@pytest.mark.parametrize("name", sorted(_BAD_CALLS))
def test_fails_fast(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.MahlerError):
            _BAD_CALLS[name]()
