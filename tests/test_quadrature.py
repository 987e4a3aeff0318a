import math
import time

import numpy as np
import pytest

from identities import adaptive_by_panels
from mahler import quadrature
from mahler.errors import DomainError, QuadratureError
from mahler.kernel import EnsembleParams, intensity_real
from mahler.quadrature import DEFAULT_ORDER, adaptive, fixed_panel, leg_nodes


class TestFixedPanel:
    @pytest.mark.parametrize("f", [np.cos, lambda x: np.exp(1j * x) / (1.5 + x),
                                   lambda x: np.abs(x - 0.3) ** 0.5],
                             ids=["real", "complex", "kink"])
    def test_stacked_panels_match_scalar_calls(self, f):
        # each row of one stacked call is summed as the scalar call sums it
        lo = np.array([-1.0, -1.0, 0.0, 0.25, 1e-3, -7.5])
        hi = np.array([1.0, 0.0, 1.0, 0.375, 2e-3, 3.25])
        calls = []

        def counted(x):
            calls.append(x.shape)
            return f(x)

        stacked = fixed_panel(counted, lo, hi)
        assert calls == [(lo.size * DEFAULT_ORDER,)]
        x, w = leg_nodes(DEFAULT_ORDER)
        scalar = [0.5 * (b - a) * np.sum(w * f(0.5 * (a + b) + 0.5 * (b - a) * x))
                  for a, b in zip(lo.tolist(), hi.tolist())]
        assert stacked.dtype == np.asarray(scalar).dtype
        assert stacked.tolist() == scalar
        assert [fixed_panel(f, a, b) for a, b in zip(lo.tolist(), hi.tolist())] == scalar


class TestAdaptive:
    @pytest.mark.parametrize("panel", ["whole", "left half"])
    def test_non_finite_node_raises_on_first_panel(self, panel):
        # one NaN node of the first panel [0, 1] or of its left half [0, 1/2]
        x, _ = leg_nodes(DEFAULT_ORDER)
        half = 0.5 if panel == "whole" else 0.25
        bad = half + half * x[DEFAULT_ORDER // 3]
        calls = []

        def f(t):
            calls.append(1)
            return np.where(t == bad, np.nan, np.cos(t))

        with pytest.raises(QuadratureError, match=r"\[0\.0, 1\.0\]"):
            adaptive(f, 0.0, 1.0)
        assert len(calls) == 1       # the panel and its two halves, stacked

    @pytest.mark.parametrize("f,a,b", [(np.sqrt, 0.0, 1.0),
                                       (lambda x: np.abs(x - 0.3), -1.0, 1.0),
                                       (lambda x: 1.0 / (1e-3 + x * x), -1.0, 2.0)])
    def test_children_reuse_parent_halves(self, f, a, b):
        # same values and error estimates as evaluating every panel from
        # scratch, with one integrand call per step: the first panel with its
        # halves, then the children's four quarter panels per bisection
        calls = []

        def counted(x):
            calls.append(1)
            return f(x)

        val, err = adaptive(counted, a, b, tol=1e-12)
        ref_val, ref_err, ref_calls = adaptive_by_panels(f, a, b, 1e-12)
        assert (val, err) == (ref_val, ref_err)
        bisections = (ref_calls - 3) // 6
        assert bisections > 0
        assert len(calls) == 1 + bisections

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_unmeetable_tolerance_raises_at_once(self, tol):
        # no error estimate is <= a NaN or negative tolerance, so the loop
        # would bisect up to max_panels before it failed
        P = EnsembleParams(4, 9.0)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="tol"):
            adaptive(lambda x: intensity_real(P, x), -1.0, 1.0, tol=tol)
        assert time.perf_counter() - start < 0.5

    def test_panel_cap_raises(self, monkeypatch):
        # a kink needs many bisections at 1e-14; the cap stops them
        monkeypatch.setattr(quadrature, "_MAX_PANELS", 4)
        with pytest.raises(QuadratureError, match="4 panels"):
            adaptive(lambda x: np.abs(x - 1.0 / 3.0), 0.0, 1.0, tol=1e-14)

    def test_smooth_integrand_converges(self):
        val, err = adaptive(np.cos, 0.0, 1.0)
        assert val == pytest.approx(np.sin(1.0), rel=1e-14)
        assert err <= 1e-12
