import math
import time

import numpy as np
import pytest

from mahler.errors import DomainError, QuadratureError
from mahler.kernel import EnsembleParams, expected_counts
from mahler.quadrature import DEFAULT_ORDER, adaptive, fixed_panel, leg_nodes


def adaptive_reference(f, a, b, tol):
    """The bisection loop with every panel evaluated from scratch: three
    ``fixed_panel`` calls per panel. Returns ``(value, error, calls)``."""
    calls = 0

    def panel(lo, hi):
        nonlocal calls
        calls += 3
        mid = 0.5 * (lo + hi)
        whole = fixed_panel(f, lo, hi)
        halves = fixed_panel(f, lo, mid) + fixed_panel(f, mid, hi)
        return abs(whole - halves), lo, hi, halves

    panels = [panel(a, b)]
    while True:
        total = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        if total_err <= tol * max(1.0, abs(total)):
            return total, total_err, calls
        panels.sort(key=lambda p: p[0])
        _, lo, hi, _ = panels.pop()
        mid = 0.5 * (lo + hi)
        panels += [panel(lo, mid), panel(mid, hi)]


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
        assert len(calls) == 3       # the panel and its two halves

    @pytest.mark.parametrize("f,a,b", [(np.sqrt, 0.0, 1.0),
                                       (lambda x: np.abs(x - 0.3), -1.0, 1.0),
                                       (lambda x: 1.0 / (1e-3 + x * x), -1.0, 2.0)])
    def test_children_reuse_parent_halves(self, f, a, b):
        # same values and error estimates as evaluating every panel from
        # scratch, with two fixed_panel calls per child instead of three
        calls = []

        def counted(x):
            calls.append(1)
            return f(x)

        val, err = adaptive(counted, a, b, tol=1e-12)
        ref_val, ref_err, ref_calls = adaptive_reference(f, a, b, 1e-12)
        assert (val, err) == (ref_val, ref_err)
        bisections = (ref_calls - 3) // 6
        assert bisections > 0
        assert len(calls) == 3 + 4 * bisections

    @pytest.mark.parametrize("tol", [math.nan, -1.0])
    def test_unmeetable_tolerance_raises_at_once(self, tol):
        # no error estimate is <= a NaN or negative tolerance, so the loop
        # would bisect up to max_panels before it failed
        start = time.perf_counter()
        with pytest.raises(DomainError, match="tol"):
            expected_counts(EnsembleParams(4, 9.0), "inside", tol=tol)
        assert time.perf_counter() - start < 0.5

    def test_smooth_integrand_converges(self):
        val, err = adaptive(np.cos, 0.0, 1.0)
        assert val == pytest.approx(np.sin(1.0), rel=1e-14)
        assert err <= 1e-12
