import numpy as np
import pytest

from mahler.errors import QuadratureError
from mahler.quadrature import DEFAULT_ORDER, adaptive, leg_nodes


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

    def test_smooth_integrand_converges(self):
        val, err = adaptive(np.cos, 0.0, 1.0)
        assert val == pytest.approx(np.sin(1.0), rel=1e-14)
        assert err <= 1e-12
