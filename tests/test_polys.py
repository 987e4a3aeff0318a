import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from identities import halfline
from mahler.errors import ConditioningError, DomainError, IntegrabilityError
from mahler import kernel, polys
from mahler.polys import (PolyCoeffs, _p_table, eps_monomials, eps_pi, eps_poly, p_eval,
                          p_poly, pi_even_core, pi_pair, s_norm, weight, zero_check)
from mahler.quadrature import adaptive
from mahler.specfun import gamma_ratio, hyp1f1_M


def _polyval(p: PolyCoeffs, z):
    out = 0.0
    for c in p.coeffs[::-1]:
        out = out * z + c
    return out


class TestPPoly:
    def test_degree_zero(self):
        assert p_poly(0, 0.3, -0.4).coeffs == (1.0,)

    def test_negative_degree_rejected(self):
        with pytest.raises(DomainError):
            p_eval(-1, 0.3, -0.4, 0.5)
        with pytest.raises(DomainError):
            p_poly(-1, 0.3, -0.4)
        with pytest.raises(DomainError):
            pi_pair(-1, 5.0)
        with pytest.raises(DomainError):
            eps_pi("even", -1, 5.0, 0.3)
        with pytest.raises(DomainError):
            pi_even_core(-1)

    def test_degree_one(self):
        c = p_poly(1, 0.3, -0.4).coeffs
        assert c == pytest.approx((0.6, 1.3), rel=1e-14)

    def test_coefficients_match_recurrence_evaluation(self):
        # direct coefficient formula vs the three-term-recurrence evaluator
        for z in (0.4, -1.7, 0.3 + 0.8j):
            direct = _polyval(p_poly(2, 0.3, -0.4), z)
            assert p_eval(2, 0.3, -0.4, z) == pytest.approx(direct, rel=1e-13)

    @given(n=st.integers(0, 12), r=st.floats(0.3, 3.0),
           t=st.floats(0.0, 2 * math.pi),
           alpha=st.floats(-0.9, 3.0), beta=st.floats(-0.9, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_reciprocal_identity(self, n, r, t, alpha, beta):
        z = r * complex(math.cos(t), math.sin(t))
        lhs = p_eval(n, alpha, beta, z)
        rhs = z ** n * p_eval(n, beta, alpha, 1.0 / z)
        scale = max(1.0, abs(lhs))
        assert abs(lhs - rhs) <= 1e-11 * scale * (1 + abs(z)) ** n

    @given(n=st.integers(1, 10), alpha=st.floats(-0.9, 3.0),
           beta=st.floats(0.05, 3.0))
    @settings(max_examples=60, deadline=None)
    def test_contiguity(self, n, alpha, beta):
        lhs = np.array(p_poly(n, alpha, beta).coeffs)
        a = np.array(p_poly(n, alpha, beta - 1).coeffs)
        b = np.zeros_like(lhs)
        b[: n] = p_poly(n - 1, alpha, beta).coeffs
        scale = np.max(np.abs(lhs)) + 1.0
        assert np.max(np.abs(lhs - (a + b))) <= 1e-12 * scale

    def test_jacobi_identification(self, rng):
        # P_n^{a,b}(z) = (1-z)^n J_n^{(-n-1-a, -n-1-b)}((z+1)/(z-1)) with the
        # Jacobi polynomial evaluated through its hypergeometric sum
        def binom(m, j):
            # generalized C(m, j) for real m, integer j, sign-correct
            prod = 1.0
            for i in range(1, j + 1):
                prod *= (m - j + i) / i
            return prod

        def jacobi(n, a, b, x):
            # J_n^{(a,b)}(x) = sum_k C(n+a, n-k) C(n+b, k)
            #                  ((x-1)/2)^k ((x+1)/2)^{n-k}
            total = 0.0
            for k in range(n + 1):
                total += binom(n + a, n - k) * binom(n + b, k) \
                    * ((x - 1) / 2) ** k * ((x + 1) / 2) ** (n - k)
            return total

        for _ in range(10):
            n = int(rng.integers(1, 9))
            alpha = float(rng.uniform(-0.9, 2.0))
            beta = float(rng.uniform(-0.9, 2.0))
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.1, 0.8))
            a_j, b_j = -n - 1 - alpha, -n - 1 - beta
            # the binomial sum needs Gamma arguments off the poles
            if abs(a_j - round(a_j)) < 1e-3 or abs(b_j - round(b_j)) < 1e-3:
                continue
            ref = (1 - z) ** n * jacobi(n, a_j, b_j, (z + 1) / (z - 1))
            val = p_eval(n, alpha, beta, z)
            assert val == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_interior_asymptotics_error_decreases(self):
        alpha, beta = 0.4, -0.3
        z = 0.5 * complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
        target = (1 - z) ** (-1 - alpha)
        errs = []
        for n in (10, 20, 40):
            val = p_eval(n, alpha, beta, z) / p_eval(n, alpha, beta, 0.0)
            errs.append(abs(val - target) * abs(1 - z))
        assert errs[0] > errs[1] > errs[2]

    def test_scaling_at_one(self):
        alpha, beta = 0.5, -1.5
        gamma = 1 + alpha + beta
        # exact at z = 0 for every n: P_n(1) = c_n(gamma)
        for n in (7, 50):
            assert p_eval(n, alpha, beta, 1.0) == pytest.approx(
                gamma_ratio(n, gamma), rel=1e-12)
        for z in (1.0, 1j):
            errs = []
            for n in (50, 200):
                val = p_eval(n, alpha, beta, 1.0 + z / n) \
                    / gamma_ratio(n, gamma)
                errs.append(abs(val - hyp1f1_M(alpha, beta, z)))
            assert errs[0] > errs[1]


class TestPiFamily:
    def test_pi0(self):
        even, _ = pi_pair(0, 5.0)
        assert even.coeffs == pytest.approx((1.0,), rel=1e-14)

    def test_pi1(self):
        s = 5.0
        _, odd = pi_pair(0, s)
        assert odd.coeffs == pytest.approx((0.0, (s - 2) / (4 * s)),
                                           rel=1e-13)

    def test_pi1_infinite_weight(self):
        _, odd = pi_pair(0, math.inf)
        assert odd.coeffs == pytest.approx((0.0, 0.25), rel=1e-13)

    def test_even_member_is_squared_argument_family(self):
        even, _ = pi_pair(3, 7.5)
        z = 0.6
        assert _polyval(even, z) == pytest.approx(
            p_eval(3, 0.5, -0.5, z * z), rel=1e-12)


class TestEpsTransforms:
    def test_even_at_one(self):
        for n in (0, 1, 3):
            assert eps_pi("even", n, 9.0, 1.0) == pytest.approx(-1.0,
                                                                rel=1e-12)
            assert eps_pi("even", n, 9.0, -1.0) == pytest.approx(1.0,
                                                                 rel=1e-12)

    def test_odd_at_one(self):
        s = 11.0
        for n in (0, 1, 2):
            assert eps_pi("odd", n, s, 1.0) == pytest.approx(1.0 / (4 * s),
                                                             rel=1e-12)

    def test_even_at_zero(self):
        assert eps_pi("even", 2, 9.0, 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_continuity_across_circle(self):
        s = 11.0
        for kind, n in (("even", 2), ("odd", 1)):
            for y0 in (1.0, -1.0):
                lo = eps_pi(kind, n, s, y0 - 1e-9)
                hi = eps_pi(kind, n, s, y0 + 1e-9)
                assert lo == pytest.approx(hi, abs=1e-7)

    def test_integrability_guard(self):
        with pytest.raises(IntegrabilityError):
            eps_pi("odd", 2, 5.0, 0.3)

    def test_vanishing_top_coefficient(self):
        # at s = 2n + 2 the factor (s - 2k - 2) clears the top coefficient of
        # pi_{2n+1}, whose eps is then that of the lower-degree polynomial
        n, s, y = 2, 6.0, np.array([-2.5, -0.4, 0.7, 1.0, 3.0])
        odd = pi_pair(n, s)[1].coeffs
        assert odd[-1] == 0.0 and odd[-3] != 0.0
        val = eps_pi("odd", n, s, y)
        assert np.all(np.isfinite(val))
        assert np.array_equal(val, eps_poly(odd[:-1], s, y))

    def test_quadrature_oracle(self):
        # eps f(y) = (1/2) int sgn(x - y) f(x) w(x) dx, done numerically
        s = 9.0
        for kind, n, y in (("even", 1, 0.4), ("odd", 0, -0.7),
                           ("even", 0, 1.6)):
            even, odd = pi_pair(n, s)
            p = even if kind == "even" else odd

            def wf(x):
                return _polyval(p, np.asarray(x)) * weight(s, x)

            def signed(x):
                return 0.5 * np.sign(np.asarray(x) - y) * wf(x)

            breaks = sorted({-1.0, 1.0} | ({y} if abs(y) < 1 else set()))
            val = 0.0
            for a, b in zip(breaks[:-1], breaks[1:]):
                v, _ = adaptive(signed, a, b, tol=1e-12)
                val += v
            # positive half-line, split at y when the kink lies there
            if y > 1:
                v, _ = adaptive(signed, 1.0, y, tol=1e-12)
                val += v
                v, _ = halfline(signed, y, tol=1e-12)
            else:
                v, _ = halfline(signed, 1.0, tol=1e-12)
            val += v
            if y < -1:
                v, _ = adaptive(signed, y, -1.0, tol=1e-12)
                val += v
                v, _ = halfline(lambda x: signed(-x), -y, tol=1e-12)
            else:
                v, _ = halfline(lambda x: signed(-x), 1.0, tol=1e-12)
            val += v
            assert eps_pi(kind, n, s, y) == pytest.approx(val, abs=1e-9)


class TestSNorm:
    def test_infinite_weight(self):
        assert s_norm(3, math.inf) == 2.0

    def test_weight_mass(self):
        # s_0 is the total mass of the weight: 2s/(s-1)
        assert s_norm(0, 3.0) == pytest.approx(3.0, rel=1e-13)

    def test_quadrature_oracle(self):
        # s_2 = int pi~_2(x) dx over the real line
        s = 6.0
        even, _ = pi_pair(1, s)

        def f(x):
            return _polyval(even, np.asarray(x)) * weight(s, x)

        val, _ = adaptive(f, -1.0, 1.0, tol=1e-12)
        v, _ = halfline(f, 1.0, tol=1e-12)
        val += 2 * v  # even integrand
        assert s_norm(1, s) == pytest.approx(val, abs=1e-10)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            s_norm(2, 5.0)
        with pytest.raises(DomainError):     # returned NaN
            s_norm(2, math.nan)


class TestZeroBehavior:
    def test_disk_union_one_case(self):
        rep = zero_check(5, 1.5, -1.5)
        assert rep.location_class == "disk_union_one"
        assert rep.location_ok
        assert rep.expected_order_at_1 == 0

    def test_unit_circle_case(self):
        rep = zero_check(4, 11.5, 11.5)
        assert rep.location_class == "unit_circle"
        assert rep.location_ok

    def test_forced_even_order_root_at_one(self):
        rep = zero_check(3, -1.5, -1.5)
        assert rep.location_class == "unit_circle"
        assert rep.location_ok
        assert rep.order_at_1 == 2 == rep.expected_order_at_1

    def test_degree_guard(self):
        with pytest.raises(DomainError):
            zero_check(65, 0.5, 0.5)

    def test_unclassified_case(self):
        # alpha < beta with no forced root at 1: neither location theorem applies
        rep = zero_check(6, -0.3, 0.4)
        assert rep.location_class == "unclassified"
        assert rep.location_ok
        assert rep.order_at_1 == rep.expected_order_at_1 == 0

    def test_large_root_residual_raises(self, monkeypatch):
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda c: roots(c) + 1e-3)
        with pytest.raises(ConditioningError):
            zero_check(5, 1.5, -1.5)


class TestGuards:
    def test_domain_exits(self):
        # PolyCoeffs(()) raised a bare ValueError; DomainError is one too
        for call in (lambda: PolyCoeffs(()), lambda: pi_pair(2, 0.0), lambda: pi_pair(2, -3.0),
                     lambda: eps_pi("both", 2, 9.0, 0.5)):
            with pytest.raises(DomainError):
                call()
        # these returned NaN at a NaN point
        for call in (lambda: p_eval(3, 0.5, -0.5, math.nan),
                     lambda: eps_poly([1.0, 0.0, 2.0], 9.0, [0.5, math.nan]),
                     lambda: eps_monomials([0, 1], 9.0, math.inf)):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("kind", ["even", "odd"])
    @pytest.mark.parametrize("s", [0.0, -3.0])
    def test_eps_pi_needs_positive_s(self, kind, s):
        # both members come from pi_pair, which refuses s <= 0
        with pytest.raises(DomainError, match="pi_pair requires s > 0"):
            eps_pi(kind, 2, s, 0.5)

    def test_call_on_a_scalar(self):
        p = PolyCoeffs((1.0, -2.0, 0.5))
        assert p(3.0) == 1.0 - 6.0 + 4.5
        assert np.ndim(p(3.0)) == 0
        assert p(1j) == 1.0 - 2.0j - 0.5


class TestCoefficientTables:
    """One read-only table per parameter pair, grown in place of rebuilt."""

    def test_tables_are_read_only(self):
        before = pi_pair(5, 13.0)
        row = pi_even_core(5)
        with pytest.raises(ValueError):
            row[0] = 7.0
        assert not _p_table(5, 0.5, -1.5).flags.writeable
        assert pi_pair(5, 13.0) == before

    def test_every_cached_table_is_read_only(self):
        # one in-place operation on an array a cache hands out would change
        # every later evaluation that reads it
        from mahler import limits, quadrature, specfun
        tabs = kernel._tables(7, 9.5), kernel._tables(8, math.inf)
        tables = [*quadrature.leg_nodes(64), *limits._unit_nodes(), limits._node_weights(0.5),
                  *limits._taylor(32), *limits._jacobi_rule(2.5), *specfun._midpoint_table(24),
                  *specfun._series_table(1.5, 1.0, 1.5, 1.0), _p_table(5, 0.5, -0.5),
                  *(a for t in tabs for a in (t.even, t.odd, *t.eps) if a is not None)]
        assert len(tables) == 29
        assert all(isinstance(a, np.ndarray) and a.flags.writeable is False for a in tables)

    @pytest.mark.parametrize("N", [1, 15, 63])
    def test_odd_N_tables_leave_the_coefficients_alone(self, N):
        # odd N subtracts the top member from the even rows of its own copy
        before = [pi_pair(n, 70.5) for n in range(N // 2 + 1)]
        kernel._Tables(N, 70.5)
        assert [pi_pair(n, 70.5) for n in range(N // 2 + 1)] == before

    def test_one_table_per_pair(self):
        polys._grown.cache_clear()
        small = pi_pair(40, 700.0)
        for n in range(301):
            pi_pair(n, 700.0)
        assert polys._grown.cache_info().currsize == 2
        for alpha_beta in ((0.5, -0.5), (0.5, -1.5)):
            (table,) = polys._grown(*alpha_beta)
            assert table.shape == (301, 301) and not table.flags.writeable
        # rows do not depend on the size of the table they are read from
        assert pi_pair(40, 700.0) == small

    @pytest.mark.parametrize("n", [0, 1, 64, 300])
    @pytest.mark.parametrize("alpha,beta", [(0.5, -0.5), (0.5, -1.5)])
    def test_table_is_the_explicit_products(self, n, alpha, beta):
        # the Toeplitz view times the columns gives c_k(alpha) c_{j-k}(beta)
        # below the diagonal and +0.0 above it, byte for byte
        polys._grown.cache_clear()
        ca, cb = polys.gamma_ratio_table(n, alpha), polys.gamma_ratio_table(n, beta)
        ref = np.zeros((n + 1, n + 1))
        for j in range(n + 1):
            for k in range(j + 1):
                ref[j, k] = ca[k] * cb[j - k]
        assert _p_table(n, alpha, beta).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("n,s", [(0, 3.0), (4, 1.5), (4, 9.0), (30, 61.5), (30, math.inf)])
    def test_odd_core_is_one_row(self, n, s):
        # at s = 1.5 some factors (s - 2k - 2)/(4s) are negative
        row = (polys._odd_factor(n, s) * _p_table(n, 0.5, -1.5))[n]
        assert polys.pi_odd_core(n, s).tobytes() == row.tobytes()
        assert pi_pair(n, s)[1].coeffs[1::2] == tuple(row)
