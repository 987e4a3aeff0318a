import math
import os
import subprocess
import sys
import time
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special as sc
from hypothesis import given, settings
from hypothesis import strategies as st

import mahler
from mahler import specfun
from mahler.errors import DomainError, InfiniteValueError, PoleError
from mahler.quadrature import adaptive
from mahler.specfun import (big_m_pair, e_gamma, e_pair, gamma_ratio,
                            gamma_ratio_table, gammaln_signed, hyp1f1_M, iota,
                            omega)

from identities import DivergenceError, hyp2f1, lambda_weight


class TestGammaRatio:
    def test_empty_product(self):
        assert gamma_ratio(0, 0.7) == pytest.approx(1.0, abs=1e-14)

    def test_single_factor(self):
        assert gamma_ratio(1, 0.3) == pytest.approx(1.3, rel=1e-13)

    def test_two_factor_product(self):
        assert gamma_ratio(2, -0.5) == pytest.approx(0.375, rel=1e-13)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            gamma_ratio(0.5, -2.0)

    @given(n=st.integers(0, 40), alpha=st.floats(-0.95, 6.0))
    def test_integer_argument_matches_product(self, n, alpha):
        prod = 1.0
        for j in range(1, n + 1):
            prod *= (j + alpha) / j
        assert gamma_ratio(n, alpha) == pytest.approx(prod, rel=1e-11,
                                                      abs=1e-13)

    def test_mpmath_oracle_noninteger(self, rng):
        for _ in range(20):
            x = float(rng.uniform(0.1, 30.0))
            a = float(rng.uniform(-0.9, 5.0))
            ref = float(mpmath.gamma(x + 1 + a)
                        / (mpmath.gamma(1 + a) * mpmath.gamma(x + 1)))
            assert gamma_ratio(x, a) == pytest.approx(ref, rel=1e-12)

    def test_table_matches_scalar(self):
        table = gamma_ratio_table(10, -0.4)
        for n in range(10):
            assert table[n] == pytest.approx(gamma_ratio(n, -0.4), rel=1e-13)

    def test_large_n_asymptotic_error_decreases(self):
        # c_n(a) c_n(b) * G(1+a) G(1+b) / n^{a+b} -> 1
        a, b = 0.5, -0.3
        errs = []
        for n in (10, 100, 1000):
            val = gamma_ratio(n, a) * gamma_ratio(n, b) \
                * math.gamma(1 + a) * math.gamma(1 + b) / n ** (a + b)
            errs.append(abs(val - 1.0))
        assert errs[0] > errs[1] > errs[2]


class TestGammaLayer:
    """``math.lgamma`` underneath every Gamma value, against its declared
    second route ``scipy.special``."""

    def test_log_and_sign_match_scipy(self, rng):
        lattice = [s - k - d for s in (65, 201, 2001, 4001)
                   for d in (0.0, 0.5) for k in range(s)]
        x = np.concatenate([
            -rng.uniform(0.0, 40.0, 400),           # negative non-integers
            -np.arange(40) - 0.5, np.arange(4001) + 0.5,
            np.arange(1.0, 200.0), rng.uniform(1e-8, 3.0, 100), lattice])
        x = x[(x > 0) | (x != np.floor(x))]
        lg, sign = gammaln_signed(x)
        ref = sc.gammaln(x)
        assert np.all(np.abs(lg - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        assert np.array_equal(sign, sc.gammasgn(x))

    def test_poles(self):
        lg, sign = gammaln_signed([0.0, -1.0, -7.0])
        assert np.all(lg == np.inf) and np.all(sign == 0.0)
        scalar = gammaln_signed(2.5)
        assert np.ndim(scalar[0]) == 0 and scalar[1] == 1.0

    def test_gauss_sum_matches_scipy(self):
        # c - a = -1 is a pole of the denominator: the sum is 0
        for a, b, c in ((0.2, 0.2, 1.0), (0.3, -0.5, 1.2), (0.5, -0.5, 1.0),
                        (-1.3, 0.4, 0.6), (2.0, -1.5, 1.0)):
            ref = sc.gamma(c) * sc.gamma(c - a - b) \
                * sc.rgamma(c - a) * sc.rgamma(c - b)
            assert hyp2f1(a, b, c, 1.0) == pytest.approx(ref, rel=1e-13)

    def test_degenerate_lambda_weight_matches_scipy(self):
        # one parameter a non-negative integer n: the general prefactor
        # Gamma(1-q)/(Gamma(-b2)Gamma(1+b2)) times Gamma(q), q = 2+b1+b2, is
        # (-1)^{n+1} by reflection; at an integer b2 as well, Gamma(q) has a
        # pole and the weight is that sign times a polynomial
        z = complex(math.cos(1.0), math.sin(1.0))
        zc = np.conj(z)
        for b1, b2 in ((0.0, -2.5), (1.0, -3.5), (2.0, -4.5)):
            q = 2.0 + b1 + b2
            pref = sc.gamma(1.0 - q) * sc.gamma(q) * sc.rgamma(-b2) * sc.rgamma(1.0 + b2)
            ref = pref * z ** (1.0 + b1) * (1.0 - z) ** (-q)
            assert lambda_weight(b1, b2, z) == pytest.approx(ref, rel=1e-13)
            ref_swap = pref * zc ** (1.0 + b1) * (1.0 - zc) ** (-q)
            assert lambda_weight(b2, b1, z) == pytest.approx(ref_swap, rel=1e-13)
        for (b1, b2), poly in (((1.0, -4.0), lambda t: t ** 2 - t ** 3),
                               ((2.0, -4.0), lambda t: -t ** 3)):
            assert lambda_weight(b1, b2, z) == pytest.approx(poly(z), rel=1e-13)
            assert lambda_weight(b2, b1, z) == pytest.approx(poly(zc), rel=1e-13)


class TestConfluent:
    def test_at_zero(self):
        assert hyp1f1_M(0.5, -1.5, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_matches_standard_1f1(self):
        # the (1/2,-3/2) member is 1F1(3/2, 1; z)
        for z in (0.7, -1.3 + 0.4j, 2.0 + 1.0j, 0.5 + 30.0j):
            ref = complex(mpmath.hyp1f1(1.5, 1.0, z))
            assert big_m_pair(z)[0] == pytest.approx(ref, rel=1e-12)

    def test_derivative_relation_three_halves(self):
        z = 0.7
        assert hyp1f1_M(1.5, -1.5, z) == pytest.approx(
            (2.0 / 3.0) * big_m_pair(z)[1], rel=1e-12)

    def test_derivative_relation_one_half(self):
        z = -1.3 + 0.4j
        assert hyp1f1_M(0.5, -0.5, z) == pytest.approx(
            2.0 * (big_m_pair(z)[1] - big_m_pair(z)[0]), rel=1e-12)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            hyp1f1_M(0.5, -2.5, 1.0)  # gamma = 1+a+b = -1

    def test_negative_real_part_matches_mpmath(self):
        # the plain series would alternate for Re z < 0: the points at
        # Re z = -1, 0 and 3+4i sum it (|z| - Re z <= 6), the others take
        # the integral form, so one array holds both paths
        zs = [-20.0, -24.9, -20.0 + 10.0j, 0.0, 3.0 + 4.0j]
        for x in np.linspace(-24.9, -1.0, 12):
            top = min(10.0, abs(x), 0.99 * math.sqrt(625.0 - x * x))
            zs.extend(complex(x, y) for y in np.linspace(-top, top, 5))
        z = np.array(zs)
        m, dm = big_m_pair(z)
        with mpmath.workdps(40):
            ref_m = [complex(mpmath.hyp1f1(1.5, 1.0, zz)) for zz in zs]
            ref_d = [1.5 * complex(mpmath.hyp1f1(2.5, 2.0, zz)) for zz in zs]
        for k, zz in enumerate(zs):
            assert m[k] == pytest.approx(ref_m[k], rel=1e-12), zz
            assert dm[k] == pytest.approx(ref_d[k], rel=1e-12), zz

    def test_family_negative_real_part_matches_mpmath(self):
        for alpha, beta in ((0.5, -0.5), (1.5, -1.5), (-0.3, 0.8)):
            for z in (-8.0, -15.0 + 4.0j, -22.0 - 9.0j):
                with mpmath.workdps(40):
                    ref = complex(mpmath.hyp1f1(1.0 + alpha,
                                                2.0 + alpha + beta, z))
                assert hyp1f1_M(alpha, beta, z) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("alpha, beta", [(0.5, -1.5), (1.5, -1.5), (0.5, -0.5), (-0.3, 0.8),
                                             (-0.5, 0.0), (0.0, 0.0), (0.4, 0.0), (1.7, 0.0),
                                             (2.0, 0.0)])
    def test_family_past_the_series_matches_mpmath(self, alpha, beta):
        # the parameter sets of these tests and of e_gamma, past |z| = 60
        z = np.multiply.outer([60.001, 100.0, 1000.0],
                              np.exp(1j * np.linspace(-math.pi, math.pi, 49))).ravel()
        z = z[z.real < 700.0]
        val = hyp1f1_M(alpha, beta, z)
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.hyp1f1(1.0 + alpha, 2.0 + alpha + beta, zz))
                            for zz in z])
        assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-12

    def test_unserved_parameters_raise_past_the_series(self):
        # the expansion's 40th term at |z| = 60 is above 1e-16 of its first
        hyp1f1_M(5.0, -6.0, 59.0)
        with pytest.raises(DomainError, match="expansion"):
            hyp1f1_M(5.0, -6.0, [59.0, 61.0j])

    def test_series_stops_by_its_rule(self, rng):
        # each point stops by its own rule, also where the terms cancel
        # (20i, 25 + 30i): three term magnitudes in a row at |z| rounded up to
        # a multiple of 1/8 are at most 1e-16 of their running sum 1 + sum m;
        # its sums are then those of the naive one-point loop, bit for bit.
        # hyp1f1_M raises at the cancelling points, so the series is called
        # directly, with the parameters hyp1f1_M(0.5, -1.5) gives it
        z = np.concatenate([rng.uniform(0.0, 30.0, 200) + 1j * rng.uniform(-8.0, 8.0, 200),
                            [20j, 25.0 + 30.0j, 0.0, 59.9]])

        def one_point(zz):
            r, m, bound, quiet, n = math.ceil(8.0 * abs(zz)) / 8.0, 1.0, 1.0, 0, 0
            while quiet < 3:
                m *= abs((n + 1.5) / ((n + 1.0) * (n + 1.0))) * r
                bound += m
                quiet, n = quiet + 1 if m <= 1e-16 * bound else 0, n + 1
            term, val, zz = np.ones(1, complex), np.ones(1, complex), np.array([zz])
            for k in range(n):
                term = term * ((k + 1.5) / ((k + 1.0) * (k + 1.0))) * zz
                val = val + term
            return val[0]
        assert specfun._series(1.5, 1.0, 1.5, 1.0, z)[0].tolist() == [one_point(zz) for zz in z]

    def test_cancelling_series_raises(self):
        # 60i was off by a factor of 1e9 (-9.32e9+7.42e9j for -4.034-7.754j)
        # and 20i by 1e-9 relative; past |z| = 60 the expansion serves
        for z in (20j, 60j, [0.5, -25.0 + 30.0j], 3.0 + 59.0j):
            with pytest.raises(DomainError, match="cancel"):
                hyp1f1_M(0.5, -1.5, z)
        hyp1f1_M(0.5, -1.5, [60.001j, 54.0, -54.0 + 1.0j])

    @pytest.mark.parametrize("alpha, beta", [(0.5, -1.5), (1.5, -1.5), (0.5, -0.5), (-0.3, 0.8),
                                             (-0.5, 0.0), (0.0, 0.0), (0.4, 0.0), (1.7, 0.0),
                                             (2.0, 0.0)])
    def test_family_below_the_expansion_matches_mpmath(self, alpha, beta):
        # the parameter sets of these tests and of e_gamma on |z| <= 60: each
        # point either raises or is within 1e-12 of mpmath, the points just
        # inside the bound |z| - |Re z| <= 6 included
        z = np.multiply.outer([0.5, 3.0, 10.0, 25.0, 45.0, 59.99],
                              np.exp(1j * np.linspace(-math.pi, math.pi, 25))).ravel()
        r = np.array([6.5, 20.0, 40.0, 59.9])
        edge = np.sqrt(r * r - (r - 5.99) ** 2)
        z = np.concatenate([z] + [sx * (r - 5.99) + 1j * sy * edge for sx in (-1, 1)
                                  for sy in (-1, 1)])
        served = np.abs(z) - np.abs(z.real) <= 6.0
        for zz in z[~served]:
            with pytest.raises(DomainError, match="cancel"):
                hyp1f1_M(alpha, beta, zz)
        val = hyp1f1_M(alpha, beta, z[served])
        with mpmath.workdps(40):
            ref = np.array([complex(mpmath.hyp1f1(1.0 + alpha, 2.0 + alpha + beta, zz))
                            for zz in z[served]])
        assert np.max(np.abs(val - ref) / np.abs(ref)) <= 1e-12

    def test_ode_residual(self, rng):
        # z M'' + (1 - z) M' - (3/2) M = 0 for the (1/2,-3/2) member
        h = 3e-4
        for _ in range(25):
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if abs(z) > 5:
                continue
            m0 = big_m_pair(z)[0]
            f2, f1 = big_m_pair(z + 2 * h)[0], big_m_pair(z + h)[0]
            g1, g2 = big_m_pair(z - h)[0], big_m_pair(z - 2 * h)[0]
            d1 = (-f2 + 8 * f1 - 8 * g1 + g2) / (12 * h)
            d2 = (-f2 + 16 * f1 - 30 * m0 + 16 * g1 - g2) / (12 * h ** 2)
            res = z * d2 + (1 - z) * d1 - 1.5 * m0
            # finite differences lose ~eps/h^2 relative to the largest series
            # term, which is of order M(|z|) by positivity on the real axis
            scale = (1.0 + abs(z) ** 2) * abs(big_m_pair(abs(z))[0])
            assert abs(res) <= 1e-8 * max(1.0, scale)


def _mpmath_pair(zs):
    with mpmath.workdps(40):
        m = [complex(mpmath.hyp1f1(1.5, 1.0, complex(z))) for z in zs]
        d = [1.5 * complex(mpmath.hyp1f1(2.5, 2.0, complex(z))) for z in zs]
    return np.array(m), np.array(d)


class TestBigMOracle:
    """``big_m_pair`` against mpmath at 40 digits: 1e-12 relative in M and M'."""

    @staticmethod
    def check(zs):
        m, d = big_m_pair(zs)
        rm, rd = _mpmath_pair(zs)
        assert np.max(np.abs(m - rm) / np.abs(rm)) <= 1e-12
        assert np.max(np.abs(d - rd) / np.abs(rd)) <= 1e-12

    def test_square(self):
        x = np.linspace(-40.0, 40.0, 33)
        self.check((x[:, None] + 1j * x[None, :]).ravel())

    def test_band_near_imaginary_axis(self):
        # the series alone lost up to 1.4e-6 here
        self.check(0.5 + 1j * np.linspace(15.0, 24.9, 34))

    @pytest.mark.parametrize("r", [60.0, 100.0, 200.0])
    def test_large_modulus(self, r):
        self.check(r * np.exp(1j * np.linspace(-math.pi, math.pi, 73)))

    @pytest.mark.parametrize("r", [1e3, 1e4, 1e5])
    def test_rays_to_large_modulus(self, r):
        # directions where the values stay in the double range; on the
        # positive axis they leave it near 709 (test_past_double_range_raises)
        theta = np.array([0.0, 0.25, 0.5, 0.75, 1.0, -0.5, -0.9]) * math.pi
        for rr in r * np.array([0.1, 0.3, 1.0]):
            z = rr * np.exp(1j * theta)
            self.check(z[z.real < 700.0])

    def test_expansion_meets_the_midpoint_rule(self):
        # the two routes of 60 < |z| <= 120; the expansion is within 2e-15 of
        # mpmath here, the midpoint rule's rounding reaches 2.3e-13 in M'
        z = np.multiply.outer([60.001, 75.0, 90.0, 105.0, 120.0],
                              np.exp(1j * np.linspace(-math.pi, math.pi, 145))).ravel()
        expansion = specfun._large([(1.5, 1.0), (2.5, 2.0)], z) * [[1.0], [1.5]]
        midpoint = specfun._m_pair_integral(z)
        assert np.max(np.abs(expansion - midpoint)[0] / np.abs(expansion[0])) <= 1e-13
        assert np.max(np.abs(expansion - midpoint)[1] / np.abs(expansion[1])) <= 3e-13

    def test_cost_bounded_at_large_modulus(self, rng):
        z = 1e5 * np.exp(1j * rng.uniform(0.5 * math.pi, 1.5 * math.pi, 1000))
        start = time.perf_counter()
        big_m_pair(z)
        assert time.perf_counter() - start < 1.0

    @settings(max_examples=40, deadline=None)
    @given(points=st.lists(st.tuples(st.floats(-3.0, 5.0), st.floats(-math.pi, math.pi)),
                           min_size=1, max_size=24),
           real=st.booleans())
    def test_values_do_not_depend_on_the_batch(self, points, real):
        # every route in one array, alone each point gives the same bits
        z = np.array([10.0 ** e * complex(math.cos(t), math.sin(t)) for e, t in points])
        z = z[z.real < 700.0]
        if real:
            z = z.real.copy()
        m, d = big_m_pair(z)
        assert [big_m_pair(zz) for zz in z] == list(zip(m.tolist(), d.tolist()))

    @pytest.mark.parametrize("call", [lambda: big_m_pair([1.0, math.nan]),
                                      lambda: big_m_pair(complex(0.0, math.inf)),
                                      lambda: hyp1f1_M(0.5, -1.5, math.nan)])
    def test_non_finite_raises_at_once(self, call):
        # a NaN never meets the stopping rule: the series ran all its terms
        start = time.perf_counter()
        with pytest.raises(DomainError, match="finite"):
            call()
        assert time.perf_counter() - start < 0.2

    @pytest.mark.parametrize("call, z", [
        pytest.param(big_m_pair, z, id=str(z))
        for z in (720.0, 720.0 + 1.0j, 1000.0, 720.0 + 2000.0j)] + [
        pytest.param(lambda z: hyp1f1_M(0.5, -1.5, z), 720.0, id="hyp1f1_M-720.0")])
    def test_past_double_range_raises(self, call, z):
        # the series overflowed with a RuntimeWarning and carried on, and at
        # z = 1000 its NaN terms ran the loop to the term cap
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfiniteValueError, match="double range"):
                call([1.0, z])
        assert time.perf_counter() - start < 0.2

    def test_largest_real_argument_unchanged(self):
        pinned = (3.028980774531323e+305, 3.0311427868282705e+305)
        assert big_m_pair(700.0) == pinned
        rm, rd = _mpmath_pair([700.0])
        assert abs(pinned[0] - rm[0]) <= 1e-14 * abs(rm[0])
        assert abs(pinned[1] - rd[0]) <= 1e-14 * abs(rd[0])

    def test_kummer_past_the_series_matches_mpmath(self):
        # Kummer's series left the double range here before e^z damped it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = hyp1f1_M(0.5, -1.5, -1000.0 + 1.0j)
        assert abs(val - _mpmath_pair([-1000.0 + 1.0j])[0][0]) <= 1e-12 * abs(val)

    def test_large_arguments_import_no_mpmath(self):
        src = os.path.dirname(os.path.dirname(mahler.__file__))
        code = ("import sys; from mahler.specfun import big_m_pair; "
                "big_m_pair([30j, -40.0 + 35.0j, 200.0 - 80.0j, 26.0]); "
                "print('mpmath' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestConfluentDtype:
    """A real argument is evaluated in float64 and gives real values; a
    complex one takes the complex route, whose values are pinned below."""

    def test_kind_follows_the_argument(self):
        for call in (big_m_pair, lambda z: (hyp1f1_M(0.5, -0.5, z),)):
            for z in (0.7, -5.0, 3, [0.7, -5.0], np.array([1, 2]), np.zeros(0)):
                out = call(z)
                assert all(np.asarray(v).dtype == np.float64 for v in out)
                assert all(isinstance(v, float) for v in out) == (np.ndim(z) == 0)
            for z in (0.7 + 0j, [0.7, -5.0 + 1j], np.array([0.7, -5.0], dtype=complex),
                      np.zeros(0, dtype=complex)):
                out = call(z)
                assert all(np.asarray(v).dtype == np.complex128 for v in out)

    def test_complex_route_values_pinned(self):
        # each point's bits alone and in the array; within 1e-14 of mpmath
        z = np.array([0.7 + 0j, -5.0 + 0j, 3.0 + 4.0j, -20.0 + 10.0j, 650.0 - 0.5j])
        m, d = big_m_pair(z)
        pinned_m = [2.6633738669335476 + 0j, -0.047262518792478184 + 0j,
                    -14.850035302808697 - 50.04291727548339j,
                    -0.002148505058821616 - 0.0019997125928020564j,
                    4.939566497990122e+283 - 2.7009629279938116e+283j]
        pinned_d = [3.5208835153210005 + 0j, -0.015531622752010097 + 0j,
                    -19.334966501418474 - 52.147166439820175j,
                    -6.548817533592667e-05 - 0.00019982428020134263j,
                    4.94336483520495e+283 - 2.7030360740321245e+283j]
        assert m.tolist() == pinned_m and d.tolist() == pinned_d
        assert [big_m_pair(zz) for zz in z] == list(zip(pinned_m, pinned_d))
        rm, rd = _mpmath_pair(z)
        assert np.max(np.abs(m - rm) / np.abs(rm)) <= 1e-14
        assert np.max(np.abs(d - rd) / np.abs(rd)) <= 1e-14
        assert hyp1f1_M(0.5, -0.5, -5.0 + 0j) == 0.06346179208093618 + 0j
        assert hyp1f1_M(0.5, -0.5, 2.0 + 1j) == 3.2380863258707526 + 3.667680716766038j

    def test_series_path_is_real_part_of_complex_route(self):
        # |x| - x <= 6 and |x| <= 60: every real point from -3 to 60 takes the
        # series; past 60 the expansion's imaginary part is about e^-|x| x^2 of it
        x = np.linspace(-3.0, 60.0, 20001)
        for real, cplx in zip(big_m_pair(x), big_m_pair(x.astype(complex))):
            assert np.array_equal(real, cplx.real)
            assert not cplx.imag.any()
        x = np.concatenate([np.linspace(-1000.0, -60.5, 400), np.linspace(60.5, 700.0, 400)])
        for real, cplx in zip(big_m_pair(x), big_m_pair(x.astype(complex))):
            assert np.array_equal(real, cplx.real)
            assert np.all(np.abs(cplx.imag) <= 1e-20 * np.abs(cplx))

    def test_integral_path_within_rounding_of_complex_route(self):
        x = np.linspace(-60.0, -3.0, 2001)
        for real, cplx in zip(big_m_pair(x), big_m_pair(x.astype(complex))):
            assert np.max(np.abs(real - cplx.real) / np.abs(cplx)) <= 5e-16

    def test_real_arrays_match_mpmath(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 81), np.linspace(50.0, 700.0, 14)])
        m, d = big_m_pair(x)
        rm, rd = _mpmath_pair(x)
        assert m.dtype == d.dtype == np.float64
        assert np.max(np.abs(m - rm) / np.abs(rm)) <= 1e-12
        assert np.max(np.abs(d - rd) / np.abs(rd)) <= 1e-12


class TestEGamma:
    def test_at_zero(self):
        for g in (-0.5, 0.0, 1.7):
            assert e_gamma(g, 0.0) == pytest.approx(1.0, rel=1e-12)

    def test_order_zero_closed_form(self):
        for tau in (0.8, -1.5 + 0.6j):
            ref = (np.exp(tau) - 1.0) / tau
            assert e_gamma(0.0, tau) == pytest.approx(ref, rel=1e-12)

    def test_derivative_recursion(self):
        g, tau, h = 0.4, 0.9, 1e-6
        deriv = (e_gamma(g, tau + h) - e_gamma(g, tau - h)) / (2 * h)
        ref = (g + 1) / (g + 2) * e_gamma(g + 1, tau)
        assert deriv == pytest.approx(ref, abs=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            e_gamma(-1.0, 0.5)

    def test_matches_mpmath_hyp1f1(self):
        # (1+g) int_0^1 x^g e^{tau x} dx = 1F1(1+g; 2+g; tau), DLMF 13.4.1
        with mpmath.workdps(30):
            for g in (-0.5, 0.0, 0.4, 1.7, 2.0):
                for tau in (0.8, -1.5 + 0.6j, 3 + 2j, -10.0):
                    ref = complex(mpmath.hyp1f1(1 + g, 2 + g, tau))
                    assert abs(e_gamma(g, tau) - ref) <= 1e-14 * abs(ref)


class TestEPair:
    def test_at_zero(self):
        assert e_pair(0.5, -0.5, 0.5, -1.5, 0.0, 0.0) == pytest.approx(
            1.0, rel=1e-12)

    def test_divergent_weight_raises(self):
        # g = 2 + a1 + b1 + a2 + b2 <= -1: x^g is not integrable at 0
        for b2 in (-3.5, -4.2):
            with pytest.raises(DomainError, match="2\\+a1"):
                e_pair(0.5, -0.5, 0.5, b2, 0.1, 0.2)

    def test_swap_symmetry(self):
        v1 = e_pair(0.5, -0.5, 1.5, -1.5, 0.7 + 0.2j, -0.4)
        v2 = e_pair(1.5, -1.5, 0.5, -0.5, -0.4, 0.7 + 0.2j)
        assert v1 == pytest.approx(v2, rel=1e-12)

    def test_series_integration_oracle(self):
        # integrate the double series of the two confluent factors term by
        # term against x^gamma (exact moments), independent of quadrature
        a1, b1, a2, b2 = 0.5, -0.5, 0.5, -1.5
        g = 2 + a1 + b1 + a2 + b2
        g1, g2 = 1 + a1 + b1, 1 + a2 + b2

        def coeffs(alpha, gam, terms=60):
            c = np.zeros(terms)
            c[0] = 1.0
            for n in range(1, terms):
                c[n] = c[n - 1] * (n + alpha) / (n * (n + gam))
            return c

        c1, c2 = coeffs(a1, g1), coeffs(a2, g2)
        total = 0.0
        for m in range(60):
            for n in range(60):
                total += c1[m] * c2[n] * (1 + g) / (g + m + n + 1)
        assert e_pair(a1, b1, a2, b2, 1.0, 1.0) == pytest.approx(
            total, rel=1e-9)

    def test_matches_mpmath_quadrature(self):
        # the library sums the same double series, so the independent route
        # is a 30-digit quadrature of the product of two mpmath 1F1 factors
        def m(alpha, beta, z):
            return mpmath.hyp1f1(1 + alpha, 2 + alpha + beta, z)

        for a1, b1, a2, b2 in ((0.5, -0.5, 0.5, -1.5), (1.5, -1.5, 0.5, -0.5),
                               (0.3, 0.2, -0.4, 0.1)):
            g = 2 + a1 + b1 + a2 + b2
            for t1 in (0.0, 0.6, -2.0, 2j, -1.4 + 1.4j):
                for t2 in (-0.6, 2.0, 1.2 - 1.6j):
                    with mpmath.workdps(30):
                        ref = complex((1 + g) * mpmath.quad(
                            lambda x: x ** g * m(a1, b1, t1 * x) * m(a2, b2, t2 * x), [0, 1]))
                    val = e_pair(a1, b1, a2, b2, t1, t2)
                    assert abs(val - ref) <= 1e-13 * abs(ref)

    def test_domain_error_beyond_radius(self):
        e_pair(0.5, -0.5, 0.5, -1.5, 2.0, -2.0)
        for t1, t2 in ((2.01, 0.0), (0.0, -2.5), (1.5 + 1.5j, 0.3)):
            with pytest.raises(DomainError):
                e_pair(0.5, -0.5, 0.5, -1.5, t1, t2)


class TestGauss2F1:
    """The series behind the test-only circle weight (``identities``)."""

    def test_at_zero(self):
        assert hyp2f1(0.3, 1.2, 0.9, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_gauss_summation_at_one(self):
        b1 = b2 = -0.8
        ref = math.gamma(-1 - b1 - b2) / (math.gamma(-b1) * math.gamma(-b2))
        assert hyp2f1(1 + b1, 1 + b2, 1.0, 1.0) == pytest.approx(
            ref, rel=1e-9)

    def test_partial_sum_oracle(self):
        a, b, c, z = 0.4, 1.1, 2.3, 0.5
        term, total = 1.0, 1.0
        for n in range(50):
            term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
            total += term
        assert hyp2f1(a, b, c, z) == pytest.approx(total, rel=1e-10)

    def test_divergence_on_circle(self):
        with pytest.raises(DivergenceError):
            hyp2f1(1.0, 1.0, 1.5, complex(math.cos(1.0), math.sin(1.0)))


class TestLambdaWeight:
    """The test-only pointwise circle weight (``identities``), the second
    route of ``limits._lambda_fourier``."""

    def test_square_root_member(self):
        tau = 1j
        # sqrt(-tau) with the branch fixed by the defining series
        ref = complex(mpmath.sqrt(mpmath.mpc(0, -1)))
        val = lambda_weight(-0.5, -1.5, tau)
        assert val == pytest.approx(ref, rel=1e-10)

    def test_fourier_zero_mode_quadrature(self):
        b1, b2 = -0.6, -1.4
        ref = math.gamma(-b1 - b2 - 1) / (math.gamma(-b1) * math.gamma(-b2))

        def integrand(t):
            tv = np.atleast_1d(np.asarray(t, dtype=float))
            vals = np.array([lambda_weight(b1, b2, complex(math.cos(x),
                                                           math.sin(x)))
                             for x in tv])
            return np.real(vals)

        val, err = adaptive(integrand, -math.pi + 1e-13, math.pi - 1e-13,
                            tol=1e-10)
        assert val / (2 * math.pi) == pytest.approx(ref, abs=1e-8)

    def test_fourier_zero_mode_plain_trapezoid(self):
        b1, b2 = -0.6, -1.4
        ref = math.gamma(-b1 - b2 - 1) / (math.gamma(-b1) * math.gamma(-b2))
        # real b1, b2 give Lambda(conj zeta) = conj Lambda(zeta), so the real
        # part is even in theta and the symmetric midpoint grid needs only
        # its theta > 0 half
        for t in (0.3, 1.7, 2.9, 3.1):
            zeta = complex(math.cos(t), math.sin(t))
            val = lambda_weight(b1, b2, zeta)
            assert abs(lambda_weight(b1, b2, zeta.conjugate()) - val.conjugate()) <= 1e-12 * abs(val)
        n = 4096
        theta = (np.arange(n) + 0.5) * (2 * math.pi / n) - math.pi
        assert np.allclose(theta[n // 2:], -theta[n // 2 - 1::-1], rtol=0.0, atol=1e-14)
        vals = [lambda_weight(b1, b2, complex(math.cos(t), math.sin(t))).real
                for t in theta[n // 2:]]
        assert float(np.mean(vals)) == pytest.approx(ref, abs=5e-4)

    def test_conjugate_swap(self):
        b1, b2 = -0.7, -1.2
        z = complex(math.cos(2.0), math.sin(2.0))
        assert lambda_weight(b2, b1, z) == pytest.approx(
            lambda_weight(b1, b2, np.conj(z)), rel=1e-10)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            lambda_weight(-0.2, -0.3, 1j)

    def test_singular_point_signals_infinity(self):
        with pytest.raises(InfiniteValueError):
            lambda_weight(-0.6, -1.4, 1.0)


class TestOmega:
    def test_at_zero(self):
        assert omega(0.5, 0.0) == 1.0

    def test_negative_real_part(self):
        assert omega(0.5, -2 + 3j) == 1.0

    def test_indicator_limit(self):
        assert omega(0.0, -1e-12) == 1.0
        assert omega(0.0, 0.0) == 1.0
        assert omega(0.0, 1e-12) == 0.0

    def test_lam_guard(self):
        # lam < 0 or lam > 1 let a NaN lam through, and omega returned NaN
        for lam in (-0.1, 1.5, math.nan, math.inf):
            with pytest.raises(DomainError, match="lam"):
                omega(lam, 0.5)

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    def test_scalars_are_the_array_entries(self, lam):
        tau = np.array([-2.0, 0.0, 1e-12, 0.4 + 3.0j, 5.0, 800.0])
        got = omega(lam, tau)
        assert [omega(lam, t) for t in tau] == got.tolist()
        assert np.ndim(omega(lam, 0.4)) == 0

    @given(lam=st.floats(0.01, 1.0),
           re=st.floats(-10, 10), im=st.floats(-10, 10))
    def test_bounds(self, lam, re, im):
        val = omega(lam, complex(re, im))
        assert 0.0 <= val <= 1.0
        if re <= 0:
            assert val == 1.0

    def test_finite_size_approximant_converges(self):
        tau, lam = 1 + 1j, 1.0
        target = omega(lam, tau)
        errs = []
        for n in (20, 80, 320):
            s = n / lam
            errs.append(abs(max(1.0, abs(1 + tau / n)) ** (-s) - target))
        assert errs[0] > errs[1] > errs[2]


class TestIota:
    def test_values(self):
        assert iota(1 + 2j) == 1j
        assert iota(1 - 2j) == -1j
        assert iota(3.0) == 0j
