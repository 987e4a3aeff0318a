import math

import mpmath
import numpy as np
import pytest

from mahler.errors import DomainError, PoleError
from mahler.kernel import sum_k
from mahler.limits import (LimitKernelSpec, _lambda_fourier, a_disk,
                           a_outside, a_xi,
                           a_xi_iform, ad_disk, ad_outside, ad_xi,
                           assemble_matrix, asymptotic_real_counts,
                           b_outside, compare_report, convergence_report,
                           da_disk, da_outside, da_xi, dad_disk, disk_handle,
                           dsn_limit, k_zeta, kappa_xi, kasymp_report,
                           outside_handle, ratio_sums_report, sqrt_minus_tau,
                           sum_inside_limit, xi_handle)
from mahler.specfun import iota


class TestCircleComplexKernel:
    def test_at_origin(self):
        for lam in (0.0, 0.5, 1.0):
            val = k_zeta(lam, 1j, 0.0, 0.0)
            assert val == pytest.approx((0.5 - lam / 3.0) / math.pi,
                                        rel=1e-12)

    def test_hermitian_symmetry(self):
        lam, zeta = 0.7, 1j
        z, w = 0.4 + 0.3j, -0.2 + 0.6j
        assert k_zeta(lam, zeta, z, w) == pytest.approx(
            np.conj(k_zeta(lam, zeta, w, z)), rel=1e-13)

    def test_rotation_covariance(self):
        lam = 1.0
        zeta = complex(math.cos(1.0), math.sin(1.0))
        z, w = 0.4 + 0.3j, -0.2 + 0.6j
        base = abs(k_zeta(lam, zeta, z, w))
        for theta in (0.7, 2.3):
            rot = complex(math.cos(theta), math.sin(theta))
            val = abs(k_zeta(lam, zeta * rot, z * rot, w * rot))
            assert val == pytest.approx(base, rel=1e-12, abs=1e-15)


class TestCircleRealKernel:
    def test_diagonal_vanishes(self):
        assert kappa_xi(1.0, 1.0, 0.4, 0.4) == pytest.approx(0.0, abs=1e-15)

    def test_antisymmetry(self):
        u, v = 0.5, -0.3 + 0.4j
        assert kappa_xi(0.5, -1.0, u, v) == pytest.approx(
            -kappa_xi(0.5, -1.0, v, u), rel=1e-14)

    def test_complex_intensity_vanishes_toward_axis(self):
        vals = []
        for im in (0.4, 0.2, 0.1):
            z = complex(0.3, im)
            vals.append((iota(z) * kappa_xi(1.0, 1.0, z, np.conj(z))).real)
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_antiderivative_diagonal_vanishes(self):
        assert a_xi(0.5, 1.0, -0.4, -0.4) == pytest.approx(0.0, abs=1e-13)

    def test_antiderivative_integral_form(self):
        # the single-integral form needs a*xi, b*xi < 0
        for xi, a, b in ((1.0, -0.7, -0.2), (-1.0, 0.7, 0.2)):
            assert a_xi(0.5, xi, a, b) == pytest.approx(
                a_xi_iform(0.5, xi, a, b), abs=1e-8)

    def test_slot_derivatives_match_finite_differences(self):
        # a*xi > 0 puts the damped side omega < 1 into play when lam > 0
        h = 1e-5
        for xi in (1.0, -1.0):
            for lam in (0.5, 1.0):
                for a, b in ((-0.6, -0.25), (0.7, -0.4), (-1.5, 2.0),
                             (3.0, 1.2)):
                    fd_da = (a_xi(lam, xi, a + h, b)
                             - a_xi(lam, xi, a - h, b)) / (2 * h)
                    fd_ad = (a_xi(lam, xi, a, b + h)
                             - a_xi(lam, xi, a, b - h)) / (2 * h)
                    assert da_xi(lam, xi, a, b) == pytest.approx(fd_da, abs=1e-8)
                    assert ad_xi(lam, xi, a, b) == pytest.approx(fd_ad, abs=1e-8)


class TestInsideDiskKernel:
    def test_diagonal_vanishes(self):
        assert a_disk(0.3, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_branch_matches_defining_series(self):
        # -(2/pi) sum tau^m / (2m-1) converges conditionally on the circle;
        # averaging the symmetric partial sums over one period of the
        # coefficient oscillation gives a stable evaluation
        tau = 1j
        total = -2.0 / math.pi * sum((tau ** m + tau ** (-m) * (2 * m - 1)
                                      / (-2 * m - 1)) / (2 * m - 1)
                                     for m in range(1, 1997))
        total += -2.0 / math.pi * (1.0 / -1.0)
        partials = []
        for m in range(1997, 2001):
            total += -2.0 / math.pi * (tau ** m / (2 * m - 1)
                                       + tau ** (-m) / (-2 * m - 1))
            partials.append(total)
        series = sum(partials) / 4.0
        assert sqrt_minus_tau(tau) == pytest.approx(series, abs=1e-6)

    def test_slot_derivatives_match_finite_differences(self):
        h = 1e-5
        u, v = 0.3, -0.45
        fd_da = (a_disk(u + h, v) - a_disk(u - h, v)) / (2 * h)
        fd_ad = (a_disk(u, v + h) - a_disk(u, v - h)) / (2 * h)
        fd_dad = (da_disk(u, v + h) - da_disk(u, v - h)) / (2 * h)
        assert da_disk(u, v) == pytest.approx(fd_da, abs=1e-8)
        assert ad_disk(u, v) == pytest.approx(fd_ad, abs=1e-8)
        assert dad_disk(u, v) == pytest.approx(fd_dad, abs=1e-7)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            a_disk(1.2, 0.3)


class TestOutsideKernel:
    def test_antisymmetry(self):
        c = 1.0
        u, v = 1.4, 1.9
        assert b_outside(c, u, v) == pytest.approx(-b_outside(c, v, u),
                                                   rel=1e-13)

    def test_infinite_c_vanishes(self):
        assert a_outside(math.inf, 1.5, 2.0) == 0.0
        assert b_outside(math.inf, 1.5, 2.0) == 0.0

    def test_dsn_infinite_c(self):
        val = dsn_limit(1.0, math.inf, 1.4, 1.8)
        ref = (1.0 / math.pi) / (1.4 * 1.8 - 1.0) * (1.8 - 1.4) \
            / (math.sqrt(1.4 ** 2 - 1) * math.sqrt(1.8 ** 2 - 1))
        assert val == pytest.approx(ref, rel=1e-12)

    def test_slot_derivatives_match_finite_differences(self):
        c, h = 1.0, 1e-5
        for x, y in ((1.5, 2.0), (-1.5, 2.0), (1.5, -2.0), (-1.5, -2.0)):
            fd_da = (a_outside(c, x + h, y) - a_outside(c, x - h, y)) / (2 * h)
            fd_ad = (a_outside(c, x, y + h) - a_outside(c, x, y - h)) / (2 * h)
            assert da_outside(c, x, y) == pytest.approx(fd_da, abs=1e-7)
            assert ad_outside(c, x, y) == pytest.approx(fd_ad, abs=1e-7)

    def test_negative_trace_sign(self):
        # the square-root trace is negative on the negative real axis, so
        # the diagonal-limit density stays positive on both sides
        for x in (1.5, -1.5):
            z = complex(x, 0.3)
            val = (iota(z) * b_outside(1.0, z, np.conj(z))).real
            assert val > 0.0

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            b_outside(1.0, 0.5, 1.5)


class TestAssembly:
    def test_real_diagonal_vanishes(self):
        K = assemble_matrix(xi_handle(0.5, 1.0), -0.4, -0.4)
        assert K.e11 == pytest.approx(0.0, abs=1e-13)

    def test_transpose_rule(self):
        handle = disk_handle()
        z, y = 0.2 + 0.3j, -0.4
        K1 = assemble_matrix(handle, z, y)
        K2 = assemble_matrix(handle, y, z)
        assert K1.e11 == pytest.approx(-K2.e11, rel=1e-13, abs=1e-15)
        assert K1.e12 == pytest.approx(-K2.e21, rel=1e-13, abs=1e-15)
        assert K1.e21 == pytest.approx(-K2.e12, rel=1e-13, abs=1e-15)
        assert K1.e22 == pytest.approx(-K2.e22, rel=1e-13, abs=1e-15)

    def test_complex_diagonal_intensity(self):
        handle = xi_handle(1.0, 1.0)
        from mahler.kernel import pfaffian
        for z in (0.3 + 0.4j, -0.5 + 0.2j):
            K = assemble_matrix(handle, z, z)
            A = np.array([[K.e11, K.e12], [K.e21, K.e22]])
            pf = pfaffian(0.5 * (A - A.T))
            ref = (iota(z) * kappa_xi(1.0, 1.0, z, np.conj(z))).real
            assert pf.real == pytest.approx(ref, rel=1e-10)
            assert pf.real >= 0.0


class TestAsymptoticCounts:
    def test_bounded_gap_regime(self):
        big = 10 ** 7
        counts = asymptotic_real_counts(big, big + 2.0)
        assert counts.regime == "gap_bounded"
        assert counts.e_in == pytest.approx(math.log(big) / math.pi,
                                           rel=1e-12)
        assert counts.e_out == pytest.approx(math.log(big) / math.pi,
                                             rel=0.1)

    def test_power_gap_regime(self):
        alpha = 0.5
        big = 10 ** 8
        counts = asymptotic_real_counts(big, big + big ** (1 - alpha))
        assert counts.e_out == pytest.approx(
            alpha * math.log(big) / math.pi, rel=0.1)

    def test_bounded_ratio_regime(self):
        for big in (10 ** 4, 10 ** 6):
            counts = asymptotic_real_counts(big, 4.0 * big)
            assert counts.regime == "ratio_below_one"
            assert abs(counts.e_out) <= 2.0 * math.sqrt(big / (4.0 * big))


class TestCircleWeightCoefficients:
    @pytest.mark.parametrize("b1,b2", [(-0.6, -1.4), (0.5, -2.3), (1.5, -3.2)])
    def test_fourier_coefficients_match_mpmath(self, b1, b2):
        # Gamma(m+1+b2) is negative at m = 1 for b2 = -2.3 and at m = 2 for
        # b2 = -3.2, so these coefficients check the sign of the quotient
        m = np.arange(-8, 9)
        got = _lambda_fourier(b1, b2, m)
        G = mpmath.gamma
        with mpmath.workdps(30):
            for mm, val in zip(m.tolist(), got):
                c1, c2, k = (b2, b1, -mm) if mm < 0 else (b1, b2, mm)
                ref = G(-c1 - c2 - 1) * G(k + 1 + c2) \
                    / (G(-c2) * G(1 + c2) * G(k - c1))
                assert val == pytest.approx(float(ref), rel=1e-13)

    def test_inside_limit_matches_finite_sums(self):
        a1, b1, a2, b2, z, w = 0.5, 0.5, 1.5, -2.3, 0.3, 0.2
        lim = sum_inside_limit(a1, b1, a2, b2, z, w)
        err = {N: abs(sum_k(N, a1, b1, a2, b2, z, w) - lim) for N in (256, 1024)}
        assert err[1024] < 0.01
        assert err[1024] < err[256]

    def test_gamma_pole_raises_pole_error(self):
        with pytest.raises(PoleError):
            sum_inside_limit(0.5, 0.5, 1.5, -2.0, 0.3, 0.2)


class TestConvergenceHarness:
    def test_spec_validation(self):
        with pytest.raises(DomainError):
            LimitKernelSpec("circle_complex", lam=1.0, anchor=1.0)  # +-1
        with pytest.raises(DomainError):
            LimitKernelSpec("circle_real", lam=1.0, anchor=0.5)

    def test_report_errors_decrease(self):
        spec = LimitKernelSpec("circle_real", lam=1.0, anchor=1.0)
        rows = convergence_report(spec, [(0.5, -0.3)], (8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    def test_ratio_sums_errors_decrease(self):
        rows = ratio_sums_report((8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    def test_partial_sum_limits_errors_decrease(self):
        rows = kasymp_report((8, 16))
        assert rows[0]["sup_error"] > rows[1]["sup_error"]

    def test_n_list_guard(self):
        spec = LimitKernelSpec("circle_real", lam=1.0, anchor=1.0)
        with pytest.raises(DomainError):
            convergence_report(spec, [(0.5, -0.3)], (16, 8))
        for bad in ([], (8, 8), (8, 128)):
            with pytest.raises(DomainError):
                convergence_report(spec, [(0.5, -0.3)], bad)

    def test_oscillatory_comparison_converges_along_doublings(self):
        # the large-height limit of the paired-confluent expression is
        # approached in an oscillating fashion (period 2 pi in the height);
        # the doubling subsequence {10, 20, 40} decreases only because of
        # where the oscillation's phase falls at these heights (at Re z = 0
        # the error is 0.00056 at height 30 but 0.0025 at height 40)
        rows = compare_report(im_list=(10.0, 20.0, 40.0), re_list=(0.0, 0.5))
        errs = [r["sup_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]
        # the oscillation belongs to the quantity, not to the implementation:
        # high-precision evaluation gives the same errors, equally not
        # monotone along {5, 10, 20}
        heights = (5.0, 10.0, 20.0)
        lib = [r["sup_error"]
               for r in compare_report(im_list=heights, re_list=(0.0, 0.5))]
        ref = []
        with mpmath.workdps(30):
            for h in heights:
                errs_h = []
                for x in (0.0, 0.5):
                    z = mpmath.mpc(x, h)
                    zc = mpmath.conj(z)
                    M, Mc = mpmath.hyp1f1(1.5, 1, z), mpmath.hyp1f1(1.5, 1, zc)
                    Mp = 1.5 * mpmath.hyp1f1(2.5, 2, z)
                    Mpc = 1.5 * mpmath.hyp1f1(2.5, 2, zc)
                    val = 1j / 4 * (Mp * Mc - M * Mpc)
                    errs_h.append(abs(val - mpmath.exp(2 * x) / mpmath.pi))
                ref.append(float(max(errs_h)))
        assert lib == pytest.approx(ref, abs=1e-6)
        assert not ref[0] > ref[1] > ref[2]
