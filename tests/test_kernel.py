import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import gammaln, gammasgn

from identities import (adaptive_by_panels, block_by_pairs, complex_count_quadrature,
                        pfaffian_full_swap)
import mahler.kernel as kernel_module
from mahler.errors import DomainError, NotAntisymmetricError, OddDimensionError, ResidualError
from mahler.kernel import (EnsembleParams, PointConfig, _side, _tables, block,
                           correlation, expected_counts, expected_in_exact,
                           expected_out_exact, intensity_complex,
                           intensity_real, kappa_n, matrix_kernel, pfaffian,
                           skew_pair, sum_k)
from mahler.polys import p_poly
from mahler.specfun import iota
from mahler.volume import gram_matrix


class TestSumK:
    def test_single_term(self):
        assert sum_k(1, 0.3, -0.4, 1.1, 0.2, 0.7 + 0.1j, -0.5) == \
            pytest.approx(1.0, rel=1e-14)

    def test_coefficient_convolution_oracle(self):
        a1, b1, a2, b2 = 0.5, -0.5, 1.5, -1.5
        z, w = 0.4 + 0.3j, -0.6
        total = 0.0
        for n in range(3):
            p1 = np.array(p_poly(n, a1, b1).coeffs)
            p2 = np.array(p_poly(n, a2, b2).coeffs)
            v1 = sum(c * z ** k for k, c in enumerate(p1))
            v2 = sum(c * w ** k for k, c in enumerate(p2))
            total += v1 * v2
        assert sum_k(3, a1, b1, a2, b2, z, w) == pytest.approx(total,
                                                               rel=1e-12)

    def test_origin_limit_monotone(self):
        b1 = b2 = -0.8
        target = math.gamma(-1 - b1 - b2) / (math.gamma(-b1)
                                             * math.gamma(-b2))
        errs = [abs(sum_k(N, 0.5, b1, 0.5, b2, 0.0, 0.0) - target)
                for N in (8, 32, 128)]
        assert errs[0] > errs[1] > errs[2]

    def test_arrays_match_scalars(self):
        z = np.array([0.3, -0.5 + 0.2j, 1.1j])
        w = np.array([0.7, 0.2, -0.4 - 0.1j])
        got = sum_k(12, 0.5, -0.5, 1.5, -1.5, z, w)
        assert got.shape == (3,)
        assert got == pytest.approx([sum_k(12, 0.5, -0.5, 1.5, -1.5, a, b)
                                     for a, b in zip(z, w)], rel=1e-14)


class TestGuards:
    def test_domain_exits(self):
        calls = [lambda: EnsembleParams(0, 5.0), lambda: EnsembleParams(4, 4.0),
                 lambda: PointConfig((0.5,), (0.3 - 0.2j,)), lambda: PointConfig((), (0.3,)),
                 lambda: PointConfig((), (complex(0.1, math.nan),)),
                 lambda: intensity_real(EnsembleParams(4, 8.0), 1 + 1j),
                 lambda: pfaffian(np.zeros((2, 4))),
                 lambda: expected_counts(EnsembleParams(4, 8.0), "everywhere"),
                 lambda: expected_in_exact(5, 8.0), lambda: expected_out_exact(5, 8.0)]
        for call in calls:
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_raise_quietly(self, bad):
        # matrix_kernel(P, nan, 0.5) returned NaN, and at inf numpy warned first
        P = EnsembleParams(7, 9.5)
        calls = [lambda: matrix_kernel(P, bad, 0.5), lambda: matrix_kernel(P, 0.3, complex(0.2, bad)),
                 lambda: matrix_kernel(P, np.array([0.1, bad]), 0.5j),
                 lambda: intensity_real(P, [0.2, bad]),
                 lambda: intensity_complex(P, complex(bad, 1.0)),
                 lambda: kappa_n(P, 0.2, bad), lambda: correlation(P, PointConfig((bad,), ())),
                 lambda: pfaffian([[0.0, bad], [-bad, 0.0]]),
                 lambda: sum_k(4, 0.5, -0.5, 0.5, -0.5, bad, 0.3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(DomainError, match="finite"):
                    call()

    def test_integer_points_are_real_points(self):
        # integer points made integer powers, which wrapped silently at N = 64:
        # the (1,1) entry at (3, 2) read 3.3e-14 for -2.5e-3
        P = EnsembleParams(64, 65.0)
        assert matrix_kernel(P, 3, 2) == matrix_kernel(P, 3.0, 2.0)
        assert kappa_n(P, 3, np.array([2, -4])).tolist() == kappa_n(P, 3.0, [2.0, -4.0]).tolist()

    def test_imaginary_residual_raises(self, monkeypatch):
        monkeypatch.setattr(kernel_module, "pfaffian", lambda A: 1.0 + 1e-3j)
        with pytest.raises(ResidualError):
            correlation(EnsembleParams(4, 8.0), PointConfig((0.3,), (0.2 + 0.5j,)))


def _ratio(k, a):
    """``Gamma(k+1+a) / (Gamma(1+a) Gamma(k+1))`` from scipy's log-Gamma."""
    x = (k + 1.0 + a, 1.0 + a, k + 1.0)
    sign = gammasgn(x[0]) * gammasgn(x[1])
    return sign * np.exp(gammaln(x[0]) - gammaln(x[1]) - gammaln(x[2]))


class TestTables:
    """Second route for the coefficient matrices of ``_tables``: each row
    built on its own from scipy's Gamma layer, with the odd-N correction."""

    @staticmethod
    def _rows(N, s):
        J, K = N // 2, N - N // 2
        even = np.zeros((K, K))
        odd = np.zeros((J, J))
        for j in range(K):
            k = np.arange(j + 1.0)
            even[j, :j + 1] = _ratio(k, 0.5) * _ratio(j - k, -0.5)
        for j in range(J):
            k = np.arange(j + 1.0)
            factor = 0.25 if math.isinf(s) else (s - 2.0 * k - 2.0) / (4.0 * s)
            odd[j, :j + 1] = factor * _ratio(k, 0.5) * _ratio(j - k, -1.5)
        if N % 2:
            n = np.arange(J + 1.0)
            s2 = 2.0 * np.ones(J + 1) if math.isinf(s) else 2.0 * np.exp(
                gammaln((s + 2.0) / 2.0) + gammaln((s - 2.0 * n - 1.0) / 2.0)
                - gammaln((s + 1.0) / 2.0) - gammaln((s - 2.0 * n) / 2.0))
            even[:J] -= np.outer(s2[:J] / s2[J], even[J])
        return even, odd

    @pytest.mark.parametrize("N", [1, 2, 3, 15, 16, 64])
    @pytest.mark.parametrize("kind", ["plus", "inf"])
    def test_rows_match_per_row_gamma_route(self, N, kind):
        s = N + 1.5 if kind == "plus" else math.inf
        tab = _tables(N, s)
        for got, ref in zip((tab.even, tab.odd), self._rows(N, s)):
            assert got.shape == ref.shape
            for j, (row_got, row_ref) in enumerate(zip(got, ref)):
                # either route rounds exp of a sum of log-Gammas as large as
                # lgamma(j + 2), about eps * lgamma(j + 2) relative; 1e-14
                # holds to j = 12, and at j = 31 both sit 1.4e-14 and 1.9e-14
                # from 40-digit mpmath
                tol = max(1e-14, 4e-16 * math.lgamma(j + 2.0))
                scale = np.max(np.abs(row_ref))
                assert np.max(np.abs(row_got - row_ref)) <= tol * scale


class TestKappaN:
    def test_antisymmetry(self):
        P = EnsembleParams(4, 9.0)
        u, v = 0.3 + 0.2j, -0.5 + 0.7j
        assert kappa_n(P, u, v) == pytest.approx(-kappa_n(P, v, u),
                                                 rel=1e-14)

    def test_degree_two_closed_form(self):
        s = 5.0
        P = EnsembleParams(2, s)
        for u, v in ((0.3, -0.8), (0.5j, 0.9), (0.2 + 0.1j, -0.4 + 0.6j)):
            assert kappa_n(P, u, v) == pytest.approx(
                (s - 2) / (2 * s) * (v - u), rel=1e-12)

    def test_gram_inverse_cross_check(self):
        # kappa equals -2 w(u) w(v) sum mu_{mn} u^{m-1} v^{n-1} with mu the
        # inverse of the monomial Gram matrix
        N, s = 4, 9.0
        P = EnsembleParams(N, s)
        mu = np.linalg.inv(gram_matrix(N, s))
        for u, v in ((0.4, -0.7), (0.2, 0.9)):
            total = 0.0
            for m in range(1, N + 1):
                for n in range(1, N + 1):
                    total += mu[m - 1, n - 1] * u ** (m - 1) * v ** (n - 1)
            ref = -2.0 * total  # weights are 1 inside the disk
            assert kappa_n(P, u, v) == pytest.approx(ref, rel=1e-8)


class TestMatrixKernel:
    def test_coincident_real_point(self):
        P = EnsembleParams(4, 9.0)
        K = matrix_kernel(P, 0.3, 0.3)
        assert K.e11 == pytest.approx(0.0, abs=1e-14)
        assert K.e21 == pytest.approx(-K.e12, rel=1e-13)

    def test_complex_entry_is_conjugated_kappa(self):
        P = EnsembleParams(4, 9.0)
        z, w = 0.3 + 0.2j, 0.1 - 0.5j
        K = matrix_kernel(P, z, w)
        assert K.e12 == pytest.approx(iota(w) * kappa_n(P, z, np.conj(w)),
                                      rel=1e-13)

    def test_degree_two_diagonal_closed_form(self):
        s = 5.0
        P = EnsembleParams(2, s)
        for x in (-0.8, 0.0, 0.4, 0.9):
            K = matrix_kernel(P, x, x)
            pf = pfaffian(np.array([[0, K.e12], [K.e21, 0]])
                          + np.array([[K.e11, 0], [0, K.e22]]) * 0)
            ref = 0.25 + (s - 2) / (4 * s) * x * x
            assert K.e12.real == pytest.approx(ref, rel=1e-12)
            assert pf == pytest.approx(ref, rel=1e-12)


    @pytest.mark.parametrize("N", [4, 5, 16])
    @pytest.mark.parametrize("s_kind", ["finite", "inf"])
    def test_eps_slots_by_finite_difference(self, N, s_kind):
        # eps f(y) = (1/2) int f(t) sgn(t - y) dt has derivative -f(y), so
        # d/dv K12(u, v) = -K11(u, v) for real v and d/du K22(u, v) =
        # -K12(u, v) for real u: a second route to the real-point eps values
        P = EnsembleParams(N, N + 1.5 if s_kind == "finite" else math.inf)
        h = 1e-5
        reals = (0.3, -0.6, 1.7, -2.4)
        for x in reals:
            for p in reals + (0.4 + 0.7j,):
                if p == x:
                    continue
                d12 = (matrix_kernel(P, p, x + h).e12
                       - matrix_kernel(P, p, x - h).e12) / (2 * h)
                ref = -matrix_kernel(P, p, x).e11
                assert abs(d12 - ref) <= 1e-8 * max(1.0, abs(ref))
                d22 = (matrix_kernel(P, x + h, p).e22
                       - matrix_kernel(P, x - h, p).e22) / (2 * h)
                ref = -matrix_kernel(P, x, p).e12
                assert abs(d22 - ref) <= 1e-8 * max(1.0, abs(ref))


class TestPfaffian:
    def test_two_by_two(self):
        a = 3.7
        assert pfaffian(np.array([[0.0, a], [-a, 0.0]])) == pytest.approx(a)

    def test_square_is_determinant(self, rng):
        for _ in range(10):
            A = rng.standard_normal((6, 6))
            A = A - A.T
            assert pfaffian(A) ** 2 == pytest.approx(np.linalg.det(A),
                                                     rel=1e-9)

    def test_congruence_rule(self, rng):
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            A = A - A.T
            B = rng.standard_normal((4, 4))
            lhs = pfaffian(B @ A @ B.T)
            assert lhs == pytest.approx(pfaffian(A) * np.linalg.det(B),
                                        rel=1e-9, abs=1e-12)

    def test_guards(self):
        with pytest.raises(OddDimensionError):
            pfaffian(np.zeros((3, 3)))
        with pytest.raises(NotAntisymmetricError):
            pfaffian(np.ones((2, 2)))

    def test_real_arithmetic_matches_complex(self, rng):
        # a real matrix is eliminated in real arithmetic, with the same values
        # as the complex elimination the Gram Pfaffians were computed with
        for n in (2, 6, 16, 40):
            A = rng.standard_normal((n, n))
            A = A - A.T
            assert pfaffian(A) == pfaffian(A.astype(complex))

    def test_empty_is_one(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0 + 0.0j

    def test_trailing_swap_matches_full_swap(self, rng):
        # a pivot swap moves only the trailing block, rows and columns k:, as
        # the eliminated part is never read again: bit for bit the full swap
        mats = [gram_matrix(N, s) for N, s in ((8, 9.0), (16, 32.0), (32, 33.0), (64, 128.0))]
        for n in (2, 4, 6, 10, 16, 32, 64, 128):
            for _ in range(6):
                A = rng.standard_normal((n, n))
                B = A + 1j * rng.standard_normal((n, n))
                mats += [A - A.T, B - B.T]
        for M in mats:
            assert pfaffian(M) == pfaffian_full_swap(M)


class TestCorrelation:
    def test_single_real_point_is_density(self):
        P = EnsembleParams(4, 9.0)
        x = 0.4
        K = matrix_kernel(P, x, x)
        assert correlation(P, PointConfig((x,), ())) == pytest.approx(
            K.e12.real, rel=1e-12)

    def test_single_complex_point_is_density(self):
        P = EnsembleParams(4, 9.0)
        z = 0.3 + 0.4j
        ref = (iota(z) * kappa_n(P, z, np.conj(z))).real
        assert correlation(P, PointConfig((), (z,))) == pytest.approx(
            ref, rel=1e-12)

    def test_two_point_real_correlation_nonnegative(self):
        # orientation of the sign term in the (2,2) entry: the two-point
        # real density must be symmetric and nonnegative
        P = EnsembleParams(2, 5.0)
        grid = (-0.9, -0.4, 0.1, 0.5, 0.8)
        for x in grid:
            for y in grid:
                if x == y:
                    continue
                r_xy = correlation(P, PointConfig((x, y), ()))
                r_yx = correlation(P, PointConfig((y, x), ()))
                assert r_xy >= -1e-9
                assert r_xy == pytest.approx(r_yx, rel=1e-10, abs=1e-12)

    def test_far_separated_points_factorize(self):
        P = EnsembleParams(4, 5.0)
        x, y = -2.0, 2.0
        joint = correlation(P, PointConfig((x, y), ()))
        product = correlation(P, PointConfig((x,), ())) \
            * correlation(P, PointConfig((y,), ()))
        assert joint == pytest.approx(product, rel=0.05)

    def test_conjugation_invariance(self):
        # replacing a point by its conjugate leaves the joint density of the
        # conjugate-symmetric root set unchanged
        P = EnsembleParams(6, 13.0)

        def density(pts):
            return pfaffian(block_by_pairs(P, pts)).real

        z, w = 0.3 + 0.4j, -0.2 + 0.6j
        base = density([0.1, z, w])
        flipped = density([0.1, z, np.conj(w)])
        assert flipped == pytest.approx(base, rel=1e-10)

    def test_empty_configuration_is_one(self):
        assert correlation(EnsembleParams(4, 9.0), PointConfig((), ())) == 1.0

    @pytest.mark.parametrize("N, s", [(5, 6.5), (7, 14.0), (8, 8.5), (16, 32.0),
                                      (6, math.inf), (15, math.inf)])
    @pytest.mark.parametrize("species", ["real", "complex", "mixed"])
    def test_matches_pairwise_blocks(self, N, s, species, rng):
        # the broadcast block assembly against one matrix_kernel call per pair
        P = EnsembleParams(N, s)
        for _ in range(4):
            n_up = {"real": 0, "complex": 2, "mixed": 1}[species]
            n_re = {"real": min(N, 5), "complex": 0, "mixed": 3}[species]
            reals = tuple(rng.uniform(-1.8, 1.8, n_re).tolist())
            uppers = tuple(complex(a, b) for a, b in zip(rng.uniform(-1.5, 1.5, n_up),
                                                        rng.uniform(0.05, 1.5, n_up)))
            one = math.prod(abs(correlation(P, PointConfig((x,), ()))) for x in reals) \
                * math.prod(abs(correlation(P, PointConfig((), (z,)))) for z in uppers)
            ref = pfaffian(block_by_pairs(P, reals + uppers)).real
            assert abs(correlation(P, PointConfig(reals, uppers)) - ref) <= 1e-12 * one

    def test_order_guard(self):
        P = EnsembleParams(2, 5.0)
        with pytest.raises(DomainError):
            correlation(P, PointConfig((0.1, 0.2), (0.3 + 0.4j,)))

    def test_phase_bookkeeping_outside_points(self):
        # attaching unimodular phases (|z|/z)^N to each argument is a
        # congruence by a unit-determinant diagonal and must not change
        # the correlation of outside points
        N = 4
        P = EnsembleParams(N, 9.0)
        pts = [1.5, 1.2 + 0.8j, np.conj(1.2 + 0.8j), -1.1 + 1.3j,
               np.conj(-1.1 + 1.3j)]
        A = block_by_pairs(P, pts)
        d = []
        for z in pts:
            phase = (abs(z) / z) ** N
            d.extend([phase, phase])
        D = np.diag(d)
        hatted = D @ A @ D.T
        hatted = 0.5 * (hatted - hatted.T)
        assert pfaffian(hatted) == pytest.approx(pfaffian(A), rel=1e-9)


class TestExpectedCounts:
    @pytest.mark.parametrize("N,s", [(8, 9.0), (15, 30.0), (16, 32.0), (32, 33.0),
                                     (64, 128.0), (33, 34.5)])
    def test_real_counts_match_panel_by_panel_quadrature(self, N, s):
        # second route, odd N included where no Gamma sums exist: the panel
        # quadrature of the real density to 1e-9
        P, tol = EnsembleParams(N, s), 1e-9
        inside = adaptive_by_panels(lambda x: intensity_real(P, x), -1.0, 1.0, tol)[0]
        outside = 2.0 * adaptive_by_panels(
            lambda t: intensity_real(P, 1.0 / t) / t**2, 0.0, 1.0, tol)[0]
        for region, ref in (("inside", inside), ("outside", outside),
                            ("realline", inside + outside)):
            assert expected_counts(P, region) == pytest.approx(ref, rel=0.0, abs=1e-9)

    def test_degree_two_closed_form(self):
        for s in (3.0, 5.0, 12.0):
            P = EnsembleParams(2, s)
            target = (2 * s - 1) / (3 * s)
            assert expected_counts(P, "inside") == pytest.approx(target,
                                                                 abs=1e-10)
            assert expected_in_exact(2, s) == pytest.approx(target, rel=1e-12)
        assert expected_in_exact(2, 3.0) == pytest.approx(5.0 / 9.0,
                                                          rel=1e-12)

    def test_exact_counts_require_s_above_n(self):
        # expected_in_exact(4, 3.0) returned 0.6286 and (4, 4.0) 0.7
        for f in (expected_in_exact, expected_out_exact):
            for s in (3.0, 4.0):
                with pytest.raises(DomainError):
                    f(4, s)

    def test_degree_two_total(self):
        P = EnsembleParams(2, 5.0)
        total = expected_counts(P, "realline") + expected_counts(P, "complex")
        assert total == pytest.approx(2.0, abs=1e-6)

    def test_outside_vanishes_at_infinite_weight(self):
        P = EnsembleParams(4, math.inf)
        assert expected_counts(P, "outside") == 0.0
        assert expected_out_exact(4, math.inf) == 0.0

    def test_outside_count_matches_exact_sums_at_large_n(self):
        # the monomial basis overflows beyond the disk at N = 96, where the
        # moment sums stay exact
        for N in (96, 128, 256):
            for s in (N + 1.0, N + 1.5, 2.0 * N):
                assert expected_counts(EnsembleParams(N, s), "outside") == \
                    pytest.approx(expected_out_exact(N, s), rel=1e-12)

    @pytest.mark.parametrize("N", [2, 4, 5])
    @pytest.mark.parametrize("kind", ["plus1", "double", "inf"])
    def test_normalization(self, N, kind):
        s = {"plus1": N + 1.0, "double": 2.0 * N, "inf": math.inf}[kind]
        P = EnsembleParams(N, s)
        assert expected_counts(P, "all") == pytest.approx(N, abs=1e-12)

    def test_all_is_degree_over_validated_range(self):
        # every region is an exact moment sum, so only rounding separates
        # the total from N
        cases = [(N, s, 1e-12 if N <= 64 else 1e-10)
                 for N in [*range(1, 34), 64, 96, 128, 255, 256]
                 for s in (N + 1.0, N + 1.5, 2.0 * N + 1.0, math.inf)]
        for N, s, tol in cases + [(64, 128.0, 1e-12)]:
            assert expected_counts(EnsembleParams(N, s), "all") == \
                pytest.approx(N, abs=tol)

    @pytest.mark.parametrize("N", [1, 2, 5, 8, 15, 16, 64])
    @pytest.mark.parametrize("kind", ["half", "double", "inf"])
    def test_complex_count_matches_quadrature(self, N, kind):
        # second route: the 2-D Gauss-Legendre quadrature of the pair density
        s = {"half": N + 1.5, "double": 2.0 * N, "inf": math.inf}[kind]
        P = EnsembleParams(N, s)
        assert expected_counts(P, "complex") == pytest.approx(
            complex_count_quadrature(P, None), abs=1e-10)
        for r in (0.5, 1.0, 1.7, math.inf):
            assert expected_counts(P, ("disk", r)) == pytest.approx(
                complex_count_quadrature(P, r), abs=1e-10)

    @pytest.mark.parametrize("N", [96, 128, 256])
    def test_complex_count_matches_exact_sums_at_large_n(self, N):
        for s in (N + 1.0, N + 1.5, 2.0 * N, math.inf):
            P = EnsembleParams(N, s)
            e_in, e_out = expected_in_exact(N, s), expected_out_exact(N, s)
            assert expected_counts(P, "complex") == pytest.approx(N - e_in - e_out, rel=1e-12)
            assert expected_counts(P, "inside") == pytest.approx(e_in, rel=1e-12)
            assert expected_counts(P, "outside") == pytest.approx(e_out, rel=1e-12)

    def test_disk_radius_validated(self):
        P = EnsembleParams(5, 8.0)
        for region in (("disk", -0.5), ("disk", math.nan), ("disk",),
                       ("disk", 1.0, 2.0), ("disk", "1"), ("disk", 1j)):
            with pytest.raises(DomainError):
                expected_counts(P, region)
        assert expected_counts(P, ("disk", 0.0)) == 0.0
        assert expected_counts(P, ("disk", math.inf)) == \
            expected_counts(P, "complex")

    @pytest.mark.parametrize("N,s", [(4, 9.0), (6, 8.5), (8, math.inf)])
    def test_exact_sums_match_moment_sums(self, N, s):
        P = EnsembleParams(N, s)
        assert expected_in_exact(N, s) == pytest.approx(
            expected_counts(P, "inside"), abs=1e-12)
        assert expected_out_exact(N, s) == pytest.approx(
            expected_counts(P, "outside"), abs=1e-12)

    @pytest.mark.parametrize("s", [65.0, 129.0])
    def test_exact_sums_match_mpmath_loggamma(self, s):
        # the same double sums with every log-Gamma value from mpmath
        N, J = 64, 32
        lg = mpmath.loggamma
        with mpmath.workdps(30):
            e_in = e_out = mpmath.mpf(J) / s
            for n in range(J):
                inner = outer = mpmath.mpf(0)
                for m in range(n + 1):
                    inner += (s + 2 * m + 1) * mpmath.exp(
                        lg(m + 0.5) + lg(n - m + 0.5) + lg(n + m + 1)
                        + lg(m + 1.5) - 2 * lg(m + 1) - lg(n - m + 1)
                        - lg(n + m + 2.5))
                    outer += mpmath.exp(
                        lg(m + 1.5) + lg(n - m + 0.5) + lg(s - m)
                        + lg(s - m - n - 1.5) - lg(m + 1) - lg(n - m + 1)
                        - lg(s - m - 0.5) - lg(s - m - n))
                e_in += -2 / s + inner / (mpmath.pi * s)
                e_out += 2 * outer / (mpmath.pi * s)
        assert expected_in_exact(N, s) == pytest.approx(float(e_in), rel=1e-13)
        assert expected_out_exact(N, s) == pytest.approx(float(e_out), rel=1e-13)


class TestIntensities:
    @pytest.mark.parametrize("N", [1, 8, 15, 64])
    @pytest.mark.parametrize("kind", ["plus1", "inf"])
    def test_real_intensity_is_block_entry(self, N, kind):
        # the (1,2) entry formed alone equals the whole block's at (x, x)
        s = N + 1.0 if kind == "plus1" else math.inf
        x = np.concatenate([np.linspace(-3.0, 3.0, 25), [-1.0, 1.0, 1e-12]])
        side = _side(_tables(N, s), x)
        ref = block(skew_pair, side, side)[0, 1]
        got = intensity_real(EnsembleParams(N, s), x)
        assert np.max(np.abs(got - ref)) <= 1e-15 * max(1.0, np.max(np.abs(ref)))

    def test_real_intensity_nonnegative(self):
        P = EnsembleParams(5, 11.0)
        for x in np.linspace(-2.0, 2.0, 41):
            assert intensity_real(P, float(x)) >= -1e-9

    def test_complex_intensity_nonnegative(self):
        P = EnsembleParams(4, 9.0)
        for x in np.linspace(-1.5, 1.5, 7):
            for y in (0.1, 0.4, 0.9):
                assert intensity_complex(P, complex(x, y)) >= -1e-9

    def test_complex_intensity_vanishes_at_axis(self):
        P = EnsembleParams(4, 9.0)
        vals = [intensity_complex(P, complex(0.5, im))
                for im in (0.2, 0.1, 0.05)]
        assert vals[0] > vals[1] > vals[2] > 0.0
