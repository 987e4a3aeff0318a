import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import identities
from identities import bilinear_c_quadrature, bilinear_r_quadrature
from mahler.errors import DomainError, IntegrabilityError, QuadratureError
from mahler.polys import PolyCoeffs, pi_pair
from mahler.volume import (GramMatrix, bilinear, bilinear_c, bilinear_r,
                           chern_vaaler_f, complex_moment, gram_matrix, gram_pf,
                           monomial_moment, real_moment, skew_moment, volume_ball)


class TestSkewMoments:
    def test_same_parity_vanishes(self):
        assert monomial_moment(2, 4, 9.0) == 0.0
        assert monomial_moment(1, 3, 9.0) == 0.0

    def test_lowest_moment(self):
        s = 5.0
        assert skew_moment(0, 0, s) == pytest.approx(4 * s / (s - 2),
                                                     rel=1e-13)

    def test_antisymmetry(self):
        assert monomial_moment(1, 2, 9.0) == -monomial_moment(2, 1, 9.0)

    def test_quadrature_oracle(self):
        # the closed moment against full numerical evaluation of the
        # real-line and half-plane parts of the form, and against the form
        s = 5.0
        one = PolyCoeffs((1.0,))
        z = PolyCoeffs((0.0, 1.0))
        quad = bilinear_r_quadrature(one, z, s) + bilinear_c_quadrature(one, z, s)
        assert quad == pytest.approx(monomial_moment(0, 1, s), abs=1e-6)
        assert bilinear(one, z, s) == pytest.approx(monomial_moment(0, 1, s), abs=1e-6)

    def test_quadrature_oracle_higher(self):
        s = 9.0
        z2 = PolyCoeffs((0.0, 0.0, 1.0))
        z3 = PolyCoeffs((0.0, 0.0, 0.0, 1.0))
        quad = bilinear_r_quadrature(z2, z3, s) + bilinear_c_quadrature(z2, z3, s)
        assert quad == pytest.approx(monomial_moment(2, 3, s), abs=1e-6)
        assert bilinear(z2, z3, s) == pytest.approx(monomial_moment(2, 3, s), abs=1e-6)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            skew_moment(0, 1, 4.0)
        # a divergent pair raises what real_moment raises for it
        for moment in (monomial_moment, real_moment):
            with pytest.raises(IntegrabilityError):
                moment(0, 7, 5.0)


def _monic_pi_basis(N, s):
    basis = []
    for n in range(N // 2 + 1):
        even, odd = pi_pair(n, s)
        if 2 * n < N:
            lead = even.coeffs[-1]
            basis.append(PolyCoeffs(tuple(c / lead for c in even.coeffs)))
        if 2 * n + 1 < N:
            lead = odd.coeffs[-1]
            basis.append(PolyCoeffs(tuple(c / lead for c in odd.coeffs)))
    order = sorted(range(len(basis)), key=lambda i: basis[i].degree)
    return [basis[i] for i in order]


class TestGram:
    def test_two_by_two_closed_form(self):
        s = 5.0
        G, pf = gram_pf(2, s)
        m = 4 * s / (s - 2)
        assert np.allclose(G.entries, [[0.0, m], [-m, 0.0]], atol=1e-12)
        assert pf == pytest.approx(m, rel=1e-12)

    def test_basis_independence(self):
        N, s = 4, 6.0
        _, pf_mono = gram_pf(N, s)
        _, pf_pi = gram_pf(N, s, basis=_monic_pi_basis(N, s))
        assert pf_pi == pytest.approx(pf_mono, rel=1e-10)

    def test_skew_orthogonal_basis_block_diagonal(self):
        N, s = 4, 9.0
        G = gram_matrix(N, s, basis=_monic_pi_basis(N, s))
        U = G.entries
        # 2x2 blocks [[0, r], [-r, 0]] along the diagonal, zero elsewhere
        off = U.copy()
        prod = 1.0
        for j in range(0, N, 2):
            prod *= U[j, j + 1]
            off[j, j + 1] = off[j + 1, j] = 0.0
        assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(U))
        _, pf = gram_pf(N, s, basis=_monic_pi_basis(N, s))
        assert pf == pytest.approx(prod, rel=1e-10)

    def test_shear_invariance(self):
        # adding c * p_{2n} to p_{2n+1} must leave the Pfaffian unchanged
        N, s, shear = 4, 7.0, 1.7
        base = _monic_pi_basis(N, s)
        sheared = list(base)
        p0, p1 = base[0], base[1]
        coeffs = np.zeros(len(p1.coeffs))
        coeffs[: len(p1.coeffs)] = p1.coeffs
        coeffs[: len(p0.coeffs)] += shear * np.array(p0.coeffs)
        sheared[1] = PolyCoeffs(tuple(coeffs))
        _, pf_base = gram_pf(N, s, basis=base)
        _, pf_shear = gram_pf(N, s, basis=sheared)
        assert pf_shear == pytest.approx(pf_base, rel=1e-10)

    def test_odd_dimension_guard(self):
        with pytest.raises(DomainError):
            gram_matrix(3, 9.0)

    @pytest.mark.parametrize("N", [2, 8, 64])
    @pytest.mark.parametrize("kind", ["half", "double", "inf"])
    def test_table_matches_per_entry_moments(self, N, kind):
        s = {"half": N + 0.5, "double": 2.0 * N, "inf": math.inf}[kind]
        table = np.array([[monomial_moment(a, b, s) for b in range(N)] for a in range(N)])
        assert np.array_equal(gram_matrix(N, s).entries, table)


class TestVolumeIdentity:
    def test_degree_two_closed_form(self):
        for s in (3.0, 7.5, 100.0):
            assert chern_vaaler_f(2, s) == pytest.approx(4 * s / (s - 2),
                                                         rel=1e-13)

    def test_monic_limit_constant(self):
        assert chern_vaaler_f(2, math.inf) == pytest.approx(4.0, rel=1e-13)

    @pytest.mark.parametrize("N", [2, 4])
    @pytest.mark.parametrize("which", ["plus1", "double"])
    def test_pfaffian_equals_product(self, N, which):
        s = N + 1.0 if which == "plus1" else 2.0 * N
        _, pf = gram_pf(N, s)
        assert pf == pytest.approx(chern_vaaler_f(N, s), rel=1e-9)

    def test_ball_volume_relation(self):
        N, lam = 4, 0.5
        s = (N + 1) / lam
        assert volume_ball(N, lam) == pytest.approx(
            2.0 * chern_vaaler_f(N, s) / (N + 1), rel=1e-13)

    def test_strictly_decreasing_to_constant(self):
        N = 4
        values = [chern_vaaler_f(N, s) for s in (4.5, 6.0, 10.0, 100.0,
                                                 1e6)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(chern_vaaler_f(N, math.inf),
                                           rel=1e-4)

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            chern_vaaler_f(4, 4.0)


class TestSkewOrthonormality:
    @pytest.mark.parametrize("s", [11.0, 20.0, math.inf])
    def test_delta_pattern(self, s):
        # <pi_{2n} | pi_{2m+1}> = delta_{nm}; same-parity products vanish
        for n in range(3):
            for m in range(3):
                even_n, odd_n = pi_pair(n, s)
                even_m, odd_m = pi_pair(m, s)
                target = 1.0 if n == m else 0.0
                assert bilinear(even_n, odd_m, s) == pytest.approx(
                    target, abs=1e-12)
                assert bilinear(even_n, even_m, s) == pytest.approx(
                    0.0, abs=1e-12)
                assert bilinear(odd_n, odd_m, s) == pytest.approx(
                    0.0, abs=1e-12)


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s", [65.5, 129.0, math.inf])
    def test_delta_pattern_at_n64(self, s):
        # degrees up to 63: z^n overflows the polar quadrature of the
        # complex part past the unit circle, but not its closed form
        _check_delta_pattern((16, 30, 31), s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("N,s", [(128, 129.0), (128, 257.0), (128, math.inf),
                                     (256, 257.0), (256, math.inf)])
    def test_delta_pattern_at_large_n(self, N, s):
        # degrees up to N - 1: the real part's quadrature overflows on its
        # half-line nodes at N = 128, the moment sums do not
        _check_delta_pattern((N // 8, N // 2 - 2, N // 2 - 1), s)


def _check_delta_pattern(indices, s):
    pairs = {n: pi_pair(n, s) for n in indices}
    for n, (even_n, odd_n) in pairs.items():
        for m, (even_m, odd_m) in pairs.items():
            assert abs(bilinear(even_n, odd_m, s) - (n == m)) <= 1e-12
            assert abs(bilinear(even_n, even_m, s)) <= 1e-12
            assert abs(bilinear(odd_n, odd_m, s)) <= 1e-12


class TestComplexPart:
    @pytest.mark.parametrize("s", [13.5, 25.0, math.inf])
    def test_closed_form_matches_quadrature(self, s):
        rng = np.random.default_rng(19)
        for _ in range(6):
            f = PolyCoeffs(tuple(rng.standard_normal(rng.integers(1, 14))))
            g = PolyCoeffs(tuple(rng.standard_normal(rng.integers(1, 14))))
            ref = bilinear_c_quadrature(f, g, s)
            assert abs(bilinear_c(f, g, s) - ref) <= 1e-10 * max(1.0, abs(ref))

    @pytest.mark.parametrize("s", [9.5, 20.0, math.inf])
    def test_parts_add_up_to_moments(self, s):
        # real part + complex part, both from the region tables, = the closed
        # total; the real part also against its quadrature
        a, b = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        R, C, M = real_moment(a, b, s), complex_moment(a, b, s), monomial_moment(a, b, s)
        assert np.all(np.abs(R + C - M) <= 1e-14 * np.abs(M))
        for i, j in zip(a.ravel(), b.ravel()):
            zi = PolyCoeffs((0.0,) * i + (1.0,))
            zj = PolyCoeffs((0.0,) * j + (1.0,))
            assert R[i, j] == pytest.approx(bilinear_r_quadrature(zi, zj, s, tol=1e-12),
                                            abs=1e-10)
            assert R[i, j] == real_moment(i, j, s) == bilinear_r(zi, zj, s)
            assert C[i, j] == complex_moment(i, j, s)

    def test_lowest_moment(self):
        assert complex_moment(0, 1, 5.0) == pytest.approx(8.0 * (1 / 3 + 1 / 7), rel=1e-15)
        assert complex_moment(1, 0, math.inf) == pytest.approx(-8.0 / 3.0, rel=1e-15)
        assert complex_moment(2, 4, 5.0) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_integrability_guard(self):
        # only odd pairs with a nonzero coefficient product enter; at s = 5
        # the even pair (4, 4) sits on 2s = a + b + 2 and the odd (2, 7) past it
        s = 5.0
        z4 = PolyCoeffs((0.0,) * 4 + (1.0,))
        assert bilinear_c(z4, z4, s) == 0.0
        one, z7 = PolyCoeffs((1.0, 0.0, 0.0)), PolyCoeffs((0.0,) * 7 + (1.0,))
        assert bilinear_c(one, z7, s) == complex_moment(0, 7, s)
        with pytest.raises(IntegrabilityError):
            bilinear_c(PolyCoeffs((1.0, 0.0, 2.0)), z7, s)
        with pytest.raises(IntegrabilityError):
            complex_moment(1, 8, 5.5)       # 2s = a + b + 2
        with pytest.raises(DomainError):
            complex_moment(-1, 2, s)


class TestRealPart:
    def test_integrability_guard(self):
        # an odd pair diverges at s <= o + 1 or 2s <= e + o + 2, o the odd
        # exponent; s <= e + 1 alone does not make the pair diverge
        with pytest.raises(IntegrabilityError):
            real_moment(0, 7, 5.0)          # s <= o + 1
        with pytest.raises(IntegrabilityError):
            real_moment(8, 1, 5.5)          # 2s = e + o + 2
        with pytest.raises(IntegrabilityError):
            bilinear_r(PolyCoeffs((1.0, 0.0, 2.0)), PolyCoeffs((0.0,) * 7 + (1.0,)), 5.0)
        z4, z = PolyCoeffs((0.0,) * 4 + (1.0,)), PolyCoeffs((0.0, 1.0))
        assert real_moment(4, 1, 4.5) == pytest.approx(
            bilinear_r_quadrature(z4, z, 4.5, tol=1e-12), abs=1e-10)
        assert real_moment(1, 4, 4.5) == -real_moment(4, 1, 4.5)
        assert real_moment(2, 4, 4.5) == 0.0


class TestBilinearErrorCheck:
    @pytest.mark.parametrize("rule", ["adaptive", "halfline"])
    def test_large_error_estimate_raises(self, monkeypatch, rule):
        # each quadrature piece's error estimate in the real part's second
        # route reaches the check: inflate one piece's estimate and the
        # oracle must refuse its value
        real = getattr(identities, rule)

        def inflated(*args, **kwargs):
            val, _ = real(*args, **kwargs)
            return val, 1e-3

        even, _ = pi_pair(1, 11.0)
        _, odd = pi_pair(1, 11.0)
        bilinear_r_quadrature(even, odd, 11.0)
        monkeypatch.setattr(identities, rule, inflated)
        with pytest.raises(QuadratureError):
            bilinear_r_quadrature(even, odd, 11.0)
