import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from identities import mahler_measure_jensen
from mahler import mc
from mahler.errors import ConditioningError, DomainError, PairingError
from mahler.mc import (RootSet, SamplerConfig, mahler_measure, roots_classify, sample,
                       write_samples_csv)
from mahler.polys import PolyCoeffs


class TestMahlerMeasure:
    def test_linear(self):
        p = PolyCoeffs((-2.0, 1.0))
        val = mahler_measure(p)
        assert val == pytest.approx(2.0, rel=1e-12)
        assert abs(mahler_measure_jensen(p) - val) <= 1e-4 * max(1.0, val)

    def test_cyclotomic_like(self):
        for n in (2, 5, 8):
            coeffs = (-1.0,) + (0.0,) * (n - 1) + (1.0,)
            assert mahler_measure(PolyCoeffs(coeffs)) == pytest.approx(
                1.0, abs=1e-10)

    def test_repeated_root_at_one(self):
        # (z - 1)^4
        coeffs = (1.0, -4.0, 6.0, -4.0, 1.0)
        assert mahler_measure(PolyCoeffs(coeffs)) == pytest.approx(1.0,
                                                                   abs=1e-3)

    def test_circle_average_cross_check(self):
        # well-conditioned input: roots far from the unit circle
        p = PolyCoeffs((6.0, -5.0, 1.0))  # (z-2)(z-3)
        val = mahler_measure(p)
        assert val == pytest.approx(6.0, rel=1e-6)
        assert abs(mahler_measure_jensen(p) - val) <= 1e-4 * max(1.0, val)

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, scale):
        p = PolyCoeffs((0.3, -1.2, 0.7, 2.0))
        base = mahler_measure(p)
        scaled = mahler_measure(PolyCoeffs(tuple(scale * c
                                                 for c in p.coeffs)))
        assert scaled == pytest.approx(scale * base, rel=1e-12)

    def test_zero_polynomial_guard(self):
        with pytest.raises(DomainError):
            mahler_measure(PolyCoeffs((0.0,)))


class TestRootsClassify:
    def test_all_complex(self):
        rs = roots_classify(PolyCoeffs((1.0, 0.0, 0.0, 0.0, 1.0)))
        assert rs.reals == ()
        assert len(rs.pairs) == 2
        assert all(z.imag > 0 for z in rs.pairs)

    def test_real_roots(self):
        rs = roots_classify(PolyCoeffs((6.0, -5.0, 1.0)))
        assert rs.pairs == ()
        assert rs.reals == pytest.approx((2.0, 3.0), abs=1e-10)

    @given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_counts_add_up(self, coeffs):
        p = PolyCoeffs(tuple(coeffs) + (1.0,))
        rs = roots_classify(p)
        assert len(rs.reals) + 2 * len(rs.pairs) == len(coeffs)

    @pytest.mark.parametrize("base", [(1.0, 0.0, 1.0), (1.0, 1.0), (-1.0, 1.0),
                                      (1.0, 0.0, 0.0, 0.0, 1.0)],
                             ids=["z2+1", "z+1", "z-1", "z4+1"])
    @pytest.mark.parametrize("k", range(1, 9))
    def test_counts_add_up_at_repeated_roots(self, base, k):
        # (z^2+1)^k, (z+-1)^k, (z^4+1)^k: clusters of k roots, which the
        # solver spreads; every non-real one must still find its conjugate
        coeffs = np.polynomial.polynomial.polypow(base, k)
        rs = roots_classify(PolyCoeffs(tuple(coeffs)))
        assert len(rs.reals) + 2 * len(rs.pairs) == len(coeffs) - 1
        assert all(z.imag > 0 for z in rs.pairs)

    @pytest.mark.parametrize("roots", [
        (1j, -1j + 1e-12), (2j, -1j), (1j, 1j), (1j, complex("nan")),
        (1j, -1j, 0.5 + 1j)])
    def test_unpaired_roots_raise(self, roots):
        p = PolyCoeffs((1.0, 0.0, 1.0))
        vars(p)["roots"] = np.array(roots, dtype=complex)
        with pytest.raises(PairingError):
            roots_classify(p)


def _reference_walk(cfg):
    """The ball walk with one ``np.roots`` call per proposal: a second route
    to every emitted coefficient tuple, on the same RNG stream."""
    rng = np.random.default_rng(cfg.seed)
    b, m_cur, out = np.zeros(cfg.N), 1.0, []
    for step in range(cfg.steps):
        direction = rng.standard_normal(cfg.N)
        norm = float(np.linalg.norm(direction))
        radius = rng.random() ** (1.0 / cfg.N)
        prop = b + cfg.step_length * radius * direction / norm
        roots = np.roots(np.concatenate([prop, [1.0]])[::-1])
        m_prop = float(np.prod(np.maximum(1.0, np.abs(roots))))
        if math.isinf(cfg.s):
            accept = m_prop <= 1.0 + 1e-12
        else:
            ratio = (m_prop / m_cur) ** (-cfg.s)
            accept = ratio >= 1.0 or rng.random() < ratio
        if accept:
            b, m_cur = prop, m_prop
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            out.append(tuple(b) + (1.0,))
    return out


def _reference_classify(coeffs, tol=1e-9):
    """Root split from ``np.roots`` of the coefficients, one root at a time
    (pairs are the upper roots in solver order, as ``roots_classify`` keeps
    them)."""
    reals, uppers = [], []
    for r in np.roots(np.asarray(coeffs, dtype=float)[::-1]):
        if abs(r.imag) <= tol * (1.0 + abs(r)):
            reals.append(float(r.real))
        elif r.imag > 0:
            uppers.append(complex(r))
    return RootSet(tuple(sorted(reals)), tuple(uppers))


class TestSampler:
    @pytest.mark.parametrize("N,s,thin,burn_in", [
        (1, math.inf, 3, 0), (2, math.inf, 2, 0), (4, math.inf, 5, 0),
        (20, math.inf, 3, 0), (4, 8.0, 4, 30), (20, 40.0, 1, 0),
        (3, 7.0, 2, 10), (1, 3.0, 1, 0)])
    def test_states_and_roots_match_np_roots_route(self, N, s, thin, burn_in):
        for seed in (1, 7, 23):
            cfg = SamplerConfig(N=N, s=s, step_length=0.25 if N == 20 else 0.5,
                                steps=burn_in + 150 * thin, burn_in=burn_in,
                                thin=thin, seed=seed)
            ref = _reference_walk(cfg)
            got = [(p.coeffs, roots_classify(p)) for p in sample(cfg)]
            assert [c for c, _ in got] == ref
            assert [rs for _, rs in got] == [_reference_classify(c)
                                             for c in ref]

    def test_emitted_state_is_not_solved_again(self, monkeypatch):
        cfg = SamplerConfig(N=4, s=8.0, steps=300, burn_in=0, seed=4)
        calls = []
        real_roots = np.roots
        monkeypatch.setattr(np, "roots",
                            lambda p: calls.append(1) or real_roots(p))
        for p in sample(cfg):
            roots_classify(p)
            mahler_measure(p)
        assert calls == []
        roots_classify(PolyCoeffs((0.5, -1.0, 0.25, 0.0, 1.0)))
        assert len(calls) == 1

    def test_interleaved_chains_match_sequential(self):
        # advancing two chains alternately interleaves their states; each
        # state carries its own roots, so results must not depend on that
        cfgs = (SamplerConfig(N=4, s=math.inf, steps=400, burn_in=0, seed=31),
                SamplerConfig(N=3, s=7.0, steps=400, burn_in=0, thin=2,
                              seed=32))

        def record(p):
            return p.coeffs, roots_classify(p), mahler_measure(p)

        sequential = [[record(p) for p in sample(cfg)] for cfg in cfgs]
        interleaved = ([], [])
        for pa, pb in zip(*(sample(cfg) for cfg in cfgs)):
            interleaved[0].append(record(pa))
            interleaved[1].append(record(pb))
        assert len(interleaved[0]) == len(interleaved[1]) == 200
        assert interleaved[0] == sequential[0][:200]
        assert interleaved[1] == sequential[1]

    def test_reproducible(self):
        cfg = SamplerConfig(N=3, s=7.0, steps=400, burn_in=100, thin=3,
                            seed=11)
        a = [p.coeffs for p in sample(cfg)]
        b = [p.coeffs for p in sample(cfg)]
        assert a == b

    def test_monic_output(self):
        cfg = SamplerConfig(N=3, s=7.0, steps=200, burn_in=50, seed=2)
        for p in sample(cfg):
            assert p.coeffs[-1] == 1.0
            assert len(p.coeffs) == 4

    def test_star_body_invariant_at_infinite_weight(self):
        cfg = SamplerConfig(N=3, s=math.inf, step_length=0.3, steps=2000,
                            burn_in=200, seed=1)
        for p in sample(cfg):
            assert mahler_measure(p) <= 1.0 + 1e-12

    def test_config_guards(self):
        with pytest.raises(DomainError):
            SamplerConfig(N=2, s=1.5)
        with pytest.raises(DomainError):
            SamplerConfig(N=2, s=5.0, step_length=0.0)
        # 1e308 overflowed step_length * radius * direction in sample
        for step in (math.inf, math.nan, 1e308):
            with pytest.raises(DomainError):
                SamplerConfig(N=2, s=5.0, step_length=step)
        with pytest.raises(DomainError):
            SamplerConfig(N=2, s=5.0, steps=10, burn_in=20)

    def test_non_finite_measure_raises(self, monkeypatch):
        # LAPACK leaves NaN where dgeev does not converge
        def eigvals(a, signature):
            return np.full(len(a), complex("nan"))
        monkeypatch.setattr(mc, "_eigvals", eigvals)
        cfg = SamplerConfig(N=3, s=7.0, steps=10, burn_in=0, seed=1)
        with pytest.raises(ConditioningError, match="step 0"):
            next(sample(cfg))

    def test_chain_matches_target_density(self):
        # compare box probabilities of (b0, b1) for z^2 + b1 z + b0 against
        # 2D quadrature of the stationary density M(b)^{-s}; the oracle
        # computes the measure from the quadratic formula directly
        s = 5.0

        def measure(b0, b1):
            disc = b1 * b1 - 4.0 * b0
            if disc >= 0:
                r1 = (-b1 + math.sqrt(disc)) / 2.0
                r2 = (-b1 - math.sqrt(disc)) / 2.0
                return max(1.0, abs(r1)) * max(1.0, abs(r2))
            return max(1.0, (b0) if b0 > 1 else 1.0)  # |r|^2 = b0

        def box_mass(x0, x1, y0, y1, n=160):
            xs = np.linspace(x0, x1, n + 1)
            ys = np.linspace(y0, y1, n + 1)
            xm = 0.5 * (xs[:-1] + xs[1:])
            ym = 0.5 * (ys[:-1] + ys[1:])
            total = 0.0
            for x in xm:
                for y in ym:
                    total += measure(x, y) ** (-s)
            return total * (x1 - x0) * (y1 - y0) / n ** 2

        ref_ratio = box_mass(-0.5, 0.5, -0.5, 0.5) \
            / box_mass(0.5, 1.5, -0.5, 0.5)

        cfg = SamplerConfig(N=2, s=s, step_length=0.5, steps=120_000,
                            burn_in=5_000, thin=10, seed=3)
        in_a = in_b = 0
        for p in sample(cfg):
            b0, b1 = p.coeffs[0], p.coeffs[1]
            if -0.5 <= b1 <= 0.5:
                if -0.5 <= b0 <= 0.5:
                    in_a += 1
                elif 0.5 <= b0 <= 1.5:
                    in_b += 1
        ratio = in_a / in_b
        # binomial-style error propagation on the ratio, 3 sigma
        sigma = ratio * math.sqrt(1.0 / in_a + 1.0 / in_b)
        assert abs(ratio - ref_ratio) <= 3.0 * sigma


class TestCsvOutput:
    def test_samples_round_trip(self, tmp_path):
        cfg = SamplerConfig(N=2, s=5.0, steps=120, burn_in=20, seed=9)
        path = tmp_path / "samples.csv"
        n = write_samples_csv(str(path), cfg, sample(cfg))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "seed,index,c0,c1,c2"
        assert len(lines) == n + 1
        regenerated = list(sample(cfg))
        first = lines[1].split(",")
        assert float(first[2]) == regenerated[0].coeffs[0]
