"""Acceptance gate: ten end-to-end criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE nn [PASS|FAIL] description`` before asserting,
so the emitted log always contains one status line per criterion.
"""

import math
import time

import numpy as np

from identities import random_instances
from mahler.kernel import (EnsembleParams, expected_counts, expected_in_exact,
                           intensity_real)
from mahler.limits import compare_report, full_report
from mahler.mc import SamplerConfig, roots_classify, sample
from mahler.polys import PolyCoeffs, pi_pair, zero_check
from mahler.quadrature import adaptive
from mahler.volume import bilinear, chern_vaaler_f, gram_pf


def _report(num: int, desc: str, ok: bool):
    print(f"ACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"acceptance criterion {num} failed: {desc}"


def test_criterion_01_volume_identity():
    start = time.time()
    ok = True
    for N in (2, 4, 6):
        for s in (N + 1.0, N + 2.0, 2.0 * N):
            f = chern_vaaler_f(N, s)
            _, pf = gram_pf(N, s)
            ok &= abs(pf - f) <= 1e-8 * abs(f)
    # independent quadrature route for the N=2 Gram entry
    s = 5.0
    one, z = PolyCoeffs((1.0,)), PolyCoeffs((0.0, 1.0))
    quad_pf = bilinear(one, z, s)
    ok &= abs(quad_pf - chern_vaaler_f(2, s)) <= 1e-6 * chern_vaaler_f(2, s)
    ok &= time.time() - start < 10.0
    _report(1, "Pfaffian of the Gram matrix equals the rational product",
            ok)


def test_criterion_02_skew_orthonormality():
    ok = True
    for s in (11.0, 20.0, math.inf):
        for n in range(5):
            for m in range(5):
                even_n, odd_n = pi_pair(n, s)
                even_m, odd_m = pi_pair(m, s)
                target = 1.0 if n == m else 0.0
                ok &= abs(bilinear(even_n, odd_m, s) - target) <= 1e-7
                if m <= n:
                    ok &= abs(bilinear(even_n, even_m, s)) <= 1e-7
                    ok &= abs(bilinear(odd_n, odd_m, s)) <= 1e-7
    _report(2, "skew-orthonormal family shows the delta pattern under "
               "quadrature", ok)


def test_criterion_03_normalization():
    ok = True
    for N in (2, 4, 5):
        P = EnsembleParams(N, N + 1.0)
        ok &= abs(expected_counts(P, "all") - N) <= 1e-5
    _report(3, "real plus complex intensities integrate to the degree", ok)


def test_criterion_04_degree_two_expectation():
    ok = True
    for s in (3.0, 5.0, 12.0):
        P = EnsembleParams(2, s)
        closed = (2 * s - 1) / (3 * s)
        exact = expected_in_exact(2, s)
        quad, _ = adaptive(lambda x: intensity_real(P, x), -1.0, 1.0, tol=1e-12)
        ok &= abs(exact - closed) <= 1e-9
        ok &= abs(quad - closed) <= 1e-9
        ok &= abs(expected_counts(P, "inside") - closed) <= 1e-9
    _report(4, "degree-2 expected count inside [-1,1] matches the closed "
               "form by sum and by quadrature", ok)


def test_criterion_05_log_growth_slope():
    start = time.time()
    ns = np.array([50, 100, 200, 400, 800], dtype=float)
    e_in = np.array([expected_in_exact(int(n), n + 1.0) for n in ns])
    slope = np.polyfit(np.log(ns), e_in, 1)[0]
    ok = abs(slope - 1.0 / math.pi) <= 0.1 / math.pi
    ok &= time.time() - start < 60.0
    _report(5, "expected inside count grows like (1/pi) log N at the "
               "critical weight", ok)


def test_criterion_06_scaling_limits():
    report = full_report((8, 16, 32))
    ok = True
    for group in ("circle_complex", "circle_real", "inside_disk",
                  "outside_disk", "kasymp_sums", "ratio_sums"):
        errs = [row["sup_error"] for row in report[group]]
        ok &= all(a > b for a, b in zip(errs, errs[1:]))
    _report(6, "six scaling regimes converge with strictly decreasing "
               "errors over N in {8,16,32}", ok)


def test_criterion_07_gamma_identity_suite():
    rng = np.random.default_rng(7)
    failures = 0
    for name, lhs, rhs in random_instances(rng, 100):
        if abs(lhs - rhs) > 1e-11 * max(1.0, abs(rhs)):
            failures += 1
    _report(7, "five finite Gamma identities hold on 100 random instances "
               "each", failures == 0)


def test_criterion_08_zero_locations():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(50):
        # zeros inside the closed disk together with 1
        n = int(rng.integers(1, 31))
        beta = float(rng.uniform(-0.9, 3.0))
        alpha = float(rng.uniform(beta + 0.05, 6.0))
        rep = zero_check(n, alpha, beta)
        ok &= rep.location_class == "disk_union_one" and rep.location_ok
        ok &= rep.max_residual <= 1e-6
    for _ in range(50):
        # zeros on the unit circle
        n = int(rng.integers(1, 31))
        alpha = float(rng.uniform(-1.4, 6.0))
        rep = zero_check(n, alpha, alpha)
        ok &= rep.location_class == "unit_circle" and rep.location_ok
        ok &= rep.max_residual <= 1e-6
    _report(8, "companion-matrix zeros land in the predicted location "
               "class for both parameter regimes", ok)


def test_criterion_09_monte_carlo_consistency():
    start = time.time()
    ok = True

    # mean count of real roots in [-1, 1] at N=2, s=5: target 0.6
    cfg = SamplerConfig(N=2, s=5.0, step_length=0.5, steps=105_000,
                        burn_in=5_000, thin=10, seed=90)
    counts = []
    for p in sample(cfg):
        rs = roots_classify(p)
        counts.append(sum(1 for x in rs.reals if abs(x) <= 1.0))
    counts = np.asarray(counts, dtype=float)
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    ok &= len(counts) >= 10_000
    ok &= abs(counts.mean() - 0.6) <= 3.0 * se

    # real-root histogram at N=4, s=8 against the one-point density
    # heavier thinning: the per-bin standard errors assume independent
    # samples, so the chain must be decorrelated between records
    cfg4 = SamplerConfig(N=4, s=8.0, step_length=0.5, steps=505_000,
                         burn_in=5_000, thin=50, seed=94)
    edges = np.linspace(-2.0, 2.0, 9)
    rows = []
    for p in sample(cfg4):
        rs = roots_classify(p)
        row, _ = np.histogram(rs.reals, bins=edges)
        rows.append(row)
    rows = np.asarray(rows, dtype=float)
    n_samp = rows.shape[0]
    P = EnsembleParams(4, 8.0)
    for j in range(edges.size - 1):
        expect, _ = adaptive(lambda x: intensity_real(P, x),
                             float(edges[j]), float(edges[j + 1]), tol=1e-9)
        obs = rows[:, j].mean()
        sigma = rows[:, j].std(ddof=1) / math.sqrt(n_samp)
        chi2 = ((obs - expect) / sigma) ** 2
        ok &= chi2 < 4.0
    ok &= time.time() - start < 300.0
    _report(9, "sampled root statistics match the kernel predictions", ok)


def test_criterion_10_oscillatory_comparison():
    # In the large-|z| expansion of M = 1F1(3/2, 1; z) (DLMF 13.7) the
    # dominant part e^z z^{1/2}/Gamma(3/2) crosses the subdominant part
    # (-z)^{-3/2}/Gamma(-1/2); as Gamma(3/2) Gamma(-1/2) = -pi, the error of
    # the factor oscillates with period 2 pi in the height and amplitude
    # e^{Re z}/(2 pi Im z) + O(Im z^{-2}). Its zeros make the pointwise
    # error non-monotone (height 5 sits near one), so each stated height h0
    # is checked on the error envelope: the sup over one period
    # [h0, h0 + 2 pi]. The envelope must decrease strictly, and its rate
    # h * error must match the amplitude's constant C at Re z = 1/2.
    C = math.exp(0.5) / (2.0 * math.pi)
    envelopes = []
    ok = True
    for h0 in (5.0, 10.0, 20.0):
        heights = np.linspace(h0, h0 + 2.0 * math.pi, 33)
        rows = compare_report(im_list=tuple(float(h) for h in heights),
                              re_list=(0.0, 0.5))
        errs = [row["sup_error"] for row in rows]
        envelopes.append(max(errs))
        rate = max(h * e for h, e in zip(heights, errs))
        ok &= 0.95 * C <= rate <= 1.25 * C
    ok &= all(a > b for a, b in zip(envelopes, envelopes[1:]))
    _report(10, "paired-confluent comparison error envelope decreases along "
                "heights {5,10,20} at the rate e^{Re z}/(2 pi Im z)", ok)
