"""Workloads of the mahler benchmark: seeded jobs, their oracles, warm-up
and known-defect probes.

A job is one user-level query, timed as a whole and checked afterwards
against a second route (an exact sum, a closed form, a symmetry, an mpmath
or SciPy evaluation, or the parsed output of the command line).  A pass is
the fixed list of job kinds of a workload with inputs drawn from one
generator; every pass draws fresh inputs, so no result can be served from a
cache of earlier inputs, and the mix of job kinds is the same in every pass.

Why these workloads:

* ``finite_kernel`` puts ``kernel``, ``polys`` and ``quadrature`` under load
  and mixes real and complex points, whose costs differ by an order of
  magnitude; ``specfun``, ``limits`` and ``mc`` barely run.
* ``scaling_limits`` puts ``specfun.big_m_pair`` and ``limits`` under load;
  ``kernel`` runs at many ``(N, s)`` schedules and mostly at real pairs.
* ``monte_carlo`` is almost all ``mc``: ball-walk chains and root
  classification.
* ``cli_cold`` spawns one ``mahler`` process per job, so it alone pays for
  the import and cold caches on every result, and it alone measures ``cli``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from mahler import kernel, limits, mc, polys, quadrature, specfun, volume

import spans


@dataclass
class Context:
    """What a running job may need besides its inputs."""

    root: Path
    workdir: Path
    traced: bool = False
    child_peak_kb: int = 0
    child_import_s: list = field(default_factory=list)
    child_spans: dict = field(default_factory=dict)

    @property
    def child_env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.pop("MAHLER_QUAD_ORDER", None)
        return env


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[Context], object]
    check: Callable[[object], "str | None"]   # None when the output is right
    deadline_s: float = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    warm: Callable[[], None]
    make_pass: Callable[[np.random.Generator], list]
    min_passes: int = 1
    # end-of-run check over all (job, output) pairs: (failed checks, extra
    # per-layer values)
    finish: "Callable[[list], tuple[list, dict]] | None" = None
    probes: Callable[[], list] = lambda: []
    in_process: bool = True


def _close(value, ref, rtol, atol=0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(value) - np.asarray(ref))
                       <= rtol * np.abs(np.asarray(ref)) + atol))


def _iota(z: complex) -> complex:
    return 1j if z.imag > 0 else -1j


# ---------------------------------------------------------------------------
# finite_kernel
# ---------------------------------------------------------------------------

FINITE_PARAMS = ((8, 9.0), (15, 30.0), (16, 32.0), (32, 33.0), (64, 128.0))


def _real_point(rng) -> float:
    return float(rng.uniform(-3.0, 3.0))


def _upper_point(rng) -> complex:
    return complex(rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5))


def _real_grid(P, rng) -> Job:
    half = rng.uniform(0.05, 3.0, 16)
    pts = np.concatenate([half, -half])

    def check(f):
        scale = float(np.max(np.abs(f)))
        if not np.all(np.isfinite(f)) or scale == 0.0:
            return "non-finite or vanishing density"
        if not _close(f[:16], f[16:], 0.0, 1e-10 * scale):
            return "density not even in x"
        if f.min() < -1e-12 * scale:
            return f"negative density {f.min():.3e}"
        return None
    return Job(f"real_grid/N={P.N}", lambda ctx: kernel.intensity_real(P, pts), check)


def _complex_grid(P, rng) -> Job:
    half = rng.uniform(-2.5, 2.5, 16) + 1j * rng.uniform(0.05, 2.5, 16)
    pts = np.concatenate([half, -np.conj(half)])

    def check(f):
        scale = float(np.max(np.abs(f)))
        if not np.all(np.isfinite(f)) or scale == 0.0:
            return "non-finite or vanishing density"
        if not _close(f[:16], f[16:], 0.0, 1e-10 * scale):
            return "density not symmetric under z -> -conj(z)"
        if f.min() < -1e-12 * scale:
            return f"negative density {f.min():.3e}"
        return None
    return Job(f"complex_grid/N={P.N}", lambda ctx: kernel.intensity_complex(P, pts), check)


def _matrix_kernel(P, species: str, rng) -> Job:
    draw = {"r": _real_point, "c": _upper_point}
    pairs = [(draw[species[0]](rng), draw[species[1]](rng)) for _ in range(2)]

    def run(ctx):
        return [(kernel.matrix_kernel(P, u, v).as_array(),
                 kernel.matrix_kernel(P, v, u).as_array()) for u, v in pairs]

    def check(out):
        for (u, v), (K, Ks) in zip(pairs, out):
            scale = float(np.max(np.abs(K)))
            if not np.all(np.isfinite(K)):
                return f"non-finite kernel at {u}, {v}"
            if not _close(Ks, -K.T, 0.0, 1e-12 * scale):
                return f"K(v,u) != -K(u,v)^T at {u}, {v}"
            if isinstance(v, complex):
                # eps off the real line is i sgn(Im v) times conjugation
                ref = _iota(v) * kernel.kappa_n(P, u, np.conj(v))
                if not _close(K[0, 1], ref, 1e-10, 1e-300):
                    return f"entry 12 at {u}, {v} disagrees with iota*kappa"
        return None
    return Job(f"matrix_kernel_{species}/N={P.N}", run, check)


def _correlation(P, rng) -> Job:
    reals = tuple(float(x) for x in rng.uniform(-2.0, 2.0, 3))
    uppers = (_upper_point(rng), _upper_point(rng))
    pts = kernel.PointConfig(reals, uppers)

    def check(val):
        one_point = float(np.prod(kernel.intensity_real(P, np.array(reals)))
                          * np.prod(kernel.intensity_complex(P, np.array(uppers))))
        if not math.isfinite(val):
            return "non-finite correlation"
        if val < -1e-9 * one_point:
            return f"negative correlation {val:.3e}"
        return None
    return Job(f"correlation/N={P.N}", lambda ctx: kernel.correlation(P, pts), check)


def _count(P, region: str) -> Job:
    N, s = P.N, P.s

    def check(val):
        e_in, e_out = kernel.expected_in_exact(N, s), kernel.expected_out_exact(N, s)
        # the complex count is checked through the normalization all == N
        ref = {"inside": e_in, "outside": e_out, "complex": N - e_in - e_out}[region]
        if not _close(val, ref, 1e-8, 1e-8):
            return f"{region} count {val!r} vs exact {ref!r}"
        return None
    return Job(f"count_{region}/N={N}", lambda ctx: kernel.expected_counts(P, region), check)


def _gram() -> Job:
    params = [(N, s) for N, s in FINITE_PARAMS if N % 2 == 0]

    def check(out):
        for (N, s), pf in zip(params, out):
            if not _close(pf, volume.chern_vaaler_f(N, s), 1e-8):
                return f"Pf(U) {pf!r} vs F(s) at N={N}, s={s}"
        return None
    return Job("gram_pf", lambda ctx: [volume.gram_pf(N, s)[1] for N, s in params], check)


def _bilinear(rng) -> Job:
    s = float(rng.uniform(6.0, 14.0))
    pairs = [(n, m) for n in range(2) for m in range(2)]

    def run(ctx):
        return [volume.bilinear(polys.pi_pair(n, s)[0], polys.pi_pair(m, s)[1], s)
                for n, m in pairs]

    def check(out):
        for (n, m), val in zip(pairs, out):
            if abs(val - (1.0 if n == m else 0.0)) > 1e-7:
                return f"<pi_{2*n}, pi_{2*m+1}> = {val!r} at s={s}"
        return None
    return Job("bilinear", run, check)


def _finite_pass(rng) -> list:
    jobs = []
    for N, s in FINITE_PARAMS:
        P = kernel.EnsembleParams(N, s)
        jobs += [_real_grid(P, rng), _complex_grid(P, rng),
                 _matrix_kernel(P, "rr", rng), _matrix_kernel(P, "rc", rng),
                 _matrix_kernel(P, "cc", rng), _correlation(P, rng)]
        if N % 2 == 0:
            jobs += [_count(P, region) for region in ("inside", "outside", "complex")]
    return jobs + [_gram(), _bilinear(rng)]


def _finite_warm() -> None:
    for N, s in FINITE_PARAMS:
        P = kernel.EnsembleParams(N, s)
        kernel.intensity_real(P, 0.5)
        kernel.intensity_complex(P, 0.5 + 0.5j)
    for order in (64, 96):
        quadrature.leg_nodes(order)


def _n96_probe() -> list:
    """Known defect: at N = 96 the outside count overflows and the adaptive
    quadrature keeps bisecting; it must end within a deadline."""
    P = kernel.EnsembleParams(96, 97.0)
    ref = kernel.expected_out_exact(96, 97.0)
    job = Job("count_outside/N=96", lambda ctx: kernel.expected_counts(P, "outside"),
              lambda v: None if _close(v, ref, 1e-8, 1e-8) else f"{v!r} vs exact {ref!r}",
              deadline_s=3.0)
    return [job]


# ---------------------------------------------------------------------------
# scaling_limits
# ---------------------------------------------------------------------------

LIMIT_NS = (8, 16, 32)

# label -> (spec, base grid, K): the check is sup_error <= K / N, about four
# times the largest error seen over many jittered grids
LIMIT_REGIMES = {
    "circle_complex": (limits.LimitKernelSpec("circle_complex", lam=1.0, anchor=1j),
                       [(0.3 + 0.2j, -0.1 + 0.4j), (0.0, 0.5j)], 0.12),
    "circle_real": (limits.LimitKernelSpec("circle_real", lam=1.0, anchor=1.0),
                    [(0.5, -0.3), (-0.4, 0.2), (0.5, -0.3 + 0.4j)], 0.2),
    "circle_real_minus": (limits.LimitKernelSpec("circle_real", lam=1.0, anchor=-1.0),
                          [(0.5, -0.3), (-0.4, 0.2), (0.5, -0.3 + 0.4j)], 0.2),
    "inside_disk": (limits.LimitKernelSpec("inside_disk", lam=0.0),
                    [(0.3, -0.5), (0.1, 0.4)], 2.0),
    "outside_disk": (limits.LimitKernelSpec("outside_disk", lam=1.0, c=1.0),
                     [(1.4, 1.8), (-1.5, 2.0)], 2.0),
}


def _jitter(p, rng):
    p = complex(p)
    re = p.real + rng.uniform(-0.1, 0.1)
    if p.imag == 0.0:
        return float(re)
    return complex(re, p.imag + rng.uniform(-0.1, 0.1))


def _convergence(regime: str, N: int, rng) -> Job:
    spec, base, K = LIMIT_REGIMES[regime]
    grid = [(_jitter(a, rng), _jitter(b, rng)) for a, b in base]

    def check(rows):
        err = rows[0]["sup_error"]
        if not (math.isfinite(err) and 0.0 < err <= K / N):
            return f"{regime} sup error {err!r} at N={N} above {K / N:.3e}"
        return None
    return Job(f"convergence/{regime}/N={N}",
               lambda ctx: limits.convergence_report(spec, grid, [N]), check)


def _m_pair_ref(z):
    """``(M, M')`` of ``1F1(3/2; 1; z)`` by SciPy on the real line, mpmath off it."""
    import mpmath
    import scipy.special as sc
    z = np.asarray(z, dtype=complex)
    if np.all(z.imag == 0.0):
        x = z.real
        return sc.hyp1f1(1.5, 1.0, x) + 0j, 1.5 * sc.hyp1f1(2.5, 2.0, x) + 0j
    m = np.empty(z.shape, dtype=complex)
    d = np.empty(z.shape, dtype=complex)
    with mpmath.workdps(25):
        for idx, zz in np.ndenumerate(z):
            m[idx] = complex(mpmath.hyp1f1(1.5, 1.0, zz))
            d[idx] = 1.5 * complex(mpmath.hyp1f1(2.5, 2.0, zz))
    return m, d


def _kappa_xi_ref(lam: float, xi: float, u, v):
    """The quadrature of ``kappa_xi`` with reference values of ``M`` and ``M'``."""
    x, w = quadrature.leg_nodes(96)
    tau, wt = 0.5 * (x + 1.0), 0.5 * w
    Mu, Mpu = _m_pair_ref(np.multiply.outer(u, xi * tau))
    Mv, Mpv = _m_pair_ref(np.multiply.outer(v, xi * tau))
    integral = ((Mpu * Mv - Mu * Mpv) * (wt * tau * (1.0 - lam * tau))).sum(axis=-1)

    def omega(t):
        re = np.real(t)
        return np.where(re <= 0.0, 1.0, np.exp(-np.maximum(re, 0.0) / lam))
    return omega(xi * u) * omega(xi * v) * (xi / 4.0) * integral


def _kappa_field(xi: float, rng, heights: bool) -> Job:
    if heights:
        # heights above 25, where big_m_pair leaves its series for mpmath
        u = np.array([complex(rng.uniform(-3, 3), rng.choice([-1, 1]) * rng.uniform(26, 34))
                      for _ in range(2)])
        v = rng.uniform(-3.0, 3.0, 2).astype(complex)
    else:
        def field():
            re = list(rng.uniform(-8.0, 8.0, 2))
            cx = list(rng.uniform(-5.0, 5.0, 2) + 1j * rng.uniform(-5.0, 5.0, 2))
            return np.array(re + cx, dtype=complex)
        u, v = field(), field()

    def check(k):
        ref = _kappa_xi_ref(1.0, xi, u, v)
        if not _close(k, ref, 1e-10, 1e-12):
            return f"kappa_xi off its reference by {np.max(np.abs(k - ref)):.3e}"
        return None
    kind = "heights" if heights else "field"
    return Job(f"kappa_xi_{kind}/xi={xi:+g}", lambda ctx: limits.kappa_xi(1.0, xi, u, v), check)


def _a_xi(xi: float, rng) -> Job:
    # a*xi < 0 and b*xi < 0, where the single-integral form is valid
    pairs = [(-xi * rng.uniform(0.2, 8.0), -xi * rng.uniform(0.2, 8.0)) for _ in range(2)]

    def check(out):
        for (a, b), val in zip(pairs, out):
            ref = limits.a_xi_iform(1.0, xi, a, b)
            if not _close(val, ref, 1e-10, 1e-10):
                return f"a_xi({a}, {b}) = {val!r} vs single-integral form {ref!r}"
        return None
    return Job(f"a_xi/xi={xi:+g}", lambda ctx: [limits.a_xi(1.0, xi, a, b) for a, b in pairs],
               check)


def _mixed_difference(f, x, y, h=1e-3):
    return (f(x + h, y + h) - f(x + h, y - h) - f(x - h, y + h) + f(x - h, y - h)) / (4 * h * h)


def _disk(rng) -> Job:
    pairs = [tuple(rng.uniform(-0.8, 0.8, 2)) for _ in range(3)]

    def check(out):
        for (u, v), (a, dad) in zip(pairs, out):
            fd = _mixed_difference(limits.a_disk, u, v)
            if not (math.isfinite(abs(a)) and _close(dad, fd, 3e-5, 3e-5)):
                return f"dad_disk({u}, {v}) = {dad!r} vs mixed difference {fd!r}"
        return None
    return Job("disk", lambda ctx: [(limits.a_disk(u, v), limits.dad_disk(u, v))
                                    for u, v in pairs], check)


def _outside(rng) -> Job:
    def point():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(1.3, 3.0))
    cases = [(float(rng.choice([1.0, 2.5])), point(), point()) for _ in range(3)]

    def check(out):
        for (c, x, y), (a, b) in zip(cases, out):
            fd = _mixed_difference(lambda p, q: limits.a_outside(c, p, q), x, y)
            if not (math.isfinite(a) and _close(b, fd, 1e-5, 1e-5)):
                return f"b_outside({c}, {x}, {y}) = {b!r} vs mixed difference {fd!r}"
        return None
    return Job("outside", lambda ctx: [(limits.a_outside(c, x, y), limits.b_outside(c, x, y))
                                       for c, x, y in cases], check)


def _k_zeta(rng) -> Job:
    zeta = complex(np.exp(1j * rng.uniform(0.2, math.pi - 0.2)))
    pts = [(complex(*rng.uniform(-1, 1, 2)), complex(*rng.uniform(-1, 1, 2))) for _ in range(20)]

    def run(ctx):
        return [(limits.k_zeta(1.0, zeta, z, w), limits.k_zeta(1.0, zeta, w, z)) for z, w in pts]

    def check(out):
        for (z, w), (kzw, kwz) in zip(pts, out):
            # a determinantal scalar kernel is Hermitian
            if not _close(kzw, np.conj(kwz), 1e-12, 1e-300):
                return f"k_zeta({z}, {w}) is not Hermitian"
        return None
    return Job("k_zeta", run, check)


def _compare(rng) -> Job:
    im_list = (float(rng.uniform(5, 15)), float(rng.uniform(5, 15)), float(rng.uniform(26, 40)))
    re_list = (float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))

    def check(rows):
        for row, h in zip(rows, im_list):
            errs = []
            for x in re_list:
                z = complex(x, h)
                (M, Mc), (Mp, Mpc) = _m_pair_ref(np.array([z, z.conjugate()]))
                val = 1j / 4.0 * (Mp * Mc - M * Mpc)
                errs.append(abs(val - math.exp(2.0 * x) / math.pi))
            if not _close(row["sup_error"], max(errs), 0.0, 1e-8):
                return f"compare row at height {h}: {row['sup_error']!r} vs {max(errs)!r}"
        return None
    return Job("compare_report", lambda ctx: limits.compare_report(im_list, re_list), check)


def _big_m(rng) -> Job:
    r = 9.0 * np.sqrt(rng.uniform(size=16))
    left = r * np.exp(1j * rng.uniform(0.5 * math.pi, 1.5 * math.pi, 16))
    right = rng.uniform(0.0, 20.0, 16) + 1j * rng.uniform(-10.0, 10.0, 16)
    small = np.concatenate([left, right])
    large = rng.uniform(26.0, 40.0, 4) * np.exp(1j * rng.uniform(0.0, 2 * math.pi, 4))

    def check(out):
        for z, (m, d) in zip((small, large), out):
            rm, rd = _m_pair_ref(z)
            if not (_close(m, rm, 1e-8) and _close(d, rd, 1e-8)):
                return "big_m_pair off mpmath by more than 1e-8 relative"
        return None
    return Job("big_m_pair", lambda ctx: [specfun.big_m_pair(small), specfun.big_m_pair(large)],
               check)


def _limits_pass(rng) -> list:
    jobs = [_convergence(regime, N, rng) for regime in LIMIT_REGIMES for N in LIMIT_NS]
    for xi in (1.0, -1.0):
        jobs += [_kappa_field(xi, rng, heights=False), _a_xi(xi, rng)]
    jobs += [_kappa_field(1.0, rng, heights=True), _disk(rng), _outside(rng),
             _k_zeta(rng), _compare(rng), _big_m(rng)]
    return jobs


def _limits_warm() -> None:
    for N in LIMIT_NS:
        for s in (N + 1.0, math.inf):
            kernel.intensity_real(kernel.EnsembleParams(N, s), 0.5)
    for order in (96, 256):
        quadrature.leg_nodes(order)


def _negative_re_probe() -> list:
    """Known defect: the series in big_m_pair loses digits silently for
    Re z < 0 below its |z| > 25 cut-off."""
    z = np.array([-20.0, -24.9, -20.0 + 10.0j])

    def check(out):
        rm, rd = _m_pair_ref(z)
        err = float(max(np.max(np.abs(out[0] - rm) / np.abs(rm)),
                        np.max(np.abs(out[1] - rd) / np.abs(rd))))
        return None if err <= 1e-8 else f"relative error {err:.3e} against mpmath"
    return [Job("big_m_pair/Re<0", lambda ctx: specfun.big_m_pair(z), check)]


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

# (N, s, step length, emitted steps, burn-in): each job is a fresh chain
MC_CHAINS = ((2, 5.0, 0.5, 600, 100), (4, 8.0, 0.5, 500, 200), (20, 40.0, 0.25, 200, 200))
MC_EDGES = np.linspace(-2.0, 2.0, 9)
# bound in standard errors (see _deviation); over seeds 1 to 8 with 37
# batches, as a traced run has, the largest deviation was 4.7
MC_Z = 8.0


def _chain(N, s, step, steps, burn, rng) -> Job:
    cfg = mc.SamplerConfig(N=N, s=s, step_length=step, steps=steps + burn, burn_in=burn,
                           thin=1, seed=int(rng.integers(2**62)))

    def run(ctx):
        n_real, reals, accepted, prev = [], [], 0, None
        for p in mc.sample(cfg):
            accepted += prev is not None and p.coeffs != prev
            prev = p.coeffs
            rs = mc.roots_classify(p)
            if len(rs.reals) + 2 * len(rs.pairs) != N:
                raise ValueError(f"classified {len(rs.reals)} reals and "
                                 f"{len(rs.pairs)} pairs at degree {N}")
            n_real.append(len(rs.reals))
            reals.extend(rs.reals)
        reals = np.asarray(reals)
        return {"n_real": np.array(n_real),
                "inside_mean": float(np.count_nonzero(np.abs(reals) <= 1.0)) / steps,
                "bin_means": np.histogram(reals, bins=MC_EDGES)[0] / steps,
                "accepted": int(accepted)}

    def check(out):
        return None if len(out["n_real"]) == steps else "wrong number of emitted states"
    return Job(f"chain/N={N}", run, check)


def _mc_pass(rng) -> list:
    return [_chain(*params, rng) for params in MC_CHAINS]


def ess(x) -> "float | None":
    """Effective sample size by Geyer's initial monotone sequence."""
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    if n < 4 or not np.any(x):
        return None
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * np.conj(f))[:n]
    rho = acov / acov[0]
    tau, pair_min = -1.0, math.inf
    for k in range(0, n - 1, 2):
        pair = rho[k] + rho[k + 1]
        if pair <= 0.0:
            break
        pair_min = min(pair_min, pair)
        tau += 2.0 * pair_min
    return n / tau


def _deviation(obs: float, expect: float, se: float) -> float:
    """|obs - expect| in standard errors, under the hypothesis that the sampler is right.

    ``obs`` is a count per step, whose variance grows with its mean, so a run
    that under-visits a rare bin also under-reads its batch-means standard
    error: seed 1 of a traced run saw 0.0058 roots per step in [-2, -1.5]
    against 0.0195, with a standard error of 0.0016.  Scaling the error up
    to the expected count (never down) gives the spread the hypothesis
    implies.  A bin never visited is a failure.
    """
    if obs <= 0.0:
        return math.inf
    return abs(obs - expect) / (se * math.sqrt(max(expect / obs, 1.0)))


def _mc_finish(done: list) -> tuple:
    by_n: dict = {}
    for job, out in done:
        by_n.setdefault(job.name, []).append(out)
    failures = []

    def batch(values):
        values = np.asarray(values, dtype=float)
        return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))

    if min(len(v) for v in by_n.values()) < 2 or len(by_n) < len(MC_CHAINS):
        return [f"too few chain segments for the batch means: "
                f"{ {k: len(v) for k, v in by_n.items()} }"], {}
    mean, se = batch([o["inside_mean"] for o in by_n["chain/N=2"]])
    if _deviation(mean, 0.6, se) > MC_Z:
        failures.append(f"N=2 mean real roots in [-1,1] {mean:.4f} vs 0.6 "
                        f"(batch-means se {se:.4f})")
    obs, se = batch([o["bin_means"] for o in by_n["chain/N=4"]])
    P = kernel.EnsembleParams(4, 8.0)
    for j, (lo, hi) in enumerate(zip(MC_EDGES[:-1], MC_EDGES[1:])):
        expect, _ = quadrature.adaptive(lambda x: kernel.intensity_real(P, x),
                                        float(lo), float(hi), tol=1e-9)
        if _deviation(obs[j], expect, se[j]) > MC_Z:
            failures.append(f"N=4 bin [{lo:g},{hi:g}] {obs[j]:.4f} vs kernel "
                            f"{expect:.4f} (batch-means se {se[j]:.4f})")
    outs = [o for group in by_n.values() for o in group]
    proposals = sum(len(o["n_real"]) - 1 for o in outs)
    sizes = [(ess(o["n_real"]), len(o["n_real"])) for o in outs]
    sizes = [(e, n) for e, n in sizes if e is not None]
    extras = {
        "mc.sample.acceptance_rate": sum(o["accepted"] for o in outs) / proposals,
        "mc.sample.ess_per_1k_steps":
            1000.0 * sum(e for e, _ in sizes) / sum(n for _, n in sizes) if sizes else 0.0,
    }
    return failures, extras


# ---------------------------------------------------------------------------
# cli_cold
# ---------------------------------------------------------------------------


def _spawn(ctx: Context, tag: str, args: list) -> tuple:
    """Run one ``mahler`` process to completion; returns (exit code, stdout).

    The child runs the command line through ``cli_child.py``, which reports
    its own peak memory (and, traced, its spans).  If the job deadline
    interrupts the wait, the child is killed and reaped before the deadline
    propagates.
    """
    out_path = ctx.workdir / f"{tag}.out"
    report_path = ctx.workdir / f"{tag}.report.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, str(ctx.root / "perfbench" / "cli_child.py"), str(report_path),
            "trace" if ctx.traced else "plain"] + args
    with open(out_path, "wb") as out, open(ctx.workdir / f"{tag}.err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ctx.root,
                                env=ctx.child_env)
    try:
        proc.wait()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if report_path.is_file():
        data = json.loads(report_path.read_text())
        ctx.child_peak_kb = max(ctx.child_peak_kb, data["peak_kb"])
        if ctx.traced:
            ctx.child_import_s.append(data["import_s"])
            spans.merge(ctx.child_spans, data["spans"])
    return proc.returncode, out_path.read_text()


def _csv_rows(text: str) -> list:
    lines = text.strip().splitlines()
    return [[float(x) for x in line.split(",")] for line in lines[1:]]


def _cli_volume(rng) -> Job:
    def check(out):
        code, text = out
        data = json.loads(text)
        ref = volume.chern_vaaler_f(4, 8.0)
        if code != 0 or data["F_product"] != ref or data["abs_diff"] > 1e-8 * ref:
            return f"exit {code}, output {data}"
        return None
    return Job("cli/volume", lambda ctx: _spawn(ctx, "volume", ["volume", "--N", "4", "--s", "8"]),
               check)


def _cli_grid(tag: str, args: list, reference, rng) -> Job:
    """A grid subcommand writing CSV to stdout; a few rows are recomputed."""
    picks = sorted(int(i) for i in rng.choice(441, size=3, replace=False))

    def check(out):
        code, text = out
        rows = _csv_rows(text)
        if code != 0 or len(rows) != 441:
            return f"exit {code} with {len(rows)} rows"
        for i in picks:
            want = reference(rows[i])
            if not _close(rows[i], want, 1e-13, 1e-300):
                return f"row {i} {rows[i]} vs in-process {want}"
        return None
    return Job(f"cli/{tag}", lambda ctx: _spawn(ctx, tag, args + ["--out", "-"]), check)


def _cli_kernel_grid(rng) -> Job:
    v_re = float(rng.uniform(0.2, 0.8))
    P = kernel.EnsembleParams(2, 5.0)

    def reference(row):
        u, v = complex(row[0], row[1]), complex(row[2], row[3])
        K = kernel.matrix_kernel(P, u, v)
        return row[:4] + [x for e in (K.e11, K.e12, K.e21, K.e22) for x in (e.real, e.imag)]
    return _cli_grid("kernel-grid",
                     ["kernel-grid", "--N", "2", "--s", "5", "--v-re", repr(v_re)],
                     reference, rng)


def _cli_intensity(rng) -> Job:
    P = kernel.EnsembleParams(2, 5.0)

    def reference(row):
        z = complex(row[0], row[1])
        val = kernel.intensity_real(P, z.real) if z.imag == 0.0 else kernel.intensity_complex(P, z)
        return row[:2] + [float(val)]
    return _cli_grid("intensity", ["intensity", "--N", "2", "--s", "5"], reference, rng)


def _cli_intensity_edge(rng) -> Job:
    def reference(row):
        z = complex(row[0], row[1])
        if z.imag == 0.0:
            return row[:2] + [0.0]
        return row[:2] + [float((_iota(z) * limits.kappa_xi(1.0, 1.0, z, z.conjugate())).real)]
    return _cli_grid("intensity-circle_real",
                     ["intensity", "--regime", "circle_real", "--xi", "1", "--lam", "1"],
                     reference, rng)


def _cli_convergence(rng) -> Job:
    def check(out):
        code, text = out
        report = json.loads(text)
        if code != 0 or len(report) != 7:
            return f"exit {code} with groups {sorted(report)}"
        for group in ("circle_complex", "circle_real", "inside_disk", "outside_disk",
                      "kasymp_sums", "ratio_sums"):
            errs = [row["sup_error"] for row in report[group]]
            if len(errs) != 3 or not all(a > b > 0 for a, b in zip(errs, errs[1:])):
                return f"{group} errors {errs} do not decrease over N"
        return None
    return Job("cli/convergence",
               lambda ctx: _spawn(ctx, "convergence", ["convergence", "--N-list", "8,16,32"]),
               check)


def _cli_expected(rng) -> Job:
    def check(out):
        code, text = out
        values = dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line
                      and "exact" in line)
        e_in = float(values["E_in (exact sum) "])
        e_out = float(values["E_out (exact sum)"])
        if code != 0 or e_in != kernel.expected_in_exact(200, 201.0) \
                or e_out != kernel.expected_out_exact(200, 201.0):
            return f"exit {code}, E_in {e_in!r}, E_out {e_out!r}"
        return None
    return Job("cli/expected-roots",
               lambda ctx: _spawn(ctx, "expected", ["expected-roots", "--N", "200", "--s", "201"]),
               check)


def _cli_sample(rng) -> Job:
    seed = int(rng.integers(2**31))
    cfg = mc.SamplerConfig(N=3, s=7.0, steps=3000, burn_in=500, seed=seed)

    def run(ctx):
        path = ctx.workdir / "sample.csv"
        code, text = _spawn(ctx, "sample", ["sample", "--N", "3", "--s", "7", "--steps", "3000",
                                            "--burn-in", "500", "--seed", str(seed),
                                            "--out", str(path)])
        return code, text, path.read_text() if path.exists() else ""

    def check(out):
        code, text, csv_text = out
        rows = csv_text.strip().splitlines()[1:]
        if code != 0 or len(rows) != 2500 or "wrote 2500 samples" not in text:
            return f"exit {code}, {len(rows)} rows"
        head = [p.coeffs for _, p in zip(range(20), mc.sample(cfg))]
        got = [tuple(float(x) for x in row.split(",")[2:]) for row in rows[:20]]
        if got != head:
            return "sampled rows differ from the in-process chain"
        return None
    return Job("cli/sample", run, check)


def _cli_validate(rng) -> Job:
    def check(out):
        code, text = out
        lines = text.strip().splitlines()
        if code != 0 or len(lines) != 5 or not all(line.startswith("PASS") for line in lines):
            return f"exit {code}: {lines}"
        return None
    return Job("cli/validate", lambda ctx: _spawn(ctx, "validate", ["validate"]), check)


def _cli_pass(rng) -> list:
    return [_cli_volume(rng), _cli_kernel_grid(rng), _cli_intensity(rng),
            _cli_intensity_edge(rng), _cli_convergence(rng), _cli_expected(rng),
            _cli_sample(rng), _cli_validate(rng)]


def _no_warm() -> None:
    pass


def run_probes(probes: list, ctx: Context, timed) -> list:
    """Run known-defect probes; each is reported by name, pass or fail."""
    results = []
    for job in probes:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, seconds, error = timed(job, ctx)
        if error is None:
            error = job.check(out)
        results.append({"job": job.name, "status": "fail" if error else "pass",
                        "seconds": round(seconds, 3), "error": error})
    return results


WORKLOADS = {
    w.name: w for w in (
        Workload("finite_kernel", _finite_warm, _finite_pass, probes=_n96_probe),
        Workload("scaling_limits", _limits_warm, _limits_pass, probes=_negative_re_probe),
        Workload("monte_carlo", _no_warm, _mc_pass, min_passes=10, finish=_mc_finish),
        Workload("cli_cold", _no_warm, _cli_pass, in_process=False),
    )
}
