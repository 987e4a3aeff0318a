"""Monte-Carlo validation: Mahler measure, star-body ball-walk sampler,
root classification, and empirical statistics against kernel predictions.

The sampler is a Metropolis ball walk on the coefficient vector of a monic
polynomial: at infinite ``s`` proposals are accepted iff the monic Mahler
measure stays at most 1 (uniform sampling of the monic star body); at finite
``s`` the acceptance ratio is the Mahler-measure power ``(M'/M)^{-s}``.
Proposals are never auto-rejected silently: a rejected step re-emits the
current state, which is what keeps the chain's invariant density correct.
Each proposal is solved once, by the LAPACK ``dgeev`` call behind
``np.roots``; a non-finite Mahler measure raises ``ConditioningError``.
``roots_classify`` and ``mahler_measure`` read ``PolyCoeffs.roots``, which
``sample`` fills in for each state it emits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg._umath_linalg import eigvals as _eigvals  # unchecked dgeev

from .errors import ConditioningError, DomainError, PairingError
from .polys import PolyCoeffs

_REAL_TOL = 1e-9  # roots_classify: a root with |Im r| <= this (1 + |r|) is real


@dataclass(frozen=True)
class SamplerConfig:
    N: int
    s: float
    step_length: float = 0.25
    steps: int = 10_000
    burn_in: int = 1_000
    thin: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be positive")
        if not (math.isinf(self.s) or self.s > self.N):
            raise DomainError("requires s > N (or s = inf)")
        if not 0 < self.step_length < math.inf:
            raise DomainError("step_length must be positive and finite")
        if self.steps < self.burn_in or self.burn_in < 0:
            raise DomainError("need steps >= burn_in >= 0")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")


@dataclass(frozen=True)
class RootSet:
    reals: tuple[float, ...]
    pairs: tuple[complex, ...]


def mahler_measure(p: PolyCoeffs, cross_check: bool = False) -> float:
    """``|leading coefficient| * prod max(1, |root|)``.

    With ``cross_check=True`` the value is compared against the circle
    average of ``log |p|`` (512-node trapezoid); the slow convergence of that
    average for roots near the circle is why the check is opt-in.
    """
    roots = p.roots     # DomainError at the zero polynomial
    lead = np.trim_zeros(np.asarray(p.coeffs, dtype=float), trim="b")[-1]
    val = abs(lead) * _root_product(roots)
    if cross_check:
        n = 512
        theta = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
        pv = p(np.exp(1j * theta))
        jensen = math.exp(float(np.mean(np.log(np.abs(pv)))))
        if abs(jensen - val) > 1e-4 * max(1.0, abs(val)):
            raise ConditioningError(
                f"root-product {val:.8g} vs circle-average {jensen:.8g}")
    return val


def _root_product(roots: np.ndarray) -> float:  # monic Mahler measure
    return float(np.maximum(np.abs(roots), 1.0).prod())


def sample(cfg: SamplerConfig):
    """Generator of monic samples from the ball walk; deterministic per seed.

    Emits every ``thin``-th post-burn-in state (rejected proposals re-emit
    the current state, they are not skipped).
    """
    rng = np.random.default_rng(cfg.seed)
    N = cfg.N
    companion = np.diag(np.ones(N - 1), -1)     # first row: -b[::-1]
    b, roots, m_cur = np.zeros(N), np.zeros(N), 1.0     # z^N: N roots at 0
    for step in range(cfg.steps):
        direction = rng.standard_normal(N)
        norm = math.sqrt(direction @ direction)
        radius = rng.random() ** (1.0 / N)
        prop = b + cfg.step_length * radius * direction / norm
        if prop[0] == 0.0:      # np.roots splits the zero roots off first
            r_prop = np.roots(np.append(prop, 1.0)[::-1])
        else:
            np.negative(prop[::-1], out=companion[0])
            r_prop = _eigvals(companion, signature="d->D")
            if not np.count_nonzero(r_prop.imag):  # np.linalg.eigvals' real cast
                r_prop = r_prop.real
        m_prop = _root_product(r_prop)
        if not math.isfinite(m_prop):
            raise ConditioningError(f"step {step}: Mahler measure {m_prop}")
        if math.isinf(cfg.s):
            accept = m_prop <= 1.0 + 1e-12
        else:
            ratio = (m_prop / m_cur) ** (-cfg.s)
            accept = ratio >= 1.0 or rng.random() < ratio
        if accept:
            b, m_cur, roots = prop, m_prop, r_prop
        if step >= cfg.burn_in and (step - cfg.burn_in) % cfg.thin == 0:
            p = PolyCoeffs((*b.tolist(), 1.0))
            roots.flags.writeable = False
            vars(p)["roots"] = roots    # the cached_property, already solved
            yield p


def roots_classify(p: PolyCoeffs) -> RootSet:
    """Split the roots into reals and conjugate-pair representatives.

    Roots with small imaginary part (relative to their magnitude) are snapped
    to the real axis. ``dgeev`` returns the non-real roots of a real matrix
    in exactly conjugate pairs, upper root first, so the lower roots in solver
    order must be exactly the conjugates of the upper ones.
    """
    roots = p.roots
    # np.hypot, not np.abs: it rounds |r| as the scalar abs(r) does
    real = np.abs(roots.imag) <= _REAL_TOL * (1.0 + np.hypot(roots.real, roots.imag))
    complexes = roots[~real]
    upper = complexes.imag > 0
    uppers, lowers = complexes[upper], complexes[~upper]
    if uppers.size != lowers.size or np.count_nonzero(lowers != uppers.conj()):
        raise PairingError("non-real roots are not exact conjugate pairs")
    return RootSet(tuple(sorted(roots.real[real].tolist())), tuple(uppers.tolist()))


@dataclass(frozen=True)
class Histogram1D:
    edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class Histogram2D:
    x_edges: np.ndarray
    y_edges: np.ndarray
    density: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True)
class EmpiricalStats:
    n_samples: int
    mean_real_count: float
    stderr_real_count: float
    real_hist: Histogram1D
    complex_hist: Histogram2D


def empirical_stats(samples, real_edges, complex_x_edges,
                    complex_y_edges) -> EmpiricalStats:
    """Root statistics of a sample collection, normalized as densities.

    The real histogram estimates the one-point density of real roots; the
    complex histogram records each conjugate pair at its representative and
    its mirror, so it is conjugate-symmetric by construction and estimates
    the density of non-real roots.
    """
    real_edges = np.asarray(real_edges, dtype=float)
    cx = np.asarray(complex_x_edges, dtype=float)
    cy = np.asarray(complex_y_edges, dtype=float)
    counts = []
    real_rows = []
    chist_total = np.zeros((cx.size - 1, cy.size - 1))
    chist_sq = np.zeros_like(chist_total)
    for p in samples:
        rs = roots_classify(p)
        counts.append(len(rs.reals))
        row, _ = np.histogram(rs.reals, bins=real_edges)
        real_rows.append(row)
        z = np.array(rs.pairs, dtype=complex)
        z = np.concatenate([z, z.conj()])     # each pair and its mirror
        crow, _, _ = np.histogram2d(z.real, z.imag, bins=(cx, cy))
        chist_total += crow
        chist_sq += crow ** 2
    n = len(counts)
    if n < 1:
        raise DomainError("no samples provided")
    counts = np.asarray(counts, dtype=float)
    real_rows = np.asarray(real_rows, dtype=float)
    widths = np.diff(real_edges)
    density = real_rows.mean(axis=0) / widths
    stderr = real_rows.std(axis=0, ddof=1) / widths / math.sqrt(n) \
        if n > 1 else np.zeros_like(density)
    area = np.outer(np.diff(cx), np.diff(cy))
    cdensity = chist_total / (n * area)
    cvar = chist_sq / n - (chist_total / n) ** 2
    cstderr = np.sqrt(np.maximum(cvar, 0.0) / max(n - 1, 1)) / area
    return EmpiricalStats(
        n_samples=n,
        mean_real_count=float(counts.mean()),
        stderr_real_count=float(counts.std(ddof=1) / math.sqrt(n))
        if n > 1 else 0.0,
        real_hist=Histogram1D(real_edges, density, stderr),
        complex_hist=Histogram2D(cx, cy, cdensity, cstderr))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_samples_csv(path: str, cfg: SamplerConfig, samples) -> int:
    """One row per polynomial: seed, step index, ascending coefficients."""
    n = 0
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["seed", "index"] + [f"c{k}" for k in range(cfg.N + 1)])
        for i, p in enumerate(samples):
            writer.writerow([cfg.seed, i] + [_fmt(c) for c in p.coeffs])
            n += 1
    return n

