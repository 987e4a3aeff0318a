"""Monte-Carlo validation: Mahler measure, star-body ball-walk sampler and
root classification.

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
# A proposal moves each coefficient by step_length * radius * d_i / |d| with
# radius <= 1 and a standard normal d_i, which the generator's ziggurat keeps
# below 14 in magnitude, so below this bound that product is finite. The
# proposal's Mahler measure is at most its coefficient 2-norm (Landau's
# inequality), so it is finite too unless the current state's coefficients are
# near the double range, which a chain from the origin reaches only through
# accepted proposals of huge measure, whose acceptance ratio (M'/M)^-s is tiny.
_MAX_STEP = 1e300


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
        if not 0 < self.step_length <= _MAX_STEP:
            raise DomainError(f"step_length must lie in (0, {_MAX_STEP:g}]")
        if self.steps < self.burn_in or self.burn_in < 0:
            raise DomainError("need steps >= burn_in >= 0")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")


@dataclass(frozen=True)
class RootSet:
    reals: tuple[float, ...]
    pairs: tuple[complex, ...]


def mahler_measure(p: PolyCoeffs) -> float:
    """``|leading coefficient| * prod max(1, |root|)``."""
    roots = p.roots     # DomainError at the zero polynomial
    lead = np.trim_zeros(np.asarray(p.coeffs, dtype=float), trim="b")[-1]
    return abs(lead) * _root_product(roots)


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

