"""Finite-N Pfaffian machinery for the real ensemble.

The scalar kernel is the antisymmetric bilinear combination of weighted
skew-orthogonal polynomials; the 2x2 matrix kernel applies the eps-operator
in either slot with species dispatch (closed forms on the real line,
``i sgn(Im) f(conj .)`` off it) and carries the odd-N correction terms.
Correlation functions are Pfaffians of block matrices of kernel values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .errors import (DomainError, NotAntisymmetricError, OddDimensionError,
                     ResidualError)
from .polys import (_p_table, _pi_odd_table, eps_monomials, p_eval_sequence,
                    s_norm, weight)
from .quadrature import _check_quad, adaptive, halfline
from .specfun import gammaln_signed, iota


@dataclass(frozen=True)
class EnsembleParams:
    """Degree ``N`` and decay exponent ``s > N`` (``s = inf`` allowed)."""

    N: int
    s: float

    def __post_init__(self):
        if self.N < 1:
            raise DomainError("N must be positive")
        if not (self.s > self.N):
            raise DomainError(f"requires s > N, got s={self.s}, N={self.N}")

    @property
    def lam(self) -> float:
        """The ratio N/s (0 when s is infinite)."""
        return 0.0 if math.isinf(self.s) else self.N / self.s


@dataclass(frozen=True)
class KernelValue2x2:
    e11: complex
    e12: complex
    e21: complex
    e22: complex

    def as_array(self) -> np.ndarray:
        return np.array([[self.e11, self.e12], [self.e21, self.e22]])


@dataclass(frozen=True)
class PointConfig:
    """Real points and upper-half-plane representatives of conjugate pairs."""

    reals: tuple[float, ...]
    uppers: tuple[complex, ...]

    def __post_init__(self):
        for z in self.uppers:
            if complex(z).imag <= 0:
                raise DomainError(f"upper point {z} not in the open upper half-plane")


# ---------------------------------------------------------------------------
# coefficient tables per (N, s)
# ---------------------------------------------------------------------------


class _Tables:
    """Coefficient matrices of the weighted family for one parameter pair.

    Row ``j`` of ``even`` holds the core of ``pi_{2j}`` and row ``j`` of
    ``odd`` the core of ``pi_{2j+1}/u``, both in ``t = u^2`` and zero-padded.
    For odd ``N`` the last even row is the top member ``pi_{2J}``, and each
    row ``j < J`` has ``(s_{2j}/s_{2J}) pi_{2J}`` subtracted: this is the
    odd-N correction of the pair sum, folded into the basis.
    """

    def __init__(self, N: int, s: float):
        self.N = N
        self.s = s
        self.J = N // 2
        self.odd_N = N % 2 == 1
        K = N - self.J          # even members pi_{2j}, j < K
        self.even = _p_table(K - 1, 0.5, -0.5)
        self.odd = _pi_odd_table(self.J - 1, s) if self.J else np.zeros((0, 0))
        if self.odd_N:
            s2 = np.array([s_norm(j, s) for j in range(self.J + 1)])
            self.s2J = s2[self.J]
            self.even[:self.J] -= np.outer(s2[:self.J] / self.s2J, self.even[self.J])


@lru_cache(maxsize=64)
def _tables(N: int, s: float) -> _Tables:
    return _Tables(N, s)


def _family(tab: _Tables, u):
    """``(w pi_{2j}(u), w pi_{2j+1}(u))`` for every ``j``, stacked on a leading
    axis: the coefficient matrices times the powers of ``u^2``. Vectorized."""
    u = np.asarray(u)
    powers = np.vander((u * u).ravel(), tab.even.shape[1], increasing=True).T
    w = weight(tab.s, u)
    pe = (tab.even @ powers).reshape(tab.even.shape[:1] + u.shape) * w
    po = (tab.odd @ powers[:tab.J]).reshape((tab.J,) + u.shape) * (u * w)
    return pe, po


class _Features:
    """Values of the weighted family and its eps-transform at one argument.

    ``pe``, ``po`` as returned by :func:`_family`, and ``epe``, ``epo`` their
    eps-transforms: the matrices times the closed-form monomial transforms
    for real arguments, ``i sgn(Im u) conj(.)`` for complex ones (the cores
    are real and the weight depends on ``|u|`` only). Vectorized over arrays
    of one species.
    """

    def __init__(self, tab: _Tables, u, is_real: bool):
        u = np.asarray(u, dtype=float if is_real else complex)
        self.pe, self.po = _family(tab, u)
        if is_real:
            eps = eps_monomials(np.arange(tab.N), tab.s, u.ravel())
            self.epe = (tab.even @ eps[0::2]).reshape(self.pe.shape)
            self.epo = (tab.odd @ eps[1::2]).reshape(self.po.shape)
            self.chi = 1.0
        else:
            phase = iota(u)
            self.epe = phase * np.conj(self.pe)
            self.epo = phase * np.conj(self.po)
            self.chi = 0.0


def _is_real_arg(u) -> bool:
    return abs(complex(u).imag) == 0.0


def _pair_sum(tab: _Tables, au, bu, av, bv):
    """``2 sum_{j<J} [au_j bv_j - av_j bu_j]`` over even-family values
    ``au/av`` and odd-family values ``bu/bv`` (the odd-N correction is in
    the table rows)."""
    J = tab.J
    return 2.0 * np.sum(au[:J] * bv - av[:J] * bu, axis=0)


def kappa_n(P: EnsembleParams, u, v):
    """Scalar kernel (the (1,1) entry), including the weights; vectorized."""
    tab = _tables(P.N, P.s)
    u, v = np.broadcast_arrays(u, v)
    return _pair_sum(tab, *_family(tab, u), *_family(tab, v))


def _entry_12(tab: _Tables, fu: _Features, fv: _Features):
    """kappa eps (eps in the second slot) plus the odd-N chi term."""
    val = _pair_sum(tab, fu.pe, fu.po, fv.epe, fv.epo)
    if tab.odd_N:
        val = val + fu.pe[tab.J] * fv.chi / tab.s2J
    return val


def _entry_22(tab: _Tables, fu: _Features, fv: _Features):
    """eps kappa eps, plus odd-N chi terms (the sgn term is added by callers)."""
    val = _pair_sum(tab, fu.epe, fu.epo, fv.epe, fv.epo)
    if tab.odd_N:
        val = val + (fu.epe[tab.J] * fv.chi - fv.epe[tab.J] * fu.chi) / tab.s2J
    return val


def matrix_kernel(P: EnsembleParams, u, v) -> KernelValue2x2:
    """The 2x2 matrix kernel at a pair of scalar arguments.

    The (2,2) entry carries ``(1/2) sgn(u - v)`` only when both arguments are
    real; the (2,1) entry is ``-(1,2)`` with the arguments swapped, which is
    the antisymmetry of the block kernel.
    """
    tab = _tables(P.N, P.s)
    ur, vr = _is_real_arg(u), _is_real_arg(v)
    fu = _Features(tab, complex(u).real if ur else u, ur)
    fv = _Features(tab, complex(v).real if vr else v, vr)
    e11 = _pair_sum(tab, fu.pe, fu.po, fv.pe, fv.po)
    e12 = _entry_12(tab, fu, fv)
    e21 = -_entry_12(tab, fv, fu)
    e22 = _entry_22(tab, fu, fv)
    if ur and vr:
        e22 = e22 + 0.5 * np.sign(complex(u).real - complex(v).real)
    return KernelValue2x2(complex(e11), complex(e12), complex(e21), complex(e22))


def intensity_real(P: EnsembleParams, x):
    """Density of real roots ``R_{1,0}(x)``; vectorized over real ``x``."""
    tab = _tables(P.N, P.s)
    f = _Features(tab, np.asarray(x, dtype=float), True)
    return np.real(_entry_12(tab, f, f))


def intensity_complex(P: EnsembleParams, z):
    """Density of conjugate pairs ``R_{0,1}(z) = i sgn(Im z) kappa(z, conj z)``.

    Vectorized over complex ``z`` off the real axis (0 on the axis).
    """
    tab = _tables(P.N, P.s)
    z = np.asarray(z, dtype=complex)
    pe, po = _family(tab, z)
    val = iota(z) * _pair_sum(tab, pe, po, np.conj(pe), np.conj(po))
    return np.real(val)


# ---------------------------------------------------------------------------
# sums of products of P_n
# ---------------------------------------------------------------------------


def sum_k(N: int, a1: float, b1: float, a2: float, b2: float, z, w):
    """``sum_{n<N} P_n^{a1,b1}(z) P_n^{a2,b2}(w)`` with compensated summation."""
    pz = p_eval_sequence(N, a1, b1, z)
    pw = p_eval_sequence(N, a2, b2, w)
    total = np.zeros_like(pz[0])
    comp = np.zeros_like(pz[0])
    for n in range(N):
        term = pz[n] * pw[n] - comp
        new_total = total + term
        comp = (new_total - total) - term
        total = new_total
    if np.ndim(z) == 0 and np.ndim(w) == 0:
        return complex(total)
    return total


# ---------------------------------------------------------------------------
# Pfaffian and correlations
# ---------------------------------------------------------------------------


def pfaffian(A) -> complex:
    """Pfaffian of an even-dimensional antisymmetric matrix.

    Skew-symmetric Parlett–Reid elimination with partial pivoting (in real
    arithmetic for a real matrix): each step pivots the largest below-diagonal
    entry of the working column into place (a swap flips the sign), multiplies
    the result by the (k, k+1) entry and updates the trailing block by rank two.
    """
    A = np.array(A, dtype=complex if np.iscomplexobj(A) else float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError("pfaffian requires a square matrix")
    n = A.shape[0]
    if n % 2 != 0:
        raise OddDimensionError(f"pfaffian requires even dimension, got {n}")
    if n == 0:
        return 1.0 + 0.0j
    if np.max(np.abs(A + A.T)) > 1e-10 * max(1.0, np.max(np.abs(A))):
        raise NotAntisymmetricError("matrix is not antisymmetric within 1e-10")
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(A[k + 1:, k])))
        if kp != k + 1:
            A[[k + 1, kp], :] = A[[kp, k + 1], :]
            A[:, [k + 1, kp]] = A[:, [kp, k + 1]]
            pf = -pf
        if A[k + 1, k] == 0.0:
            return 0.0 + 0.0j
        pf = pf * A[k, k + 1]
        if k + 2 < n:
            tau = A[k, k + 2:] * (1.0 / A[k, k + 1])   # reciprocal, as in complex division
            col = A[k + 2:, k + 1]
            A[k + 2:, k + 2:] += tau[:, None] * col - col[:, None] * tau
    return pf


def correlation(P: EnsembleParams, pts: PointConfig) -> float:
    """Correlation function: Pfaffian of the block matrix of kernel values.

    Real points first, then upper-half-plane points: one feature build per
    species, broadcast over all pairs. The result must be real up to a small
    imaginary residual, which is checked and discarded.
    """
    x = np.array(pts.reals, dtype=float)
    l, m = x.size, x.size + len(pts.uppers)
    if l + 2 * len(pts.uppers) > P.N:
        raise DomainError("more points than roots: l + 2m must be <= N")
    tab = _tables(P.N, P.s)
    fr = _Features(tab, x, True)
    fc = _Features(tab, np.array(pts.uppers, dtype=complex), False)
    f = {k: np.concatenate([getattr(fr, k), getattr(fc, k)], axis=-1)
         for k in ("pe", "po", "epe", "epo")}
    f["chi"] = np.repeat([1.0, 0.0], [l, m - l])
    fu = SimpleNamespace(**{k: v[..., :, None] for k, v in f.items()})
    fv = SimpleNamespace(**{k: v[..., None, :] for k, v in f.items()})
    e12, e22 = _entry_12(tab, fu, fv), _entry_22(tab, fu, fv)
    e22[:l, :l] += 0.5 * np.sign(x[:, None] - x[None, :])
    M = np.stack([np.stack([_pair_sum(tab, fu.pe, fu.po, fv.pe, fv.po), e12], -1),
                  np.stack([-e12.T, e22], -1)], 1).reshape(2 * m, 2 * m)
    M = np.triu(M, 1)       # the strict upper triangle fixes the rest
    val = pfaffian(M - M.T)
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ResidualError(f"correlation has imaginary residual {val.imag:.3e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------


def expected_counts(P: EnsembleParams, region, tol: float = 1e-9) -> float:
    """Expected number of roots in a region.

    ``region`` is one of ``'inside'`` (real roots in [-1, 1]), ``'outside'``
    (real roots beyond), ``'realline'``, ``'complex'`` (conjugate pairs,
    counted as 2 roots each), ``('disk', r)`` for pairs within radius
    ``r >= 0``, or ``'all'`` (everything; integrates to N). Real-line counts
    come from adaptive quadrature to ``tol``; non-real counts are exact
    moment sums, which ``tol`` does not affect.
    """
    if isinstance(region, tuple) and region[:1] == ("disk",):
        r = region[1] if len(region) == 2 else None
        if not (isinstance(r, numbers.Real) and r >= 0):
            raise DomainError(f"a disk region is ('disk', r), r >= 0: {region!r}")
        return _complex_count(P, float(r))
    if region == "inside":
        val, err = adaptive(lambda x: intensity_real(P, x), -1.0, 1.0, tol=tol)
        _check_quad(val, err)
        return val
    if region == "outside":
        return _outside_count(P, tol)
    if region == "realline":
        return expected_counts(P, "inside", tol) + _outside_count(P, tol)
    if region == "complex":
        return _complex_count(P, math.inf)
    if region == "all":
        return expected_counts(P, "realline", tol) + _complex_count(P, math.inf)
    raise DomainError(f"unknown region {region!r}")


def _outside_count(P: EnsembleParams, tol: float) -> float:
    if math.isinf(P.s):
        return 0.0
    val, err = halfline(lambda x: intensity_real(P, x), 1.0, tol=tol)
    _check_quad(val, err)
    return 2.0 * val       # the density is even


def _complex_count(P: EnsembleParams, r_max: float) -> float:
    """Expected number of non-real roots of modulus below ``r_max``: twice
    the integral of ``R_{0,1}`` over the upper half-plane, in closed form.

    With ``E = even[:J]``, ``O = odd`` and ``z = r e^{i theta}``,
    ``pe_j conj(po_j) = w(r)^2 sum_{k,l} E_jk O_jl r^{2k+2l+1}
    e^{i(2k-2l-1) theta}`` and the density is ``-4 sum_j Im(pe_j conj po_j)``.
    Since ``int_0^pi sin(m theta) d theta = 2/m`` for odd ``m``, the count is
    ``-16 sum_{j,k,l} E_jk O_jl mu_{k+l} / (2k-2l-1)`` with the radial moments
    ``mu_n = int_0^r_max w(r)^2 r^{2n+2} dr``, finite for ``n <= N-2`` as ``s > N``.
    """
    tab = _tables(P.N, P.s)
    k = np.arange(tab.even.shape[1])[:, None]
    l = np.arange(tab.J)
    e = 2.0 * (k + l) + 3.0
    mu = min(r_max, 1.0) ** e / e
    if r_max > 1.0 and not math.isinf(P.s):
        d = 2.0 * P.s - e
        mu = mu + (1.0 - r_max ** -d) / d
    C = mu / (2.0 * (k - l) - 1.0)
    return -16.0 * float(np.sum(tab.even[:tab.J] * (tab.odd @ C.T)))


def expected_in_exact(N: int, s: float) -> float:
    """Exact expected number of real roots in [-1, 1] for even ``N = 2J``.

    A double Gamma-ratio sum evaluated in log space; valid to N of order
    thousands.
    """
    if N % 2 != 0:
        raise DomainError("exact count sums require even N")
    if not s > N:
        raise DomainError("requires s > N")
    J = N // 2
    # every argument is k + 1/2 (H) or k + 1 (G) for an integer 0 <= k <= N
    H, G = (gammaln_signed(np.arange(N + 1) + a)[0] for a in (0.5, 1.0))
    total = 0.0 if math.isinf(s) else J / s
    for n in range(J):
        m = np.arange(n + 1, dtype=float)
        log_t = (H[:n + 1] + H[n::-1] + G[n:2 * n + 1] + H[1:n + 2]
                 - 2.0 * G[:n + 1] - G[n::-1] - H[n + 2:2 * n + 3])
        t = np.exp(log_t)
        if math.isinf(s):
            inner = float(np.sum(t)) / math.pi
        else:
            inner = -2.0 / s + float(np.sum((s + 2.0 * m + 1.0) * t)) / (math.pi * s)
        total += inner
    return total


def expected_out_exact(N: int, s: float) -> float:
    """Exact expected number of real roots outside [-1, 1] for even ``N``."""
    if N % 2 != 0:
        raise DomainError("exact count sums require even N")
    if math.isinf(s):
        return 0.0
    if not s > N:
        raise DomainError("requires s > N")
    J = N // 2
    # the arguments are k + 1/2, k + 1, s - k and s - 1/2 - k, 0 <= k < N
    k = np.arange(N)
    H, G, S, T = (gammaln_signed(a)[0] for a in (k + 0.5, k + 1.0, s - k, s - 0.5 - k))
    total = J / s
    for n in range(J):
        log_t = (H[1:n + 2] + H[n::-1] + S[:n + 1] + T[n + 1:2 * n + 2]
                 - G[:n + 1] - G[n::-1] - T[:n + 1] - S[n:2 * n + 1])
        total += 2.0 * float(np.sum(np.exp(log_t))) / (math.pi * s)
    return total
