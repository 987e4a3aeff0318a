"""Finite-N Pfaffian machinery for the real ensemble, and the one 2x2 block
rule of every matrix kernel in the package.

A point enters a 2x2 block through its side: two rows and their boundary
scalars ``beta``, ``gamma``. A real point brings a value row and an eps row, a
non-real ``z`` its row at ``z`` and ``i sgn(Im z)`` times its row at ``conj z``.
A kernel supplies its sides and a pairing of rows, and :func:`block` forms
``pair + gamma_u beta_v^T - beta_u gamma_v^T``, plus ``(1/2) sgn(x - y)`` in
the (2,2) slot at two real points. The finite kernel's rows are the weighted
skew-orthogonal family and its eps-transforms under the skew pairing; for odd
N the top member enters through ``beta`` and ``gamma``. Correlation
functions are Pfaffians of block matrices of kernel values.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (DomainError, NotAntisymmetricError, OddDimensionError,
                     ResidualError)
from .polys import (_p_table, _pi_odd_table, eps_monomials, p_eval_sequence,
                    region_moments, s_norm, weight)
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


def _is_real_arg(u) -> bool:
    return abs(complex(u).imag) == 0.0


class Side(NamedTuple):
    """The sides of a set of points, the points' axes trailing in every field
    so that :meth:`at` selects or reshapes them: the two rows over ``n``
    nodes in ``P`` and ``Q``, ``(2, n, ...)``, read only by the kernel's
    pairing; the rows' boundary scalars ``beta`` and ``gamma``, ``(2, ...)``;
    each point's real part ``x``, and ``real`` marking the real points."""

    P: np.ndarray
    Q: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    x: np.ndarray
    real: np.ndarray

    def at(self, *index) -> Side:
        return Side(*(f[(Ellipsis,) + index] for f in self))


def block(pair, su: Side, sv: Side) -> np.ndarray:
    """The 2x2 kernel blocks ``(2, 2, ...)`` between the points of two sides
    with as many point axes, broadcast over them: ``pair(su, sv) + gamma_u
    beta_v^T - beta_u gamma_v^T``, plus ``(1/2) sgn(x - y)`` in the (2,2) slot
    when both points are real. ``K(v, u) = -K(u, v)^T`` when the pairing is
    antisymmetric."""
    K = pair(su, sv) + su.gamma[:, None] * sv.beta - su.beta[:, None] * sv.gamma
    K[1, 1] += np.where(su.real & sv.real, 0.5 * np.sign(su.x - sv.x), 0.0)
    return K


def _skew_sum(pu, qu, pv, qv):
    """``sum_n (pu_n qv_n - qu_n pv_n)`` over the leading axis."""
    return np.einsum("n...,n...->...", pu, qv) - np.einsum("n...,n...->...", qu, pv)


def skew_pair(su: Side, sv: Side):
    """``sum_n c_n (P_u Q_v - Q_u P_v)`` between every row of ``su`` and of
    ``sv``, the node weights ``c_n`` carried in ``Q``: the pairing of every
    kernel but the limit outside the disk."""
    return (np.einsum("an...,bn...->ab...", su.P, sv.Q)
            - np.einsum("an...,bn...->ab...", su.Q, sv.P))


def _side(tab: _Tables, u) -> Side:
    """The finite kernel's sides of the points ``u`` (any shape).

    The rows are ``(w pi_{2j}, w pi_{2j+1})``, ``j < J``, and their
    eps-transforms, with the weight 2 in ``Q``. At a real point the eps row
    is the coefficient matrices times the closed-form monomial transforms; at
    a non-real one it is ``i sgn(Im u) conj(.)`` of the first row, as the
    cores are real and the weight depends on ``|u|`` only. For odd ``N`` the
    top member enters through ``beta = -(w pi_{2J}, eps w pi_{2J}) /
    s_{2J}`` and ``gamma = (0, 1)`` at a real point, ``0`` at a non-real one.
    """
    u = np.asarray(u)
    real = u.imag == 0.0
    if u.dtype.kind != "c" or real.all():
        u = u.real          # real points run in real arithmetic
    pe, po = _family(tab, u)
    if u.dtype.kind != "c":
        epe, epo = _eps_rows(tab, u)
    else:
        phase = iota(u)
        epe, epo = phase * np.conj(pe), phase * np.conj(po)
        if real.any():
            epe[:, real], epo[:, real] = _eps_rows(tab, u[real].real)
    E, J, zero = np.array([pe, epe]), tab.J, np.zeros(u.shape)
    beta = E[:, J] / -tab.s2J if tab.odd_N else np.array([zero, zero])
    return Side(E[:, :J], np.array([po, epo]) * 2.0, beta, np.array([zero, real]), u.real, real)


def _eps_rows(tab: _Tables, x):
    """The eps-transforms of the family at the real points ``x``."""
    eps = eps_monomials(np.arange(tab.N), tab.s, x.ravel())
    return ((tab.even @ eps[0::2]).reshape(tab.even.shape[:1] + x.shape),
            (tab.odd @ eps[1::2]).reshape((tab.J,) + x.shape))


def kappa_n(P: EnsembleParams, u, v):
    """Scalar kernel (the (1,1) entry), including the weights; vectorized."""
    tab = _tables(P.N, P.s)
    u, v = np.broadcast_arrays(u, v)
    (peu, pou), (pev, pov) = _family(tab, u), _family(tab, v)
    return 2.0 * _skew_sum(peu[:tab.J], pou, pev[:tab.J], pov)


def matrix_kernel(P: EnsembleParams, u, v) -> KernelValue2x2:
    """The 2x2 matrix kernel at a pair of scalar arguments: :func:`block` of
    their sides, built in one call."""
    side = _side(_tables(P.N, P.s), np.array([u, v]))
    K = block(skew_pair, side.at(0), side.at(1))
    return KernelValue2x2(*K.astype(complex).ravel().tolist())


def intensity_real(P: EnsembleParams, x):
    """Density of real roots ``R_{1,0}(x)``, the (1,2) entry of the block at
    ``(x, x)``, formed alone from the side; vectorized over real ``x``."""
    p, q, beta, gamma = _side(_tables(P.N, P.s), np.asarray(x, dtype=float))[:4]
    return (_skew_sum(p[0], q[0], p[1], q[1]) + gamma[0] * beta[1] - beta[0] * gamma[1])[()]


def intensity_complex(P: EnsembleParams, z):
    """Density of conjugate pairs ``R_{0,1}(z) = i sgn(Im z) kappa(z, conj z)``.

    Vectorized over complex ``z`` off the real axis (0 on the axis).
    """
    tab = _tables(P.N, P.s)
    z = np.asarray(z, dtype=complex)
    pe, po = _family(tab, z)
    pe = pe[:tab.J]
    return np.real(iota(z) * 2.0 * _skew_sum(pe, po, np.conj(pe), np.conj(po)))


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

    Real points first, then upper-half-plane points: one side build for all
    of them and one :func:`block` call over all pairs. The result must be
    real up to a small imaginary residual, which is checked and discarded.
    """
    u = np.concatenate([np.array(pts.reals, dtype=float), np.array(pts.uppers, dtype=complex)])
    if len(pts.reals) + 2 * len(pts.uppers) > P.N:
        raise DomainError("more points than roots: l + 2m must be <= N")
    side = _side(_tables(P.N, P.s), u)
    K = block(skew_pair, side.at(slice(None), None), side.at(None, slice(None)))
    M = np.triu(K.transpose(2, 0, 3, 1).reshape(2 * u.size, 2 * u.size), 1)
    val = pfaffian(M - M.T)     # the strict upper triangle fixes the rest
    if abs(val.imag) > 1e-9 * max(1.0, abs(val.real)):
        raise ResidualError(f"correlation has imaginary residual {val.imag:.3e}")
    return float(val.real)


# ---------------------------------------------------------------------------
# expected counts
# ---------------------------------------------------------------------------


def expected_counts(P: EnsembleParams, region) -> float:
    """Expected number of roots in a region, in closed form.

    ``region`` is one of ``'inside'`` (real roots in [-1, 1]), ``'outside'``
    (real roots beyond), ``'realline'``, ``'complex'`` (conjugate pairs,
    counted as 2 roots each), ``('disk', r)`` for pairs within radius
    ``r >= 0``, or ``'all'`` (everything; N). Every region is an exact
    moment sum of the coefficient tables, :func:`_count`.
    """
    if isinstance(region, tuple) and region[:1] == ("disk",):
        r = region[1] if len(region) == 2 else None
        if not (isinstance(r, numbers.Real) and r >= 0):
            raise DomainError(f"a disk region is ('disk', r), r >= 0: {region!r}")
        return _count(P, float(r))
    if region in ("inside", "outside"):
        return _count(P, region)
    if region == "realline":
        return _count(P, "inside") + _count(P, "outside")
    if region == "complex":
        return _count(P, math.inf)
    if region == "all":
        return expected_counts(P, "realline") + _count(P, math.inf)
    raise DomainError(f"unknown region {region!r}")


def _count(P: EnsembleParams, region) -> float:
    """Expected number of real roots ``'inside'`` or ``'outside'`` [-1, 1], or
    of non-real roots of modulus below ``region = r``: the contraction
    ``sum_{j,k,l} E_jk O_jl C_kl`` with ``E = even[:J]``, ``O = odd`` and the
    region's table ``C_kl`` of ``x^{2k}`` against ``x^{2l+1}`` from
    :func:`mahler.polys.region_moments`, one term per pair ``(pi_{2j},
    pi_{2j+1})``. For odd ``N`` the top member adds ``w pi_{2J}/s_{2J}``:
    ``(2/s_{2J}) sum_k E_Jk m_k``, ``m = 1/(2k+1)`` inside and
    ``1/(s-2k-1)`` beyond.
    """
    tab, s = _tables(P.N, P.s), P.s
    e = 2 * np.arange(tab.even.shape[1])
    total = float(np.sum(tab.even[:tab.J] * (tab.odd @ region_moments(
        e[:, None], 2 * np.arange(tab.J) + 1, s, region).T)))
    if not tab.odd_N or region not in ("inside", "outside"):
        return total
    m = 1.0 / (e + 1.0) if region == "inside" else 1.0 / (s - (e + 1.0))
    return total + 2.0 / tab.s2J * float(tab.even[tab.J] @ m)


def expected_in_exact(N: int, s: float) -> float:
    """Exact expected number of real roots in [-1, 1] for even ``N = 2J``
    only: the second route of ``expected_counts(P, 'inside')``, a double
    Gamma-ratio sum in log space, valid to N of order thousands.
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
    """Exact expected number of real roots outside [-1, 1] for even ``N``
    only: the second route of ``expected_counts(P, 'outside')``."""
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
