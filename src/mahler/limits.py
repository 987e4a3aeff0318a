"""Limiting kernels near and away from the unit circle, and the
finite-N-to-limit convergence harness.

Four regimes: scaled limits at a non-real unit-circle anchor (a scalar
determinantal kernel), scaled limits at the real anchors +-1 (a genuinely
Pfaffian family built from a confluent hypergeometric function), and the two
unscaled regimes inside and outside the closed unit disk. Each Pfaffian
regime has one handle ``handle(pts) -> (side, pair)``: the sides of all the
points of a call, built together, and the regime's pairing, which
:func:`mahler.kernel.assemble_matrix` turns into 2x2 blocks. Each regime has
one node set: the 96-node Gauss–Legendre rule on [0, 1] at the circle, on
panels of the angle inside the disk, and outside one 48-node Gauss–Jacobi tail
rule per ``c``, mapped to each real point. At +-1 a real point's side runs in
real arithmetic, from Taylor coefficients on the nodes or from exact antiderivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, InfiniteValueError
from .kernel import EnsembleParams, Side, _handle, _skew_sum, assemble_matrix, skew_pair, sum_k
from .quadrature import leg_nodes
from .specfun import (_finite, _gamma_quotient, big_m_pair, e_gamma, e_pair, gamma_ratio,
                      gamma_ratio_table, iota, omega)

_ORDER = 96          # all limit integrals over [0, 1] (integrands entire)
_TAIL_ORDER = 48     # Gauss–Jacobi nodes of each outside tail integral
_INSIDE_TERMS = 200  # terms of each binomial series in sum_inside_limit


@lru_cache(maxsize=1)
def _unit_nodes():
    x, w = leg_nodes(_ORDER)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class LimitKernelSpec:
    """Which limit regime to evaluate, and its parameters.

    ``regime`` is one of ``circle_complex`` (anchor on the circle, off the
    real axis), ``circle_real`` (anchor +-1), ``inside_disk``,
    ``outside_disk``. ``lam`` is the limit of N/s, ``c`` the limit of s - N
    (outside regime only; ``inf`` gives the identically-zero limit).
    """

    regime: str
    lam: float = 0.0
    c: float = math.inf
    anchor: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.regime not in ("circle_complex", "circle_real",
                               "inside_disk", "outside_disk"):
            raise DomainError(f"unknown regime {self.regime!r}")
        if not 0.0 <= self.lam <= 1.0:
            raise DomainError("lam must lie in [0, 1]")
        a = complex(self.anchor)
        if self.regime == "circle_complex":
            if not (abs(abs(a) - 1.0) <= 1e-12 and abs(a.imag) >= 1e-12):
                raise DomainError("circle_complex anchor must be on the "
                                  "circle, off the real axis")
        if self.regime == "circle_real" and a not in (1.0 + 0j, -1.0 + 0j):
            raise DomainError(f"circle_real anchor xi must be +1 or -1, got {self.anchor}")
        if self.regime == "outside_disk" and not (self.c >= 1.0):
            raise DomainError("outside regime requires c >= 1 (or inf)")


# ---------------------------------------------------------------------------
# circle regimes
# ---------------------------------------------------------------------------


def k_zeta(lam: float, zeta: complex, z, w):
    """Scaled scalar kernel at a unit-circle anchor ``zeta``; vectorized.

    ``omega(z conj(zeta)) omega(conj(w) zeta) (1/pi) int_0^1 x(1-lam x)
    e^{(z conj(zeta)+conj(w) zeta)x} dx``.
    """
    if not abs(abs(zeta) - 1.0) <= 1e-12:      # LimitKernelSpec's tolerance; False at NaN
        raise DomainError(f"the anchor zeta must lie on the unit circle, got {zeta}")
    zz = _finite(z) * np.conj(zeta)
    ww = np.conj(_finite(w)) * zeta
    x, wt = _unit_nodes()
    integral = (wt * x * (1.0 - lam * x) * np.exp(np.multiply.outer(zz + ww, x))).sum(axis=-1)
    return omega(lam, zz) * omega(lam, ww) * integral / math.pi


def _check_xi(xi: float) -> None:
    if xi not in (1.0, -1.0):
        raise DomainError(f"the real anchor xi must be +1 or -1, got {xi}")


def _xi_side(lam: float, xi: float, u):
    """``(omega(xi u), M, M')`` with ``M, M'`` at ``u xi tau`` on the unit
    nodes ``tau`` (last axis), in complex arithmetic; ``u`` is a scalar or an
    array. :func:`kappa_xi` and the non-real points of :func:`xi_handle`
    take this side."""
    _check_xi(xi)
    u = _finite(np.asarray(u, dtype=complex))
    tau, _ = _unit_nodes()
    M, Mp = big_m_pair(np.multiply.outer(u, xi * tau))
    return omega(lam, xi * u), M, Mp


def kappa_xi(lam: float, xi: float, u, v):
    """Scaled scalar kernel at the real anchor ``xi = +-1``; vectorized."""
    tau, wt = _unit_nodes()
    wu, Mu, Mpu = _xi_side(lam, xi, u)
    wv, Mv, Mpv = _xi_side(lam, xi, v)
    core = wt * tau * (1.0 - lam * tau)
    integral = ((Mpu * Mv - Mu * Mpv) * core).sum(axis=-1)
    val = wu * wv * (xi / 4.0) * integral
    if np.ndim(val) == 0:
        return complex(val)
    return val


def xi_handle(lam: float, xi: float):
    """The regime at the real anchor ``xi = +-1`` as ``handle(pts) -> (side,
    pair)``.

    A point's values are ``(omega M', omega M)`` at ``M, M'`` of ``u xi
    tau`` on the unit nodes, skew-paired with the weights ``(xi/4) tau (1 -
    lam tau)`` of :func:`kappa_xi`. A real point ``x`` has the rows
    ``delta_x`` and ``-int_0^x omega(xi y) (M', M)(xi tau y) dy``. Where
    :func:`big_m_pair` would sum its series, ``c = xi x >= -3``, both come
    from the Taylor coefficients ``b_n = (n + 1) a_{n+1}`` and ``a_n`` of
    ``M'`` and ``M``: ``omega(c) sum_n (b_n, a_n) c^n tau^n`` and ``-x sum_n
    (b_n, a_n) c^n mu_n tau^n``, with ``mu_n = sum_j wt_j omega(c t_j)
    t_j^n``, the unit rule on ``[0, x]`` with its sums swapped; the points whose
    term count, set by ``|c|`` alone, rounds up to one multiple of 8 are built
    together. For ``c < -3``, ``omega = 1`` on ``[0, x]`` and the integrals are
    exact, ``(M(c tau) - 1)/(xi tau)`` and ``2x (M' - M)(c tau)``, from one real
    :func:`big_m_pair` call for all such points. A non-real ``z`` has the rows
    ``z`` and ``iota(z) conj(z)``: one complex call on the non-real points
    gives the first, and the second is its conjugate, as ``M`` has real
    Taylor coefficients and ``omega`` reads ``Re`` only.
    ``beta`` is the rows applied to the anchoring term ``omega (1/4) int_0^1
    (1 - lam t) M(u xi t) dt`` of the antiderivative kernel, and ``gamma =
    (0, -1)`` at a real point, ``0`` at a non-real one.
    """
    _check_xi(xi)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"xi_handle requires lam in [0, 1], got {lam}")
    t, wt = _unit_nodes()
    t1, edge = np.append(1.0, t), wt * (1.0 - lam * t)
    weight = (xi / 4.0) * edge * t

    def real_rows(x):
        """The rows ``(P, Q)`` of ``delta_x``, then of ``[0, x]``, at the real
        points ``x``: ``(points, 4, nodes)``."""
        c, rows = xi * x, np.empty((x.size, 4, t.size))
        far = c < -3.0
        if far.any():
            M, Mp = (f.reshape(-1, t.size) for f in big_m_pair(np.outer(c[far], t).ravel()))
            rows[far] = np.stack([Mp, M, (1.0 - M) / (xi * t), 2.0 * x[far, None] * (M - Mp)], 1)
        # the first term left out is below 1e-19 of the largest one
        size = ((abs(c) + 9.0 * np.sqrt(abs(c)) + 25.0).astype(int) + 7) // 8 * 8
        with np.errstate(over="ignore", invalid="ignore"):
            for m in sorted(set(size[~far].tolist())):
                g, n = np.flatnonzero((size == m) & ~far), np.arange(m, dtype=float)
                cg, powers = c[g, None], np.vander(t, m, increasing=True)
                om = omega(lam, cg * t1)        # omega(c), then omega(c t) on the nodes
                a = np.hstack([np.ones_like(cg), cg * (n[1:] + 0.5) / n[1:] ** 2])
                a = np.cumprod(a, axis=1)[:, None]
                coef = np.concatenate([a * (n + 1.5) / (n + 1.0), a], axis=1)
                mu = (wt * om[:, 1:])[:, None] @ powers
                rows[g] = np.concatenate([om[:, :1, None] * coef, -x[g, None, None] * mu * coef],
                                         axis=1) @ powers.T
        bad = ~np.isfinite(rows).all(axis=(1, 2))
        if bad.any():
            raise InfiniteValueError(f"xi_handle leaves the double range at x = {x[bad][0]}")
        return rows

    def handle(pts):
        z = np.ravel(pts)
        real, x = np.imag(z) == 0.0, np.real(z)
        dtype = float if real.all() else complex
        rows, beta = np.empty((z.size, 4, t.size), dtype), np.empty((z.size, 2), dtype)
        reals = real_rows(_finite(x[real]))
        rows[real], beta[real] = reals, reals[:, 1::2] @ edge
        if not real.all():
            w, M, Mp = _xi_side(lam, xi, z[~real])
            phase = (np.array([np.ones(w.size), iota(z[~real])]) * w).T[:, :, None]
            rows[~real, 0::2] = phase * np.stack([Mp, np.conj(Mp)], axis=1)
            rows[~real, 1::2] = phase * np.stack([M, np.conj(M)], axis=1)
            beta[~real] = rows[~real, 1::2] @ edge
        P, Q = rows[:, 0::2].transpose(1, 2, 0), rows[:, 1::2].transpose(1, 2, 0)
        return Side(P, weight[:, None] * Q, beta.T / 4.0,
                    np.array([np.zeros(z.size), np.where(real, -1.0, 0.0)]), x, real), skew_pair
    return handle


def _real_entry(handle, name: str, u, v):
    """The antiderivative kernel of a regime at real ``u, v``, the (2,2) entry
    of the block less its ``(1/2) sgn(u - v)``; ``name`` integrates along the
    real line up to each point, so a non-real one raises :class:`DomainError`."""
    for z in (u, v):
        if np.imag(z) != 0.0:
            raise DomainError(f"{name} needs real arguments, got {z}")
    return assemble_matrix(handle, u, v).e22 - 0.5 * np.sign(complex(u).real - complex(v).real)


def a_xi(lam: float, xi: float, a: float, b: float) -> complex:
    """Antiderivative kernel at the real anchors (see :func:`xi_handle`);
    both arguments must be real."""
    return _real_entry(xi_handle(lam, xi), "a_xi", a, b)


def a_xi_iform(lam: float, xi: float, a: float, b: float) -> complex:
    """Alternative single-integral form of the antiderivative kernel, valid
    when ``a xi < 0`` and ``b xi < 0`` (the weight is 1 there); built from
    ``I(z) = 2z(M' - M)(z)`` whose derivative is ``M``."""
    if not (a * xi < 0 and b * xi < 0):
        raise DomainError("the single-integral form requires a*xi, b*xi < 0")
    tau, wt = _unit_nodes()
    x = np.outer([a, b], xi * tau)
    M, Mp = big_m_pair(x)
    Ix = 2.0 * x * (Mp - M)
    integrand = (1.0 - lam * tau) / tau * (M[0] * Ix[1] - Ix[0] * M[1])
    return complex((xi / 4.0) * np.sum(wt * integrand))


# ---------------------------------------------------------------------------
# inside the unit disk
# ---------------------------------------------------------------------------


def sqrt_minus_tau(tau):
    """The branch of ``sqrt(-tau)`` on the unit circle fixed by the Fourier
    series ``-(2/pi) sum tau^m/(2m-1)``: ``e^{i(theta-pi)/2}`` for
    ``tau = e^{i theta}``, ``theta in (0, 2 pi)``."""
    theta = np.angle(tau) % (2.0 * np.pi)
    return np.exp(0.5j * (theta - np.pi))


def _check_disk(inside: bool, *pts):
    """Raise :class:`DomainError` unless all points are finite and lie in the
    open unit disk (``inside``) or all outside the closed one; scalars or arrays."""
    for z in pts:
        r = np.abs(_finite(z))
        if np.any(r >= 1.0 if inside else r <= 1.0):
            where = "inside the open" if inside else "outside the closed"
            raise DomainError(f"argument {z} not {where} unit disk")


def _disk_rows(pts):
    """The disk regime's values ``P = (1 - z^2 conj tau)^{-1/2}`` and ``Q = c z
    (1 - z^2 tau)^{-1/2}`` and their ``z``-derivatives, nodes by points, with
    ``c`` the weights of ``(1/(4 pi)) int_0^{2 pi} sqrt(-tau) d theta`` at
    ``tau = e^{i theta}``: the skew sums of the values and of the derivatives
    are ``a_disk`` and ``dad_disk``.

    The nodes are the unit Gauss–Legendre rule on ``theta in (0, 2 pi)``: the
    integrands are analytic on a neighbourhood of the closed interval, whose
    ends sit on the cut of ``sqrt(-tau)``, so the rule converges
    geometrically. Panels end at ``+-2 arg z`` over all the points, the real
    parts of the rows' branch points, which a non-real ``z`` would otherwise
    put close to a panel's interior; the cut set is conjugation-symmetric.
    """
    z = np.asarray(pts, dtype=complex).ravel()
    _check_disk(True, z)
    turn = 2.0 * math.pi
    arg = 2.0 * np.angle(z)
    cuts = sorted({0.0, *np.mod(np.concatenate([arg, -arg]), turn).tolist()})
    width = np.diff(cuts, append=turn)[:, None]
    x, w = _unit_nodes()
    tau = np.exp(1j * (np.array(cuts)[:, None] + width * x).ravel())
    tau, z2 = tau[:, None], z * z
    p, r = 1.0 / np.sqrt(1.0 - z2 * np.conj(tau)), 1.0 / np.sqrt(1.0 - z2 * tau)
    c = ((width * w).ravel() / (2.0 * turn) * sqrt_minus_tau(tau[:, 0]))[:, None]
    return p, c * z * r, z * np.conj(tau) * p ** 3, c * (r + z2 * tau * r ** 3)


def a_disk(u, v):
    """Antiderivative kernel inside the disk: the circle average of ``(v
    sqrt(-tau) - u sqrt(-conj tau)) / sqrt((1-u^2 conj tau)(1-v^2 tau))``."""
    P, Q, _, _ = _disk_rows([u, v])
    return complex(_skew_sum(P[:, 0], Q[:, 0], P[:, 1], Q[:, 1]))


def dad_disk(u, v):
    """Mixed derivative of the disk kernel, the unscaled limit of the scalar
    kernel inside the disk."""
    _, _, dP, dQ = _disk_rows([u, v])
    return complex(_skew_sum(dP[:, 0], dQ[:, 0], dP[:, 1], dQ[:, 1]))


def disk_handle():
    """The disk regime as ``handle(pts) -> (side, pair)`` on the nodes of
    :func:`_disk_rows`: a real ``x`` has the derivative rows at ``x`` and
    minus the value rows, a non-real ``z`` the derivative rows at ``z`` and
    ``iota(z)`` times those at ``conj(z)``; no boundary scalars."""

    def handle(pts):
        z = np.asarray(pts, dtype=complex).ravel()
        real, n = z.imag == 0.0, z.size
        P, Q, dP, dQ = _disk_rows(np.concatenate([z, z[~real].conj()]))
        P, Q, phase = -P[:, :n], -Q[:, :n], iota(z[~real])
        P[:, ~real], Q[:, ~real] = phase * dP[:, n:], phase * dQ[:, n:]
        zero = np.zeros((2, n))
        return Side(np.array([dP[:, :n], P]), np.array([dQ[:, :n], Q]), zero, zero,
                    z.real, real), skew_pair
    return handle


# ---------------------------------------------------------------------------
# outside the closed unit disk
# ---------------------------------------------------------------------------


def sqrt_z2m1(z):
    """Trace of the branch of ``sqrt(z^2 - 1)`` holomorphic off [-1, 1]:
    ``z sqrt(1 - 1/z^2)`` with the principal square root; negative for real
    ``z < -1``."""
    z = np.asarray(z, dtype=complex)
    val = z * np.sqrt(1.0 - 1.0 / (z * z))
    if val.ndim == 0:
        return complex(val)
    return val


def _core(k: float, u, v):
    """``(1 + k/(uv-1)) (v-u) / (pi (uv-1))``, the rational part of the
    outside limits at ``k = 1/c``: it stays finite at ``c = inf``."""
    d = u * v - 1.0
    return (1.0 + k / d) * (v - u) / (math.pi * d)


def _edge(c: float, z):
    """``|z|^{-c} / sqrt(z^2 - 1)``, the factor each point contributes."""
    return np.abs(z) ** -c / sqrt_z2m1(z)


def b_outside(c: float, u, v):
    """Unscaled outside limit of the (phase-corrected) scalar kernel."""
    if not (c > 0):
        raise DomainError(f"b_outside requires c > 0, got {c}")
    _check_disk(False, u, v)
    if math.isinf(c):
        # c |uv|^{-c} -> 0 for |uv| > 1
        return 0.0 * (u * v)
    return c * _core(1.0 / c, u, v) * _edge(c, u) * _edge(c, v)


@lru_cache(maxsize=32)
def _jacobi_rule(c: float):
    """The ``_TAIL_ORDER``-node Gauss–Jacobi rule for the weight ``x^(c-1)`` on
    (0, 1), read-only, by Golub–Welsch (Math. Comp. 23, 1969): eigenvalues and
    first eigenvector components of the Jacobi matrix of ``P_n^{(0, c-1)}(2x-1)``."""
    if not c > 0.0:
        raise DomainError(f"the tail weight x^(c-1) needs c > 0, got {c}")
    b, n = c - 1.0, np.arange(_TAIL_ORDER)
    s = 2.0 * n + b
    diag = np.append(b / (b + 2.0), b * b / (s[1:] * (s[1:] + 2.0)))
    off = 2.0 * n[1:] * (n[1:] + b) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
    x, vec = np.linalg.eigh(np.diag(0.5 * (1.0 + diag)) + np.diag(0.5 * off, -1))
    w = vec[0] ** 2 / c
    x.flags.writeable = w.flags.writeable = False
    return x, w


def outside_handle(c: float):
    """The outside regime as ``handle(pts) -> (side, pair)``; ``c = inf``
    gives the zero kernel.

    A point's rows are weights ``W`` on its ``_TAIL_ORDER + 1`` nodes, paired
    by ``W_u R W_v^T`` with ``R = c core`` between the points' nodes, so
    ``dad = B = c core e(u) e(v)`` with ``e(z) = |z|^{-c} / sqrt(z^2-1)``. A
    non-real ``z`` has the rows ``diag(e(z), iota(z) e(conj z))`` on ``z, conj
    z`` (zero weight past them), ``beta = 0`` and ``gamma = (e(z), iota(z)
    e(conj z))``. A real ``y`` has the rows ``e(y) delta_y`` and the tail
    weights ``W_k`` at the nodes ``u_k``, with ``sum W_k r(u_k) ~ int_a^inf
    |u|^{-c} r(u) dt`` at ``u = sgn(y) cosh t``, ``a = arccosh|y|``: minus
    the tail from ``sgn(y) inf`` to ``y`` against ``du / sqrt(u^2-1)``. ``t =
    a - log x`` makes ``|u|^{-c} dt`` the Gauss–Jacobi weight ``x^{c-1} dx``
    times ``(x|u|)^{-c}``, ``x|u| = (e^a + x^2 e^{-a})/2``, which ``W_k``
    absorbs without underflow as ``x -> 0``. Its ``beta = (0, C sgn y)`` and
    ``gamma = (e(y), sum W_k)``, ``C = Gamma((c+1)/2) / (sqrt(pi)
    Gamma(c/2))``, are the half-line masses of the antiderivative kernel.
    The sides of all the points of a call are built in array operations,
    with ``e^a = |y| + sqrt(y^2 - 1)``.
    """
    if math.isinf(c):   # c |uv|^{-c} -> 0 for |uv| > 1: zero rows
        def zero(pts):
            z = np.asarray(pts, dtype=complex).ravel()
            _check_disk(False, z)
            rows, scalars = np.zeros((2, 1, z.size)), np.zeros((2, z.size))
            return Side(rows, rows, scalars, scalars, z.real, z.imag == 0.0), skew_pair
        return zero
    x, w = _jacobi_rule(c)
    C = _gamma_quotient(((c + 1.0) / 2.0,), (c / 2.0,)) / math.sqrt(math.pi)

    def pair(su, sv):
        R = c * _core(1.0 / c, su.Q[:, None], sv.Q[None])
        return np.einsum("al...,bl...->ab...", np.einsum("ak...,kl...->al...", su.P, R), sv.P)

    def handle(pts):
        z = _finite(np.ravel(pts))     # float64 or complex128, so integers are not rounded
        _check_disk(False, z)
        real = np.imag(z) == 0.0
        if real.all():
            z = z.real          # real points pair in real arithmetic
        y = z[real].real
        t = np.abs(y)
        e = t + np.sqrt((t - 1.0) * (t + 1.0))     # e^a, a = arccosh|y|
        xu = 0.5 * (e + x[:, None] ** 2 / e)
        W = np.zeros((2, _TAIL_ORDER + 1, z.size), z.dtype)
        Q = np.empty((_TAIL_ORDER + 1, z.size), z.dtype)
        edge = _edge(c, z)
        W[0, 0], Q[0] = edge if z.dtype.kind == "c" else edge.real, z
        W[1][1:, real], Q[1:, real] = w[:, None] * xu ** -c, np.sign(y) * xu / x[:, None]
        if not real.all():
            zn = z[~real]
            W[1][1, ~real], Q[1:, ~real] = iota(zn) * _edge(c, zn.conj()), zn.conj()
        beta = np.array([np.zeros(z.size), np.where(real, C * np.sign(z.real), 0.0)])
        return Side(W, Q, beta, np.array([W[0, 0], W[1].sum(axis=0)]), z.real, real), pair
    return handle


def a_outside(c: float, x: float, y: float) -> float:
    """Antiderivative kernel outside the disk; zero at ``c = inf``. Both
    arguments must be real."""
    return _real_entry(outside_handle(c), "a_outside", x, y).real


def dsn_limit(lam: float, c: float, u, v):
    """Limit of ``|uv|^s (uv)^{-N} kappa_N(u,v)/(s-N)`` outside the disk;
    ``1/c = 0`` when ``c`` is infinite."""
    if math.isnan(lam) or math.isnan(c):
        raise DomainError(f"lam and c must not be NaN, got {lam}, {c}")
    _check_disk(False, u, v)
    return lam * _core(0.0 if math.isinf(c) else 1.0 / c, u, v) \
        / (sqrt_z2m1(u) * sqrt_z2m1(v))


# ---------------------------------------------------------------------------
# convergence harness
# ---------------------------------------------------------------------------


def _schedule(spec: LimitKernelSpec, N: int) -> float:
    """The s(N) schedule realizing the requested lam: ``N/lam`` (with the
    minimal admissible gap when lam = 1), infinite when lam = 0."""
    if spec.regime == "outside_disk" and not math.isinf(spec.c):
        return N + spec.c
    if spec.lam == 0.0:
        return math.inf
    if spec.lam == 1.0:
        return float(N + 1)
    return N / spec.lam


def convergence_report(spec: LimitKernelSpec, grid, N_list) -> list[dict]:
    """Sup-norm distance between the scaled finite-N kernel quantities and
    their claimed limits, per N; each row is JSON-serializable.

    ``grid`` is a list of argument pairs appropriate to the regime (complex
    offsets for the circle regimes, disk or exterior points otherwise).
    Except at a non-real circle anchor, whose limit is determinantal, the
    rows ``entry11`` ... ``entry22`` compare whole 2x2 blocks: the finite
    kernel at the mapped points, divided by ``outer(d(z), d(w))``, against
    :func:`assemble_matrix` of the regime's handle. At +-1, ``d = (N, 1)``
    for a real point and ``(N, N)`` for a non-real one; inside the disk
    ``d = 1``. Outside it ``d = ((z/|z|)^N, (conj z/|z|)^N)``, the phase the
    finite kernel keeps, which is ``sgn(x)^N`` twice at a real point ``x``; the
    ``entry11_scaled`` row compares the (1,1) entry, phase removed, with
    :func:`dsn_limit`. That regime takes ``N <= 64``: the row's factor
    ``|uv|^s`` leaves the double range at larger ``N`` (by ``N = 512`` at
    ``|uv| = 8.7``).
    """
    if not N_list or list(N_list) != sorted(set(N_list)):
        raise DomainError(f"N_list must be non-empty and strictly increasing, got {list(N_list)}")
    if spec.regime == "outside_disk" and max(N_list) > 64:
        raise DomainError(f"the outside_disk regime takes N <= 64, got {list(N_list)}")
    if not len(grid) or any(np.shape(p) != (2,) for p in grid):
        raise DomainError(f"grid must be a non-empty list of pairs, got {grid!r}")
    z, w = np.array(grid).T
    rows = []
    for N in N_list:
        s = _schedule(spec, N)
        P = EnsembleParams(N, s)
        lam_N = P.lam
        c_N = s - N
        errs = {}
        A, at, d = None, (lambda p: p), (lambda p: np.ones((2,) + p.shape))
        if spec.regime == "circle_complex":
            zeta = complex(spec.anchor)
            K = assemble_matrix(_handle(P), zeta + z / N, zeta + w / N)
            e = np.abs([K.e11 / N ** 2, K.e12 / N ** 2 - k_zeta(lam_N, zeta, z, w)])
            errs = dict(zip(("entry11_to_zero", "entry12_vs_limit"), e.max(axis=1)))
        elif spec.regime == "circle_real":
            xi = float(complex(spec.anchor).real)
            A, at, d = xi_handle(lam_N, xi), (lambda p: xi + p / N), \
                (lambda p: np.array([np.full(p.shape, N), np.where(p.imag == 0.0, 1.0, N)]))
        elif spec.regime == "inside_disk":
            A = disk_handle()
        else:
            A, d = outside_handle(c_N), (lambda p: (np.array([p, np.conj(p)]) / abs(p)) ** N)
        if A is not None:
            K = assemble_matrix(_handle(P), at(z), at(w))
            if spec.regime == "outside_disk":
                scaled = abs(z * w) ** s / (z * w) ** N * K.e11 / (s - N)
                errs["entry11_scaled"] = np.max(np.abs(scaled - dsn_limit(lam_N, c_N, z, w)))
            diff = K.as_array() / (d(z)[:, None] * d(w)) - assemble_matrix(A, z, w).as_array()
            errs.update(zip(("entry11", "entry12", "entry21", "entry22"),
                            np.abs(diff).max(axis=-1).ravel()))
        row = {"regime": spec.regime, "N": N, "s": s,
               "grid_size": len(grid)}
        row.update({k: float(v) for k, v in errs.items()})
        row["sup_error"] = float(max(errs.values()))
        rows.append(row)
    return rows


def ratio_sums_report(N_list) -> list[dict]:
    """Convergence of polynomial-product-sum ratios to their scaled limits:
    the exponential-moment limit at a non-real circle anchor and the
    hypergeometric-moment limit at 1."""
    a1, b1, a2, b2 = 0.5, -0.5, 1.5, -1.5
    zeta = 1j
    aa1, aa2 = 0.4 + 0.3j, -0.2 + 0.5j
    t1, t2 = 0.6, -0.4
    rows = []
    lim_ratio = e_gamma(a1 + a2, aa1 * np.conj(zeta) + np.conj(aa2) * zeta)
    lim_one = e_pair(a1, b1, a2, b2, t1, t2)
    for N in N_list:
        # the anchors first: sum_k raises DomainError at N < 1, before 1/N
        at_zeta = sum_k(N, a1, b1, a2, b2, zeta, np.conj(zeta))
        at_one = sum_k(N, a1, b1, a2, b2, 1.0, 1.0)
        r1 = sum_k(N, a1, b1, a2, b2, zeta + aa1 / N, np.conj(zeta) + np.conj(aa2) / N) / at_zeta
        r2 = sum_k(N, a1, b1, a2, b2, 1.0 + t1 / N, 1.0 + t2 / N) / at_one
        rows.append({
            "regime": "ratio_sums", "N": N,
            "ratio_anchor": abs(r1 - lim_ratio),
            "ratio_one": abs(r2 - lim_one),
            "sup_error": float(max(abs(r1 - lim_ratio), abs(r2 - lim_one)))})
    return rows


def _lambda_fourier(b1: float, b2: float, m) -> np.ndarray:
    """Fourier coefficients of the circle weight, vectorized over integer ``m``:
    ``Gamma(-b1-b2-1) Gamma(m+1+b2) / (Gamma(-b2) Gamma(1+b2) Gamma(m-b1))`` for
    ``m >= 0``, with ``b1`` and ``b2`` swapped for ``m < 0``. Requires
    ``b1 + b2 + 1 < 0``. At a pole of ``Gamma(1+b2)`` (integer ``b2 <= -1``),
    ``Gamma(m+1+b2)/(Gamma(1+b2) m!)`` is ``prod_{i<m} (1+b2+i)/(1+i)``."""
    m = np.asarray(m)
    b1, b2 = np.where(m < 0, b2, b1), np.where(m < 0, b1, b2)
    k = np.abs(m)
    pole = (b2 <= -1.0) & (b2 == np.floor(b2))
    ratio = gamma_ratio(k.astype(float), np.where(pole, 0.0, b2))
    if pole.any():
        i = np.arange(k.max())
        factors = np.where(i < k[..., None], (1.0 + b2[..., None] + i) / (1.0 + i), 1.0)
        ratio = np.where(pole, np.prod(factors, axis=-1), ratio)
    return ratio * _gamma_quotient((-b1 - b2 - 1.0, k + 1.0), (-b2, k - b1))


def sum_inside_limit(a1: float, b1: float, a2: float, b2: float,
                     z: complex, w: complex) -> complex:
    """Limit of the product sums inside the disk when ``b1 + b2 + 1 < 0``:
    the circle average of the singular weight against the two binomial
    kernels, evaluated through its geometrically-convergent double series."""
    if not b1 + b2 + 1.0 < 0.0:     # the negated tests are True at NaN
        raise DomainError("requires b1 + b2 + 1 < 0")
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise DomainError("arguments must lie in the open unit disk")
    j = np.arange(_INSIDE_TERMS)
    cz = gamma_ratio_table(_INSIDE_TERMS - 1, a1) * np.asarray(z) ** j
    cw = gamma_ratio_table(_INSIDE_TERMS - 1, a2) * np.asarray(w) ** j
    # Toeplitz: entry (j, k) is the coefficient of index j - k
    coef = _lambda_fourier(b1, b2, np.arange(1 - _INSIDE_TERMS, _INSIDE_TERMS))
    lam = coef[np.subtract.outer(j, j) + _INSIDE_TERMS - 1]
    return complex(cz @ lam @ cw)


def kasymp_report(N_list) -> list[dict]:
    """Convergence of the unscaled product sums: the Gamma-ratio value at
    the origin, the circle-average limit inside the disk, and the
    normalized outside limit."""
    a1, b1, a2, b2 = 0.5, -0.8, 1.5, -1.5     # b1 + b2 + 1 < 0 for the inside limit
    z_in, w_in = 0.3, 0.2
    z_out, w_out = 1.5, 1.3
    lim_origin = float(_lambda_fourier(b1, b2, 0))
    lim_inside = sum_inside_limit(a1, b1, a2, b2, z_in, w_in)
    lim_outside = _gamma_quotient((), (1.0 + a1, 1.0 + a2)) \
        / ((z_out * w_out - 1.0) * (1.0 - 1.0 / z_out) ** (1.0 + b1)
           * (1.0 - 1.0 / w_out) ** (1.0 + b2))
    rows = []
    for N in N_list:
        e0 = abs(sum_k(N, a1, b1, a2, b2, 0.0, 0.0) - lim_origin)
        e1 = abs(sum_k(N, a1, b1, a2, b2, z_in, w_in) - lim_inside)
        e2 = abs(sum_k(N, a1, b1, a2, b2, z_out, w_out)
                 / (N ** (a1 + a2) * (z_out * w_out) ** N) - lim_outside)
        rows.append({"regime": "kasymp_sums", "N": N,
                     "origin": e0, "inside": e1, "outside": e2,
                     "sup_error": float(max(e0, e1, e2))})
    return rows


def compare_report(im_list=(5.0, 10.0, 20.0), re_list=(0.0, 0.5)) -> list[dict]:
    """Distance of the scaled complex intensity factor from its large-height
    limit ``e^{2 Re z}/pi`` along increasing imaginary parts.

    The pointwise error is not monotone in the height. In the large-|z|
    expansion of ``M`` (DLMF 13.7) the dominant part
    ``e^z z^{1/2}/Gamma(3/2)`` crosses the subdominant part
    ``(-z)^{-3/2}/Gamma(-1/2)``, so the error oscillates with period ``2 pi``
    in ``Im z`` with amplitude ``e^{Re z}/(2 pi Im z) + O(Im z^{-2})``; only
    its envelope (the sup over one period) decreases.
    """
    rows = []
    for h in im_list:
        errs = []
        for x in re_list:
            z = complex(x, h)
            M, Mp = big_m_pair(z)      # at conj z, the conjugates
            val = iota(z) / 4.0 * (Mp * M.conjugate() - M * Mp.conjugate())
            errs.append(abs(val - math.exp(2.0 * x) / math.pi))
        rows.append({"regime": "compare", "im": h,
                     "sup_error": float(max(errs))})
    return rows


def full_report(N_list=(8, 16, 32)) -> dict:
    """All six regime groups in one JSON-serializable report."""
    groups = {}
    groups["circle_complex"] = convergence_report(
        LimitKernelSpec("circle_complex", lam=1.0, anchor=1j),
        [(0.3 + 0.2j, -0.1 + 0.4j), (0.0, 0.5j)], list(N_list))
    groups["circle_real"] = convergence_report(
        LimitKernelSpec("circle_real", lam=1.0, anchor=1.0),
        [(0.5, -0.3), (-0.4, 0.2), (0.5, -0.3 + 0.4j)], list(N_list))
    groups["inside_disk"] = convergence_report(
        LimitKernelSpec("inside_disk", lam=0.0),
        [(0.3, -0.5), (0.1, 0.4)], list(N_list))
    groups["outside_disk"] = convergence_report(
        LimitKernelSpec("outside_disk", lam=1.0, c=1.0),
        [(1.4, 1.8), (-1.5, 2.0)], list(N_list))
    groups["kasymp_sums"] = kasymp_report(list(N_list))
    groups["ratio_sums"] = ratio_sums_report(list(N_list))
    groups["compare"] = compare_report()
    return groups
