"""Limiting kernels near and away from the unit circle, and the
finite-N-to-limit convergence harness.

Four regimes: scaled limits at a non-real unit-circle anchor (a scalar
determinantal kernel), scaled limits at the real anchors +-1 (a genuinely
Pfaffian family built from a confluent hypergeometric function), and the two
unscaled regimes inside and outside the closed unit disk. Each regime
exposes the antiderivative kernel ``A`` and its closed-form derivatives,
which plug into the species-dispatched 2x2 assembly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .kernel import (EnsembleParams, KernelValue2x2, kappa_n, matrix_kernel,
                     sum_k)
from .quadrature import leg_nodes
from .specfun import (_gamma_quotient, big_m_pair, e_gamma, e_pair, gamma_ratio,
                      gamma_ratio_table, iota, omega)

_ORDER = 96          # all limit integrals over [0, 1] (integrands entire)
_CIRCLE_N = 1024     # periodic trapezoid nodes for circle integrals


def _unit_nodes(order: int = _ORDER):
    x, w = leg_nodes(order)
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
            if abs(abs(a) - 1.0) > 1e-12 or abs(a.imag) < 1e-12:
                raise DomainError("circle_complex anchor must be on the "
                                  "circle, off the real axis")
        if self.regime == "circle_real" and a not in (1.0 + 0j, -1.0 + 0j):
            raise DomainError("circle_real anchor must be +1 or -1")
        if self.regime == "outside_disk" and not (self.c >= 1.0):
            raise DomainError("outside regime requires c >= 1 (or inf)")


# ---------------------------------------------------------------------------
# circle regimes
# ---------------------------------------------------------------------------


def k_zeta(lam: float, zeta: complex, z: complex, w: complex) -> complex:
    """Scaled scalar kernel at a unit-circle anchor ``zeta``.

    ``omega(z conj(zeta)) omega(conj(w) zeta) (1/pi) int_0^1 x(1-lam x)
    e^{(z conj(zeta)+conj(w) zeta)x} dx``.
    """
    zz = z * np.conj(zeta)
    ww = np.conj(w) * zeta
    x, wt = _unit_nodes()
    integral = np.sum(wt * x * (1.0 - lam * x) * np.exp((zz + ww) * x))
    return omega(lam, zz) * omega(lam, ww) * integral / math.pi


def _xi_side(lam: float, xi: float, u):
    """``(omega(xi u), M, M')`` with ``M, M'`` at ``u xi tau`` on the unit
    nodes ``tau`` (last axis); ``u`` is a scalar or an array."""
    u = np.asarray(u, dtype=complex)
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


def _xi_blocks(lam: float, xi: float, side_u, side_v):
    """From the sides of two 1-d node arrays ``u``, ``v``: the outer matrix
    ``[kappa_xi(u_i, v_j)]`` and, for each side, the boundary terms
    ``(omega(xi u)/4) int_0^1 (1 - lam t) M(u xi t) dt``."""
    tau, wt = _unit_nodes()
    (wu, Mu, Mpu), (wv, Mv, Mpv) = side_u, side_v
    core = wt * tau * (1.0 - lam * tau)
    mat = (Mpu * core) @ Mv.T - (Mu * core) @ Mpv.T
    kmat = np.multiply.outer(wu, wv) * (xi / 4.0) * mat
    edge = wt * (1.0 - lam * tau)
    return kmat, wu * (Mu @ edge) / 4.0, wv * (Mv @ edge) / 4.0


def a_xi(lam: float, xi: float, a: float, b: float) -> complex:
    """Antiderivative kernel at the real anchors: the double integral of the
    scaled scalar kernel over [0,a] x [0,b] plus the anchoring boundary
    terms."""
    t, wt = _unit_nodes()
    uw, vw = a * wt, b * wt
    kmat, bu, bv = _xi_blocks(lam, xi, _xi_side(lam, xi, a * t),
                              _xi_side(lam, xi, b * t))
    bnd = float(np.real(vw @ bv - uw @ bu))
    return complex(uw @ kmat @ vw + bnd)


def a_xi_iform(lam: float, xi: float, a: float, b: float) -> complex:
    """Alternative single-integral form of the antiderivative kernel, valid
    when ``a xi < 0`` and ``b xi < 0`` (the weight is 1 there); built from
    ``I(z) = 2z(M' - M)(z)`` whose derivative is ``M``."""
    if not (a * xi < 0 and b * xi < 0):
        raise DomainError("the single-integral form requires a*xi, b*xi < 0")
    tau, wt = _unit_nodes()

    def I_and_M(x):
        M, Mp = big_m_pair(x)
        return 2.0 * x * (Mp - M), M

    Ia, Ma = I_and_M(a * xi * tau)
    Ib, Mb = I_and_M(b * xi * tau)
    integrand = (1.0 - lam * tau) / tau * (Ma * Ib - Ia * Mb)
    return complex((xi / 4.0) * np.sum(wt * integrand))


def da_xi(lam: float, xi: float, a, b: float) -> complex:
    """First-slot derivative of the antiderivative kernel (closed form)."""
    t, wt = _unit_nodes()
    kmat, ba, _ = _xi_blocks(lam, xi, _xi_side(lam, xi, [a]),
                             _xi_side(lam, xi, b * t))
    return complex(kmat[0] @ (b * wt) - ba[0])


def ad_xi(lam: float, xi: float, a: float, b) -> complex:
    """Second-slot derivative of the antiderivative kernel (closed form)."""
    t, wt = _unit_nodes()
    kmat, _, bb = _xi_blocks(lam, xi, _xi_side(lam, xi, a * t),
                             _xi_side(lam, xi, [b]))
    return complex((a * wt) @ kmat[:, 0] + bb[0])


# ---------------------------------------------------------------------------
# inside the unit disk
# ---------------------------------------------------------------------------


def sqrt_minus_tau(tau):
    """The branch of ``sqrt(-tau)`` on the unit circle fixed by the Fourier
    series ``-(2/pi) sum tau^m/(2m-1)``: ``e^{i(theta-pi)/2}`` for
    ``tau = e^{i theta}``, ``theta in (0, 2 pi)``."""
    theta = np.angle(tau) % (2.0 * np.pi)
    return np.exp(0.5j * (theta - np.pi))


# midpoint trapezoid nodes on the unit circle, offset by half a step so no
# node sits on the branch cut of sqrt(-tau) at angle 0
_DISK_TAU = np.exp(1j * (np.arange(_CIRCLE_N) + 0.5) * (2.0 * np.pi / _CIRCLE_N))
_DISK_TC = np.conj(_DISK_TAU)
_DISK_P = sqrt_minus_tau(_DISK_TAU)
_DISK_Q = np.conj(_DISK_P)


def _disk_factors(u, v):
    """Check that ``u, v`` lie in the open unit disk and return the circle
    factors ``p = sqrt(-tau)``, ``q = conj(p)``, ``tau``, ``conj(tau)``,
    ``ru = (1 - u^2 conj(tau))^{-1/2}`` and ``rv = (1 - v^2 tau)^{-1/2}``."""
    for z in (u, v):
        if abs(complex(z)) >= 1.0:
            raise DomainError(f"argument {z} not inside the open unit disk")
    ru = (1.0 - u * u * _DISK_TC) ** -0.5
    rv = (1.0 - v * v * _DISK_TAU) ** -0.5
    return _DISK_P, _DISK_Q, _DISK_TAU, _DISK_TC, ru, rv


def _circle_mean(integrand) -> complex:
    """``(1/(4 pi)) int_0^{2 pi} integrand d theta`` on the disk nodes."""
    return complex(np.sum(integrand) * (2.0 * np.pi / _CIRCLE_N) / (4.0 * np.pi))


def a_disk(u, v):
    """Antiderivative kernel inside the disk: a circle average of
    ``(v sqrt(-tau) - u sqrt(-conj tau)) / sqrt((1-u^2 conj tau)(1-v^2 tau))``."""
    p, q, _, _, ru, rv = _disk_factors(u, v)
    return _circle_mean((v * p - u * q) * ru * rv)


def da_disk(u, v):
    """First-slot derivative of the disk kernel (differentiation under the
    integral sign)."""
    p, q, _, tc, ru, rv = _disk_factors(u, v)
    return _circle_mean(-q * ru * rv + (v * p - u * q) * u * tc * ru ** 3 * rv)


def ad_disk(u, v):
    """Second-slot derivative of the disk kernel."""
    p, q, tau, _, ru, rv = _disk_factors(u, v)
    return _circle_mean(p * ru * rv + (v * p - u * q) * v * tau * ru * rv ** 3)


def dad_disk(u, v):
    """Mixed derivative of the disk kernel: the unscaled limit of the scalar
    kernel inside the disk."""
    p, q, tau, tc, ru, rv = _disk_factors(u, v)
    return _circle_mean(p * u * tc * ru ** 3 * rv - q * v * tau * ru * rv ** 3
                        + (v * p - u * q) * u * v * ru ** 3 * rv ** 3)


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


def _check_outside(*pts):
    for z in pts:
        if abs(complex(z)) <= 1.0:
            raise DomainError(f"argument {z} not outside the closed unit disk")


def _b_core(c: float, u, v):
    """The outside limit without the square-root trace factors."""
    uv = u * v
    return (c + 1.0 / (uv - 1.0)) / (np.abs(uv) ** c * math.pi) \
        * (v - u) / (uv - 1.0)


def b_outside(c: float, u, v):
    """Unscaled outside limit of the (phase-corrected) scalar kernel."""
    _check_outside(u, v)
    if math.isinf(c):
        # c |uv|^{-c} -> 0 for |uv| > 1
        return 0.0 * (u * v)
    return _b_core(c, u, v) / (sqrt_z2m1(u) * sqrt_z2m1(v))


def _c_const(c: float) -> float:
    """``Gamma((c+1)/2) / (sqrt(pi) Gamma(c/2))``."""
    return _gamma_quotient(((c + 1.0) / 2.0,), (c / 2.0,)) / math.sqrt(math.pi)


def _tail_nodes(y: float, order: int):
    """Nodes and weights for ``int_{sgn(y) inf}^y f(u) du / sqrt(u^2-1)``,
    ``|y| > 1``, up to its sign.

    The substitution ``|u| = cosh(t)`` removes the edge singularity, and
    ``t = arccosh|y| - log(x)`` maps ``[arccosh|y|, inf)`` to ``(0, 1]``:
    the nodes are ``sgn(y) cosh(t)`` and the weights ``w/x`` on the unit
    Gauss–Legendre rule. On the trace branch ``du / sqrt(u^2-1) = dt`` for
    either sign of ``y`` (both flip together); the downward orientation from
    ``sgn(y) inf`` to ``y`` contributes a factor -1 left to the caller.
    """
    x, w = _unit_nodes(order)
    t = math.acosh(abs(y)) - np.log(x)
    return math.copysign(1.0, y) * np.cosh(t), w / x


def _g_tail(c: float, y: float, order: int = 256) -> float:
    """``int_{sgn(y) inf}^y du / (|u|^c sqrt(u^2-1))`` for ``|y| > 1``,
    that is ``-int_{arccosh|y|}^inf cosh(t)^{-c} dt`` for either sign of
    ``y``."""
    u, wu = _tail_nodes(y, order)
    return -float(np.sum(wu * np.abs(u) ** (-c)))


def _b_single(c: float, z, y: float, order: int = 256):
    """``int_{sgn(y) inf}^y B(z, v) dv`` with ``z`` possibly complex."""
    v, wv = _tail_nodes(y, order)
    return -np.sum(_b_core(c, z, v) * wv) / sqrt_z2m1(z)


def a_outside(c: float, x: float, y: float, order: int = 96) -> float:
    """Antiderivative kernel outside the disk; identically zero at
    ``c = inf``."""
    _check_outside(x, y)
    if math.isinf(c):
        return 0.0
    sx, sy = math.copysign(1.0, x), math.copysign(1.0, y)
    u, wu = _tail_nodes(x, order)
    v, wv = _tail_nodes(y, order)
    # both integrals run from infinity down to the endpoint; the two (-1)s
    # cancel
    double = float(np.real(wu @ _b_core(c, u[:, None], v[None, :]) @ wv))
    single = _c_const(c) * (sx * _g_tail(c, y) - sy * _g_tail(c, x))
    return double + single


def da_outside(c: float, z, y: float):
    """First-slot derivative of the outside antiderivative kernel; the first
    argument may be complex."""
    _check_outside(z, y)
    if math.isinf(c):
        return 0.0
    sy = math.copysign(1.0, y)
    g = 1.0 / (np.abs(z) ** c * sqrt_z2m1(z))
    return _b_single(c, z, y) - _c_const(c) * sy * g


def ad_outside(c: float, x: float, w):
    """Second-slot derivative of the outside antiderivative kernel."""
    _check_outside(x, w)
    if math.isinf(c):
        return 0.0
    sx = math.copysign(1.0, x)
    g = 1.0 / (np.abs(w) ** c * sqrt_z2m1(w))
    # int_{sgn(x) inf}^x B(u, w) du = -(same single integral with the
    # antisymmetry B(u, w) = -B(w, u))
    return -_b_single(c, w, x) + _c_const(c) * sx * g


def dsn_limit(lam: float, c: float, u, v):
    """Limit of ``|uv|^s (uv)^{-N} kappa_N(u,v)/(s-N)`` outside the disk;
    ``1/c = 0`` when ``c`` is infinite."""
    cinv = 0.0 if math.isinf(c) else 1.0 / c
    uv = u * v
    return (lam / math.pi) * (1.0 + cinv / (uv - 1.0)) / (uv - 1.0) \
        * (v - u) / (sqrt_z2m1(u) * sqrt_z2m1(v))


# ---------------------------------------------------------------------------
# 2x2 assembly from an antiderivative kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalarKernelHandle:
    """Closed-form evaluators ``a``, ``da``, ``ad``, ``dad`` of an
    antiderivative kernel and its slot derivatives."""

    a: Callable
    da: Callable
    ad: Callable
    dad: Callable


def xi_handle(lam: float, xi: float) -> ScalarKernelHandle:
    return ScalarKernelHandle(
        a=lambda x, y: a_xi(lam, xi, x, y),
        da=lambda x, y: da_xi(lam, xi, x, y),
        ad=lambda x, y: ad_xi(lam, xi, x, y),
        dad=lambda x, y: kappa_xi(lam, xi, x, y))


def disk_handle() -> ScalarKernelHandle:
    return ScalarKernelHandle(a=a_disk, da=da_disk, ad=ad_disk, dad=dad_disk)


def outside_handle(c: float) -> ScalarKernelHandle:
    return ScalarKernelHandle(
        a=lambda x, y: a_outside(c, x, y),
        da=lambda x, y: da_outside(c, x, y),
        ad=lambda x, y: ad_outside(c, x, y),
        dad=lambda x, y: b_outside(c, x, y))


def assemble_matrix(A: ScalarKernelHandle, u, v) -> KernelValue2x2:
    """Species-dispatched 2x2 limit kernel built from an antiderivative
    kernel handle.

    Real/real rows carry the derivative entries and the ``(1/2) sgn`` term in
    the (2,2) slot (oriented as ``sgn(u - v)``, matching the finite-N matrix
    kernel); a complex first argument uses conjugation with the half-plane
    phase ``iota``; real-first/complex-second is the negated transpose of the
    swapped pair; complex/complex uses mixed derivatives only.
    """
    ur = abs(complex(u).imag) == 0.0
    vr = abs(complex(v).imag) == 0.0
    if ur and vr:
        x, y = complex(u).real, complex(v).real
        return KernelValue2x2(
            complex(A.dad(x, y)), -complex(A.da(x, y)),
            complex(A.ad(x, y)),
            complex(A.a(x, y)) + 0.5 * np.sign(x - y))
    if not ur and vr:
        z, y = complex(u), complex(v).real
        return KernelValue2x2(
            complex(A.dad(z, y)), -complex(A.da(z, y)),
            iota(z) * complex(A.dad(np.conj(z), y)),
            -iota(z) * complex(A.da(np.conj(z), y)))
    if ur and not vr:
        K = assemble_matrix(A, v, u)
        return KernelValue2x2(-K.e11, -K.e21, -K.e12, -K.e22)
    z, w = complex(u), complex(v)
    return KernelValue2x2(
        complex(A.dad(z, w)),
        iota(w) * complex(A.dad(z, np.conj(w))),
        iota(z) * complex(A.dad(np.conj(z), w)),
        iota(z) * iota(w) * complex(A.dad(np.conj(z), np.conj(w))))


# ---------------------------------------------------------------------------
# asymptotic real-root counts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AsymptoticCounts:
    e_in: float
    e_out: float
    regime: str
    alpha: float


def asymptotic_real_counts(N: int, s: float) -> AsymptoticCounts:
    """Leading-order expected real-root counts and the growth regime.

    ``E_in ~ (1/pi) log N``; ``E_out ~ -(1/pi) (sqrt(N(2s-N))/s)
    log(1 - N/s)``. Regimes: ratio N/s bounded away from 1 (outside count
    stays O(sqrt(N/s))), ``s = N + N^{1-alpha}`` (outside count grows like
    ``(alpha/pi) log N``), and ``s - N`` bounded (total ``(2/pi) log N``,
    the same leading term as for independent Gaussian coefficients).
    """
    if not s > N:
        raise DomainError("requires s > N")
    e_in = math.log(N) / math.pi
    if math.isinf(s):
        return AsymptoticCounts(e_in, 0.0, "ratio_below_one", 0.0)
    e_out = -(math.sqrt(N * (2.0 * s - N)) / s) * math.log1p(-N / s) / math.pi
    gap = s - N
    if N / s <= 0.75:
        return AsymptoticCounts(e_in, e_out, "ratio_below_one", 0.0)
    alpha = 1.0 - math.log(max(gap, 1.0)) / math.log(N) if N > 1 else 1.0
    alpha = min(max(alpha, 0.0), 1.0)
    if gap <= 2.0 or alpha >= 0.95:
        return AsymptoticCounts(e_in, e_out, "gap_bounded", 1.0)
    return AsymptoticCounts(e_in, e_out, "intermediate", alpha)


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


def _sup(errors) -> float:
    return float(np.max(np.abs(np.asarray(errors))))


def convergence_report(spec: LimitKernelSpec, grid, N_list) -> list[dict]:
    """Sup-norm distance between the scaled finite-N kernel quantities and
    their claimed limits, per N; each row is JSON-serializable.

    ``grid`` is a list of argument pairs appropriate to the regime (complex
    offsets for the circle regimes, disk or exterior points otherwise).
    """
    if not N_list or list(N_list) != sorted(set(N_list)) or max(N_list) > 64:
        raise DomainError("N_list must be non-empty and strictly increasing, "
                          f"with entries <= 64, got {list(N_list)}")
    rows = []
    for N in N_list:
        s = _schedule(spec, N)
        P = EnsembleParams(N, s)
        lam_N = P.lam
        c_N = s - N
        errs = {}
        if spec.regime == "circle_complex":
            zeta = complex(spec.anchor)
            e11, e12 = [], []
            for z, w in grid:
                zu = zeta + z / N
                wv = zeta + w / N
                K = matrix_kernel(P, zu, wv)
                e11.append(K.e11 / N ** 2)
                e12.append(K.e12 / N ** 2 - k_zeta(lam_N, zeta, z, w))
            errs = {"entry11_to_zero": _sup(e11), "entry12_vs_limit": _sup(e12)}
        elif spec.regime == "circle_real":
            xi = float(complex(spec.anchor).real)
            e11, e12, e22 = [], [], []
            for z, w in grid:
                zu = xi + z / N
                wv = xi + w / N
                K = matrix_kernel(P, zu, wv)
                if abs(complex(z).imag) == 0.0 and abs(complex(w).imag) == 0.0:
                    a, b = complex(z).real, complex(w).real
                    e11.append(K.e11 / N ** 2 - kappa_xi(lam_N, xi, a, b))
                    e12.append(K.e12 / N + da_xi(lam_N, xi, a, b))
                    e22.append(K.e22 - 0.5 * np.sign(a - b)
                               - a_xi(lam_N, xi, a, b))
                else:
                    e11.append(K.e11 / N ** 2 - kappa_xi(lam_N, xi, z, w))
            errs = {"entry11": _sup(e11)}
            if e12:
                errs["entry12"] = _sup(e12)
                errs["entry22"] = _sup(e22)
        elif spec.regime == "inside_disk":
            e11, e22 = [], []
            for x, y in grid:
                K = matrix_kernel(P, x, y)
                e11.append(K.e11 - dad_disk(x, y))
                if abs(complex(x).imag) == 0.0 and abs(complex(y).imag) == 0.0:
                    xr, yr = complex(x).real, complex(y).real
                    e22.append(K.e22 - 0.5 * np.sign(xr - yr)
                               - a_disk(xr, yr))
            errs = {"entry11": _sup(e11)}
            if e22:
                errs["entry22"] = _sup(e22)
        elif spec.regime == "outside_disk":
            e11, e22 = [], []
            for x, y in grid:
                scale = abs(x * y) ** s / (x * y) ** N
                e11.append(scale * kappa_n(P, x, y) / (s - N)
                           - dsn_limit(lam_N, c_N, x, y))
                if not math.isinf(spec.c) and abs(complex(x).imag) == 0.0 \
                        and abs(complex(y).imag) == 0.0:
                    xr, yr = complex(x).real, complex(y).real
                    K = matrix_kernel(P, xr, yr)
                    e22.append(K.e22 - 0.5 * np.sign(xr - yr)
                               - a_outside(c_N, xr, yr))
            errs = {"entry11_scaled": _sup(e11)}
            if e22:
                errs["entry22"] = _sup(e22)
        row = {"regime": spec.regime, "N": N, "s": s,
               "grid_size": len(grid)}
        row.update({k: float(v) for k, v in errs.items()})
        row["sup_error"] = float(max(errs.values()))
        rows.append(row)
    return rows


def ratio_sums_report(N_list, params=(0.5, -0.5, 1.5, -1.5)) -> list[dict]:
    """Convergence of polynomial-product-sum ratios to their scaled limits:
    the exponential-moment limit at a non-real circle anchor and the
    hypergeometric-moment limit at 1."""
    a1, b1, a2, b2 = params
    zeta = 1j
    aa1, aa2 = 0.4 + 0.3j, -0.2 + 0.5j
    t1, t2 = 0.6, -0.4
    rows = []
    lim_ratio = e_gamma(a1 + a2, aa1 * np.conj(zeta) + np.conj(aa2) * zeta)
    lim_one = e_pair(a1, b1, a2, b2, t1, t2)
    for N in N_list:
        r1 = sum_k(N, a1, b1, a2, b2, zeta + aa1 / N,
                   np.conj(zeta) + np.conj(aa2) / N) \
            / sum_k(N, a1, b1, a2, b2, zeta, np.conj(zeta))
        r2 = sum_k(N, a1, b1, a2, b2, 1.0 + t1 / N, 1.0 + t2 / N) \
            / sum_k(N, a1, b1, a2, b2, 1.0, 1.0)
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
    ``b1 + b2 + 1 < 0``; a pole of ``Gamma(1+b2)`` raises :class:`PoleError`."""
    m = np.asarray(m)
    b1, b2 = np.where(m < 0, b2, b1), np.where(m < 0, b1, b2)
    k = np.abs(m).astype(float)
    return gamma_ratio(k, b2) * _gamma_quotient((-b1 - b2 - 1.0, k + 1.0),
                                                (-b2, k - b1))


def sum_inside_limit(a1: float, b1: float, a2: float, b2: float,
                     z: complex, w: complex, terms: int = 200) -> complex:
    """Limit of the product sums inside the disk when ``b1 + b2 + 1 < 0``:
    the circle average of the singular weight against the two binomial
    kernels, evaluated through its geometrically-convergent double series."""
    if b1 + b2 + 1.0 >= 0.0:
        raise DomainError("requires b1 + b2 + 1 < 0")
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise DomainError("arguments must lie in the open unit disk")
    j = np.arange(terms)
    cz = gamma_ratio_table(terms - 1, a1) * np.asarray(z) ** j
    cw = gamma_ratio_table(terms - 1, a2) * np.asarray(w) ** j
    # Toeplitz: entry (j, k) is the coefficient of index j - k
    coef = _lambda_fourier(b1, b2, np.arange(1 - terms, terms))
    lam = coef[np.subtract.outer(j, j) + terms - 1]
    return complex(cz @ lam @ cw)


def kasymp_report(N_list, params=(0.5, -0.8, 1.5, -1.5)) -> list[dict]:
    """Convergence of the unscaled product sums: the Gamma-ratio value at
    the origin, the circle-average limit inside the disk, and the
    normalized outside limit."""
    a1, b1, a2, b2 = params
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
            (M, Mc), (Mp, Mpc) = big_m_pair([z, np.conj(z)])
            val = iota(z) / 4.0 * (Mp * Mc - M * Mpc)
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


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
