"""Command-line surface: CSV/JSON artifacts for every library capability.

Subcommands: ``volume`` (Pfaffian-vs-product identity check), ``kernel-grid``
(finite-N matrix kernel on a grid), ``intensity`` (finite-N or limiting
one-point density field), ``convergence`` (finite-N vs limit error tables),
``expected-roots`` (exact real-root counts vs the log-N growth law),
``sample`` (ball-walk Monte-Carlo draws), and ``validate`` (built-in
self-check battery).

Every output is opened in one place: ``--out PATH`` writes PATH, ``--out -``
or no ``--out`` writes stdout. Exit codes: 0 success, 1 numerical check
failed, 2 invalid arguments, an ``--out`` that cannot be opened among them.
CSV uses '.' decimals, ``\\n`` line endings, 17 significant digits for floats
and every digit of integers; ``inf`` is accepted wherever ``s`` is.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys

import numpy as np

from . import kernel, limits, mc, polys, volume
from .errors import MahlerError
from .specfun import iota


def _parse_s(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise MahlerError(f"--s must be a number or 'inf', got {text!r}") from None


@contextlib.contextmanager
def _output(path):
    """The file at ``path`` opened for writing, or stdout for None or '-';
    :class:`MahlerError` where the file cannot be opened."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="\n")
    except OSError as exc:
        raise MahlerError(f"cannot write --out: {exc}") from None
    with fh:
        yield fh


def _fmt(x) -> str:
    """An integer as it is, any other number with 17 significant digits."""
    return str(x) if isinstance(x, int) else format(float(x), ".17g")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def run_volume(args) -> int:
    s = _parse_s(args.s)
    f_product = volume.chern_vaaler_f(args.N, s)
    _, pf_u = volume.gram_pf(args.N, s)
    abs_diff = abs(pf_u - f_product)
    payload = {"N": args.N, "s": "inf" if math.isinf(s) else s,
               "F_product": f_product, "Pf_U": pf_u, "abs_diff": abs_diff}
    with _output(args.out) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return 0 if abs_diff <= 1e-8 * abs(f_product) else 1


def _grid(args):
    """The grid's real parts and the imaginary parts of its rows."""
    return (np.linspace(args.re_min, args.re_max, args.re_steps),
            np.linspace(args.im_min, args.im_max, args.im_steps))


def _write_csv(path, header, rows) -> int:
    """``header`` and then ``rows`` of numbers to ``path`` as CSV; the number
    of rows. A list of rows is computed before the file opens, so an error
    leaves no file; an iterator's rows are written as they come."""
    n = 0
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n, row in enumerate(rows, 1):
            writer.writerow(map(_fmt, row))
    return n


def run_kernel_grid(args) -> int:
    params = kernel.EnsembleParams(args.N, _parse_s(args.s))
    v = complex(args.v_re, args.v_im)
    re, im = _grid(args)
    u = np.array([complex(x, y) for y in im for x in re])
    K = kernel.assemble_matrix(kernel._handle(params), u, v)
    rows = [[z.real, z.imag, v.real, v.imag] + [p for e in entries for p in (e.real, e.imag)]
            for z, *entries in zip(u, K.e11, K.e12, K.e21, K.e22)]
    _write_csv(args.out, ["re_u", "im_u", "re_v", "im_v",
                          "e11_re", "e11_im", "e12_re", "e12_im",
                          "e21_re", "e21_im", "e22_re", "e22_im"], rows)
    return 0


# the options each intensity field reads, by --regime (None: finite N)
_FIELD_OPTIONS = {None: ("N", "s"), "circle_real": ("xi", "lam"), "outside": ("c",)}


def _intensity_fn(args):
    """The requested finite-N or limiting one-point density as a function of a
    grid row's real parts ``x`` and imaginary part ``y``, one vectorized library
    call per row. Options the field ignores are an error, and a limit field's
    parameters pass :class:`limits.LimitKernelSpec` before any point."""
    ignored = [f"--{k}" for k in ("N", "s", "xi", "lam", "c")
               if getattr(args, k) is not None and k not in _FIELD_OPTIONS[args.regime]]
    if ignored:
        raise MahlerError(f"intensity: the {args.regime or 'finite-N'} field "
                          f"ignores {', '.join(ignored)}")
    if args.regime is None:
        if args.N is None or args.s is None:
            raise MahlerError("intensity: need --N and --s, or --regime")
        params = kernel.EnsembleParams(args.N, _parse_s(args.s))
        return lambda x, y: (kernel.intensity_real(params, x) if y == 0.0
                             else kernel.intensity_complex(params, x + 1j * y))
    if args.regime == "circle_real":
        spec = limits.LimitKernelSpec(
            "circle_real", lam=1.0 if args.lam is None else args.lam,
            anchor=1.0 if args.xi is None else args.xi)
        limit, r_min = functools.partial(limits.kappa_xi, spec.lam, spec.anchor.real), 0.0
    else:
        c = limits.LimitKernelSpec("outside_disk", c=1.0 if args.c is None else args.c).c
        # within 4 ulp of |z| = 1, uv - 1 in b_outside is rounding noise
        limit, r_min = functools.partial(limits.b_outside, c), 1.0 + 4.0 * np.finfo(float).eps

    def limit_row(x, y):
        # i sgn(y) limit(z, conj z) off the real line where |z| > r_min, else 0
        val, z = np.zeros(x.shape), x + 1j * y
        if y != 0.0:
            keep = np.abs(z) > r_min
            val[keep] = np.real(iota(z[keep]) * limit(z[keep], np.conj(z[keep])))
        return val
    return limit_row


def run_intensity(args) -> int:
    field = _intensity_fn(args)
    re, im = _grid(args)
    rows = [[x, y, v] for y in im for x, v in zip(re, field(re, y))]
    _write_csv(args.out, ["re_z", "im_z", "intensity"], rows)
    return 0


def run_convergence(args) -> int:
    try:
        n_list = tuple(int(t) for t in args.N_list.split(","))
    except ValueError:
        raise MahlerError("--N-list must be comma-separated integers, got "
                          f"{args.N_list!r}") from None
    report = limits.full_report(n_list)
    with _output(args.out) as fh:
        fh.write(json.dumps(report, indent=2, sort_keys=True))
        fh.write("\n")
    return 0


def run_expected_roots(args) -> int:
    s = _parse_s(args.s)
    e_in = kernel.expected_in_exact(args.N, s)
    e_out = kernel.expected_out_exact(args.N, s)
    kac = math.log(args.N) / math.pi
    print(f"N = {args.N}  s = {args.s}")
    print(f"E_in (exact sum)  = {_fmt(e_in)}")
    print(f"E_out (exact sum) = {_fmt(e_out)}")
    print(f"(1/pi) log N      = {_fmt(kac)}")
    print(f"E_in - (1/pi) log N = {_fmt(e_in - kac)}")
    return 0


def run_sample(args) -> int:
    cfg = mc.SamplerConfig(N=args.N, s=_parse_s(args.s), step_length=args.step_length,
                           steps=args.steps, burn_in=args.burn_in,
                           thin=args.thin, seed=args.seed)
    rows = ([cfg.seed, i, *p.coeffs] for i, p in enumerate(mc.sample(cfg)))
    n = _write_csv(args.out, ["seed", "index", *(f"c{k}" for k in range(cfg.N + 1))], rows)
    print(f"wrote {n} samples to {args.out}", file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _validate_battery():
    """Self-check battery: (name, passed) pairs covering each module."""
    pairs = [polys.pi_pair(n, 11.0) for n in range(3)]
    A = np.random.default_rng(0).standard_normal((6, 6))
    A = A - A.T
    P = kernel.EnsembleParams(2, 5.0)
    return [
        ("volume identity N=3,4 s=8", all(
            math.isclose(volume.gram_pf(N, 8.0)[1], volume.chern_vaaler_f(N, 8.0), rel_tol=1e-8)
            for N in (3, 4))),
        ("skew-orthonormality indices <= 2, s=11", all(
            abs(volume.bilinear(pairs[n][0], pairs[m][1], 11.0) - float(n == m)) <= 1e-12
            for n in range(3) for m in range(3))),
        ("pfaffian squared equals determinant",
         abs(kernel.pfaffian(A) ** 2 - np.linalg.det(A)) <= 1e-8),
        ("N=2 s=5 normalization", abs(kernel.expected_counts(P, "all") - 2.0) <= 1e-12),
        ("N=2 closed-form inside count",
         abs(kernel.expected_counts(P, "inside") - (2 * 5 - 1) / (3 * 5)) <= 1e-9)]


def run_validate(args) -> int:
    checks = _validate_battery()
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_grid_args(p):
    p.add_argument("--re-min", type=float, default=-2.0)
    p.add_argument("--re-max", type=float, default=2.0)
    p.add_argument("--re-steps", type=int, default=21)
    p.add_argument("--im-min", type=float, default=-2.0)
    p.add_argument("--im-max", type=float, default=2.0)
    p.add_argument("--im-steps", type=int, default=21)
    p.add_argument("--out", default=None, help="output path ('-' = stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahler",
        description="Random polynomials weighted by powers of the Mahler "
                    "measure: kernels, limits, volumes, sampling.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("volume", help="check Pf(U) against the product F(s)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_volume)

    p = sub.add_parser("kernel-grid",
                       help="finite-N matrix kernel K_N(u, v) on a grid of u")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--v-re", type=float, default=0.5)
    p.add_argument("--v-im", type=float, default=0.0)
    _add_grid_args(p)
    p.set_defaults(func=run_kernel_grid)

    p = sub.add_parser("intensity",
                       help="one-point density field (finite N or limit)")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s", default=None)
    p.add_argument("--regime", default=None,
                   choices=["circle_real", "outside"])
    p.add_argument("--xi", type=float, default=None)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    _add_grid_args(p)
    p.set_defaults(func=run_intensity)

    p = sub.add_parser("convergence",
                       help="finite-N vs limiting-kernel error report (JSON)")
    p.add_argument("--N-list", default="8,16,32")
    p.add_argument("--out", default=None)
    p.set_defaults(func=run_convergence)

    p = sub.add_parser("expected-roots",
                       help="exact expected real-root counts vs (1/pi) log N")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True)
    p.set_defaults(func=run_expected_roots)

    p = sub.add_parser("sample", help="ball-walk Monte-Carlo draws (CSV)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True)
    p.add_argument("--steps", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=1_000)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--step-length", type=float, default=0.25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_sample)

    p = sub.add_parser("validate", help="run the built-in self-check battery")
    p.set_defaults(func=run_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MahlerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
