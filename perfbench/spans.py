"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``mahler`` modules from outside
the package.  Each call of a wrapped function becomes a span with a name,
a start, an end and the index of the enclosing span; a few hot helpers are
only counted.  Because modules import each other's functions with
``from .x import y``, patching ``mahler.quadrature.adaptive`` alone would miss
the copy bound as ``mahler.kernel.adaptive``: ``install`` therefore rebinds
every name in every loaded ``mahler`` module that refers to a wrapped
function, and ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np


def _is_real(u) -> bool:
    return abs(complex(u).imag) == 0.0


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _species(args, kwargs):
    ur = _is_real(_arg(args, kwargs, 1, "u"))
    vr = _is_real(_arg(args, kwargs, 2, "v"))
    kind = "rr" if ur and vr else ("cc" if not (ur or vr) else "rc")
    return "kernel.matrix_kernel." + kind, None


def _points(name, pos, key):
    def namer(args, kwargs):
        return name, {"points": int(np.size(_arg(args, kwargs, pos, key)))}
    return namer


def _region(args, kwargs):
    region = _arg(args, kwargs, 1, "region")
    label = region[0] if isinstance(region, tuple) else region
    return "kernel.expected_counts." + str(label), None


def _pfaffian_dim(args, kwargs):
    return "kernel.pfaffian", {"dim": int(np.shape(_arg(args, kwargs, 0, "A"))[0])}


def _big_m(args, kwargs):
    z = np.asarray(_arg(args, kwargs, 0, "z"))
    # 25 is the modulus above which big_m_pair leaves its series for mpmath;
    # the count describes the inputs, however big_m_pair evaluates them
    large = int(z.size > 0 and float(np.max(np.abs(z))) > 25.0)
    return "specfun.big_m_pair", {"points": int(z.size), "large_arg_calls": large}


def _report_rows(args, kwargs):
    return "limits.convergence_report", {"rows": len(list(_arg(args, kwargs, 2, "N_list")))}


def _sample_steps(args, kwargs):
    return "mc.sample", {"steps": int(_arg(args, kwargs, 0, "cfg").steps)}


# (module, function, namer): namer maps the call arguments to the span name
# and attributes summed per name; None names the span module.function.
# "count" marks helpers that are only counted, because they are too small
# and too many for a span each.
TARGETS = (
    ("mahler.kernel", "matrix_kernel", _species),
    ("mahler.kernel", "intensity_real", _points("kernel.intensity_real", 1, "x")),
    ("mahler.kernel", "intensity_complex", _points("kernel.intensity_complex", 1, "z")),
    ("mahler.kernel", "kappa_n", None),
    ("mahler.kernel", "correlation", None),
    ("mahler.kernel", "expected_counts", _region),
    ("mahler.kernel", "pfaffian", _pfaffian_dim),
    ("mahler.polys", "eps_pi", None),
    ("mahler.polys", "pi_even_core", "count"),
    ("mahler.polys", "pi_odd_core", "count"),
    ("mahler.quadrature", "adaptive", None),
    ("mahler.quadrature", "fixed_panel", "count"),
    ("mahler.specfun", "big_m_pair", _big_m),
    ("mahler.volume", "gram_pf", None),
    ("mahler.volume", "bilinear", None),
    ("mahler.limits", "a_xi", None),
    ("mahler.limits", "kappa_xi", None),
    ("mahler.limits", "a_disk", None),
    ("mahler.limits", "dad_disk", None),
    ("mahler.limits", "a_outside", None),
    ("mahler.limits", "b_outside", None),
    ("mahler.limits", "k_zeta", None),
    ("mahler.limits", "compare_report", None),
    ("mahler.limits", "convergence_report", _report_rows),
    ("mahler.mc", "sample", _sample_steps),
    ("mahler.mc", "roots_classify", None),
    ("mahler.cli", "main", None),
)


class Recorder:
    """Spans and counts of wrapped calls, kept in memory.

    ``active`` switches recording on and off without unwrapping, so that
    oracle checks run between traced jobs leave no spans.
    """

    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, attrs=None) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        self.add_attrs(name, attrs)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(float("nan"))
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def add_attrs(self, name: str, attrs) -> None:
        for key, value in (attrs or {}).items():
            acc = self.attrs.setdefault(name, {})
            acc[key] = acc.get(key, 0) + value

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside one span called ``name``."""
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, module: str, fname: str, fn, namer):
        rec = self
        default = module.split(".")[-1] + "." + fname
        if namer == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if rec.active:
                    rec.count(default)
                return fn(*args, **kwargs)
            return counted

        def name_of(args, kwargs):
            return (default, None) if namer is None else namer(args, kwargs)

        if inspect.isgeneratorfunction(fn):
            def resumes(name, gen):
                # one span per resumption: the work of a generator happens
                # while it is iterated, not when it is called
                while True:
                    idx = rec.open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec.close(idx)
                    yield item

            @functools.wraps(fn)
            def generator(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if not rec.active:
                    return gen
                name, attrs = name_of(args, kwargs)
                rec.add_attrs(name, attrs)
                return resumes(name, gen)
            return generator

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            name, attrs = name_of(args, kwargs)
            idx = rec.open(name, attrs)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.close(idx)
        return spanned

    def install(self, targets=TARGETS) -> None:
        """Wrap every target and rebind each ``mahler`` name bound to it."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        wrappers = {}
        for module, fname, namer in targets:
            fn = getattr(importlib.import_module(module), fname)
            wrappers[id(fn)] = (fn, self._wrap(module, fname, fn, namer))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "mahler" or mod_name.startswith("mahler.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def restore(self) -> None:
        """Put every rebound name back to its original function."""
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)
        self.active = False

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed attributes.

        A span's self time is its duration minus the durations of the spans
        opened directly inside it.  Counted helpers report calls only.
        """
        n = len(self.span_name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, dict[str, float]] = {}
        for i in range(n):
            row = out.setdefault(self.names[self.span_name[i]],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        for name, calls in self.counts.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})["calls"] += calls
        for name, attrs in self.attrs.items():
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in attrs.items():
                row[key] = row.get(key, 0) + value
        return out


def merge(into: dict, summary: dict) -> None:
    """Add one summary (for instance from a traced child process) to another."""
    for name, row in summary.items():
        acc = into.setdefault(name, {})
        for key, value in row.items():
            acc[key] = acc.get(key, 0) + value
