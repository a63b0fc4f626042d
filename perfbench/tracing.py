"""Spans and counters around the public functions of each package layer.

The wrappers live here, not in the package: `instrument` swaps them in on
every module binding of each wrapped function (for example both
`quadrature.adaptive_quad_log` and `criterion.adaptive_quad_log`) and the
returned patch puts the originals back.  A span is (name, start, end,
parent, job id); spans stay in memory in flat arrays and are written once,
when the run ends.  A span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# Span names shared by several wrapped functions.  Warp calls nested in
# another warp call (PowerGrowth.log_phi calls its own eval) get no span.
WARP = "warp"
WRITE = "cli.write"
READ = "cli.read"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.stack = [-1]
        self.job_id = -1
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def current(self) -> int:
        """Name id of the innermost open span, or -1."""
        top = self.stack[-1]
        return -1 if top < 0 else self.name[top]

    def spans(self, name, on_call=None, on_return=None):
        """Wrapper factory: a span per call, named `name` or `name(args)`."""
        fixed = None if callable(name) else self.name_id(name)

        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(args, kwargs)
                idx = self.open(fixed if fixed is not None
                                else self.name_id(name(args)))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(idx)
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper
        return factory

    def counted(self, key, on_return=None):
        """Wrapper factory: no span, only a call counter."""
        def factory(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counts[key] += 1
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
                return result
            return wrapper
        return factory

    def warp_method(self, fn):
        nid = self.name_id(WARP)

        @functools.wraps(fn)
        def wrapper(w, r, *args, **kwargs):
            if self.current() == nid:
                return fn(w, r, *args, **kwargs)
            self.counts["warp.points"] += np.size(r)
            idx = self.open(nid)
            try:
                return fn(w, r, *args, **kwargs)
            finally:
                self.close(idx)
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "job"])
            for i in range(len(self.start)):
                out.writerow([i, self.names[self.name[i]], repr(self.start[i]),
                              repr(self.end[i]), self.parent[i], self.job[i]])


def self_times(start, end, parent) -> list:
    """Per span: duration minus the union of its direct children's intervals."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append((start[i], end[i]))
    out = []
    for i in range(len(start)):
        covered, reach = 0.0, -float("inf")
        for a, b in sorted(children.get(i, ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out.append(end[i] - start[i] - covered)
    return out


class Patch:
    """Replaces functions on every module binding and class, then restores."""

    def __init__(self, modules):
        self.modules = modules
        self.saved = []

    def function(self, original, factory):
        wrapped = factory(original)
        found = 0
        for module in self.modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.saved.append((module, attr, value))
                    setattr(module, attr, wrapped)
                    found += 1
        if not found:
            raise RuntimeError(f"no binding of {original!r} to wrap")

    def method(self, cls, attr, factory):
        original = cls.__dict__[attr]
        self.saved.append((cls, attr, original))
        setattr(cls, attr, factory(original))

    def restore(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


_GROWTH_KIND = {"ExponentialGrowth": "exp", "PowerLawGrowth": "power",
                "PowerLogGrowth": "powerlog", "UnknownGrowth": "unknown"}


def _kind(args):
    return _GROWTH_KIND.get(type(args[0].growth_class).__name__, "unknown")


def instrument(tracer: Tracer) -> Patch:
    """Wrap each layer's public functions; call .restore() on the result."""
    import weakmodel
    from weakmodel import (cli, criterion, extension, oracle, quadrature,
                           radial, spectrum, warp)

    patch = Patch([weakmodel, cli, criterion, extension, oracle, quadrature,
                   radial, spectrum, warp])
    counts, keys = tracer.counts, tracer.keys

    def key_of(name, fn, fields):
        sig = inspect.signature(fn)

        def on_call(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            keys[name].add((tracer.job_id, repr(a["w"]))
                           + tuple(field(a) for field in fields))
        return on_call

    # warp: every evaluation entry point of every family
    for cls in (warp.WarpingFunction, warp.Euclidean, warp.Hyperbolic,
                warp.PowerGrowth, warp.PowerLog, warp.Tabulated):
        for attr in ("eval", "log_phi", "phi"):
            if attr in cls.__dict__:
                patch.method(cls, attr, tracer.warp_method)

    # quadrature
    patch.function(quadrature.kronrod_panel_log,
                   tracer.spans("quadrature.k15_panel"))

    def count_panels(result):
        counts["quadrature.adaptive_quad_log.panels"] += len(result[2])
    patch.function(quadrature.adaptive_quad_log,
                   tracer.spans("quadrature.adaptive_quad_log",
                                on_return=count_panels))
    patch.method(quadrature.LogCumulative, "log_between",
                 tracer.spans("quadrature.log_between"))
    patch.method(quadrature.LogCumulative, "__init__",
                 tracer.spans("quadrature.log_cumulative"))

    # criterion
    patch.function(criterion.march_criterion,
                   tracer.spans(lambda args: f"criterion.march.{_kind(args)}"))
    patch.function(criterion.transience_integral,
                   tracer.spans("criterion.transience"))
    patch.function(criterion.tail_certificate, tracer.spans(
        "criterion.tail_certificate",
        on_call=key_of("criterion.tail_certificate", criterion.tail_certificate,
                       (lambda a: a["n"], lambda a: float(a["R"])))))

    # radial
    patch.function(radial.solve_radial, tracer.spans(
        "radial.solve_radial",
        on_call=key_of("radial.solve_radial", radial.solve_radial,
                       (lambda a: a["n"], lambda a: a["mode"].lambda_sq,
                        lambda a: float(a["r_max"]), lambda a: a["r0"],
                        lambda a: a["tol"], lambda a: a["grid_size"]))))

    def count_ode(sol):
        counts["radial.ode_steps"] += len(sol.t) - 1
        counts["radial.ode_nfev"] += sol.nfev
    patch.function(radial.solve_ivp, tracer.counted("radial.ode_solves",
                                                    on_return=count_ode))
    for name in ("normalize_profile", "suggest_rmax", "riccati_trace",
                 "lemma_bound_check"):
        patch.function(getattr(radial, name), tracer.spans(f"radial.{name}"))

    # spectrum
    patch.function(spectrum.project_boundary,
                   tracer.spans("spectrum.project_boundary"))
    patch.function(spectrum.eigenfunction_eval,
                   tracer.counted("spectrum.eigenfunction.calls"))

    # extension
    patch.function(extension.build_extension,
                   tracer.spans("extension.build_extension"))
    patch.function(extension.evaluate, tracer.spans("extension.evaluate"))

    # oracle
    patch.function(oracle.solve_annulus_dirichlet,
                   tracer.spans("oracle.annulus_cg"))
    patch.function(oracle._apply_symmetrized,
                   tracer.counted("oracle.matvecs"))
    patch.function(oracle.laplace_beltrami_residual_fn,
                   tracer.spans("oracle.fd_residual"))

    # cli: report and artifact writes, input reads
    patch.function(cli.write_json_atomic, tracer.spans(WRITE))
    patch.function(radial.export_metadata_json, tracer.spans(WRITE))
    patch.function(extension.dump_evaluation_csv, tracer.spans(WRITE))
    patch.method(radial.RadialProfile, "to_csv", tracer.spans(WRITE))
    patch.function(radial.load_profile_csv, tracer.spans(READ))
    patch.function(warp.load_tabulated_csv, tracer.spans(READ))
    return patch


# (metric, unit, better); the order is the order of the report.
PER_LAYER = (
    ("warp.calls", "count", "lower"),
    ("warp.points_per_call", "points/call", "higher"),
    ("warp.self_s", "s", "lower"),
    ("quadrature.k15_panel.calls", "count", "lower"),
    ("quadrature.k15_panel.self_s", "s", "lower"),
    ("quadrature.adaptive_quad_log.calls", "count", "lower"),
    ("quadrature.adaptive_quad_log.panels", "count", "lower"),
    ("quadrature.adaptive_quad_log.self_s", "s", "lower"),
    ("quadrature.log_between.calls", "count", "lower"),
    ("quadrature.log_between.self_s", "s", "lower"),
    ("quadrature.log_cumulative.self_s", "s", "lower"),
    ("criterion.march.exp.calls", "count", "lower"),
    ("criterion.march.exp.s", "s", "lower"),
    ("criterion.march.power.calls", "count", "lower"),
    ("criterion.march.power.s", "s", "lower"),
    ("criterion.march.powerlog.calls", "count", "lower"),
    ("criterion.march.powerlog.s", "s", "lower"),
    ("criterion.march.unknown.calls", "count", "lower"),
    ("criterion.march.unknown.s", "s", "lower"),
    ("criterion.transience.s", "s", "lower"),
    ("criterion.tail_certificate.calls", "count", "lower"),
    ("criterion.tail_certificate.s", "s", "lower"),
    ("criterion.tail_certificate.unique_frac", "frac", "higher"),
    ("radial.solve_radial.calls", "count", "lower"),
    ("radial.solve_radial.self_s", "s", "lower"),
    ("radial.solve_radial.unique_frac", "frac", "higher"),
    ("radial.riccati_trace.calls", "count", "lower"),
    ("radial.riccati_trace.s", "s", "lower"),
    ("radial.lemma_bound_check.s", "s", "lower"),
    ("radial.ode_steps", "count", "lower"),
    ("radial.ode_nfev", "count", "lower"),
    ("radial.normalize_profile.resolves", "count", "lower"),
    ("radial.suggest_rmax.s", "s", "lower"),
    ("radial.suggest_rmax.certificates", "count", "lower"),
    ("spectrum.project_boundary.s", "s", "lower"),
    ("spectrum.eigenfunction.calls", "count", "lower"),
    ("extension.build_extension.calls", "calls/cmd", "lower"),
    ("extension.build_extension.self_s", "s", "lower"),
    ("extension.evaluate.calls", "count", "lower"),
    ("extension.evaluate.self_s", "s", "lower"),
    ("oracle.annulus_cg.s", "s", "lower"),
    ("oracle.cg_iterations", "count", "lower"),
    ("oracle.fd_residual.s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.write.s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.read.s", "s", "lower"),
    ("cli.warnings", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every PER_LAYER value from the spans and counters of a traced run.

    `extra` supplies what the run loop measures itself: extend commands
    run, bytes written, warnings caught and the tracing overhead.
    """
    names = tracer.names
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    calls, total, own = Counter(), Counter(), Counter()
    child_of = Counter()
    for i, nid in enumerate(tracer.name):
        name = names[nid]
        calls[name] += 1
        total[name] += tracer.end[i] - tracer.start[i]
        own[name] += selfs[i]
        p = tracer.parent[i]
        if p >= 0:
            child_of[(names[tracer.name[p]], name)] += 1
    counts = tracer.counts

    def unique(name):
        return len(tracer.keys[name]) / calls[name] if calls[name] else 0.0

    m = {
        "warp.calls": calls[WARP],
        "warp.points_per_call": counts["warp.points"] / calls[WARP] if calls[WARP] else 0.0,
        "warp.self_s": own[WARP],
        "quadrature.k15_panel.calls": calls["quadrature.k15_panel"],
        "quadrature.k15_panel.self_s": own["quadrature.k15_panel"],
        "quadrature.adaptive_quad_log.calls": calls["quadrature.adaptive_quad_log"],
        "quadrature.adaptive_quad_log.panels": counts["quadrature.adaptive_quad_log.panels"],
        "quadrature.adaptive_quad_log.self_s": own["quadrature.adaptive_quad_log"],
        "quadrature.log_between.calls": calls["quadrature.log_between"],
        "quadrature.log_between.self_s": own["quadrature.log_between"],
        "quadrature.log_cumulative.self_s": own["quadrature.log_cumulative"],
        "criterion.transience.s": total["criterion.transience"],
        "criterion.tail_certificate.calls": calls["criterion.tail_certificate"],
        "criterion.tail_certificate.s": total["criterion.tail_certificate"],
        "criterion.tail_certificate.unique_frac": unique("criterion.tail_certificate"),
        "radial.solve_radial.calls": calls["radial.solve_radial"],
        "radial.solve_radial.self_s": own["radial.solve_radial"],
        "radial.solve_radial.unique_frac": unique("radial.solve_radial"),
        "radial.riccati_trace.calls": calls["radial.riccati_trace"],
        "radial.riccati_trace.s": total["radial.riccati_trace"],
        "radial.lemma_bound_check.s": total["radial.lemma_bound_check"],
        "radial.ode_steps": counts["radial.ode_steps"],
        "radial.ode_nfev": counts["radial.ode_nfev"],
        "radial.normalize_profile.resolves":
            child_of[("radial.normalize_profile", "radial.solve_radial")],
        "radial.suggest_rmax.s": total["radial.suggest_rmax"],
        "radial.suggest_rmax.certificates":
            child_of[("radial.suggest_rmax", "criterion.tail_certificate")],
        "spectrum.project_boundary.s": total["spectrum.project_boundary"],
        "spectrum.eigenfunction.calls": counts["spectrum.eigenfunction.calls"],
        "extension.build_extension.calls":
            calls["extension.build_extension"] / extra["extend_commands"]
            if extra["extend_commands"] else 0.0,
        "extension.build_extension.self_s": own["extension.build_extension"],
        "extension.evaluate.calls": calls["extension.evaluate"],
        "extension.evaluate.self_s": own["extension.evaluate"],
        "oracle.annulus_cg.s": total["oracle.annulus_cg"],
        "oracle.cg_iterations": counts["oracle.matvecs"] - calls["oracle.annulus_cg"],
        "oracle.fd_residual.s": total["oracle.fd_residual"],
        "cli.self_s": own["cli"],
        "cli.write.s": own[WRITE],
        "cli.bytes_written": extra["bytes_written"],
        "cli.read.s": own[READ],
        "cli.warnings": extra["warnings"],
        "trace.overhead_s": extra["overhead_s"],
    }
    for kind in ("exp", "power", "powerlog", "unknown"):
        m[f"criterion.march.{kind}.calls"] = calls[f"criterion.march.{kind}"]
        m[f"criterion.march.{kind}.s"] = total[f"criterion.march.{kind}"]
    return m
