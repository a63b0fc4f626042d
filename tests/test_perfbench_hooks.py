"""The benchmark's tracer wraps package functions by their names.

A rename or a deletion of a wrapped binding must fail here, in the test
suite, and not only in a later traced benchmark run.
"""

import importlib.util
from pathlib import Path

from weakmodel import cli, criterion, quadrature, radial
from weakmodel.spectrum import eigen_round_sphere
from weakmodel.warp import Hyperbolic, PowerGrowth

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_instruments_and_restores_the_package():
    tracing = _load_tracing()
    hooks = ((radial, "solve_radial"), (radial, "solve_ivp"),
             (radial, "export_metadata_json"), (cli, "write_json_atomic"))
    originals = [getattr(module, name) for module, name in hooks]
    report = criterion.march_criterion(Hyperbolic(1.0), 2, r_max=10.0)
    tracer = tracing.Tracer()
    patch = tracing.instrument(tracer)
    try:
        assert all(getattr(module, name) is not fn
                   for (module, name), fn in zip(hooks, originals))
        # a stacked solve is one counted ODE solve
        radial.solve_modes(report, [eigen_round_sphere(2, m) for m in (1, 2)], 10.0)
        assert tracer.counts["radial.ode_solves"] == 1
        assert tracer.counts["radial.ode_steps"] > 0
    finally:
        patch.restore()
    assert [getattr(module, name) for module, name in hooks] == originals


def test_tracer_instruments_and_restores_quadrature():
    tracing = _load_tracing()
    hooks = ((quadrature, "kronrod_panel_log"), (quadrature, "adaptive_quad_log"),
             (criterion, "adaptive_quad_log"))
    methods = ("__init__", "log_between")
    originals = [getattr(module, name) for module, name in hooks]
    original_methods = [quadrature.LogCumulative.__dict__[m] for m in methods]
    tracer = tracing.Tracer()
    patch = tracing.instrument(tracer)
    try:
        criterion.march_criterion(PowerGrowth(2.0), 4, tol=1e-6)
        # the adaptive loop runs the wrapped kernel: the criterion alone
        # records K15 panel spans
        assert "quadrature.k15_panel" in {tracer.names[i] for i in tracer.name}
        # tau of an n = 2 extension is the one reader of log_between
        w = Hyperbolic(1.0)
        radial.conformal_modes([eigen_round_sphere(2, 1)],
                               criterion.march_criterion(w, 2, r_max=10.0))
    finally:
        patch.restore()
    spans = {tracer.names[i] for i in tracer.name}
    assert {"quadrature.k15_panel", "quadrature.log_between",
            "quadrature.adaptive_quad_log"} <= spans
    assert [getattr(module, name) for module, name in hooks] == originals
    assert [quadrature.LogCumulative.__dict__[m] for m in methods] == original_methods


def test_classify_and_sweep_keep_their_criterion_spans(tmp_path, monkeypatch):
    # `classify` goes through the wrapped march_criterion and
    # transience_integral bindings, so the per-layer criterion metrics see
    # both passes of every classify and sweep command
    tracing = _load_tracing()
    monkeypatch.setattr(cli, "_SWEEP", [("powergrowth", {"p": 2.0}, 3)])
    for argv, march in (
            (["classify", "--family", "hyperbolic", "--a", "1", "--n", "2",
              "--out", str(tmp_path / "c")], "criterion.march.exp"),
            (["sweep", "--out", str(tmp_path / "s")], "criterion.march.power")):
        tracer = tracing.Tracer()
        patch = tracing.instrument(tracer)
        try:
            assert cli.main(argv) == 0
        finally:
            patch.restore()
        spans = {tracer.names[i] for i in tracer.name}
        assert {s for s in spans if s.startswith("criterion.march.")} == {march}
        assert "criterion.transience" in spans, argv[0]
