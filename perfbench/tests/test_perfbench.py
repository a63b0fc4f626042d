"""Tests of the benchmark's own logic.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (BENCH, ROOT / "src", ROOT / "tests"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_of_nested_spans():
    #   0 root [0, 10]
    #   1   a  [1, 4]
    #   2     a1 [2, 3]
    #   3   b  [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    start = [0.0, 1.0, 2.0, 6.0]
    end = [10.0, 4.0, 5.0, 7.0]
    parent = [-1, 0, 0, 0]
    # children cover [1, 5] and [6, 7]: 5 of the root's 10 seconds
    assert tracing.self_times(start, end, parent)[0] == pytest.approx(5.0)


def test_wrapped_calls_record_parent_links():
    tracer = tracing.Tracer()
    inner = tracer.spans("inner")(lambda x: x + 1)
    outer = tracer.spans("outer")(lambda x: inner(x) * 2)
    assert outer(1) == 4 and inner(0) == 1
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["outer", "inner", "inner"]
    assert list(tracer.parent) == [-1, 0, -1]
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_patch_wraps_every_binding_and_restores():
    def original():
        return "x"
    a = types.SimpleNamespace(f=original)
    b = types.SimpleNamespace(g=original)
    patch = tracing.Patch([a, b])
    patch.function(original, lambda fn: (lambda: fn() + "!"))
    assert a.f() == "x!" and b.g() == "x!"
    patch.restore()
    assert a.f is original and b.g is original


# -- job lists ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload):
    def jobs(seed):
        return [dataclasses.asdict(j) for j in workloads.make_jobs(workload, seed, 30.0)]
    assert jobs(7) == jobs(7)
    assert jobs(7) != jobs(8)


def test_stratified_draws_take_one_value_per_bin():
    import random
    sampler = workloads._Sampler(random.Random(3), 5)
    values = sampler.uniform(0.0, 1.0)
    assert sorted(int(v * 5) for v in values) == [0, 1, 2, 3, 4]


def test_seeds_pair_discrete_choices_differently():
    solves = [j for seed in range(1, 41)
              for j in workloads.make_jobs("extend_exp", seed, 20.0) if j.command == "solve"]
    pairs = {(j.expect["n"], j.expect["M"], j.expect["at_infinity"]) for j in solves}
    assert pairs == {(n, M, inf) for n in (2, 3) for M in (2, 3, 4, 5) for inf in (True, False)}
    classify = [j for seed in range(1, 41)
                for j in workloads.make_jobs("classify_mix", seed, 20.0) if j.command == "classify"]
    for family in ("hyperbolic", "powerlog"):
        assert {j.expect["n"] for j in classify if j.expect["family"] == family} == {2, 3, 4, 5}
    assert {j.tabulated["family"] for j in classify if j.tabulated} == \
        {"hyperbolic", "powergrowth", "powerlog", "euclidean"}


def test_each_run_keeps_the_same_mix_of_costly_cases():
    for seed in range(1, 6):
        jobs = workloads.make_jobs("classify_mix", seed, 20.0)
        closed = [j for j in jobs if j.command == "classify" and not j.tabulated]
        assert sum(j.expect["n"] == 2 for j in closed) * 2 == len(closed)
        solves = [j for j in workloads.make_jobs("extend_exp", seed, 20.0)
                  if j.command == "solve"]
        assert sorted(j.expect["M"] for j in solves) == [2, 3, 4, 5]


def test_classify_mix_has_one_sweep_and_stays_off_thresholds():
    jobs = workloads.make_jobs("classify_mix", 5, 30.0)
    assert sum(j.command == "sweep" for j in jobs) == 1
    for job in jobs:
        params = job.expect.get("params", {})
        if job.expect.get("family") == "powergrowth":
            assert params["p"] != 1.0
        if job.expect.get("family") == "powerlog":
            assert params["c"] != (1.0 if job.expect["n"] == 2 else 0.5)


def test_extend_jobs_pair_each_solve_with_a_verify():
    jobs = workloads.make_jobs("extend_exp", 5, 30.0)
    solves = [j for j in jobs if j.command == "solve"]
    verifies = [j for j in jobs if j.command == "verify"]
    assert [v.solve_id for v in verifies] == [s.id for s in solves]
    assert sum(s.expect["at_infinity"] for s in solves) * 2 == len(solves)


# -- truth -------------------------------------------------------------------

def test_truth_table_agrees_with_acceptance_sweep_grid():
    from test_acceptance import sweep_cases
    from weakmodel.warp import Euclidean, Hyperbolic, PowerGrowth, PowerLog

    cases = sweep_cases()
    assert len(cases) == checks.SWEEP_CASES
    for w, n, expected in cases:
        if isinstance(w, Euclidean):
            family, params = "euclidean", {}
        elif isinstance(w, Hyperbolic):
            family, params = "hyperbolic", {"a": w.a}
        elif isinstance(w, PowerGrowth):
            family, params = "powergrowth", {"p": w.p}
        else:
            assert isinstance(w, PowerLog)
            family, params = "powerlog", {"c": w.c}
        assert workloads.truth(family, params, n)[0] == expected, (w, n)


def test_eigenfunction_at_pole_matches_the_package_basis():
    from weakmodel.spectrum import eigenfunction_eval, multiplicity

    for n, omega in ((2, 0.0), (3, (0.0, 0.0))):
        for m in range(6):
            for k in range(multiplicity(n, m)):
                got = float(eigenfunction_eval(n, m, k, omega))
                assert workloads.eigenfunction_at_pole(n, m, k) == pytest.approx(got, abs=1e-15)


# -- checks and statistics ---------------------------------------------------

def _classify_job(tabulated, march="Convergent", transience="Convergent"):
    return workloads.Job(0, "classify", [], {"march": march, "transience": transience},
                         tabulated={"family": "hyperbolic"} if tabulated else None)


def _write_classify(tmp_path, march, transience="Convergent", value=1.0, bound=1e-9):
    report = {"march": {"verdict": march, "value": value, "error_bound": bound},
              "transience": {"verdict": transience, "value": 1.0, "error_bound": 0.0}}
    (tmp_path / "classify.json").write_text(json.dumps(report))


def test_inconclusive_is_accepted_only_on_tabulated_jobs(tmp_path):
    _write_classify(tmp_path, "Inconclusive")
    assert checks.check(_classify_job(True), 3, str(tmp_path), "") == []
    assert checks.check(_classify_job(False), 3, str(tmp_path), "") != []


def test_wrong_verdict_and_mismatched_exit_code_are_reported(tmp_path):
    _write_classify(tmp_path, "Divergent")
    assert len(checks.check(_classify_job(True), 2, str(tmp_path), "")) == 1
    _write_classify(tmp_path, "Convergent")
    assert len(checks.check(_classify_job(False), 2, str(tmp_path), "")) == 1


def test_value_must_lie_within_its_error_bound(tmp_path):
    job = _classify_job(False)
    job.expect["value"] = workloads.hyperbolic_value(1.0)
    _write_classify(tmp_path, "Convergent", value=job.expect["value"] + 1e-6, bound=1e-8)
    assert checks.check(job, 0, str(tmp_path), "") != []
    _write_classify(tmp_path, "Convergent", value=job.expect["value"] + 1e-9, bound=1e-8)
    assert checks.check(job, 0, str(tmp_path), "") == []


def test_value_allows_for_twelve_digit_rounding(tmp_path):
    job = _classify_job(False)
    exact = workloads.hyperbolic_value(1.201875)      # 0.19246304171637...
    job.expect["value"] = exact
    _write_classify(tmp_path, "Convergent", value=float(f"{exact:.12g}"), bound=1.4e-13)
    assert checks.check(job, 0, str(tmp_path), "") == []


def _extend_job(command, family):
    return workloads.Job(0, command, [], {"family": family, "march": "Convergent"})


def test_known_defects_are_classed_and_anything_else_is_unexpected():
    tail = "error: no r_max below 5.03316e+08 reaches tail delta 1.25e-05"
    doubling = ("error: tail factor delta = 0.11 still >= 0.0001 after 3 doublings "
                "(r_max = 200); supply a larger r_max")
    lemma = [checks.Problem("check:lemma_bound", "check lemma_bound failed")]
    verdict = [checks.Problem("verdict:transience:Divergent",
                              "transience Divergent, truth Convergent")]
    assert checks.defect(_extend_job("solve", "powerlog"), True, tail, []) == "tail_not_tight"
    assert checks.defect(_extend_job("verify", "powergrowth"), True, doubling, []) == \
        "tail_not_tight"
    assert checks.defect(_extend_job("solve", "hyperbolic"), True, tail, []) == \
        checks.UNEXPECTED
    assert checks.defect(_extend_job("solve", "powerlog"), True, "error: other", []) == \
        checks.UNEXPECTED
    assert checks.defect(_extend_job("verify", "hyperbolic"), True, "", lemma) == "lemma_bound"
    quad = ("error: could not certify the value within tol=1e-08 "
            "(last error bound 0.00020479 at r_max=800)")
    assert checks.defect(_extend_job("classify", "powergrowth"), True, quad, []) == \
        "uncertified"
    assert checks.defect(_extend_job("classify", "hyperbolic"), True, quad, []) == \
        checks.UNEXPECTED
    other = lemma + [checks.Problem("check:maximum_principle", "check failed")]
    assert checks.defect(_extend_job("verify", "hyperbolic"), True, "", other) == \
        checks.UNEXPECTED
    assert checks.defect(_classify_job(True), False, "", verdict) == "tabulated_verdict"
    assert checks.defect(_classify_job(False), False, "", verdict) == checks.UNEXPECTED
    march = [checks.Problem("verdict:march:Divergent", "march Divergent, truth Convergent")]
    assert checks.defect(_classify_job(True), False, "", march + verdict) == "tabulated_verdict"
    convergent = [checks.Problem("verdict:march:Convergent", "march Convergent, truth Divergent")]
    assert checks.defect(_classify_job(True), False, "", convergent) == checks.UNEXPECTED
    assert checks.defect(_classify_job(False), False, "", []) is None


def test_a_failed_job_without_output_is_not_wrong(tmp_path):
    assert checks.check(_classify_job(False), 1, str(tmp_path), "") == []
    assert checks.check(_classify_job(False), None, str(tmp_path), "") == []


def test_tail_has_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 31)]
    value, pct = run.tail(samples)
    assert value == 20.0 and pct == pytest.approx(200.0 / 3.0)
    assert sum(s > value for s in samples) == 10
    assert run.tail(samples[:10]) is None


def test_benchmark_json_lists_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(tracing.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
